import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn.corpus import CorpusPlan, SequenceBatch, make_sequences, shuffle_batches
from charrnn.exceptions import ConfigError, HistoryFormatError, OptimizerError, TrainingError
from charrnn.model import ModelConfig, build_model, load_checkpoint
from charrnn.numerics import Rng
from charrnn.objective import RmspropState, rmsprop_step
from charrnn.trainer import (
    HistoryRow,
    TrainPlan,
    clip_global_norm,
    export_history,
    parse_history,
    train,
    train_epoch,
)


def _small_config(fixture_vocab, kind="lstm", **kw):
    defaults = dict(layer_widths=(16,), vocab_size=fixture_vocab.size, batch_size=8,
                    embed_dim=16, dropout=0.0, seq_len=25, init_seed=3)
    defaults.update(kw)
    return ModelConfig(kind=kind, **defaults)


def _batches(fixture_text, fixture_vocab, config, seed=1):
    plan = CorpusPlan(config.seq_len, config.batch_size, seed)
    pairs = make_sequences(fixture_vocab.encode(fixture_text), plan)
    return shuffle_batches(pairs, plan, Rng(seed))


class TestClip:
    def test_large_norm_scaled(self):
        grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
        pre = clip_global_norm(grads, 5.0)
        assert pre == pytest.approx(13.0)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(5.0)

    def test_overflowing_squares_still_clip(self):
        # 1e200 squared overflows; the norm used to read inf and zero every gradient
        grads = {"a": np.array([1e200, 1.0]), "b": np.array([3.0])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pre = clip_global_norm(grads, 5.0)
        assert pre == 1e200
        assert grads["a"][0] == pytest.approx(5.0)
        assert math.hypot(*grads["a"], *grads["b"]) == pytest.approx(5.0)
        assert grads["b"][0] == pytest.approx(1.5e-199)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_gradient_still_refused(self, bad):
        grads = {"a": np.array([bad, 1.0]), "b": np.array([3.0])}
        params = {name: np.zeros_like(g) for name, g in grads.items()}
        with np.errstate(invalid="ignore"):
            clip_global_norm(grads, 5.0)
        with pytest.raises(OptimizerError, match="a"):
            rmsprop_step(params, grads, RmspropState.for_params(params))

    def test_small_norm_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        pre = clip_global_norm(grads, 5.0)
        assert pre == pytest.approx(0.5)
        assert np.array_equal(grads["a"], [0.3, 0.4])


class TestTrainEpoch:
    def test_zero_alpha_is_fixed_point(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab)
        model = build_model(config, fixture_vocab)
        batches = _batches(fixture_text, fixture_vocab, config)
        before = {k: v.copy() for k, v in model.params().items()}
        opt = RmspropState.for_params(model.params(), alpha=0.0)
        plan = TrainPlan(epochs=1, lr=1e-3)
        loss1, _ = train_epoch(model, batches, plan, opt, Rng(5))
        loss2, _ = train_epoch(model, batches, plan, opt, Rng(5))
        assert all(np.array_equal(before[k], model.params()[k]) for k in before)
        assert loss1 == loss2

    def test_fresh_init_loss_near_ln_v(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab)
        model = build_model(config, fixture_vocab)
        batches = _batches(fixture_text, fixture_vocab, config)
        opt = RmspropState.for_params(model.params(), alpha=1e-3)
        loss, _ = train_epoch(model, batches, TrainPlan(), opt, Rng(0))
        ln_v = math.log(fixture_vocab.size)
        assert 0.85 * ln_v <= loss <= 1.15 * ln_v

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_loss_aborts_with_batch_index(self, fixture_vocab):
        config = _small_config(fixture_vocab)
        model = build_model(config, fixture_vocab)
        model.params()["dense.w"][0, 0] = np.inf
        bad = SequenceBatch(
            np.zeros((8, 25), dtype=np.int64), np.zeros((8, 25), dtype=np.int64)
        )
        opt = RmspropState.for_params(model.params())
        with pytest.raises(TrainingError, match="batch 0"):
            train_epoch(model, [bad], TrainPlan(), opt, Rng(0))

    def test_empty_batches_rejected(self, fixture_vocab):
        model = build_model(_small_config(fixture_vocab), fixture_vocab)
        opt = RmspropState.for_params(model.params())
        with pytest.raises(TrainingError):
            train_epoch(model, [], TrainPlan(), opt, Rng(0))


class TestTrain:
    def test_history_rows_and_outputs(self, fixture_text, fixture_vocab, tmp_path):
        config = _small_config(fixture_vocab)
        ckpt = tmp_path / "m.ckpt"
        csv = tmp_path / "h.csv"
        _, history = train(fixture_text, fixture_vocab, config, TrainPlan(epochs=3, lr=1e-3),
                           ckpt_path=ckpt, history_path=csv)
        assert [row.epoch for row in history] == [1, 2, 3]
        assert ckpt.exists() and csv.exists()
        assert load_checkpoint(ckpt).config == config
        assert parse_history(csv) == history

    def test_monotone_trend_over_ten_epochs(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, layer_widths=(32,), embed_dim=32)
        _, history = train(fixture_text, fixture_vocab, config, TrainPlan(epochs=10, lr=2e-3))
        assert history[9].mean_loss < history[0].mean_loss

    def test_vocab_size_mismatch(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, vocab_size=fixture_vocab.size + 1)
        with pytest.raises(ConfigError):
            train(fixture_text, fixture_vocab, config, TrainPlan(epochs=1))

    def test_progress_callback(self, fixture_text, fixture_vocab):
        seen = []
        config = _small_config(fixture_vocab)
        train(fixture_text, fixture_vocab, config, TrainPlan(epochs=2), progress=seen.append)
        assert [row.epoch for row in seen] == [1, 2]

    def test_loss_determinism_across_runs(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, dropout=0.3)
        plan = TrainPlan(epochs=2, lr=1e-3, shuffle_seed=4, dropout_seed=9)
        _, h1 = train(fixture_text, fixture_vocab, config, plan)
        _, h2 = train(fixture_text, fixture_vocab, config, plan)
        assert [r.mean_loss for r in h1] == [r.mean_loss for r in h2]

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_preset_configs_stay_finite_ten_epochs(self, fixture_text, fixture_vocab, kind):
        from charrnn.model import preset_widths

        for preset in ("uni", "bi", "quad"):
            config = _small_config(
                fixture_vocab, kind=kind, layer_widths=preset_widths(preset, 1 / 32),
                batch_size=16, seq_len=50, embed_dim=32, dropout=0.4,
            )
            _, history = train(fixture_text, fixture_vocab, config, TrainPlan(epochs=10, lr=1e-3))
            assert all(math.isfinite(r.mean_loss) for r in history), (kind, preset)


class TestPlanValidation:
    def test_bad_epochs(self):
        with pytest.raises(ConfigError):
            TrainPlan(epochs=0)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainPlan(lr=0.0)

    def test_bad_clip(self):
        with pytest.raises(ConfigError):
            TrainPlan(clip_norm=-1.0)

    @pytest.mark.parametrize("field", ["lr", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            TrainPlan(**{field: value})


class TestHistoryCsv:
    def test_single_row_two_lines(self, tmp_path):
        p = tmp_path / "h.csv"
        export_history([HistoryRow(1, 2.345678901234, 10.5)], p)
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "epoch,mean_loss,ms_per_step"

    def test_losses_keep_at_least_nine_significant_digits(self, tmp_path):
        p = tmp_path / "h.csv"
        export_history([HistoryRow(1, 1.0 / 3.0, 0.1)], p)
        loss_field = p.read_text().splitlines()[1].split(",")[1]
        digits = loss_field.replace(".", "").lstrip("0")
        assert len(digits) >= 9

    def test_roundtrip_exact(self, tmp_path):
        rows = [HistoryRow(i, math.pi * i, math.e * i) for i in range(1, 6)]
        p = tmp_path / "h.csv"
        export_history(rows, p)
        assert parse_history(p) == rows

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(TrainingError):
            export_history([], tmp_path / "h.csv")

    def test_non_increasing_epochs_rejected(self, tmp_path):
        rows = [HistoryRow(2, 1.0, 1.0), HistoryRow(2, 0.9, 1.0)]
        with pytest.raises(TrainingError):
            export_history(rows, tmp_path / "h.csv")

    def test_parse_bad_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("nope,nope\n1,2\n")
        with pytest.raises(HistoryFormatError, match="line 1"):
            parse_history(p)

    def test_parse_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("epoch,mean_loss,ms_per_step\n1,0.5,2.0\nx,y,z\n")
        with pytest.raises(HistoryFormatError, match="line 3"):
            parse_history(p)

    @pytest.mark.parametrize("body, match", [
        ("1,0.5,2.0\n2," + "9" * 131_073 + ",2.0\n", "line 3: field larger than field limit"),
        ("1,0.5,2.0\n2,0.4,2.0,7\n", "line 3: expected 3 fields, got 4"),
        ("1,0.5,2.0\n3,0.4,2.0\n3,0.3,2.0\n", "line 4: epoch 3 does not follow epoch 3"),
        ("0,0.5,2.0\n", "line 2: epoch 0 does not follow epoch 0"),
    ], ids=["long_field", "fourth_field", "repeated_epoch", "epoch_0"])
    def test_parse_rejects_what_export_never_writes(self, tmp_path, body, match):
        p = tmp_path / "h.csv"
        p.write_text("epoch,mean_loss,ms_per_step\n" + body)
        with pytest.raises(HistoryFormatError, match=match):
            parse_history(p)

    @given(st.one_of(st.text(), st.text("0123456789.,-+e\n\r\"naif ")
                     .map(lambda body: "epoch,mean_loss,ms_per_step\n" + body)))
    @settings(max_examples=300, deadline=None)
    def test_parse_arbitrary_text_raises_only_history_format_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        p.write_text(text, encoding="utf-8", newline="")
        try:
            rows = parse_history(p)
        except HistoryFormatError:
            return
        assert rows and all(b.epoch > a.epoch >= 1 for a, b in zip(rows, rows[1:]))

    def test_export_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "missing_dir" / "h.csv"
        with pytest.raises(OSError):
            export_history([HistoryRow(1, 1.0, 1.0)], target)
        assert not target.exists()

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charrnn.corpus import CorpusPlan, SequenceBatch, make_sequences, shuffle_batches
from charrnn.exceptions import (ConfigError, HistoryFormatError, OptimizerError, TrainingError,
                                VocabularyError)
from charrnn.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
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


def _train(fixture_text, fixture_vocab, config, plan):
    """The trained model and every row train yields."""
    model = build_model(config, fixture_vocab)
    return model, list(train(model, fixture_text, plan))


class TestTrain:
    def test_history_rows_and_outputs(self, fixture_text, fixture_vocab, tmp_path):
        config = _small_config(fixture_vocab)
        ckpt = tmp_path / "m.ckpt"
        csv = tmp_path / "h.csv"
        model, history = _train(fixture_text, fixture_vocab, config, TrainPlan(epochs=3, lr=1e-3))
        save_checkpoint(model, ckpt)
        export_history(history, csv)
        assert [row.epoch for row in history] == [1, 2, 3]
        assert ckpt.exists() and csv.exists()
        assert load_checkpoint(ckpt).config == config
        assert parse_history(csv) == history

    def test_monotone_trend_over_ten_epochs(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, layer_widths=(32,), embed_dim=32)
        _, history = _train(fixture_text, fixture_vocab, config, TrainPlan(epochs=10, lr=2e-3))
        assert history[9].mean_loss < history[0].mean_loss

    def test_vocab_size_mismatch(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, vocab_size=fixture_vocab.size + 1)
        with pytest.raises(ConfigError):
            _train(fixture_text, fixture_vocab, config, TrainPlan(epochs=1))

    def test_progress_callback(self, fixture_text, fixture_vocab):
        seen = []
        model = build_model(_small_config(fixture_vocab), fixture_vocab)
        for row in train(model, fixture_text, TrainPlan(epochs=2)):
            seen.append(row)
        assert [row.epoch for row in seen] == [1, 2]

    def test_nothing_runs_until_iterated(self, fixture_text, fixture_vocab):
        model = build_model(_small_config(fixture_vocab), fixture_vocab)
        before = {k: v.copy() for k, v in model.params().items()}
        rows = train(model, fixture_text + "\u00ff", TrainPlan(epochs=2))  # not encodable
        assert all(np.array_equal(before[k], model.params()[k]) for k in before)
        with pytest.raises(VocabularyError):
            next(rows)

    def test_loss_determinism_across_runs(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, dropout=0.3)
        plan = TrainPlan(epochs=2, lr=1e-3, shuffle_seed=4, dropout_seed=9)
        _, h1 = _train(fixture_text, fixture_vocab, config, plan)
        _, h2 = _train(fixture_text, fixture_vocab, config, plan)
        assert [r.mean_loss for r in h1] == [r.mean_loss for r in h2]

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_preset_configs_stay_finite_ten_epochs(self, fixture_text, fixture_vocab, kind):
        from charrnn.model import preset_widths

        for preset in ("uni", "bi", "quad"):
            config = _small_config(
                fixture_vocab, kind=kind, layer_widths=preset_widths(preset, 1 / 32),
                batch_size=16, seq_len=50, embed_dim=32, dropout=0.4,
            )
            _, history = _train(fixture_text, fixture_vocab, config,
                                TrainPlan(epochs=10, lr=1e-3))
            assert all(math.isfinite(r.mean_loss) for r in history), (kind, preset)

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_stopping_after_k_epochs_is_a_k_epoch_plan(self, fixture_text, fixture_vocab, kind):
        # breaking out of the loop leaves the parameters and rows, bit for
        # bit, of a plan that asked for k epochs (ms_per_step aside: wall time)
        config = _small_config(fixture_vocab, kind=kind, dropout=0.3)
        k = 2
        stopped = build_model(config, fixture_vocab)
        rows = []
        for row in train(stopped, fixture_text, TrainPlan(epochs=5, shuffle_seed=4,
                                                          dropout_seed=9)):
            rows.append(row)
            if row.epoch == k:
                break
        planned, planned_rows = _train(fixture_text, fixture_vocab, config,
                                       TrainPlan(epochs=k, shuffle_seed=4, dropout_seed=9))
        assert ([(r.epoch, r.mean_loss.hex()) for r in rows]
                == [(r.epoch, r.mean_loss.hex()) for r in planned_rows])
        params = stopped.params()
        assert all(params[name].tobytes() == p.tobytes()
                   for name, p in planned.params().items())


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
        ("1,0.5,2.0\n2," + "9" * 131_073 + ",2.0\n",
         r"line 3: mean_loss '9+\.\.\.9+' is not written as 'inf'"),
        ("1,0.5,2.0\n2,0.4,2.0,7\n", "line 3: expected 3 fields, got 4"),
        ("1,0.5,2.0\n3,0.4,2.0\n3,0.3,2.0\n", "line 4: epoch 3 does not follow epoch 3"),
        ("0,0.5,2.0\n", "line 2: epoch 0 does not follow epoch 0"),
        ("1,0.5,2.0\n2,nan,-5\n", "line 3: ms_per_step '-5' is not written as '-5.0'"),
        ("1,0.5,2.0\n2, 1.50,1e3\n", "line 3: mean_loss ' 1.50' is not written as '1.5'"),
        ("1,0.5,2.0\n03,inf,0\n", "line 3: epoch '03' is not written as '3'"),
        ("1,0.5,2.0\n2,nan,2.0\n", "line 3: mean_loss nan is not finite"),
        ("1,0.5,2.0\n2,-inf,2.0\n", "line 3: mean_loss -inf is not finite"),
        ("1,0.5,2.0\n2,0.4,inf\n", "line 3: ms_per_step inf is not finite and >= 0"),
        ("1,0.5,2.0\n2,0.4,-1.0\n", "line 3: ms_per_step -1.0 is not finite and >= 0"),
        ("1,0.5,2.0\n\n2,0.4,2.0\n", "line 3: expected 3 fields, got 1"),
        ("1,0.5,2.0\r\n", r"line 2: ms_per_step '2\.0\\r' is not written as '2\.0'"),
        ("1,0.5,2.0", "line 2: no newline at the end of the file"),
    ], ids=["long_field", "fourth_field", "repeated_epoch", "epoch_0", "nan_loss_short_ms",
            "spaced_loss_exponent_ms", "zero_padded_epoch_inf_loss", "nan_loss", "minus_inf_loss",
            "inf_ms", "negative_ms", "blank_line", "crlf", "no_final_newline"])
    def test_parse_rejects_what_export_never_writes(self, tmp_path, body, match):
        p = tmp_path / "h.csv"
        p.write_text("epoch,mean_loss,ms_per_step\n" + body)
        with pytest.raises(HistoryFormatError, match=match):
            parse_history(p)

    @given(st.one_of(st.text(), st.text("0123456789.,-+e\n\r\"naif ")
                     .map(lambda body: "epoch,mean_loss,ms_per_step\n" + body)))
    @settings(max_examples=300, deadline=None)
    @example(text="epoch,mean_loss,ms_per_step\n1,0.5,2.0\n3,1e-05,0.0\n")
    def test_parse_arbitrary_text_raises_only_history_format_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        p.write_text(text, encoding="utf-8", newline="")
        try:
            rows = parse_history(p)
        except HistoryFormatError:
            return
        assert rows and all(b.epoch > a.epoch >= 1 for a, b in zip(rows, rows[1:]))
        # what parses is what export_history writes: each row re-exports to its own line
        again = tmp_path_factory.getbasetemp() / "reexported.csv"
        export_history(rows, again)
        assert again.read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("row", [
        HistoryRow(1, math.nan, 1.0), HistoryRow(1, math.inf, 1.0), HistoryRow(1, 0.5, math.inf),
        HistoryRow(1, 0.5, math.nan), HistoryRow(1, 0.5, -1.0),
    ], ids=["nan_loss", "inf_loss", "inf_ms", "nan_ms", "negative_ms"])
    def test_export_refuses_a_row_parse_would_refuse(self, tmp_path, row):
        target = tmp_path / "h.csv"
        with pytest.raises(TrainingError, match="is not finite"):
            export_history([row], target)
        assert not target.exists()

    def test_export_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "missing_dir" / "h.csv"
        with pytest.raises(OSError):
            export_history([HistoryRow(1, 1.0, 1.0)], target)
        assert not target.exists()

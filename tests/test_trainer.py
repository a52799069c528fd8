import hashlib
import math
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charrnn.corpus import CorpusPlan, make_sequences, shuffle_batches
from charrnn.exceptions import (ConfigError, HistoryFormatError, OptimizerError, TrainingError,
                                VocabularyError)
from charrnn.model import KINDS, ModelConfig, build_model, load_checkpoint, save_checkpoint
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
from tests.conftest import goldens_for_core, rerun_forced


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
    def test_epoch_repeats_from_a_restored_state(self, fixture_text, fixture_vocab):
        config = _small_config(fixture_vocab, dropout=0.3)
        model = build_model(config, fixture_vocab)
        batches = _batches(fixture_text, fixture_vocab, config)
        before = {k: v.copy() for k, v in model.params().items()}
        opt = RmspropState.for_params(model.params(), alpha=1e-3)
        plan = TrainPlan(epochs=1, lr=1e-3)
        ends = []
        for _ in range(2):
            for k, v in model.params().items():
                v[...] = before[k]
                opt.v[k][...] = 0.0
            loss, _ = train_epoch(model, batches, plan, opt, Rng(5))
            ends.append((loss, {k: v.copy() for k, v in model.params().items()}))
        (loss1, after1), (loss2, after2) = ends
        assert loss1 == loss2
        assert all(np.array_equal(after1[k], after2[k]) for k in before)
        assert not all(np.array_equal(before[k], after1[k]) for k in before)

    def test_only_the_optimizer_step_writes_params(self, fixture_text, fixture_vocab,
                                                   monkeypatch):
        # with the update a no-op, forward, dropout, backward and clipping must
        # leave the weights as they were, on every run
        monkeypatch.setattr("charrnn.trainer.rmsprop_step", lambda params, grads, state: None)
        config = _small_config(fixture_vocab, dropout=0.3)
        model = build_model(config, fixture_vocab)
        batches = _batches(fixture_text, fixture_vocab, config)
        before = {k: v.copy() for k, v in model.params().items()}
        opt = RmspropState.for_params(model.params(), alpha=1e-3)
        plan = TrainPlan(epochs=1, lr=1e-3)
        loss1, _ = train_epoch(model, batches, plan, opt, Rng(5))
        loss2, _ = train_epoch(model, batches, plan, opt, Rng(5))
        assert all(np.array_equal(before[k], model.params()[k]) for k in before)
        assert loss1 == loss2

    @pytest.mark.parametrize("alpha, lr", [(1e-3, 0.5), (0.0, 1e-3), (2e-3, 1e-3)])
    def test_plan_lr_must_be_the_optimizers_alpha(self, fixture_text, fixture_vocab, alpha, lr):
        # the steps update at opt.alpha, so a plan with another lr would go unread
        config = _small_config(fixture_vocab)
        model = build_model(config, fixture_vocab)
        batches = _batches(fixture_text, fixture_vocab, config)
        before = {k: v.copy() for k, v in model.params().items()}
        opt = RmspropState.for_params(model.params(), alpha=alpha)
        with pytest.raises(ConfigError, match=re.escape(f"lr {lr!r} is not the optimizer's "
                                                        f"alpha {alpha!r}")):
            train_epoch(model, batches, TrainPlan(epochs=1, lr=lr), opt, Rng(5))
        assert all(np.array_equal(before[k], model.params()[k]) for k in before)
        assert not any(v.any() for v in opt.v.values())

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
        bad = np.zeros((8, 26), dtype=np.int64)
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


# SHA-256 of the checkpoint a two-epoch train() writes and the repr of each
# epoch's mean loss, per kind (see test_trained_model_digest), keyed by the
# OpenBLAS kernel set they were made on. The sets other than SkylakeX were
# made from the same code under a forced OPENBLAS_CORETYPE. The untrained
# goldens (TestGoldenForward, the sampled-text digests) see no training
# arithmetic; a change to the BPTT, the loss gradient, clipping, RMSprop,
# dropout or the shuffle that moves a bit changes an entry here.
_TRAINED_LSTM = ("0627d5a9f1085d062b6f782057d8040d07e7b113554006d3a0c90fa4b0f995b4",
                 ["3.8027926371692757", "3.5715904861699297"])
_TRAINED_GRU = ("7386cd3d2262689286a4dad309fecd1f6dcf9119a8b725601e073e58d15f7147",
                ["3.813539916801941", "3.5407848176044303"])
_TRAINED_BIRNN = "02d0e165b9b7b8e50a9d67325de49801b1b442ce412d16c57836bf14d12f16be"
_GOLDEN_TRAINED = {
    core: {"lstm": _TRAINED_LSTM, "gru": _TRAINED_GRU,
           "birnn": (_TRAINED_BIRNN, [first_birnn_loss, "3.43541363996877"])}
    for core, first_birnn_loss in (("SkylakeX", "3.667121232159069"),
                                   ("Haswell", "3.667121232159069"),
                                   ("Sandybridge", "3.6671212321590687"),
                                   ("Katmai", "3.667121232159069"))
}


class TestTrainedDigest:
    @pytest.mark.parametrize("kind", KINDS)
    def test_trained_model_digest(self, tmp_path, fixture_text, fixture_vocab, kind):
        # L = 30 is one full BPTT block and one partial one
        config = ModelConfig(kind=kind, layer_widths=(24, 16), vocab_size=fixture_vocab.size,
                             batch_size=8, embed_dim=16, dropout=0.3, seq_len=30,
                             init_seed=17)
        model, rows = _train(fixture_text, fixture_vocab, config,
                             TrainPlan(epochs=2, shuffle_seed=5, dropout_seed=7))
        save_checkpoint(model, tmp_path / "m.ckpt")
        got = (hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest(),
               [repr(row.mean_loss) for row in rows])
        assert got == goldens_for_core(_GOLDEN_TRAINED, "trained-model digests")[kind]

    def test_digests_hold_under_a_forced_haswell_kernel(self):
        rerun_forced("tests/test_trainer.py::TestTrainedDigest::test_trained_model_digest", 3,
                     "openblas_corename()", "Haswell", OPENBLAS_CORETYPE="Haswell")


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
        # int and float read these, but export_history never writes them
        ("1_000,0.5,2.0\n", "line 2: epoch '1_000' is not written as '1000'"),
        ("1,0.5,2.0\n+3,0.4,2.0\n", "line 3: epoch '\\+3' is not written as '3'"),
        ("1,0.5,2.0\n\u0663,0.4,2.0\n", "line 3: epoch '\u0663' is not written as '3'"),
        ("1,\uff11.\uff15,2.0\n", "line 2: mean_loss '\uff11.\uff15' is not written as '1.5'"),
        ("1,0.5,infinity\n", "line 2: ms_per_step 'infinity' is not written as 'inf'"),
        ("1,1E3,2.0\n", "line 2: mean_loss '1E3' is not written as '1000.0'"),
    ], ids=["long_field", "fourth_field", "repeated_epoch", "epoch_0", "nan_loss_short_ms",
            "spaced_loss_exponent_ms", "zero_padded_epoch_inf_loss", "nan_loss", "minus_inf_loss",
            "inf_ms", "negative_ms", "blank_line", "crlf", "no_final_newline", "underscore_epoch",
            "plus_epoch", "arabic_indic_epoch", "fullwidth_loss", "infinity_ms", "capital_e_loss"])
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

    def test_numpy_scalars_export_as_the_python_row(self, tmp_path):
        # numpy 2's repr of a scalar names its type (np.float64(0.5)), which
        # parse_history refuses; export spells the Python number it equals
        plain, scalars = tmp_path / "plain.csv", tmp_path / "scalars.csv"
        export_history([HistoryRow(1, 0.5, 1.25)], plain)
        export_history([HistoryRow(np.int64(1), np.float64(0.5), np.float32(1.25))], scalars)
        assert scalars.read_bytes() == plain.read_bytes()
        rows = parse_history(scalars)
        assert rows == [HistoryRow(1, 0.5, 1.25)]
        assert [type(v) for v in vars(rows[0]).values()] == [int, float, float]

    @pytest.mark.parametrize("row, match", [
        (HistoryRow(1.5, 0.5, 1.0), r"epoch=1\.5, .* would read back as .*\(epoch=1, "),
        (HistoryRow(np.float64(1.5), 0.5, 1.0),
         r"epoch=np\.float64\(1\.5\), .* would read back as .*\(epoch=1, "),
        (HistoryRow(2, 0.5, 2**53 + 1),
         r"ms_per_step=9007199254740993\) would read back as "
         r".*ms_per_step=9007199254740992\.0\)$"),
    ], ids=["fractional_epoch", "numpy_fractional_epoch", "int_ms_past_float"])
    def test_export_refuses_a_field_its_parse_would_change(self, tmp_path, row, match):
        target = tmp_path / "h.csv"
        target.write_bytes(b"old contents\n")
        with pytest.raises(TrainingError, match=match):
            export_history([HistoryRow(1, 0.5, 1.0), row], target)
        assert target.read_bytes() == b"old contents\n"
        assert [q.name for q in tmp_path.iterdir()] == ["h.csv"]

    @pytest.mark.parametrize("given", ["old.csv/", "old.csv/.", "hh/", "hh/.", ""])
    def test_export_refuses_what_open_would(self, tmp_path, monkeypatch, given):
        # Path("hh/") is Path("hh"): judged so, the export created a file hh
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.csv").write_bytes(b"old contents")
        with pytest.raises(OSError) as plain:
            open(given, "wb")
        with pytest.raises(OSError) as refused:
            export_history([HistoryRow(1, 1.0, 1.0)], given)
        assert str(refused.value) == str(plain.value)
        assert [q.name for q in tmp_path.iterdir()] == ["old.csv"]
        assert (tmp_path / "old.csv").read_bytes() == b"old contents"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_export_to_a_fifo_is_refused(self, tmp_path):
        # the rename would replace the FIFO with a regular file
        fifo = tmp_path / "h.fifo"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match=f"^{re.escape(str(fifo))} is not a regular file$"):
            export_history([HistoryRow(1, 1.0, 1.0)], fifo)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [q.name for q in tmp_path.iterdir()] == ["h.fifo"]

    def test_export_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "missing_dir" / "h.csv"
        with pytest.raises(OSError):
            export_history([HistoryRow(1, 1.0, 1.0)], target)
        assert not target.exists()

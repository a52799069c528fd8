import errno
import hashlib
import json
import os
import re
import stat
import struct
import tracemalloc
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from charrnn.corpus import CorpusPlan, Vocabulary, build_vocab, make_sequences, shuffle_batches
from charrnn.exceptions import (
    CharRnnError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    ShapeError,
    VocabularyError,
)
from charrnn import model as model_module
from charrnn.generator import GenerationPlan, generate
from charrnn.model import (
    KINDS,
    MAX_STEP_FLOATS,
    ModelConfig,
    build_model,
    expected_param_count,
    load_checkpoint,
    preset_widths,
    rebuild_for_generation,
    save_checkpoint,
)
from charrnn.numerics import Rng
from charrnn.objective import RmspropState, ce_loss
from charrnn.trainer import TrainPlan, train_epoch
from tests.checkpoint_reference import param_shapes, reference_load
from tests.conftest import goldens_for_core, rerun_forced

VOCAB5 = Vocabulary(tuple("abcde"))


def symlink_or_skip(path, target) -> None:
    """Make path a symlink to target, or skip where symlinks cannot be made."""
    try:
        os.symlink(target, path)
    except (AttributeError, NotImplementedError, OSError) as exc:
        pytest.skip(f"no symlinks here: {exc}")


def write_overflowing_dims_checkpoint(path) -> None:
    """A checkpoint whose first parameter claims dims (2^32-1, 2^32-1, 3).

    Their product wraps a 64-bit integer to a negative count. The CRC is
    recomputed, so only the structure check can reject the file.
    """
    save_checkpoint(build_model(_config(), VOCAB5), path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    first = 12 + header_len  # rank 2 and two dims of embedding.table follow
    dims = struct.pack("<4I", 3, 0xFFFFFFFF, 0xFFFFFFFF, 3)
    payload = blob[8:first] + dims + blob[first + 12 : -4]
    path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))


def write_non_finite_checkpoint(path, value) -> None:
    """A checkpoint with a valid CRC whose dense.b[0] is value (NaN or inf).

    save_checkpoint refuses such a model, so a finite one is saved and the
    float32 value written over its first dense.b entry, as the cast would.
    """
    save_checkpoint(build_model(_config(), VOCAB5), path)
    blob = bytearray(path.read_bytes())
    first = _block_offset(bytes(blob), "dense.b") + 8  # rank 1, one dim
    blob[first : first + 4] = np.float32(value).astype("<f4").tobytes()
    path.write_bytes(_recrc(bytes(blob)))


def _config(kind="lstm", widths=(4,), v=5, **kw):
    defaults = dict(vocab_size=v, batch_size=2, embed_dim=3, dropout=0.0,
                    seq_len=6, init_seed=9)
    defaults.update(kw)
    return ModelConfig(kind=kind, layer_widths=widths, **defaults)


class TestPresets:
    def test_table_widths(self):
        assert preset_widths("uni") == (1024,)
        assert preset_widths("bi") == (512, 256)
        assert preset_widths("quad") == (512, 256, 128, 64)

    def test_unknown_preset_lists_valid(self):
        with pytest.raises(ConfigError, match="bi, quad, uni"):
            preset_widths("mega")

    def test_scale(self):
        assert preset_widths("uni", 1 / 16) == (64,)
        assert preset_widths("quad", 1 / 16) == (32, 16, 8, 4)
        assert preset_widths("quad", 1 / 1024) == (1, 1, 1, 1)

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            preset_widths("uni", 0.0)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 1e306])
    def test_non_finite_scale(self, scale):
        # 1e306 is finite, but 1024 * 1e306 is not
        with pytest.raises(ConfigError):
            preset_widths("uni", scale)


class TestConfig:
    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            _config(kind="transformer")

    def test_bad_widths(self):
        for widths in ((), (4, 0), (4.7,), (4.0, 3), (True,)):
            with pytest.raises(ConfigError):
                _config(widths=widths)

    @pytest.mark.parametrize("name", ["v", "batch_size", "embed_dim", "seq_len", "init_seed"])
    def test_non_integer_sizes(self, name):
        # a header is JSON, where 5.0 and true parse; neither is a size
        for value in (5.0, True):
            with pytest.raises(ConfigError):
                _config(**{name: value})

    def test_bad_dropout(self):
        with pytest.raises(ConfigError):
            _config(dropout=1.0)

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_non_bool_unit_forget_bias(self, value):
        # "no" is truthy: unchecked, it would start the forget gates at 1.0
        with pytest.raises(ConfigError) as info:
            _config(unit_forget_bias=value)
        assert str(info.value) == f"unit_forget_bias must be a bool, got {value!r}"

    def test_vocab_size_checked_at_build(self):
        with pytest.raises(ConfigError):
            build_model(_config(v=7), VOCAB5)


def _hand_count(kind, widths, v, e):
    total = v * e
    d = e
    for h in widths:
        per_cell = 4 * h * (d + h + 1)
        if kind == "gru":
            total += 3 * h * (d + h + 1)
            d = h
        elif kind == "lstm":
            total += per_cell
            d = h
        else:
            total += 2 * per_cell
            d = 2 * h
    return total + d * v + v


class TestParamCounts:
    def test_worked_example(self):
        # V=3, E=2, H=2 lstm: embedding 6, cell (2*8 + 2*8 + 8) = 40, dense 9
        cfg = _config(widths=(2,), v=3, embed_dim=2)
        model = build_model(cfg, Vocabulary(tuple("abc")))
        assert sum(p.size for p in model.params().values()) == 55
        assert expected_param_count(cfg) == 55

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("preset", ["uni", "bi", "quad"])
    def test_preset_combinations(self, kind, preset):
        widths = preset_widths(preset, 1 / 16)
        cfg = _config(kind=kind, widths=widths, v=5, embed_dim=8)
        model = build_model(cfg, VOCAB5)
        built = sum(p.size for p in model.params().values())
        assert built == _hand_count(kind, widths, 5, 8)
        assert expected_param_count(cfg) == built

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("preset", ["uni", "bi", "quad"])
    def test_full_width_formula(self, kind, preset):
        # full preset widths, formula-only (no tensors allocated)
        widths = preset_widths(preset)
        cfg = _config(kind=kind, widths=widths, v=51, embed_dim=256)
        assert expected_param_count(cfg) == _hand_count(kind, widths, 51, 256)

    def test_count_exact_past_int64(self):
        # w_h is [10^15, 4 * 10^15]; a fixed-width product of its dims wraps
        cfg = _config(widths=(10**15,), v=2, embed_dim=1)
        assert expected_param_count(cfg) == _hand_count("lstm", (10**15,), 2, 1)

    @pytest.mark.parametrize("kw", [dict(embed_dim=10**12), dict(widths=(10**8,))],
                             ids=["embed_dim", "width"])
    def test_oversized_model_rejected_before_allocation(self, kw):
        cfg = _config(**kw)
        assert expected_param_count(cfg) > MAX_STEP_FLOATS
        with pytest.raises(ConfigError, match="parameters"):
            build_model(cfg, VOCAB5)

    def test_canonical_order(self):
        cfg = _config(kind="birnn", widths=(3, 2))
        names = list(param_shapes(cfg))
        assert names[0] == "embedding.table"
        assert names[1:7] == [
            "rnn0.fwd.w_x", "rnn0.fwd.w_h", "rnn0.fwd.b",
            "rnn0.bwd.w_x", "rnn0.bwd.w_h", "rnn0.bwd.b",
        ]
        assert names[-2:] == ["dense.w", "dense.b"]
        model = build_model(cfg, VOCAB5)
        assert list(model.params()) == names

    def test_forget_gate_bias(self):
        model = build_model(_config(widths=(4,)), VOCAB5)
        b = model.params()["rnn0.b"]
        assert np.all(b[4:8] == 1.0) and np.all(b[:4] == 0.0)
        flat = build_model(_config(widths=(4,), unit_forget_bias=False), VOCAB5)
        assert np.all(flat.params()["rnn0.b"] == 0.0)

    def test_forget_gate_bias_follows_cell_class(self):
        # the rule keys on LstmCell, so it covers both birnn directions and
        # leaves the GRU's reset-gate slice at zero
        birnn = build_model(_config(kind="birnn", widths=(4, 3)), VOCAB5).params()
        for name in ("rnn0.fwd.b", "rnn0.bwd.b", "rnn1.fwd.b", "rnn1.bwd.b"):
            h = birnn[name].size // 4
            assert np.all(birnn[name][h : 2 * h] == 1.0), name
            assert np.count_nonzero(birnn[name]) == h, name
        gru = build_model(_config(kind="gru", widths=(4, 3)), VOCAB5).params()
        assert np.all(gru["rnn0.b"] == 0.0) and np.all(gru["rnn1.b"] == 0.0)
        assert np.all(gru["dense.b"] == 0.0)


# tracemalloc also counts Python objects and arrays of a few values (states
# of one step, per-block sums) that expected_step_floats leaves out
_STEP_SLACK = 64 * 1024


class TestStepCap:
    @pytest.mark.parametrize("kind, expected", [("lstm", 399), ("gru", 339), ("birnn", 623)])
    def test_worked_example(self, kind, expected):
        # B=2, L=3, H=2, V=5, E=3. lstm, held: gates 2*3*8 = 48, h and c at
        # the one block start 2*1*2*2 = 8, dropout output 2*3*2 = 12 and its
        # mask ceil(12/8) = 2, the loss gradient 2*3*5 = 30, one gradient per
        # parameter 15 + 48 + 15 = 78: 178. Transient, the layer's backward:
        # output gradient 12, d table terms 5*(8 + 3*2 + 3) = 85, block
        # scratch: da 3*2*8 = 48, replay 2*4*2*2 = 32 and the id sums with
        # their one-hot 5*8 + ceil(5*3*2/8) = 44, above dW_h's 2*8 = 16: 221,
        # above the loss's 60 and the update's 24. gru, held: gates 2*3*6 =
        # 36 and h at the one block start 1*1*2*2 = 4 (a tape of every h
        # would hold 2*4*2 = 16), 12 + 2 + 30 and 15 + 36 + 15 = 66: 150.
        # Transient: 12, 5*(6 + 3*2 + 3) = 75, da 3*2*6 = 36, replay 32 and
        # 5*6 + ceil(5*3*2/8) = 34: 189
        cfg = _config(kind=kind, widths=(2,), seq_len=3)
        assert model_module.expected_step_floats(cfg) == expected

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_count_matches_the_tape(self, kind):
        cfg = _config(kind=kind, widths=(4, 3), dropout=0.5)
        model = build_model(cfg, VOCAB5)
        ids = np.zeros((cfg.batch_size, cfg.seq_len), dtype=np.int64)
        logits, tape = model.forward(ids, train=True, dropout_rng=Rng(1))
        cell_tapes = [(t["f"], t["b"]) if "f" in t else (t,) for t in tape.cell_tapes]
        held = sum(v.size for dirs in cell_tapes for d in dirs for k, v in d.items() if k != "xs")
        outputs = [dirs[0]["xs"] for dirs in cell_tapes[1:]] + [tape.dense_input]
        held += sum(x.size for x in outputs) + sum(-(-m.size // 8) for m in tape.masks)
        params = list(model.params().values())
        held += logits.size + sum(p.size for p in params)
        # the largest transient: the loss's logits and shifted logits, the
        # update's one scratch array the size of the largest parameter, or
        # one layer's backward: its output gradient, an input gradient per
        # direction and block scratch (da, the replay's two slabs and the
        # largest product of the block)
        v, e = model.embedding.table.shape
        transient = [2 * logits.size, max(p.size for p in params)]
        for i, (dirs, out) in enumerate(zip(cell_tapes, outputs)):
            gates = dirs[0]["gates"]  # [L, B, kH], and L < _BLOCK: one block
            xs = dirs[0]["xs"]
            length, batch, width = gates.shape
            hidden = out.shape[2] // len(dirs)
            if i == 0:
                d_in = v * (width + ids.size + e)
                product = v * width + -(-v * ids.size // 8)
            else:
                d_in = xs.size
                product = max(xs.shape[2] * width, xs.size)
            scratch = gates.size + 2 * (length + 1) * batch * hidden
            transient.append(out.size + len(dirs) * d_in + scratch
                             + max(hidden * width, product))
        assert model_module.expected_step_floats(cfg) == held + max(transient)

    # A step's tracemalloc peak, over two steps after a warm-up step, so a
    # step's arrays must also be gone before the next one's forward
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_measured_peak_within_the_count(self, fixture_text, fixture_vocab, kind, depth,
                                            dropout):
        cfg = ModelConfig(kind=kind, layer_widths=(64, 48, 32)[:depth],
                          vocab_size=fixture_vocab.size, batch_size=16, embed_dim=32,
                          dropout=dropout, seq_len=30, init_seed=5)
        model = build_model(cfg, fixture_vocab)
        plan = CorpusPlan(cfg.seq_len, cfg.batch_size, 0)
        windows = make_sequences(fixture_vocab.encode(fixture_text), plan)
        batches = shuffle_batches(windows, plan, Rng(1))[:3]
        opt = RmspropState.for_params(model.params())
        dropout_rng = Rng(2)
        train_epoch(model, batches[:1], TrainPlan(), opt, dropout_rng)
        tracemalloc.start()
        try:
            train_epoch(model, batches[1:], TrainPlan(), opt, dropout_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * model_module.expected_step_floats(cfg) + _STEP_SLACK

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("preset", ["uni", "bi", "quad"])
    def test_presets_at_default_shapes_accepted(self, kind, preset):
        cfg = ModelConfig(kind=kind, layer_widths=preset_widths(preset), vocab_size=51,
                          batch_size=64)
        assert model_module.expected_step_floats(cfg) <= model_module.MAX_STEP_FLOATS

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           widths=st.lists(st.integers(1, 10**6), min_size=1, max_size=5),
           v=st.integers(1, 10**4), batch_size=st.integers(1, 10**4),
           seq_len=st.integers(1, 10**5), embed_dim=st.integers(1, 10**6))
    def test_step_floats_cover_the_parameters(self, kind, widths, v, batch_size, seq_len,
                                              embed_dim):
        # a step holds a gradient per parameter, so MAX_STEP_FLOATS also caps
        # the parameter count and build_model needs no cap of its own for it
        cfg = _config(kind=kind, widths=tuple(widths), v=v, batch_size=batch_size,
                      seq_len=seq_len, embed_dim=embed_dim)
        assert model_module.expected_step_floats(cfg) >= expected_param_count(cfg)

    def test_oversized_step_rejected_before_allocation(self, monkeypatch):
        # about 30 GiB of tape; _init_params must not be reached
        cfg = _config(widths=(1024,), seq_len=50_000, batch_size=10)
        assert expected_param_count(cfg) <= MAX_STEP_FLOATS

        def draw(config):
            raise AssertionError("parameters drawn for a refused config")

        monkeypatch.setattr(model_module, "_init_params", draw)
        with pytest.raises(ConfigError, match="float64 values"):
            build_model(cfg, VOCAB5)


class TestTrainModeBatchCheck:
    def test_wrong_batch_rejected_in_train(self):
        model = build_model(_config(), VOCAB5)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((3, 6), dtype=np.int64), train=True, dropout_rng=Rng(0))

    def test_eval_accepts_any_batch(self):
        model = build_model(_config(), VOCAB5)
        logits, _ = model.forward(np.zeros((7, 6), dtype=np.int64))
        assert logits.shape == (7, 6, 5)


class TestForwardIndexCheck:
    # layer 0 gathers rows of a [V, kH] projection by id, and numpy indexing
    # would wrap -1 to the last row without complaint
    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize("train", [False, True])
    def test_out_of_range_id_rejected(self, bad, train):
        model = build_model(_config(), VOCAB5)
        ids = np.zeros((2, 6), dtype=np.int64)
        ids[1, 3] = bad
        with pytest.raises(VocabularyError, match=f"index {bad} out of range"):
            model.forward(ids, train=train, dropout_rng=Rng(0))


# SHA-256 of the first training step's logits bytes and the repr of its mean
# loss, per kind and depth, with dropout on (see test_first_step_digest), keyed
# by the OpenBLAS kernel set they were made on, since kernel sets round some
# GEMM outputs differently. The sets other than SkylakeX were made from the
# same code under a forced OPENBLAS_CORETYPE; forcing Prescott, Core2 or
# Penryn reports Katmai. A layout or kernel change that moves any bit of the
# forward pass changes an entry.
_GOLDEN_FORWARD = {
    "SkylakeX": {
        "lstm1": ("efd96b03d32c490a8c1dce89b2232137ca5b937af60199ffdd317a9569bf520c",
                  "3.936144909173832"),
        "lstm2": ("6bb87a4ac47748011b54d920821571754c6afdfa6268902aa3297a5a3f1c41c7",
                  "3.9344556635422623"),
        "gru1": ("013ac60f47a7e1fdb3071f94812c583305e640fad6c49dbd8be56a0f7c8940f3",
                 "3.9285539793206605"),
        "gru2": ("38f8e2a05d045e51b84be5f876543a9394df88c8bc72a56d96ae335e117f217a",
                 "3.931320512700102"),
        "birnn1": ("609da3e99fd8f7e219f2bc8ac564343fb4c93a83b40361c2a1ed6de007bf9097",
                   "3.929153730816488"),
        "birnn2": ("0fb88077d064830dd11edf32f76abf4b044861fa2fcde9f3815a5f3548f51144",
                   "3.930269621075852"),
    },
    "Haswell": {
        "lstm1": ("d3b076eb4d1aafb280c71032d83d454bae3d7390eef2fa5c2952fb6defdcfc62",
                  "3.936144909173832"),
        "lstm2": ("6b8ce25fbb44066b194c7114ed8c7ebd36ac4f0e9b0d1d8f994d7ef51f2b6b28",
                  "3.9344556635422623"),
        "gru1": ("31b55689ec51b722171ff3ca3909a6cbacd0f5164588bccba1327cee44911f99",
                 "3.9285539793206605"),
        "gru2": ("ced3a754ce0dabc454e55548960f46da712cd9d9da07b753a0780edbebb2e3e5",
                 "3.931320512700102"),
        "birnn1": ("394b8dd5873956932c92856ed457ef9bbd056bc203f9ede2f02709dd6bd21f12",
                   "3.929153730816488"),
        "birnn2": ("793660cf4be8d71c09d7fdf44e32706842deb4422166c6de7191c87f6fc3ed44",
                   "3.930269621075852"),
    },
    "Sandybridge": {
        "lstm1": ("c2c42dc1527529394223b5e4160ec65c3ebdffad24399efacab78a2eb3967b60",
                  "3.936144909173832"),
        "lstm2": ("47eddf4bb849dcdf002554286ad5d41956fb2169140bade75ace9b3a372f95c3",
                  "3.9344556635422623"),
        "gru1": ("fa4358fb3b0dcfb199912e157831f90d231c84150df9c6f70e69927126f3783e",
                 "3.9285539793206605"),
        "gru2": ("149b1d187107c9fefb7198e1fc49d562d6dc6ab691a37ee86bb3485cad45759c",
                 "3.9313205127001023"),
        "birnn1": ("4c81d743d01ec7a03971d16f8ff0ba253d0e22ffeb3b9c775c0f253c5f976da4",
                   "3.929153730816488"),
        "birnn2": ("cd2d810e093aa5549325e55fb11c78d4cdf99196487b5f31b0d873b7d8f78946",
                   "3.930269621075852"),
    },
    "Katmai": {
        "lstm1": ("27d7deb54b8a1de3dfc6db9f979ce983412eeaa398052673bdbea6f9d03329bf",
                  "3.936144909173832"),
        "lstm2": ("6aa8745bfbf5e3390151fdb8767138490dc30c5877790a0369e09f658b71716a",
                  "3.9344556635422623"),
        "gru1": ("70e2cd04a67e1531b8f1fcdd631b9ecbc296ec556bad24e92c23375ce4ca4100",
                 "3.9285539793206605"),
        "gru2": ("39ac0d9c60a9a01f9c2deccbf9c1a0035ed2feb0a1a64cbe63e6070f8eef80e1",
                 "3.9313205127001023"),
        "birnn1": ("2313a7eb1485af0de2b2990e3eb2aefbe813cb42a2f7b79a9e04456843806f54",
                   "3.929153730816488"),
        "birnn2": ("85beefb2a490727746a5ea522da78a1d5c04d71deaa24990758d5f3fb5c93f4a",
                   "3.930269621075852"),
    },
}


# sha256 of the checkpoint file of an untrained model; see test_file_digest
_GOLDEN_CHECKPOINT = {
    "lstm": "280c54eea24d3efea12e30481a39496aa1d5ede409ae2f46aed6d5410a4c9143",
    "gru": "b9bbe0835ea0fb98992000375f622cada4e0bfb404fdac4f6e5705a4c4ffc84b",
    "birnn": "7a1a79b45a1b3e6a0d78e5e8bf5bae2551aabdfae692f031625688d21ff23dc7",
}


class TestGoldenForward:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layers", [1, 2])
    def test_first_step_digest(self, fixture_text, fixture_vocab, kind, layers):
        batch, length = 4, 30
        config = ModelConfig(kind=kind, layer_widths=(32, 24)[:layers],
                             vocab_size=fixture_vocab.size, batch_size=batch, embed_dim=16,
                             dropout=0.4, seq_len=length, init_seed=29)
        model = build_model(config, fixture_vocab)
        rows = fixture_vocab.encode(fixture_text[: batch * (length + 1)])
        rows = rows.reshape(batch, length + 1)
        logits, _ = model.forward(rows[:, :-1], train=True, dropout_rng=Rng(3))
        report = ce_loss(logits, rows[:, 1:])
        got = (hashlib.sha256(logits.tobytes()).hexdigest(), repr(report.mean_loss))
        assert got == goldens_for_core(_GOLDEN_FORWARD, "golden logits digests")[f"{kind}{layers}"]

    def test_unknown_core_fails_with_its_name(self):
        with pytest.raises(pytest.fail.Exception, match="OpenBLAS core 'Zen9'"):
            goldens_for_core(_GOLDEN_FORWARD, "golden logits digests", "Zen9")

    def test_digests_hold_under_a_forced_haswell_kernel(self):
        rerun_forced("tests/test_model.py::TestGoldenForward::test_first_step_digest", 6,
                     "openblas_corename()", "Haswell", OPENBLAS_CORETYPE="Haswell")


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_roundtrip_bitexact_at_f32(self, tmp_path, kind):
        model = build_model(_config(kind=kind, widths=(4, 3)), VOCAB5)
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        loaded = load_checkpoint(p)
        assert loaded.config == model.config
        assert loaded.vocab.chars == model.vocab.chars
        for name, arr in model.params().items():
            assert np.array_equal(
                loaded.params()[name].astype(np.float32), arr.astype(np.float32)
            ), name

    def test_save_load_save_idempotent(self, tmp_path):
        model = build_model(_config(), VOCAB5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p1)
        save_checkpoint(build_model(_config(), VOCAB5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        # the float64 parameters, one temporary the size of the largest
        # parameter and some slack; the file's bytes held whole are more
        model = build_model(_config(widths=(48, 48, 48), embed_dim=16), VOCAB5)
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        sizes = [a.size for a in model.params().values()]
        bound = 8 * sum(sizes) + 8 * max(sizes) + 16_384
        load_checkpoint(p)  # lazy imports and caches are not the load's
        tracemalloc.start()
        try:
            load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_save_holds_one_parameter_at_float32(self, tmp_path):
        # one float32 copy of the largest parameter, the file's write buffer
        # and some slack; a float32 copy of the whole payload is more
        model = build_model(_config(widths=(48, 48, 48), embed_dim=16), VOCAB5)
        bound = 4 * max(a.size for a in model.params().values()) + 16_384
        save_checkpoint(model, tmp_path / "warm.ckpt")  # lazy imports and caches
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "m.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("value", [1e39, -3.5e38, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["embedding.table", "rnn0.w_h", "dense.b"])
    def test_value_not_finite_at_float32_leaves_no_file(self, tmp_path, name, value):
        # float32 would store inf or nan, which load refuses: the save is
        # refused instead, with no warning, no file and no temp file
        model = build_model(_config(widths=(4, 3)), VOCAB5)
        model.params()[name].flat[-1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointIntegrityError, match=f"parameter {name} .*float32"):
                save_checkpoint(model, tmp_path / "m.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_failure_mid_stream_leaves_no_file(self, tmp_path, monkeypatch):
        # the temp file is open and the magic written when the header fails
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        old = p.read_bytes()
        def failing_header(*args):
            raise OSError("No space left on device")
        monkeypatch.setattr(model_module, "_header_bytes", failing_header)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(build_model(_config(), VOCAB5), p)
        assert p.read_bytes() == old
        assert [q.name for q in tmp_path.iterdir()] == ["m.ckpt"]

    @pytest.mark.parametrize("dangling", [False, True], ids=["to_file", "dangling"])
    def test_save_through_a_symlink_writes_its_target(self, tmp_path, dangling):
        # as a plain open would: the link stays and its target gets the bytes
        model = build_model(_config(), VOCAB5)
        plain, real, link = tmp_path / "plain.ckpt", tmp_path / "real.ckpt", tmp_path / "link"
        save_checkpoint(model, plain)
        if not dangling:
            real.write_bytes(b"old contents")
        symlink_or_skip(link, real.name)
        save_checkpoint(model, link)
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_bytes() == plain.read_bytes()
        assert sorted(q.name for q in tmp_path.iterdir()) == ["link", "plain.ckpt", "real.ckpt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_save_to_a_fifo_is_refused(self, tmp_path):
        # the rename would replace the FIFO with a regular file
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        with pytest.raises(OSError, match=f"^{re.escape(str(fifo))} is not a regular file$"):
            save_checkpoint(build_model(_config(), VOCAB5), fifo)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [q.name for q in tmp_path.iterdir()] == ["out.fifo"]

    @pytest.mark.parametrize("given", ["old.ckpt/", "old.ckpt/.", "new/", "new/.", ""])
    def test_save_refuses_what_open_would(self, tmp_path, monkeypatch, given):
        # Path("old.ckpt/") is Path("old.ckpt"): judged so, the save replaced old.ckpt
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.ckpt").write_bytes(b"old contents")
        with pytest.raises(OSError) as plain:
            open(given, "wb")
        with pytest.raises(OSError) as refused:
            save_checkpoint(build_model(_config(), VOCAB5), given)
        assert str(refused.value) == str(plain.value)
        assert [q.name for q in tmp_path.iterdir()] == ["old.ckpt"]
        assert (tmp_path / "old.ckpt").read_bytes() == b"old contents"

    def test_save_into_a_symlink_loop_is_eloop(self, tmp_path):
        loop = tmp_path / "loop"
        symlink_or_skip(loop, loop.name)
        with pytest.raises(OSError) as caught:
            save_checkpoint(build_model(_config(), VOCAB5), loop)
        assert caught.value.errno == errno.ELOOP and caught.value.filename == str(loop)
        assert os.readlink(loop) == "loop" and [q.name for q in tmp_path.iterdir()] == ["loop"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_file_digest(self, fixture_vocab, tmp_path, kind):
        # widths whose kernels span several of Rng's bulk-draw chunks
        config = ModelConfig(kind=kind, layer_widths=(96, 48), vocab_size=fixture_vocab.size,
                             batch_size=4, embed_dim=16, init_seed=29)
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(config, fixture_vocab), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == _GOLDEN_CHECKPOINT[kind]
        # widths whose kernels span several load chunks at the smaller size
        for chunk in (model_module._LOAD_CHUNK, 4093):
            with mock.patch.object(model_module, "_LOAD_CHUNK", chunk):
                loaded = _load_outcome(load_checkpoint, p)
            assert loaded == _load_outcome(reference_load, p)

    def test_truncation_is_format_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = p.read_bytes()
        for cut in (4, 11, len(blob) // 2, len(blob) - 5):
            p.write_bytes(blob[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(p)

    @pytest.mark.parametrize("name, into", [
        ("embedding.table", 6),  # in its dims
        ("rnn0.w_h", 30),  # in its values
        ("dense.b", 30),  # in the checksum after it
    ])
    def test_file_shrinking_after_fstat_is_format_error(self, tmp_path, monkeypatch,
                                                        name, into):
        # the reads then come up short of the size fstat gave; the error is
        # the one the reference gives for a file cut there from the start
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        offset = _block_offset(p.read_bytes(), name)
        real_fstat = os.fstat
        def fstat_then_shrink(fd):
            info = real_fstat(fd)
            os.truncate(p, offset + into)
            return info
        monkeypatch.setattr(model_module.os, "fstat", fstat_then_shrink)
        with pytest.raises(CheckpointFormatError,
                           match=rf"^truncated parameter {name} at offset {offset}$") as info:
            load_checkpoint(p)
        monkeypatch.undo()
        assert _load_outcome(reference_load, p) == (CheckpointFormatError, str(info.value))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = bytearray(p.read_bytes())
        blob[0] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(p)

    def test_single_byte_corruption_detected_by_crc(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = p.read_bytes()
        # flip one byte in the middle of the float payload
        for offset in (len(blob) - 9, len(blob) // 2, 40):
            tampered = bytearray(blob)
            tampered[offset] ^= 0x01
            p.write_bytes(bytes(tampered))
            with pytest.raises((CheckpointIntegrityError, CheckpointFormatError)):
                load_checkpoint(p)

    def test_shape_mismatch_is_integrity_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = bytearray(p.read_bytes())
        # enlarge the header's vocab_size, fix the CRC, so shapes disagree
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = blob[12 : 12 + header_len].decode("utf-8")
        tampered = header.replace('"vocab_size":5', '"vocab_size":6')
        assert tampered != header
        blob[12 : 12 + header_len] = tampered.encode("utf-8")
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[8:-4])))
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(p)

    def test_stray_trailing_bytes(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(p)

    def test_overflowing_dims_are_format_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        write_overflowing_dims_checkpoint(p)
        with pytest.raises(CheckpointFormatError, match="embedding.table has rank 3"):
            load_checkpoint(p)

    def test_changed_rank_is_format_error_naming_the_parameter(self, tmp_path):
        # the block's length is unknown once its rank is wrong
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = bytearray(p.read_bytes())
        offset = _block_offset(bytes(blob), "rnn0.b")
        blob[offset : offset + 4] = struct.pack("<I", 2)
        p.write_bytes(_recrc(bytes(blob)))
        with pytest.raises(CheckpointFormatError, match="rnn0.b has rank 2"):
            load_checkpoint(p)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_changed_dim_is_integrity_error_naming_the_parameter(self, tmp_path, axis):
        # same rank, one dim one larger: the block's length comes from the config
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = bytearray(p.read_bytes())
        field = _block_offset(bytes(blob), "rnn0.w_h") + 4 + 4 * axis
        (dim,) = struct.unpack_from("<I", blob, field)
        blob[field : field + 4] = struct.pack("<I", dim + 1)
        p.write_bytes(_recrc(bytes(blob)))
        with pytest.raises(CheckpointIntegrityError, match="rnn0.w_h has dims"):
            load_checkpoint(p)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_integrity_error(self, tmp_path, value):
        p = tmp_path / "m.ckpt"
        write_non_finite_checkpoint(p, value)
        with pytest.raises(CheckpointIntegrityError, match="dense.b"):
            load_checkpoint(p)

    def test_signalling_nan_is_integrity_error_without_a_warning(self, tmp_path):
        # widening a signalling NaN to float64 raises the invalid flag; the
        # one outcome is the finite check's error
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = bytearray(p.read_bytes())
        first = _block_offset(bytes(blob), "dense.b") + 8  # rank 1, one dim
        blob[first : first + 4] = struct.pack("<I", 0x7F800001)
        p.write_bytes(_recrc(bytes(blob)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointIntegrityError, match="dense.b holds non-finite"):
                load_checkpoint(p)
        assert caught == []

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "xx", "kind must be one of"),
        ("embed_dim", 0, "embed_dim must be >= 1"),
        ("dropout", 1.5, "dropout must be in [0, 1)"),
        ("unit_forget_bias", "no", "unit_forget_bias must be a bool, got 'no'"),
    ])
    def test_bad_config_value_is_format_error(self, tmp_path, field, value, message):
        # a CRC-valid header whose config ModelConfig refuses: the error names
        # the checkpoint as bad and keeps the field's own text
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        header = _header(p.read_bytes())
        header["config"][field] = value
        p.write_bytes(_with_header(p.read_bytes(), header))
        with pytest.raises(CheckpointFormatError, match=r"^malformed header: ") as info:
            load_checkpoint(p)
        assert message in str(info.value)
        assert isinstance(info.value.__cause__, ConfigError)

    def test_header_of_many_layers_is_refused_in_the_memory_of_one_block(self, tmp_path):
        # a 20 KB header of 10^4 one-wide layers and no blocks: the loader
        # walks the layout, so it reaches the first short block without
        # building the 3 * 10^4 shapes that a table of the layout would hold
        cfg = _config(widths=(1,) * 10**4)
        text = model_module._header_bytes(cfg, VOCAB5)
        payload = struct.pack("<I", len(text)) + text
        p = tmp_path / "layers.ckpt"
        p.write_bytes(b"CRNF" + struct.pack("<I", 1) + payload
                      + struct.pack("<I", zlib.crc32(payload)))
        size = p.stat().st_size
        expected = _load_outcome(reference_load, p)
        assert expected == (CheckpointFormatError,
                            f"truncated parameter embedding.table at offset {size - 4}")
        assert _load_outcome(load_checkpoint, p) == expected  # lazy imports and caches
        tracemalloc.start()
        try:
            assert _load_outcome(load_checkpoint, p) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * size, (peak, size)

    def test_unsorted_vocab_is_integrity_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        header = _header(p.read_bytes())
        header["vocab"][:2] = header["vocab"][1::-1]  # "bacde"
        p.write_bytes(_with_header(p.read_bytes(), header))
        with pytest.raises(CheckpointIntegrityError, match="not sorted and unique"):
            load_checkpoint(p)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_directory_is_refused_without_leaking_its_fd(self, tmp_path):
        # a directory opens, so its descriptor must be closed on the refusal
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            with pytest.raises(CheckpointFormatError, match="is not a regular file"):
                load_checkpoint(tmp_path)
        assert len(os.listdir("/proc/self/fd")) == before


def _recrc(blob: bytes) -> bytes:
    """The blob with its trailing CRC-32 recomputed over the payload."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[8:-4]))


def _header(blob: bytes) -> dict:
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + header_len])


def _block_offset(blob: bytes, name: str) -> int:
    """Offset of the rank field of parameter name's block in a saved file."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    pos = 12 + header_len
    config = ModelConfig(**_header(blob)["config"])
    for key, shape in param_shapes(config).items():
        if key == name:
            return pos
        pos += 4 * (1 + len(shape) + int(np.prod(shape)))
    raise KeyError(name)


def _with_header(blob: bytes, header: dict) -> bytes:
    """The blob with its header replaced (length field and CRC recomputed)."""
    (header_len,) = struct.unpack_from("<I", blob, 8)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _recrc(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :])


_BYTE_EDITS = st.one_of(
    st.tuples(st.just("mutate"), st.lists(st.tuples(st.integers(0, 1 << 20),
                                                    st.integers(0, 255)), min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("insert"), st.tuples(st.integers(0, 1 << 20), st.binary(min_size=1, max_size=16))),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4,
)
# one header entry (the vocabulary or a config field) set to any JSON value
_HEADER_EDITS = {
    "key": st.sampled_from(["vocab", *(f"config.{k}" for k in ModelConfig.__dataclass_fields__)]),
    "value": _JSON_VALUES,
}


def _edit_header(blob: bytes, key: str, value) -> bytes:
    """The blob with one header entry, "vocab" or "config.<field>", set to value."""
    header = _header(blob)
    if key == "vocab":
        header["vocab"] = value
    else:
        header["config"][key.split(".", 1)[1]] = value
    return _with_header(blob, header)


def _apply(blob: bytes, edit) -> bytes:
    kind, arg = edit
    if kind == "mutate":
        out = bytearray(blob)
        for pos, value in arg:
            out[pos % len(out)] = value
        return bytes(out)
    if kind == "truncate":
        return blob[: arg % len(blob)]
    pos, data = arg
    pos %= len(blob) + 1
    return blob[:pos] + data + blob[pos:]


class TestCheckpointFuzz:
    """Whatever the bytes, load_checkpoint either loads or raises a CharRnnError."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
        save_checkpoint(build_model(_config(kind="birnn", widths=(3, 2)), VOCAB5), p)
        return p.read_bytes()

    @staticmethod
    def _load(tmp_path_factory, blob: bytes) -> None:
        p = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
        p.write_bytes(blob)
        try:
            load_checkpoint(p)
        except CharRnnError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(edit=_BYTE_EDITS, recrc=st.booleans())
    def test_byte_edits(self, tmp_path_factory, blob, edit, recrc):
        edited = _apply(blob, edit)
        self._load(tmp_path_factory, _recrc(edited) if recrc and len(edited) >= 12 else edited)

    @settings(max_examples=300, deadline=None)
    @given(**_HEADER_EDITS)
    @example(key="config.layer_widths", value=[float("inf")])  # int(inf) overflows
    @example(key="config.vocab_size", value=5.0)  # equal to 5, so the dims match
    @example(key="config.embed_dim", value=3.0)
    def test_header_edits(self, tmp_path_factory, blob, key, value):
        self._load(tmp_path_factory, _edit_header(blob, key, value))

    # A header that loads is the one save writes for what it loaded, so the
    # file re-saves to its own bytes: JSON true in place of a code point
    # parses (chr(True) is U+0001) but is not what the writer makes of it.
    @settings(max_examples=300, deadline=None)
    @given(**_HEADER_EDITS)
    @example(key="vocab", value=[True, 98, 99, 100, 101])
    @example(key="config.dropout", value=0)  # loads as the int 0, written back as 0
    def test_header_edits_that_load_resave_to_the_same_bytes(self, tmp_path_factory, blob,
                                                             key, value):
        edited = _edit_header(blob, key, value)
        p = tmp_path_factory.getbasetemp() / "header-edit.ckpt"
        p.write_bytes(edited)
        try:
            model = load_checkpoint(p)
        except CharRnnError:
            return
        save_checkpoint(model, p)
        assert p.read_bytes() == edited

    # Any other valid value of a field that fixes a parameter's shape makes
    # the header disagree with the blocks, so a CRC-valid file is refused.
    @settings(max_examples=200, deadline=None)
    @given(edit=st.one_of(
        st.tuples(st.just("kind"), st.sampled_from(KINDS)),
        st.tuples(st.just("embed_dim"), st.integers(1, 64)),
        st.tuples(st.just("layer_widths"), st.tuples(st.integers(0, 1), st.integers(1, 64))),
        st.tuples(st.just("vocab_size"), st.integers(1, 64)),
    ))
    def test_shape_field_edits_are_refused(self, tmp_path_factory, blob, edit):
        field, value = edit
        header = _header(blob)
        config = header["config"]
        if field == "layer_widths":
            i, width = value
            config["layer_widths"][i] = width
        else:
            config[field] = value
        if field == "vocab_size":
            header["vocab"] = list(range(97, 97 + value))
        assume(config != _header(blob)["config"])
        p = tmp_path_factory.getbasetemp() / "shape-edit.ckpt"
        p.write_bytes(_with_header(blob, header))
        with pytest.raises((CheckpointFormatError, CheckpointIntegrityError)):
            load_checkpoint(p)


def _load_outcome(load, path):
    """What load(path) gives: the error's class and message, or the model's
    config, vocabulary and parameter bytes."""
    try:
        model = load(path)
    except CharRnnError as exc:
        return type(exc), str(exc)
    return (model.config, model.vocab.chars,
            {name: (p.dtype, p.shape, p.tobytes()) for name, p in model.params().items()})


class TestAgainstReference:
    """The streaming loader and the whole-file reference agree on every file."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("reference") / "m.ckpt"
        save_checkpoint(build_model(_config(kind="birnn", widths=(3, 2)), VOCAB5), p)
        return p.read_bytes()

    @settings(max_examples=400, deadline=None)
    @given(edit=_BYTE_EDITS, recrc=st.booleans(), chunk=st.integers(1, 40))
    @example(edit=("truncate", 0), recrc=False, chunk=1)
    def test_byte_edits(self, tmp_path_factory, blob, edit, recrc, chunk):
        edited = _apply(blob, edit)
        p = tmp_path_factory.getbasetemp() / "edited.ckpt"
        p.write_bytes(_recrc(edited) if recrc and len(edited) >= 12 else edited)
        with mock.patch.object(model_module, "_LOAD_CHUNK", chunk):
            streamed = _load_outcome(load_checkpoint, p)
        assert streamed == _load_outcome(reference_load, p)

    # JSON that parses to a valid config and vocabulary but is not the bytes
    # the writer makes of them: both loaders refuse it as a malformed header
    @pytest.mark.parametrize("rewrite", [
        lambda text: text.replace(b'"vocab":[97,', b'"vocab":[true,'),  # chr(True) is U+0001
        lambda text: text.replace(b'"vocab":', b'"extra":0,"vocab":'),
        lambda text: text.replace(b",", b", "),
        lambda text: json.dumps({"vocab": json.loads(text)["vocab"],
                                 "config": json.loads(text)["config"]},
                                separators=(",", ":")).encode(),
    ], ids=["true-code-point", "extra-key", "spaced", "reordered"])
    def test_non_canonical_header_is_refused_by_both(self, tmp_path, blob, rewrite):
        (header_len,) = struct.unpack_from("<I", blob, 8)
        text = rewrite(blob[12 : 12 + header_len])
        assert json.loads(text)  # still JSON
        p = tmp_path / "header.ckpt"
        p.write_bytes(_recrc(blob[:8] + struct.pack("<I", len(text)) + text
                             + blob[12 + header_len :]))
        expected = (CheckpointFormatError,
                    "malformed header: not the canonical JSON of its content")
        assert _load_outcome(load_checkpoint, p) == _load_outcome(reference_load, p) == expected

    def test_crc_comes_before_the_finite_check(self, tmp_path, blob):
        # a NaN written without fixing the CRC is a CRC mismatch to both
        edited = bytearray(blob)
        edited[-6:-4] = b"\xff\xff"  # the high half of dense.b's last value
        p = tmp_path / "nan.ckpt"
        p.write_bytes(bytes(edited))
        expected = (CheckpointIntegrityError, "payload CRC-32 mismatch")
        assert _load_outcome(load_checkpoint, p) == _load_outcome(reference_load, p) == expected


class TestRebuildForGeneration:
    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_single_char_logits_match_eval_model(self, tmp_path, kind):
        model = build_model(_config(kind=kind, widths=(4, 3), batch_size=4), VOCAB5)
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        rebuilt = rebuild_for_generation(load_checkpoint(p))
        assert rebuilt.config.batch_size == 1
        reference = load_checkpoint(p)
        for char in range(5):
            seq = np.array([[char]], dtype=np.int64)
            ref_logits, _ = reference.forward(seq)  # eval mode, zero state
            step_logits, _ = rebuilt.step(
                np.array([char], dtype=np.int64), rebuilt.init_state(1)
            )
            assert np.max(np.abs(ref_logits[0, 0] - step_logits[0])) <= 1e-12

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_stepwise_matches_full_sequence(self, kind):
        # unidirectional stacks: stepping a sequence equals the eval forward
        model = build_model(_config(kind=kind, widths=(4, 3)), VOCAB5)
        rebuilt = rebuild_for_generation(model)
        seq = np.random.default_rng(0).integers(0, 5, (1, 9))
        full_logits, _ = model.forward(seq)
        state = rebuilt.init_state(1)
        for t in range(9):
            step_logits, state = rebuilt.step(seq[:, t], state)
            assert np.max(np.abs(full_logits[0, t] - step_logits[0])) <= 1e-12

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_new_state_reads_weights_after_rmsprop_step(self, kind):
        # init_state builds P = table W_x + b from the weights as they are,
        # so a state made after an in-place update steps with the new weights
        from charrnn.objective import RmspropState, ce_loss, rmsprop_step

        model = build_model(_config(kind=kind, widths=(4, 3)), VOCAB5)
        chars = np.arange(5)[:, None]
        model.step(chars, model.init_state(5))  # a P cached here would go stale below
        before, _ = model.forward(chars)
        seq = np.random.default_rng(3).integers(0, 5, (2, 6))
        logits, tape = model.forward(seq, train=True, dropout_rng=Rng(0))
        grads = model.backward(tape, ce_loss(logits, seq).grad)
        rmsprop_step(model.params(), grads, RmspropState.for_params(model.params()))
        after, _ = model.forward(chars)
        stepped, _ = model.step(chars, model.init_state(5))
        assert np.max(np.abs(after - before)) > 1e-6
        assert np.max(np.abs(after[:, 0] - stepped)) <= 1e-12

    def test_generation_does_not_touch_source_params(self):
        model = build_model(_config(), VOCAB5)
        before = {k: v.copy() for k, v in model.params().items()}
        rebuilt = rebuild_for_generation(model)
        generate(rebuilt, GenerationPlan(prime_text="ab", length=20, sample_seed=1))
        assert all(np.array_equal(before[k], model.params()[k]) for k in before)

    def test_repeated_generation_reproducible(self):
        model = rebuild_for_generation(build_model(_config(), VOCAB5))
        plan = GenerationPlan(prime_text="ad", length=30, sample_seed=77)
        assert generate(model, plan) == generate(model, plan)


class TestVocabIntegration:
    def test_checkpoint_preserves_vocab(self, tmp_path):
        text = "hello world\n\tmixed UP 123"
        vocab = build_vocab(text)
        cfg = _config(v=vocab.size)
        model = build_model(cfg, vocab)
        p = tmp_path / "m.ckpt"
        save_checkpoint(model, p)
        assert load_checkpoint(p).vocab.chars == vocab.chars

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charrnn.corpus import Vocabulary, build_vocab
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
    MAX_PARAMS,
    ModelConfig,
    build_model,
    expected_param_count,
    expected_param_shapes,
    load_checkpoint,
    preset_widths,
    rebuild_for_generation,
    save_checkpoint,
)
from charrnn.numerics import Rng

VOCAB5 = Vocabulary(tuple("abcde"))


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
    """A checkpoint with a valid CRC whose dense.b[0] is value (NaN or inf)."""
    model = build_model(_config(), VOCAB5)
    model.params()["dense.b"][0] = value
    save_checkpoint(model, path)


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
        with pytest.raises(ConfigError):
            _config(widths=())
        with pytest.raises(ConfigError):
            _config(widths=(4, 0))

    def test_bad_dropout(self):
        with pytest.raises(ConfigError):
            _config(dropout=1.0)

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
        assert expected_param_count(cfg) > MAX_PARAMS
        with pytest.raises(ConfigError, match="parameters"):
            build_model(cfg, VOCAB5)

    def test_canonical_order(self):
        cfg = _config(kind="birnn", widths=(3, 2))
        names = list(expected_param_shapes(cfg))
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


class TestStepCap:
    @pytest.mark.parametrize("kind, expected", [("lstm", 164), ("gru", 136), ("birnn", 268)])
    def test_worked_example(self, kind, expected):
        # B=2, L=3, H=2, V=5. lstm: gates 2*3*8 = 48, h and c 2*2*4*2 = 32,
        # dropout output and mask 2*6*2 = 24, logits and their gradient 2*30 = 60
        cfg = _config(kind=kind, widths=(2,), seq_len=3)
        assert model_module.expected_step_floats(cfg) == expected

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_count_matches_the_tape(self, kind):
        cfg = _config(kind=kind, widths=(4, 3), dropout=0.5)
        model = build_model(cfg, VOCAB5)
        ids = np.zeros((cfg.batch_size, cfg.seq_len), dtype=np.int64)
        logits, tape = model.forward(ids, train=True, dropout_rng=Rng(1))
        directions = [d for t in tape.cell_tapes for d in ((t["f"], t["b"]) if "f" in t else (t,))]
        held = sum(v.size for d in directions for k, v in d.items() if k != "xs")
        outputs = [(t["f"] if "f" in t else t)["xs"] for t in tape.cell_tapes[1:]]
        held += sum(x.size for x in [*outputs, tape.dense_input, *tape.masks])
        assert model_module.expected_step_floats(cfg) == held + 2 * logits.size

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("preset", ["uni", "bi", "quad"])
    def test_presets_at_default_shapes_accepted(self, kind, preset):
        cfg = ModelConfig(kind=kind, layer_widths=preset_widths(preset), vocab_size=51,
                          batch_size=64)
        assert model_module.expected_step_floats(cfg) <= model_module.MAX_STEP_FLOATS

    def test_oversized_step_rejected_before_allocation(self, monkeypatch):
        # about 30 GiB of tape; _init_params must not be reached
        cfg = _config(widths=(1024,), seq_len=50_000, batch_size=10)
        assert expected_param_count(cfg) <= MAX_PARAMS

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

    def test_truncation_is_format_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        blob = p.read_bytes()
        for cut in (4, 11, len(blob) // 2, len(blob) - 5):
            p.write_bytes(blob[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(p)

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
        with pytest.raises(CheckpointFormatError, match="implausible dims"):
            load_checkpoint(p)


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_integrity_error(self, tmp_path, value):
        p = tmp_path / "m.ckpt"
        write_non_finite_checkpoint(p, value)
        with pytest.raises(CheckpointIntegrityError, match="dense.b"):
            load_checkpoint(p)

    def test_unsorted_vocab_is_integrity_error(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(build_model(_config(), VOCAB5), p)
        header = _header(p.read_bytes())
        header["vocab"][:2] = header["vocab"][1::-1]  # "bacde"
        p.write_bytes(_with_header(p.read_bytes(), header))
        with pytest.raises(CheckpointIntegrityError, match="not sorted and unique"):
            load_checkpoint(p)


def _recrc(blob: bytes) -> bytes:
    """The blob with its trailing CRC-32 recomputed over the payload."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[8:-4]))


def _header(blob: bytes) -> dict:
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + header_len])


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
    @given(key=st.sampled_from(["vocab", *(f"config.{k}" for k in ModelConfig.__dataclass_fields__)]),
           value=_JSON_VALUES)
    @example(key="config.layer_widths", value=[float("inf")])  # int(inf) overflows
    def test_header_edits(self, tmp_path_factory, blob, key, value):
        header = _header(blob)
        if key == "vocab":
            header["vocab"] = value
        else:
            header["config"][key.split(".", 1)[1]] = value
        self._load(tmp_path_factory, _with_header(blob, header))


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

import importlib.util
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn.corpus import Vocabulary
from charrnn.exceptions import ConfigError, ShapeError, VocabularyError
from charrnn.generator import GenerationPlan, generate
from charrnn.layers import (
    _BLOCK,
    BidirectionalLstm,
    Dense,
    Embedded,
    Embedding,
    GruCell,
    LstmCell,
    RecurrentStack,
    dropout_backward,
    dropout_forward,
)
from charrnn.model import ModelConfig, build_model
from charrnn.numerics import Rng, sample_categorical, sigmoid
from tests.conftest import (REPO_ROOT, finite_difference, numpy_cpu_features, rel_err,
                            rerun_forced)
from tests.stack_reference import stack_reference


def _rand(shape, scale=0.4, seed=0):
    return np.random.default_rng(seed).normal(scale=scale, size=shape)


class TestEmbedding:
    def test_identity_table_gives_one_hot(self):
        emb = Embedding(np.eye(4))
        out = emb.forward(np.array([[2, 0]]))
        assert np.array_equal(out[0, 0], [0, 0, 1, 0])
        assert np.array_equal(out[0, 1], [1, 0, 0, 0])

    def test_duplicate_indices_identical_rows(self):
        emb = Embedding(_rand((5, 3)))
        out = emb.forward(np.array([[1, 1, 1]]))
        assert np.array_equal(out[0, 0], out[0, 1])
        assert np.array_equal(out[0, 0], out[0, 2])

    def test_out_of_range(self):
        emb = Embedding(np.eye(3))
        with pytest.raises(VocabularyError):
            emb.forward(np.array([[3]]))

    def test_gradient_scatter_add(self):
        emb = Embedding(_rand((4, 3), seed=1))
        idx = np.array([[0, 2, 0]])
        weights = _rand((1, 3, 3), seed=2)

        def loss():
            return float(np.sum(emb.forward(idx) * weights))

        analytic = emb.backward(idx, weights)
        (fd,) = finite_difference(loss, [emb.table])
        assert rel_err(analytic, fd) < 1e-6


class TestLstmCell:
    def test_zero_weights_zero_state_fixed_point(self):
        cell = LstmCell(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
        h, (h2, c2) = cell.step(_rand((4, 3))[None], cell.init_state(4))
        assert np.array_equal(h[0], np.zeros((4, 2)))
        assert np.array_equal(c2, np.zeros((4, 2)))

    def test_zero_weights_closed_form(self):
        # all gates sigmoid(0) = 0.5, candidate tanh(0) = 0:
        # c' = 0.5 c, h' = 0.5 tanh(0.5 c)
        cell = LstmCell(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
        c0 = _rand((4, 2), seed=5)
        h, (h2, c2) = cell.step(_rand((4, 3))[None], (np.zeros((4, 2)), c0))
        assert np.allclose(c2, 0.5 * c0, atol=1e-15)
        assert np.allclose(h[0], 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_two_step_unroll_gradients(self):
        batch, d_in, hidden, length = 2, 3, 4, 2
        cell = LstmCell(_rand((d_in, 4 * hidden), seed=1),
                        _rand((hidden, 4 * hidden), seed=2),
                        _rand(4 * hidden, seed=3))
        xs = _rand((length, batch, d_in), seed=4)
        weights = _rand((length, batch, hidden), seed=5)

        def loss():
            hs, _ = cell.forward_seq(xs, train=False)
            return float(np.sum(hs * weights))

        _, tape = cell.forward_seq(xs, train=True)
        dxs, grads = cell.backward_seq(tape, weights)
        fd = finite_difference(loss, [cell.w_x, cell.w_h, cell.b, xs])
        for analytic, numeric in zip([grads["w_x"], grads["w_h"], grads["b"], dxs], fd):
            assert rel_err(analytic, numeric) < 1e-4


class TestLstmGateTransform:
    """LstmCell._recur's one tanh pass over the (i, f, g, o) row equals
    numerics.sigmoid on i, f and o and np.tanh on g bit for bit, and writes
    c' = f c + i g and h' = o tanh(c')."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 20.0, -20.0, 800.0, -800.0]

    @pytest.mark.parametrize("rows", ["random", "edges"])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("hidden", [1, 3, 8, 256])
    def test_bitwise(self, hidden, batch, rows):
        gen = np.random.default_rng(10 * hidden + batch)
        width = 4 * hidden
        if rows == "random":
            x = gen.normal(scale=3.0, size=(batch, width))
            w_h = gen.normal(scale=0.5, size=(hidden, width))
            h_prev = gen.normal(size=(batch, hidden))
        else:  # every gate meets the edge values, with h W_h = 0
            x = np.resize(self.EDGES, (batch, width))
            x = x[:, gen.permutation(width)]
            w_h = np.zeros((hidden, width))
            h_prev = np.zeros((batch, hidden))
        c_prev = gen.normal(scale=2.0, size=(batch, hidden))
        cell = LstmCell(np.zeros((1, width)), w_h, np.zeros(width))
        pre = x + h_prev @ w_h  # the pre-activations _recur forms in place
        a, h, c = x.copy(), np.empty((batch, hidden)), np.empty((batch, hidden))
        cell._recur(a, h_prev, c_prev, h, c)
        i, f, g, o = (pre[:, k * hidden : (k + 1) * hidden] for k in range(4))
        want = [sigmoid(i), sigmoid(f), np.tanh(g), sigmoid(o)]
        for k, name in enumerate("ifgo"):
            assert a[:, k * hidden : (k + 1) * hidden].tobytes() == want[k].tobytes(), name
        c_want = want[1] * c_prev
        c_want += want[0] * want[2]
        assert c.tobytes() == c_want.tobytes()
        assert h.tobytes() == (np.tanh(c_want) * want[3]).tobytes()
        if rows == "edges":  # the saturated gates are exact
            assert set(np.unique(a[:, :hidden][np.abs(pre[:, :hidden]) == 800.0])) <= {0.0, 1.0}


class TestGruCell:
    def test_zero_weights_halves_state(self):
        cell = GruCell(np.zeros((3, 9)), np.zeros((3, 9)), np.zeros(9))
        h0 = _rand((4, 3), seed=6)
        h, _ = cell.step(_rand((4, 3))[None], (h0,))
        assert np.allclose(h[0], 0.5 * h0, atol=1e-15)

    def test_zero_state_fixed_point(self):
        cell = GruCell(np.zeros((3, 9)), np.zeros((3, 9)), np.zeros(9))
        h, _ = cell.step(_rand((4, 3))[None], (np.zeros((4, 3)),))
        assert np.array_equal(h[0], np.zeros((4, 3)))

    def test_unroll_gradients(self):
        batch, d_in, hidden, length = 2, 3, 4, 3
        cell = GruCell(_rand((d_in, 3 * hidden), seed=1),
                       _rand((hidden, 3 * hidden), seed=2),
                       _rand(3 * hidden, seed=3))
        xs = _rand((length, batch, d_in), seed=4)
        weights = _rand((length, batch, hidden), seed=5)

        def loss():
            hs, _ = cell.forward_seq(xs, train=False)
            return float(np.sum(hs * weights))

        _, tape = cell.forward_seq(xs, train=True)
        dxs, grads = cell.backward_seq(tape, weights)
        fd = finite_difference(loss, [cell.w_x, cell.w_h, cell.b, xs])
        for analytic, numeric in zip([grads["w_x"], grads["w_h"], grads["b"], dxs], fd):
            assert rel_err(analytic, numeric) < 1e-4


def _cell(kind, d_in, hidden, seed=0):
    """An LstmCell, GruCell or BidirectionalLstm with random O(0.4) weights."""
    cls, k = (GruCell, 3) if kind == "gru" else (LstmCell, 4)

    def make(s):
        return cls(_rand((d_in, k * hidden), seed=s),
                   _rand((hidden, k * hidden), seed=s + 1),
                   _rand(k * hidden, seed=s + 2))

    return BidirectionalLstm(make(seed), make(seed + 3)) if kind == "birnn" else make(seed)


class TestBidirectional:
    def test_single_step_boundary(self):
        layer = _cell("birnn", d_in=3, hidden=2)
        x = _rand((1, 2, 3), seed=7)
        out, _ = layer.forward_seq(x, train=False)
        hf, _ = layer.fwd.step(x[0][None], layer.fwd.init_state(2))
        hb, _ = layer.bwd.step(x[0][None], layer.bwd.init_state(2))
        assert np.allclose(out[0], np.concatenate([hf[0], hb[0]], axis=1), atol=1e-15)

    def test_output_width_and_forward_half(self):
        layer = _cell("birnn", d_in=3, hidden=4)
        xs = _rand((5, 2, 3), seed=8)
        out, _ = layer.forward_seq(xs, train=False)
        assert out.shape == (5, 2, 8)
        pure_fwd, _ = layer.fwd.forward_seq(xs, train=False)
        assert np.array_equal(out[:, :, :4], pure_fwd)

    def test_reversal_swaps_halves(self):
        layer = _cell("birnn", d_in=3, hidden=2, seed=3)
        swapped = BidirectionalLstm(layer.bwd, layer.fwd)
        xs = _rand((4, 2, 3), seed=9)
        out, _ = layer.forward_seq(xs, train=False)
        out_rev, _ = swapped.forward_seq(xs[::-1], train=False)
        recombined = np.concatenate(
            [out_rev[::-1, :, 2:], out_rev[::-1, :, :2]], axis=2
        )
        assert np.allclose(out, recombined, atol=1e-12)

    def test_unroll_gradients(self):
        layer = _cell("birnn", d_in=3, hidden=3, seed=4)
        for p in layer.params().values():
            p += _rand(p.shape, scale=0.2, seed=11)
        xs = _rand((3, 2, 3), seed=10)
        weights = _rand((3, 2, 6), seed=12)

        def loss():
            out, _ = layer.forward_seq(xs, train=False)
            return float(np.sum(out * weights))

        _, tape = layer.forward_seq(xs, train=True)
        dxs, grads = layer.backward_seq(tape, weights)
        arrays = [layer.fwd.w_x, layer.fwd.w_h, layer.fwd.b,
                  layer.bwd.w_x, layer.bwd.w_h, layer.bwd.b, xs]
        names = ["fwd.w_x", "fwd.w_h", "fwd.b", "bwd.w_x", "bwd.w_h", "bwd.b"]
        fd = finite_difference(loss, arrays)
        for name, numeric in zip(names, fd):
            assert rel_err(grads[name], numeric) < 1e-4, name
        assert rel_err(dxs, fd[-1]) < 1e-4

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ConfigError):
            BidirectionalLstm(_cell("lstm", 3, 2), _cell("lstm", 3, 5))


def _snapshot(tape):
    if isinstance(tape, dict):
        return {k: _snapshot(v) for k, v in tape.items()}
    return tape.copy()


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a.tobytes() == b.tobytes()


def _load_tracing():
    """perfbench/tracing.py, loaded by path: its lists are what the tracer rebinds."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
# class -> every method the tracer rebinds through cls.__dict__
_TRACED_METHODS: dict[type, set[str]] = {}
for _cls, _attr, _ in _TRACING._METHODS:
    _TRACED_METHODS.setdefault(_cls, set()).add(_attr)
# every module-level function the tracer rebinds by name
_TRACED_FUNCTIONS = [(owner, attr) for owner, attr, _ in _TRACING._FUNCTIONS]


def test_tracer_lists_not_empty():
    assert _TRACED_METHODS and _TRACED_FUNCTIONS


@pytest.mark.parametrize("cls", list(_TRACED_METHODS))
def test_traced_methods_in_class_body(cls):
    # a method inherited from a base class, or moved out of the class,
    # breaks `perfbench/run.py --trace 1`
    assert _TRACED_METHODS[cls] <= set(vars(cls))


@pytest.mark.parametrize("module, name", _TRACED_FUNCTIONS,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in _TRACED_FUNCTIONS])
def test_traced_functions_in_module(module, name):
    # a renamed or moved function breaks `perfbench/run.py --trace 1`
    fn = vars(module).get(name)
    assert callable(fn) and fn.__module__ == module.__name__


@pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
def test_tracer_spans_one_layer_step_per_stack_step(kind):
    # install() reads every traced method from its class __dict__ and every
    # traced function with getattr, so a name a refactor drops fails here. A
    # request makes one stack step for its 8-character prime, which runs
    # every layer once; the 3 characters fed back go through the feeder,
    # whose cells still call the traced sigmoid (the GRU's, one per position);
    # each of the 4 characters sampled goes through the traced softmax
    config = ModelConfig(kind=kind, layer_widths=(4, 3), vocab_size=5, batch_size=1,
                         embed_dim=3, dropout=0.0, init_seed=1)
    stack = build_model(config, Vocabulary(tuple("abcde")))
    original = RecurrentStack.__dict__["step"]
    for mode in ("sample", "argmax"):
        tracer = _TRACING.Tracer()
        tracer.install()
        try:
            generate(stack, GenerationPlan(prime_text="abcdeabc", length=4, mode=mode))
        finally:
            tracer.remove()
        spans = Counter(span[0] for span in tracer.spans)
        assert spans["layers.step.prime"] + spans["layers.step.sample"] == 1
        assert spans[f"layers.{kind}.step"] == 2
        assert spans["layers.birnn.step.cell"] == (4 if kind == "birnn" else 0)
        assert spans["numerics.sigmoid"] == (2 * (8 + 3) if kind == "gru" else 0)
        assert spans["numerics.softmax"] == (4 if mode == "sample" else 0)
        assert RecurrentStack.__dict__["step"] is original


def _kinds_at(*lengths):
    """(kind, L) cases for each kind; the first length keeps the bare kind as id."""
    return [pytest.param(kind, length, id=kind if k == 0 else f"{kind}-L{length}")
            for k, length in enumerate(lengths) for kind in ("lstm", "gru", "birnn")]


class TestScan:
    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_step_unroll_matches_forward_seq(self, kind):
        # generation steps the same gate code the scan runs; for birnn only
        # the forward half is a left-to-right scan
        layer = _cell(kind, d_in=5, hidden=6, seed=20)
        cell = layer.fwd if kind == "birnn" else layer
        xs = _rand((40, 3, 5), scale=1.0, seed=21)
        hs, _ = layer.forward_seq(xs, train=False)
        state = cell.init_state(3)
        for t in range(40):
            h, state = cell.step(xs[t][None], state)
            assert np.max(np.abs(h[0] - hs[t, :, :6])) <= 1e-12, t
        with pytest.raises(ShapeError):  # one position is xs[t][None], not xs[t]
            cell.step(xs[0], state)

    # 53 steps cross two backward block boundaries and end in a partial block;
    # 50 steps are exactly two full blocks
    @pytest.mark.parametrize("kind, length", _kinds_at(53, 50))
    def test_bptt_across_blocks_and_tape_reuse(self, kind, length):
        layer = _cell(kind, d_in=2, hidden=3, seed=30)
        xs = _rand((length, 2, 2), seed=31)
        weights = _rand((length, 2, 6 if kind == "birnn" else 3), seed=32)

        def loss():
            hs, _ = layer.forward_seq(xs, train=False)
            return float(np.sum(hs * weights))

        _, tape = layer.forward_seq(xs, train=True)
        before = _snapshot(tape)
        dxs, grads = layer.backward_seq(tape, weights)
        dxs2, grads2 = layer.backward_seq(tape, weights)
        assert _same(tape, before)
        assert dxs.tobytes() == dxs2.tobytes()
        assert all(grads[k].tobytes() == grads2[k].tobytes() for k in grads)
        names = list(layer.params())
        fd = finite_difference(loss, [layer.params()[k] for k in names] + [xs])
        for name, numeric in zip(names, fd):
            assert rel_err(grads[name], numeric) < 1e-4, name
        assert rel_err(dxs, fd[-1]) < 1e-4

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_backward_never_reads_the_output(self, kind):
        # the tape holds the input, the gates and the block starts, never the
        # returned hs, so a caller may write over hs before backward
        layer = _cell(kind, d_in=4, hidden=5, seed=50)
        xs = _rand((53, 3, 4), seed=51)
        dhs = _rand((53, 3, 10 if kind == "birnn" else 5), seed=52)
        _, tape = layer.forward_seq(xs, train=True)
        want_dxs, want = layer.backward_seq(tape, dhs)
        hs, tape = layer.forward_seq(xs, train=True)
        for cell_tape in (tape["f"], tape["b"]) if kind == "birnn" else (tape,):
            assert set(cell_tape) == {"xs", "gates", "starts"}
        hs.fill(np.nan)
        dxs, grads = layer.backward_seq(tape, dhs)
        assert dxs.tobytes() == want_dxs.tobytes()
        assert all(grads[k].tobytes() == want[k].tobytes() for k in want)


class TestRebuild:
    """Every cell tapes its states only at block starts, and _replay rebuilds
    a block's states from there with the cell's _advance, the update the
    forward runs. They must equal the scan's states bit for bit. After
    _replay over steps [t0, t1), scratch[:, j] holds the states step t0 + j
    reads and scratch[:, -1] the states after step t1 - 1."""

    @pytest.mark.parametrize("length", [1, 24, 25, 26, 51, 100])
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_rebuild_is_bitwise(self, kind, length):
        batch = 3
        for hidden in (7, 64):
            cell = _cell(kind, d_in=5, hidden=hidden, seed=40 + hidden)
            xs = _rand((length, batch, 5), scale=1.0, seed=41)
            hs, tape = cell.forward_seq(xs, train=True)
            # every step's states from the scan's recurrence and projection;
            # states[:, t] is what step t reads
            states = [cell.init_state(batch)]
            for a in cell._project(xs):
                now = tuple(np.empty((batch, hidden)) for _ in cell.STATES)
                cell._recur(a, *states[-1], *now)
                states.append(now)
            states = np.array(states).swapaxes(0, 1)  # [S, L + 1, B, H]
            assert states[0, 1:].tobytes() == hs.tobytes()
            for t0 in range(0, length, _BLOCK):
                for t1 in range(t0 + 1, min(t0 + _BLOCK, length) + 1):
                    n = t1 - t0
                    scratch = np.empty((len(cell.STATES), n + 1, batch, hidden))
                    cell._replay(tape, t0, t1, scratch)
                    assert scratch[:, n].tobytes() == states[:, t1].tobytes(), (hidden, t1)
                    assert scratch[:, :n].tobytes() == states[:, t0:t1].tobytes(), (hidden, t1)

    def test_rebuild_is_bitwise_without_avx512(self):
        # with numpy's AVX-512 dispatch targets off, its ufuncs take the AVX2 paths
        if not numpy_cpu_features().get("X86_V4"):
            pytest.skip("numpy has no X86_V4 dispatch path on this host")
        rerun_forced("tests/test_layers.py::TestRebuild::test_rebuild_is_bitwise", 12,
                     "numpy_cpu_features()['X86_V4']", "False",
                     NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")


class TestEmbeddingFold:
    """Layer 0 reads (table W_x + b)[ids] and returns d table; the reference
    gathers table[ids], runs layer 0 on it as on any other layer's input and
    scatters the input gradient with Embedding.backward."""

    # 40 steps make a full and a partial backward block, 50 two full ones
    @pytest.mark.parametrize("kind, length", _kinds_at(40, 50))
    def test_matches_unfolded_math(self, kind, length):
        vocab, batch = 6, 3
        config = ModelConfig(kind=kind, layer_widths=(4, 3), vocab_size=vocab,
                             batch_size=batch, embed_dim=5, dropout=0.0, init_seed=4)
        stack = build_model(config, Vocabulary(tuple("abcdef")))
        for p in stack.params().values():
            p += _rand(p.shape, scale=0.3, seed=p.size)
        ids = np.random.default_rng(5).integers(0, vocab - 1, (batch, length))
        assert not np.any(ids == vocab - 1)  # the last row is absent...
        assert np.bincount(ids.reshape(-1)).max() > 1  # ...and ids repeat
        dlogits = _rand((batch, length, vocab), seed=6)

        logits, tape = stack.forward(ids, train=True)
        grads = stack.backward(tape, dlogits)

        x = stack.embedding.table[ids.T]
        tapes = []
        for layer in stack.recurrent:
            x, t = layer.forward_seq(x, train=True)
            tapes.append(t)
        ref_logits = stack.dense.forward(x).swapaxes(0, 1)
        dx, _ = stack.dense.backward(x, dlogits.swapaxes(0, 1))
        for layer, t in zip(stack.recurrent[::-1], tapes[::-1]):
            dx, ref = layer.backward_seq(t, dx)  # ends with layer 0's grads
        ref["table"] = stack.embedding.backward(ids.T, dx)

        assert np.max(np.abs(logits - ref_logits)) <= 1e-12
        names = ["table"] + [k for k in ref if k.endswith(("w_x", "b"))]
        assert len(names) == (5 if kind == "birnn" else 3)
        for name in names:
            ours = grads["embedding.table" if name == "table" else f"rnn0.{name}"]
            assert np.max(np.abs(ours - ref[name])) <= 1e-12, name
        assert np.all(grads["embedding.table"][vocab - 1] == 0.0)


class TestDropout:
    def test_rate_zero_identity(self):
        x = _rand((4, 5))
        for train in (True, False):
            out, mask = dropout_forward(x, 0.0, train, Rng(0))
            assert out is x and mask is None

    def test_eval_identity(self):
        x = _rand((4, 5))
        out, mask = dropout_forward(x, 0.4, False, None)
        assert out is x and mask is None

    def test_survivor_statistics(self):
        x = np.ones((100, 10, 100))
        out, mask = dropout_forward(x, 0.4, True, Rng(17))
        survivors = np.count_nonzero(out) / x.size
        assert 0.59 <= survivors <= 0.61
        assert abs(out.mean() - 1.0) < 0.01  # inverted scaling keeps E[out] = x

    def test_backward_uses_same_mask(self):
        x = _rand((20, 20))
        out, keep = dropout_forward(x, 0.4, True, Rng(3))
        dout = np.ones_like(x)
        dx = dropout_backward(dout, keep, 0.4)
        assert np.array_equal(dx == 0.0, out == 0.0)

    # the boolean mask's two multiplies against the float mask keep * s they
    # replace: the same bytes, signed zeros included, and the same bytes again
    # when the output goes through a time-major view of a batch-major array
    @pytest.mark.parametrize("rate", [0.1, 1 / 3, 0.4, 0.5])
    def test_bool_mask_equals_the_float_mask(self, rate):
        x = _rand((7, 5, 6), scale=3.0, seed=11)
        x[0, 0, :3] = [-0.0, 5e-324, -1e308]
        dout = _rand(x.shape, scale=3.0, seed=12)
        dout[1, 0, :2] = [-0.0, -5e-324]
        assert np.any(x < 0) and np.any(dout < 0)
        out, keep = dropout_forward(x, rate, True, Rng(9))
        assert keep.dtype == bool and keep.shape == x.shape
        assert keep.swapaxes(0, 1).flags.c_contiguous  # the batch-major draw
        mask = keep * (1.0 / (1.0 - rate))
        assert out.tobytes() == (x * mask).tobytes()
        assert np.signbit(out[~keep]).tolist() == np.signbit(x[~keep]).tolist()
        dense_input = np.empty((5, 7, 6))
        viewed, _ = dropout_forward(x, rate, True, Rng(9), out=dense_input.swapaxes(0, 1))
        assert viewed.base is dense_input and dense_input.tobytes() == (
            np.ascontiguousarray((x * mask).swapaxes(0, 1)).tobytes())
        expected_dx = (dout * mask).tobytes()
        dx = dropout_backward(dout, keep, rate)
        assert dx is dout and dx.tobytes() == expected_dx

    def test_identity_writes_into_out(self):
        x = _rand((4, 3, 2))
        out = np.empty((3, 4, 2)).swapaxes(0, 1)
        for rate, train in ((0.0, True), (0.4, False)):
            got, keep = dropout_forward(x, rate, train, Rng(0), out=out)
            assert got is out and keep is None and got.tobytes() == x.tobytes()

    def test_invalid_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                dropout_forward(np.zeros(3), rate, True, Rng(0))

    def test_train_without_rng(self):
        with pytest.raises(ValueError):
            dropout_forward(np.zeros(3), 0.4, True, None)

    # x is time-major [L, B, ...]; the draws run in batch-major order, the
    # order seeded masks are defined in. Rates such as 0.1 and 1/3 make
    # rate * 2^53 a non-integer.
    @given(rate=st.one_of(st.sampled_from([0.1, 1 / 3, 0.4, 0.5, 0.9, 5e-324]),
                          st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
           shape=st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=4),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=80, deadline=None)
    def test_mask_is_the_batch_major_uniform_draw(self, rate, shape, seed):
        x = _rand(shape)
        a, b = Rng(seed), Rng(seed)
        out, mask = dropout_forward(x, rate, True, a)
        if rate == 0.0:
            assert out is x and mask is None
            return
        keep = (b.uniform([shape[1], shape[0], *shape[2:]]) >= rate).swapaxes(0, 1)
        expected = keep.astype(np.float64) / (1.0 - rate)
        assert mask.dtype == bool
        assert mask.tobytes() == np.ascontiguousarray(keep).tobytes()
        assert out.tobytes() == (x * expected).tobytes()
        assert a.next_u64() == b.next_u64()


class TestDense:
    def test_zero_kernel_outputs_bias(self):
        layer = Dense(np.zeros((3, 2)), np.array([1.5, -0.5]))
        out = layer.forward(_rand((2, 4, 3)))
        assert np.allclose(out, [1.5, -0.5])

    def test_identity_map(self):
        layer = Dense(np.eye(3), np.zeros(3))
        x = _rand((2, 2, 3))
        assert np.allclose(layer.forward(x), x, atol=1e-15)

    def test_gradients(self):
        layer = Dense(_rand((3, 4), seed=1), _rand(4, seed=2))
        x = _rand((2, 5, 3), seed=3)
        weights = _rand((2, 5, 4), seed=4)

        def loss():
            return float(np.sum(layer.forward(x) * weights))

        dx, grads = layer.backward(x, weights)
        fd = finite_difference(loss, [layer.w, layer.b, x])
        assert rel_err(grads["w"], fd[0]) < 1e-6
        assert rel_err(grads["b"], fd[1]) < 1e-6
        assert rel_err(dx, fd[2]) < 1e-6

    # RecurrentStack.backward takes d input time-major through a batch-major
    # view of out; the per-row GEMMs must give the bytes of the batch-major
    # product, transposed (16 is birnn quad's last width)
    @pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
    def test_backward_into_a_time_major_out(self, width):
        layer = Dense(_rand((width, 51), seed=width), _rand(51, seed=1))
        x = _rand((16, 30, width), seed=2)
        dout = _rand((16, 30, 51), seed=3)
        dx, grads = layer.backward(x, dout)
        time_major = np.empty((30, 16, width))
        into, grads_into = layer.backward(x, dout, out=time_major.swapaxes(0, 1))
        assert into.base is time_major
        assert time_major.tobytes() == np.ascontiguousarray(dx.swapaxes(0, 1)).tobytes()
        assert all(grads[k].tobytes() == grads_into[k].tobytes() for k in grads)

    # forward is the one x W + b: training passes batch-major [B, L, F] rows
    # and the feeder a [1, F] row with its logits row as out; both must give
    # the bytes of x @ w + b
    @pytest.mark.parametrize("shape", [(16, 30, 64), (1, 64)])
    def test_forward_into_out_is_x_w_plus_b(self, shape):
        layer = Dense(_rand((64, 51), seed=5), _rand(51, seed=6))
        x = _rand(shape, seed=7)
        expected = (x @ layer.w + layer.b).tobytes()
        assert layer.forward(x).tobytes() == expected
        out = np.full((*shape[:-1], 51), np.nan)
        assert layer.forward(x, out=out) is out
        assert out.tobytes() == expected


def _tiny_stack(kind="lstm", vocab=2, embed=2, hidden=1, zero=True):
    if zero:
        emb = Embedding(np.zeros((vocab, embed)))
        cell = LstmCell(np.zeros((embed, 4 * hidden)), np.zeros((hidden, 4 * hidden)),
                        np.zeros(4 * hidden))
        dense = Dense(np.zeros((hidden, vocab)), np.zeros(vocab))
        return RecurrentStack(emb, [cell], 0.0, dense)
    config = ModelConfig(kind=kind, layer_widths=(hidden,), vocab_size=vocab,
                         batch_size=1, embed_dim=embed, dropout=0.0)
    m = build_model(config, Vocabulary(tuple("abcdefgh"[:vocab])))
    # the bare stack: TestStack trains on batches of any size, which Model rejects
    return RecurrentStack(m.embedding, m.recurrent, m.dropout_rate, m.dense)


class TestStack:
    def test_zero_weights_uniform_logits(self):
        from charrnn.objective import ce_loss

        stack = _tiny_stack()
        idx = np.array([[0, 1, 1, 0]])
        logits, _ = stack.forward(idx)
        assert np.allclose(logits, 0.0)
        loss = ce_loss(logits, idx).mean_loss
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_output_shape(self):
        stack = _tiny_stack(vocab=5, embed=3, hidden=4, zero=False)
        logits, tape = stack.forward(np.zeros((3, 7), dtype=np.int64))
        assert logits.shape == (3, 7, 5)
        assert tape is None

    def test_eval_forward_bit_reproducible(self):
        stack = _tiny_stack(vocab=5, embed=3, hidden=4, zero=False)
        idx = np.random.default_rng(0).integers(0, 5, (2, 6))
        a, _ = stack.forward(idx)
        b, _ = stack.forward(idx)
        assert a.tobytes() == b.tobytes()

    def test_backward_without_tape(self):
        stack = _tiny_stack()
        with pytest.raises(ValueError):
            stack.backward(None, np.zeros((1, 4, 2)))

    def test_zero_upstream_zero_grads(self):
        stack = _tiny_stack(vocab=4, embed=3, hidden=3, zero=False)
        idx = np.random.default_rng(1).integers(0, 4, (2, 5))
        _, tape = stack.forward(idx, train=True, dropout_rng=Rng(0))
        grads = stack.backward(tape, np.zeros((2, 5, 4)))
        assert all(np.count_nonzero(g) == 0 for g in grads.values())

    def test_backward_linearity(self):
        stack = _tiny_stack(vocab=4, embed=3, hidden=3, zero=False)
        idx = np.random.default_rng(2).integers(0, 4, (2, 5))
        dlogits = _rand((2, 5, 4), seed=3)
        _, tape = stack.forward(idx, train=True, dropout_rng=Rng(0))
        g1 = stack.backward(tape, dlogits)
        g2 = stack.backward(tape, 2.0 * dlogits)
        assert all(np.allclose(2.0 * g1[k], g2[k], atol=1e-12) for k in g1)

    def test_param_grad_keys_align(self):
        stack = _tiny_stack(vocab=4, embed=3, hidden=3, zero=False)
        idx = np.zeros((1, 4), dtype=np.int64)
        _, tape = stack.forward(idx, train=True, dropout_rng=Rng(0))
        grads = stack.backward(tape, _rand((1, 4, 4)))
        assert list(grads) == list(stack.params())
        assert all(grads[k].shape == stack.params()[k].shape for k in grads)


class TestStackGradientWithDropout:
    """Central differences through the whole stack with dropout on. Each
    forward draws its masks from its own Rng(seed), so ce_loss(forward(x,
    train=True, dropout_rng=Rng(seed))) is a deterministic function of the
    weights, and its gradient must be what backward returns (criterion 1's
    1e-4, on sampled coordinates of every tensor)."""

    # 26 and 51 steps cross the _BLOCK = 25 boundary once and twice
    @pytest.mark.parametrize("length", [26, 51])
    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_central_differences(self, kind, length):
        from charrnn.objective import ce_loss

        config = ModelConfig(kind=kind, layer_widths=(5, 4), vocab_size=6, batch_size=2,
                             embed_dim=3, dropout=0.4, seq_len=length, init_seed=11)
        model = build_model(config, Vocabulary(tuple("abcdef")))
        rng = np.random.default_rng(length)
        for p in model.params().values():
            p += rng.normal(scale=0.3, size=p.shape)
        ids = rng.integers(0, 6, (2, length + 1))
        inputs, targets = ids[:, :-1], ids[:, 1:]

        def loss():
            logits, tape = model.forward(inputs, train=True, dropout_rng=Rng(17))
            return ce_loss(logits, targets), tape

        report, tape = loss()
        assert all(keep is not None and not keep.all() for keep in tape.masks)
        grads = model.backward(tape, report.grad)
        h, worst = 1e-5, 0.0
        for name, p in model.params().items():
            flat, analytic = p.reshape(-1), grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()[0].mean_loss
                flat[i] = orig - h
                down = loss()[0].mean_loss
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                worst = max(worst, abs(fd - analytic[i]) / max(1e-6, abs(fd) + abs(analytic[i])))
        assert worst < 1e-4, f"worst rel err {worst:.3e}"


def _norm_rel(got: np.ndarray, ref: np.ndarray) -> float:
    """||got - ref|| / ||ref||; 0 where both are all zeros."""
    diff = float(np.linalg.norm(got - ref))
    return diff if diff == 0.0 else diff / float(np.linalg.norm(ref))


class TestStackAgainstReference:
    """The whole training step against tests/stack_reference.py: a per-step,
    batch-major reference with no hoisted projection, no backward blocks and
    no folded embedding, fed the keep masks the model's forward drew. Lengths
    1, 24, 25, 26 and 51 end before, at and after the _BLOCK = 25 boundaries,
    where the LSTM's backward rebuilds h and c from its block starts and
    carries dh and dc across."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["lstm", "gru", "birnn"]),
           widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           embed=st.integers(1, 9), vocab=st.integers(2, 9), batch=st.integers(1, 4),
           length=st.sampled_from([1, 24, 25, 26, 51]), dropout=st.sampled_from([0.0, 0.4]),
           seed=st.integers(0, 2**16))
    def test_step_matches_reference(self, kind, widths, embed, vocab, batch, length,
                                    dropout, seed):
        from charrnn.objective import ce_loss

        config = ModelConfig(kind=kind, layer_widths=tuple(widths), vocab_size=vocab,
                             batch_size=batch, embed_dim=embed, dropout=dropout,
                             seq_len=length, init_seed=seed)
        model = build_model(config, Vocabulary(tuple("abcdefghi"[:vocab])))
        rng = np.random.default_rng(seed)
        for p in model.params().values():
            p += rng.normal(scale=0.3, size=p.shape)
        ids = rng.integers(0, vocab, (batch, length + 1))
        inputs, targets = ids[:, :-1], ids[:, 1:]

        logits, tape = model.forward(inputs, train=True, dropout_rng=Rng(seed))
        report = ce_loss(logits, targets)
        grads = model.backward(tape, report.grad)
        ref_logits, ref_loss, ref_grads = stack_reference(
            model.params(), kind, dropout, inputs, targets, tape.masks)

        assert _norm_rel(logits, ref_logits) <= 1e-12
        assert abs(report.mean_loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert set(ref_grads) == set(grads)
        worst = max(grads, key=lambda k: _norm_rel(grads[k], ref_grads[k]))
        assert _norm_rel(grads[worst], ref_grads[worst]) <= 1e-12, worst


def _leaves(state):
    """Every array of a (nested) stack or layer state, in order."""
    if isinstance(state, np.ndarray):
        return [state]
    return [a for part in state for a in _leaves(part)]


class TestGenerationStep:
    """RecurrentStack.step runs layer 0 on the training forward's arithmetic:
    P = table W_x + b from init_state, and P[ids] per step."""

    @staticmethod
    def _stack(kind, widths=(6,)):
        config = ModelConfig(kind=kind, layer_widths=widths, vocab_size=7, batch_size=1,
                             embed_dim=5, dropout=0.0, init_seed=8)
        stack = build_model(config, Vocabulary(tuple("abcdefg")))
        for p in stack.params().values():
            p += _rand(p.shape, scale=0.5, seed=p.size)
        return stack

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_layer0_states_equal_forward_seq_bitwise(self, kind):
        # for birnn only the forward direction scans left to right
        stack = self._stack(kind, widths=(6, 4))
        ids = np.random.default_rng(9).integers(0, 7, (1, 40))
        hs, _ = stack.recurrent[0].forward_seq(Embedded(stack.embedding, ids.T), train=False)
        state = stack.init_state(1)
        for t in range(40):
            _, state = stack.step(ids[:, t], state)
            h = state[0][0][0] if kind == "birnn" else state[0][0]
            assert h.tobytes() == hs[t, :, :6].tobytes(), t

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_one_call_prime_equals_per_character_calls(self, kind):
        stack = self._stack(kind, widths=(6, 4))
        ids = np.random.default_rng(10).integers(0, 7, (1, 25))
        logits, state = stack.step(ids, stack.init_state(1))
        state_1 = stack.init_state(1)
        for t in range(25):
            logits_1, state_1 = stack.step(ids[:, t], state_1)
        assert logits.tobytes() == logits_1.tobytes()
        assert [a.tobytes() for a in _leaves(state)] == [a.tobytes() for a in _leaves(state_1)]

    def test_state_starts_from_the_given_state(self):
        stack = self._stack("lstm")
        ids = np.random.default_rng(11).integers(0, 7, (1, 12))
        _, head = stack.step(ids[:, :5], stack.init_state(1))
        logits, _ = stack.step(ids[:, 5:], head)
        whole, _ = stack.step(ids, stack.init_state(1))
        assert logits.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("shape", [(1, 0), (1, 2, 3)])
    def test_bad_id_shapes(self, shape):
        stack = self._stack("gru")
        with pytest.raises(ShapeError):
            stack.step(np.zeros(shape, dtype=np.int64), stack.init_state(1))

    def test_out_of_range_id(self):
        stack = self._stack("gru")
        with pytest.raises(VocabularyError):
            stack.step(np.array([[0, 7]]), stack.init_state(1))

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("shape", [(0,), (2,), (2, 3)])
    def test_ids_batch_must_match_the_state(self, kind, shape):
        stack = self._stack(kind)
        with pytest.raises(ShapeError):
            stack.step(np.zeros(shape, dtype=np.int64), stack.init_state(1))

    @pytest.mark.parametrize("ids", [
        np.array([[0.0, 1.0]]), np.array([[True, True]]), np.array([True]),
        np.array([["a", "b"]]), np.array([[0, 1]], dtype=object),
    ], ids=["float", "bool", "bool-as-mask", "str", "object"])
    def test_non_integer_ids_refused(self, ids):
        # numpy would index with floats and strs in error and read bools as a
        # mask: [True] against a batch-1 state would run silently
        stack = self._stack("gru")
        with pytest.raises(VocabularyError, match="must be integers"):
            stack.step(ids, stack.init_state(1))
        with pytest.raises(VocabularyError, match="must be integers"):
            stack.forward(np.atleast_2d(ids))
        cell = stack.recurrent[0]
        with pytest.raises(VocabularyError, match="must be integers"):
            cell.step(Embedded(stack.embedding, ids.reshape(-1)[:1]), stack.init_state(1)[0])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint8, np.uint64])
    def test_any_integer_dtype_steps(self, dtype):
        stack = self._stack("gru")
        ids = np.array([[1, 6, 0]])
        want, _ = stack.step(ids, stack.init_state(1))
        logits, _ = stack.step(ids.astype(dtype), stack.init_state(1))
        assert logits.tobytes() == want.tobytes()
        with pytest.raises(VocabularyError, match="out of range"):
            stack.step(np.array([[1, 7]], dtype=dtype), stack.init_state(1))
        if np.issubdtype(dtype, np.signedinteger):
            with pytest.raises(VocabularyError, match="index -1 out of range"):
                stack.step(np.array([[1, -1]], dtype=dtype), stack.init_state(1))

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["lstm", "gru", "birnn"]), depth=st.integers(1, 3),
           batch=st.integers(1, 3), data=st.data())
    def test_step_composes_bitwise(self, kind, depth, batch, data):
        # one call over [B, L] ids, two chained calls and L one-position
        # calls give the same logits and state leaves, and no call writes
        # the state it is given
        length = data.draw(st.integers(1, 30), label="length")
        split = data.draw(st.integers(1, length), label="split")
        config = ModelConfig(kind=kind, layer_widths=(5, 4, 3)[:depth], vocab_size=7,
                             batch_size=batch, embed_dim=4, dropout=0.0, init_seed=depth)
        stack = build_model(config, Vocabulary(tuple("abcdefg")))
        for p in stack.params().values():
            p += _rand(p.shape, scale=0.5, seed=p.size)
        gen = np.random.default_rng(length * 10 + split)
        _, start = stack.step(gen.integers(0, 7, (batch, 3)), stack.init_state(batch))
        ids = gen.integers(0, 7, (batch, length))
        given_bytes = [a.tobytes() for a in _leaves(start)]

        def unchanged(state, before):
            return [a.tobytes() for a in _leaves(state)] == before

        whole = stack.step(ids, start)
        assert unchanged(start, given_bytes)
        head_logits, mid = stack.step(ids[:, :split], start)
        mid_bytes = [a.tobytes() for a in _leaves(mid)]
        chained = stack.step(ids[:, split:], mid) if split < length else (head_logits, mid)
        assert unchanged(start, given_bytes) and unchanged(mid, mid_bytes)
        one, state = None, start
        for t in range(length):
            one, state = stack.step(ids[:, t], state)
        assert unchanged(start, given_bytes)
        for logits, final in (chained, (one, state)):
            assert logits.tobytes() == whole[0].tobytes()
            assert unchanged(final, [a.tobytes() for a in _leaves(whole[1])])

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_feeder_repeats_and_never_writes_a_weight(self, kind):
        # two feeders primed with the same ids give the same logits bytes,
        # so neither advances a state the other reads, and priming and
        # feeding leave every parameter as it was
        stack = self._stack(kind, widths=(6, 4))
        gen = np.random.default_rng(14)
        prime = gen.integers(0, 7, 9)
        weights = {name: p.tobytes() for name, p in stack.params().items()}
        ids = gen.integers(0, 7, 30).tolist()
        runs = []
        for _ in range(2):
            feed, logits = stack.feeder(prime)
            runs.append([logits.tobytes()] + [feed(i).tobytes() for i in ids])
            assert {name: p.tobytes() for name, p in stack.params().items()} == weights
        # and both equal the same prime and ids through step(), bit for bit
        logits, state = stack.step(prime[None], stack.init_state(1))
        stepped = [logits[0].tobytes()]
        for i in ids:
            logits, state = stack.step(np.array([i]), state)
            stepped.append(logits[0].tobytes())
        assert runs[0] == runs[1] == stepped

    def test_feeder_on_empty_ids_raises_shape_error(self):
        stack = self._stack("lstm")
        with pytest.raises(ShapeError, match="L >= 1"):
            stack.feeder(np.array([], dtype=np.int64))

    def test_feeder_alternates_birnn_directions(self):
        # each layer runs fwd first on the first feed and the other direction
        # first on the next, so the two GEMVs in a row read the same W_h
        stack = self._stack("birnn", widths=(6, 4))
        calls = []
        for i, layer in enumerate(stack.recurrent):
            for name in ("fwd", "bwd"):
                cell = getattr(layer, name)

                def recording(*args, _recur=cell._recur, _tag=(i, name)):
                    calls.append(_tag)
                    _recur(*args)

                cell._recur = recording
        feed, _ = stack.feeder(np.array([1, 2, 3]))
        calls.clear()  # the prime's step() calls
        for i in (4, 5, 6, 0):
            feed(i)
        orders = [("fwd", "bwd"), ("bwd", "fwd")] * 2
        assert calls == [(layer, name) for order in orders for layer in (0, 1)
                         for name in order]

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_prime_and_sampling_leave_p_unchanged(self, kind):
        # each step gathers rows of P and works on them in place; P is never written
        stack = self._stack(kind, widths=(6, 4))
        state = stack.init_state(1)

        def tables(state):
            return [s[-1] for s in (state[0] if kind == "birnn" else [state[0]])]

        before = [p.copy() for p in tables(state)]
        ids = np.random.default_rng(12).integers(0, 7, (1, 20))
        logits, after = stack.step(ids, state)
        rng = Rng(13)
        for _ in range(50):
            probs = np.exp(logits[0] - logits[0].max())
            nxt = sample_categorical(probs / probs.sum(), rng)
            logits, after = stack.step(np.array([nxt]), after)
        assert all(p is q for p, q in zip(tables(after), tables(state)))
        assert [p.tobytes() for p in tables(after)] == [p.tobytes() for p in before]


class TestStability:
    def test_lstm_thousand_steps_bounded(self):
        cell = _cell("lstm", 8, 16, seed=21)
        state = cell.init_state(4)
        gauss = np.random.default_rng(0)
        h = None
        for _ in range(1000):
            h, state = cell.step(gauss.normal(size=(4, 8))[None], state)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(state[1]))
        assert np.max(np.abs(h)) <= 1.0  # h = o * tanh(c), both factors in (-1, 1)

    def test_gru_thousand_steps_bounded(self):
        cell = _cell("gru", 8, 16, seed=22)
        state = cell.init_state(4)
        gauss = np.random.default_rng(1)
        h = None
        for _ in range(1000):
            h, state = cell.step(gauss.normal(size=(4, 8))[None], state)
        assert np.all(np.isfinite(h))

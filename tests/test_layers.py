import importlib.util

import numpy as np
import pytest

from charrnn.corpus import Vocabulary
from charrnn.exceptions import ConfigError, ShapeError, VocabularyError
from charrnn.layers import (
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
from charrnn.numerics import Rng
from tests.conftest import REPO_ROOT, finite_difference, rel_err


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
        h, (h2, c2) = cell.step(_rand((4, 3)), cell.init_state(4))
        assert np.array_equal(h, np.zeros((4, 2)))
        assert np.array_equal(c2, np.zeros((4, 2)))

    def test_zero_weights_closed_form(self):
        # all gates sigmoid(0) = 0.5, candidate tanh(0) = 0:
        # c' = 0.5 c, h' = 0.5 tanh(0.5 c)
        cell = LstmCell(np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8))
        c0 = _rand((4, 2), seed=5)
        h, (h2, c2) = cell.step(_rand((4, 3)), (np.zeros((4, 2)), c0))
        assert np.allclose(c2, 0.5 * c0, atol=1e-15)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * c0), atol=1e-15)

    def test_two_step_unroll_gradients(self):
        batch, d_in, hidden, length = 2, 3, 4, 2
        cell = LstmCell(_rand((d_in, 4 * hidden), seed=1),
                        _rand((hidden, 4 * hidden), seed=2),
                        _rand(4 * hidden, seed=3))
        xs = _rand((batch, length, d_in), seed=4)
        weights = _rand((batch, length, hidden), seed=5)

        def loss():
            hs, _ = cell.forward_seq(xs, train=False)
            return float(np.sum(hs * weights))

        _, tape = cell.forward_seq(xs, train=True)
        dxs, grads = cell.backward_seq(tape, weights)
        fd = finite_difference(loss, [cell.w_x, cell.w_h, cell.b, xs])
        for analytic, numeric in zip([grads["w_x"], grads["w_h"], grads["b"], dxs], fd):
            assert rel_err(analytic, numeric) < 1e-4


class TestGruCell:
    def test_zero_weights_halves_state(self):
        cell = GruCell(np.zeros((3, 9)), np.zeros((3, 9)), np.zeros(9))
        h0 = _rand((4, 3), seed=6)
        h, _ = cell.step(_rand((4, 3)), (h0,))
        assert np.allclose(h, 0.5 * h0, atol=1e-15)

    def test_zero_state_fixed_point(self):
        cell = GruCell(np.zeros((3, 9)), np.zeros((3, 9)), np.zeros(9))
        h, _ = cell.step(_rand((4, 3)), (np.zeros((4, 3)),))
        assert np.array_equal(h, np.zeros((4, 3)))

    def test_unroll_gradients(self):
        batch, d_in, hidden, length = 2, 3, 4, 3
        cell = GruCell(_rand((d_in, 3 * hidden), seed=1),
                       _rand((hidden, 3 * hidden), seed=2),
                       _rand(3 * hidden, seed=3))
        xs = _rand((batch, length, d_in), seed=4)
        weights = _rand((batch, length, hidden), seed=5)

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
        x = _rand((2, 1, 3), seed=7)
        out, _ = layer.forward_seq(x, train=False)
        hf, _ = layer.fwd.step(x[:, 0], layer.fwd.init_state(2))
        hb, _ = layer.bwd.step(x[:, 0], layer.bwd.init_state(2))
        assert np.allclose(out[:, 0], np.concatenate([hf, hb], axis=1), atol=1e-15)

    def test_output_width_and_forward_half(self):
        layer = _cell("birnn", d_in=3, hidden=4)
        xs = _rand((2, 5, 3), seed=8)
        out, _ = layer.forward_seq(xs, train=False)
        assert out.shape == (2, 5, 8)
        pure_fwd, _ = layer.fwd.forward_seq(xs, train=False)
        assert np.array_equal(out[:, :, :4], pure_fwd)

    def test_reversal_swaps_halves(self):
        layer = _cell("birnn", d_in=3, hidden=2, seed=3)
        swapped = BidirectionalLstm(layer.bwd, layer.fwd)
        xs = _rand((2, 4, 3), seed=9)
        out, _ = layer.forward_seq(xs, train=False)
        out_rev, _ = swapped.forward_seq(xs[:, ::-1], train=False)
        recombined = np.concatenate(
            [out_rev[:, ::-1, 2:], out_rev[:, ::-1, :2]], axis=2
        )
        assert np.allclose(out, recombined, atol=1e-12)

    def test_unroll_gradients(self):
        layer = _cell("birnn", d_in=3, hidden=3, seed=4)
        for p in layer.params().values():
            p += _rand(p.shape, scale=0.2, seed=11)
        xs = _rand((2, 3, 3), seed=10)
        weights = _rand((2, 3, 6), seed=12)

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
        xs = _rand((3, 40, 5), scale=1.0, seed=21)
        hs, _ = layer.forward_seq(xs, train=False)
        state = cell.init_state(3)
        for t in range(40):
            h, state = cell.step(xs[:, t], state)
            assert np.max(np.abs(h - hs[:, t, :6])) <= 1e-12, t

    # 53 steps cross two backward block boundaries and end in a partial block;
    # 50 steps are exactly two full blocks
    @pytest.mark.parametrize("kind, length", _kinds_at(53, 50))
    def test_bptt_across_blocks_and_tape_reuse(self, kind, length):
        layer = _cell(kind, d_in=2, hidden=3, seed=30)
        xs = _rand((2, length, 2), seed=31)
        weights = _rand((2, length, 6 if kind == "birnn" else 3), seed=32)

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

        x = stack.embedding.forward(ids)
        tapes = []
        for layer in stack.recurrent:
            x, t = layer.forward_seq(x, train=True)
            tapes.append(t)
        ref_logits = stack.dense.forward(x)
        dx, _ = stack.dense.backward(x, dlogits)
        for layer, t in zip(stack.recurrent[::-1], tapes[::-1]):
            dx, ref = layer.backward_seq(t, dx)  # ends with layer 0's grads
        ref["table"] = stack.embedding.backward(ids, dx)

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
        x = np.ones(100_000)
        out, mask = dropout_forward(x, 0.4, True, Rng(17))
        survivors = np.count_nonzero(out) / x.size
        assert 0.59 <= survivors <= 0.61
        assert abs(out.mean() - 1.0) < 0.01  # inverted scaling keeps E[out] = x

    def test_backward_uses_same_mask(self):
        x = _rand((20, 20))
        out, mask = dropout_forward(x, 0.4, True, Rng(3))
        dout = np.ones_like(x)
        dx = dropout_backward(dout, mask)
        assert np.array_equal(dx == 0.0, out == 0.0)

    def test_invalid_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                dropout_forward(np.zeros(3), rate, True, Rng(0))

    def test_train_without_rng(self):
        with pytest.raises(ValueError):
            dropout_forward(np.zeros(3), 0.4, True, None)


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
        hs, _ = stack.recurrent[0].forward_seq(Embedded(stack.embedding, ids), train=False)
        state = stack.init_state(1)
        for t in range(40):
            _, state = stack.step(ids[:, t], state)
            h = state[0][0][0] if kind == "birnn" else state[0][0]
            assert h.tobytes() == hs[:, t, :6].tobytes(), t

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


class TestStability:
    def test_lstm_thousand_steps_bounded(self):
        cell = _cell("lstm", 8, 16, seed=21)
        state = cell.init_state(4)
        gauss = np.random.default_rng(0)
        h = None
        for _ in range(1000):
            h, state = cell.step(gauss.normal(size=(4, 8)), state)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(state[1]))
        assert np.max(np.abs(h)) <= 1.0  # h = o * tanh(c), both factors in (-1, 1)

    def test_gru_thousand_steps_bounded(self):
        cell = _cell("gru", 8, 16, seed=22)
        state = cell.init_state(4)
        gauss = np.random.default_rng(1)
        h = None
        for _ in range(1000):
            h, state = cell.step(gauss.normal(size=(4, 8)), state)
        assert np.all(np.isfinite(h))

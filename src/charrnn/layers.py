"""Layers with hand-derived forward and backward passes.

Everything operates on batch-major arrays: token indices are [B, L], activations
are [B, L, features]. Recurrent layers scan left to right from a zero state;
the bidirectional wrapper additionally scans right to left over the same input
and concatenates both directions. Backward passes are exact reverse-mode
derivatives of the forward code (backpropagation through time), written out
gate by gate.

Gate layouts are fixed so checkpoints stay readable across versions:
  LSTM kernel columns: (input i, forget f, candidate g, output o), each H wide.
  GRU kernel columns:  (update z, reset r, candidate n), each H wide.

LSTM step:   i,f,o = sigmoid(x W_x + b + h W_h)[gates], g = tanh(...)
             c' = f*c + i*g,  h' = o*tanh(c')
GRU step:    z,r = sigmoid(x W_x + b + h W_h)[gates]
             n = tanh(x Wx_n + b_n + (r*h) Wh_n),  h' = z*h + (1-z)*n
Note the GRU candidate applies the reset gate to h before its recurrent
matmul, and z is a "keep" gate (z = 1 preserves the old state).

Only the recurrence runs inside the time loops. Forward: x W_x + b for every
step is one GEMM before the loop, and each step adds h W_h, applies one
sigmoid over the whole gate block, overwrites the candidate slice with tanh
and writes the gates into the tape in place of the projection. The per-step
gate code is shared by the scan and by step(), so sampling runs exactly the
arithmetic training does. Backward walks the sequence in blocks of _BLOCK
steps, last block first. Per block it first computes every factor of
d loss / d pre-activation (da) that needs no recurrence, for all the block's
steps at once; the loop then carries dh (and the LSTM's dc) back one step at
a time, scales da in place, and makes the recurrent matmuls: dh = da W_h^T
(the GRU also da_n Wh_n^T for the reset path). After the loop, dW_x, dW_h,
db and dxs are one GEMM or reduction each over the block's B * _BLOCK rows.
Blocking bounds the extra memory of backward to [B, _BLOCK, kH] whatever the
sequence length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, VocabularyError
from .numerics import Rng, sigmoid


def glorot_uniform(rng: Rng, shape: tuple[int, int]) -> np.ndarray:
    """Uniform(-l, l) with l = sqrt(6 / (fan_in + fan_out)) from the 2-D shape."""
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(shape, -limit, limit)


# Time steps per backward block (see the module docstring).
_BLOCK = 25


def _time_blocks(batch: int, length: int, gates: int, hidden: int):
    """Backward blocks covering [0, length), last first, as (t0, t1, da).

    da is a [B, t1 - t0, gates, H] scratch array for the block; every block
    reuses the same memory.
    """
    work = np.empty(batch * min(length, _BLOCK) * gates * hidden)
    for t0 in range((length - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
        t1 = min(t0 + _BLOCK, length)
        size = batch * (t1 - t0) * gates * hidden
        yield t0, t1, work[:size].reshape(batch, t1 - t0, gates, hidden)


def _split(a: np.ndarray, parts: int) -> list[np.ndarray]:
    """Views of `parts` equal slices of the last axis (one per gate)."""
    width = a.shape[-1] // parts
    return [a[..., k * width : (k + 1) * width] for k in range(parts)]


class Embedding:
    """Lookup table [V, E]; forward is a row gather, backward a scatter-add."""

    def __init__(self, table: np.ndarray):
        self.table = table

    @classmethod
    def create(cls, rng: Rng, vocab_size: int, embed_dim: int) -> "Embedding":
        return cls(glorot_uniform(rng, (vocab_size, embed_dim)))

    def forward(self, indices: np.ndarray) -> np.ndarray:
        v = self.table.shape[0]
        if indices.size and (indices.min() < 0 or indices.max() >= v):
            bad = int(indices.reshape(-1)[
                np.argmax((indices < 0) | (indices >= v))
            ])
            raise VocabularyError(f"embedding index {bad} out of range [0, {v})")
        return self.table[indices]

    def backward(self, indices: np.ndarray, dout: np.ndarray) -> np.ndarray:
        # d loss / d table[r] is the sum of upstream grads wherever row r occurs:
        # one GEMM of the [V, B*L] one-hot matrix with dout as [B*L, E] rows
        vocab, width = self.table.shape
        onehot = np.arange(vocab)[:, None] == indices.reshape(1, -1)
        return onehot.astype(np.float64) @ dout.reshape(-1, width)

    def params(self):
        return {"table": self.table}


class LstmCell:
    """One LSTM direction: kernels w_x [D, 4H], w_h [H, 4H], bias b [4H]."""

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
        self.w_x = w_x
        self.w_h = w_h
        self.b = b

    @classmethod
    def create(cls, rng: Rng, input_dim: int, hidden: int,
               unit_forget_bias: bool = True) -> "LstmCell":
        w_x = glorot_uniform(rng, (input_dim, 4 * hidden))
        w_h = glorot_uniform(rng, (hidden, 4 * hidden))
        b = np.zeros(4 * hidden)
        if unit_forget_bias:
            b[hidden : 2 * hidden] = 1.0
        return cls(w_x, w_h, b)

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    @property
    def output_size(self) -> int:
        return self.hidden_size

    def init_state(self, batch: int):
        h = self.hidden_size
        return np.zeros((batch, h)), np.zeros((batch, h))

    def _recur(self, a, h_prev, c_prev, c, h) -> None:
        """One timestep, writing c and h.

        a holds x W_x + b [B, 4H] on entry and the gates (i, f, g, o) on exit.
        The gate math runs on a contiguous copy, since a may be a strided
        view into the tape.
        """
        hs = self.hidden_size
        gates = h_prev @ self.w_h
        gates += a
        g = np.tanh(gates[:, 2 * hs : 3 * hs])
        sigmoid(gates, out=gates)
        gates[:, 2 * hs : 3 * hs] = g
        a[...] = gates
        i, f, _, o = _split(gates, 4)
        np.multiply(f, c_prev, out=c)
        c += i * g
        np.tanh(c, out=h)
        h *= o

    def step(self, x: np.ndarray, state):
        h_prev, c_prev = state
        h, c = np.empty_like(h_prev), np.empty_like(c_prev)
        self._recur(x @ self.w_x + self.b, h_prev, c_prev, c, h)
        return h, (h, c)

    def forward_seq(self, xs: np.ndarray, train: bool):
        """Scan the whole sequence from a zero state.

        Returns (hs [B, L, H], tape). The tape is None unless train is set.
        The input projection plus bias has no recurrence and is one GEMM
        before the time loop; each step turns its slice of that projection
        into its gates in place. h and c are kept as [B, L + 1, H] with the
        zero state at index 0, so step t reads index t and writes t + 1.
        """
        batch, length, width = xs.shape
        hs_n = self.hidden_size
        gates = xs.reshape(batch * length, width) @ self.w_x
        gates += self.b
        gates = gates.reshape(batch, length, 4 * hs_n)
        h = np.zeros((batch, length + 1, hs_n))
        c = np.zeros_like(h)
        for t in range(length):
            self._recur(gates[:, t], h[:, t], c[:, t], c[:, t + 1], h[:, t + 1])
        tape = {"xs": xs, "gates": gates, "c": c, "h": h} if train else None
        return h[:, 1:], tape

    def backward_seq(self, tape, dhs: np.ndarray):
        """BPTT given d loss / d hs. Returns (dxs, grads). The tape is not modified."""
        xs, gates, c_all, h_all = tape["xs"], tape["gates"], tape["c"], tape["h"]
        batch, length, hs_n = dhs.shape
        w_h_t = self.w_h.T
        dw_x = np.zeros_like(self.w_x)
        dw_h = np.zeros_like(self.w_h)
        db = np.zeros_like(self.b)
        dxs = np.empty(xs.shape)
        dh_next = np.zeros((batch, hs_n))
        dc_next = np.zeros((batch, hs_n))
        for t0, t1, da in _time_blocks(batch, length, 4, hs_n):
            block = gates[:, t0:t1]
            i, f, g, o = _split(block, 4)
            # da starts as the local derivative of each gate's pre-activation;
            # the loop scales it in place by dc (i, f, g) or by dh (o)
            da_i, da_f, da_g, da_o = (da[:, :, k] for k in range(4))
            da_block = da.reshape(block.shape)
            np.subtract(1.0, block, out=da_block)
            da_block *= block  # s * (1 - s), right for every gate but g
            da_i *= g
            da_f *= c_all[:, t0:t1]
            np.multiply(g, g, out=da_g)
            np.subtract(1.0, da_g, out=da_g)
            da_g *= i
            tc = np.tanh(c_all[:, t0 + 1 : t1 + 1])
            da_o *= tc
            dc_dh = np.multiply(tc, tc, out=tc)  # becomes o * (1 - tanh(c)^2)
            np.subtract(1.0, dc_dh, out=dc_dh)
            dc_dh *= o
            for j in range(t1 - t0 - 1, -1, -1):
                dh = dhs[:, t0 + j] + dh_next
                dc = dh * dc_dh[:, j]
                dc += dc_next
                da[:, j, :3] *= dc[:, None]
                da[:, j, 3] *= dh
                dh_next = da[:, j].reshape(batch, 4 * hs_n) @ w_h_t
                dc_next = dc * f[:, j]
            da = da.reshape(-1, 4 * hs_n)
            dw_x += xs[:, t0:t1].reshape(-1, xs.shape[2]).T @ da
            dw_h += h_all[:, t0:t1].reshape(-1, hs_n).T @ da
            db += da.sum(axis=0)
            dxs[:, t0:t1] = (da @ self.w_x.T).reshape(batch, t1 - t0, -1)
        return dxs, {"w_x": dw_x, "w_h": dw_h, "b": db}

    def params(self):
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}


class GruCell:
    """One GRU direction: kernels w_x [D, 3H], w_h [H, 3H], bias b [3H]."""

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
        self.w_x = w_x
        self.w_h = w_h
        self.b = b

    @classmethod
    def create(cls, rng: Rng, input_dim: int, hidden: int) -> "GruCell":
        return cls(
            glorot_uniform(rng, (input_dim, 3 * hidden)),
            glorot_uniform(rng, (hidden, 3 * hidden)),
            np.zeros(3 * hidden),
        )

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    @property
    def output_size(self) -> int:
        return self.hidden_size

    def init_state(self, batch: int):
        return np.zeros((batch, self.hidden_size))

    def _recur(self, a, h_prev, h) -> None:
        """One timestep, writing h.

        a holds x W_x + b [B, 3H] on entry and the gates (z, r, n) on exit;
        the math runs on contiguous copies, as in LstmCell._recur.
        """
        hs = self.hidden_size
        zr = h_prev @ self.w_h[:, : 2 * hs]
        zr += a[:, : 2 * hs]
        sigmoid(zr, out=zr)
        a[:, : 2 * hs] = zr
        z, r = _split(zr, 2)
        n = (r * h_prev) @ self.w_h[:, 2 * hs :]
        n += a[:, 2 * hs :]
        np.tanh(n, out=n)
        a[:, 2 * hs :] = n
        np.subtract(h_prev, n, out=h)  # h' = z*h + (1-z)*n = n + z*(h - n)
        h *= z
        h += n

    def step(self, x: np.ndarray, state):
        h = np.empty_like(state)
        self._recur(x @ self.w_x + self.b, state, h)
        return h, h

    def forward_seq(self, xs: np.ndarray, train: bool):
        """Scan from a zero state; laid out as LstmCell.forward_seq."""
        batch, length, width = xs.shape
        hs_n = self.hidden_size
        gates = xs.reshape(batch * length, width) @ self.w_x
        gates += self.b
        gates = gates.reshape(batch, length, 3 * hs_n)
        h = np.zeros((batch, length + 1, hs_n))
        for t in range(length):
            self._recur(gates[:, t], h[:, t], h[:, t + 1])
        tape = {"xs": xs, "gates": gates, "h": h} if train else None
        return h[:, 1:], tape

    def backward_seq(self, tape, dhs: np.ndarray):
        """BPTT given d loss / d hs. Returns (dxs, grads). The tape is not modified."""
        xs, gates, h_all = tape["xs"], tape["gates"], tape["h"]
        batch, length, hs_n = dhs.shape
        w_h_zr_t = self.w_h[:, : 2 * hs_n].T
        w_h_n_t = self.w_h[:, 2 * hs_n :].T
        dw_x = np.zeros_like(self.w_x)
        dw_h = np.zeros_like(self.w_h)
        db = np.zeros_like(self.b)
        dxs = np.empty(xs.shape)
        dh_next = np.zeros((batch, hs_n))
        for t0, t1, da in _time_blocks(batch, length, 3, hs_n):
            z, r, n = _split(gates[:, t0:t1], 3)
            h_prev = h_all[:, t0:t1]
            # da starts as the local derivative of each pre-activation; the
            # loop scales it in place by dh (z, n) or by d loss / d (r*h) (r)
            da_z, da_r, da_n = (da[:, :, k] for k in range(3))
            np.subtract(1.0, z, out=da_n)
            np.subtract(h_prev, n, out=da_z)
            da_z *= z
            da_z *= da_n
            np.subtract(1.0, r, out=da_r)
            da_r *= r
            da_r *= h_prev
            one_minus_nn = np.multiply(n, n)
            np.subtract(1.0, one_minus_nn, out=one_minus_nn)
            da_n *= one_minus_nn
            for j in range(t1 - t0 - 1, -1, -1):
                dh = dhs[:, t0 + j] + dh_next
                da[:, j, 0] *= dh
                da[:, j, 2] *= dh
                drh = da[:, j, 2] @ w_h_n_t
                da[:, j, 1] *= drh
                dh_next = da[:, j, :2].reshape(batch, 2 * hs_n) @ w_h_zr_t
                dh_next += dh * z[:, j]
                dh_next += drh * r[:, j]
            da = da.reshape(-1, 3 * hs_n)
            h_prev = h_prev.reshape(-1, hs_n)
            dw_x += xs[:, t0:t1].reshape(-1, xs.shape[2]).T @ da
            dw_h[:, : 2 * hs_n] += h_prev.T @ da[:, : 2 * hs_n]
            dw_h[:, 2 * hs_n :] += (r.reshape(-1, hs_n) * h_prev).T @ da[:, 2 * hs_n :]
            db += da.sum(axis=0)
            dxs[:, t0:t1] = (da @ self.w_x.T).reshape(batch, t1 - t0, -1)
        return dxs, {"w_x": dw_x, "w_h": dw_h, "b": db}

    def params(self):
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}


class BidirectionalLstm:
    """Two LSTM cells over the same input, outputs concatenated to width 2H.

    The forward cell scans t = 0..L-1, the backward cell scans t = L-1..0, so
    position t of the output has read the entire sequence. When a target
    stream is the input shifted by one, the backward half therefore sees the
    targets themselves; training converges almost immediately and the layer
    is useless for autoregressive generation. That leakage is inherent to the
    construction and is kept, not patched.

    During single-character generation both cells step on the same length-1
    input and carry their states forward; the backward direction degenerates
    to a second forward scan.
    """

    def __init__(self, fwd: LstmCell, bwd: LstmCell):
        if fwd.hidden_size != bwd.hidden_size:
            raise ConfigError(
                f"direction widths differ: {fwd.hidden_size} vs {bwd.hidden_size}"
            )
        self.fwd = fwd
        self.bwd = bwd

    @classmethod
    def create(cls, rng: Rng, input_dim: int, hidden: int,
               unit_forget_bias: bool = True) -> "BidirectionalLstm":
        return cls(
            LstmCell.create(rng, input_dim, hidden, unit_forget_bias),
            LstmCell.create(rng, input_dim, hidden, unit_forget_bias),
        )

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size

    def init_state(self, batch: int):
        return self.fwd.init_state(batch), self.bwd.init_state(batch)

    def step(self, x: np.ndarray, state):
        state_f, state_b = state
        hf, state_f = self.fwd.step(x, state_f)
        hb, state_b = self.bwd.step(x, state_b)
        return np.concatenate([hf, hb], axis=1), (state_f, state_b)

    def forward_seq(self, xs: np.ndarray, train: bool):
        hf, tape_f = self.fwd.forward_seq(xs, train)
        hb_rev, tape_b = self.bwd.forward_seq(xs[:, ::-1], train)
        out = np.concatenate([hf, hb_rev[:, ::-1]], axis=2)
        tape = {"f": tape_f, "b": tape_b} if train else None
        return out, tape

    def backward_seq(self, tape, dhs: np.ndarray):
        h = self.hidden_size
        dxs, grads_f = self.fwd.backward_seq(tape["f"], dhs[:, :, :h])
        dxs_b_rev, grads_b = self.bwd.backward_seq(tape["b"], dhs[:, ::-1, h:])
        dxs += dxs_b_rev[:, ::-1]
        grads = {f"fwd.{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
        return dxs, grads

    def params(self):
        out = {f"fwd.{k}": v for k, v in self.fwd.params().items()}
        out.update({f"bwd.{k}": v for k, v in self.bwd.params().items()})
        return out


class Dense:
    """Affine map on the last axis; no activation (the loss owns the softmax)."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w
        self.b = b

    @classmethod
    def create(cls, rng: Rng, input_dim: int, output_dim: int) -> "Dense":
        return cls(glorot_uniform(rng, (input_dim, output_dim)), np.zeros(output_dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w + self.b

    def backward(self, x: np.ndarray, dout: np.ndarray):
        width = self.w.shape[0]
        x2 = x.reshape(-1, width)
        d2 = dout.reshape(-1, self.w.shape[1])
        return dout @ self.w.T, {"w": x2.T @ d2, "b": d2.sum(axis=0)}

    def params(self):
        return {"w": self.w, "b": self.b}


def dropout_forward(x: np.ndarray, rate: float, train: bool, rng: Rng | None):
    """Inverted dropout: zero units with probability rate, scale the rest.

    Eval mode (or rate 0) is an exact identity. Returns (output, mask) where
    mask is None when nothing was dropped.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.uniform(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(dout: np.ndarray, mask):
    return dout if mask is None else dout * mask


@dataclass
class StackTape:
    """Cached activations from one training-mode forward pass."""

    indices: np.ndarray
    cell_tapes: list
    masks: list
    dense_input: np.ndarray


class RecurrentStack:
    """embedding -> recurrent layers (dropout after each, train only) -> dense."""

    def __init__(self, embedding: Embedding, recurrent: list, dropout_rate: float,
                 dense: Dense):
        self.embedding = embedding
        self.recurrent = recurrent
        self.dropout_rate = dropout_rate
        self.dense = dense

    def forward(self, indices: np.ndarray, train: bool = False,
                dropout_rng: Rng | None = None):
        """Full-sequence forward. Returns (logits [B, L, V], tape or None)."""
        x = self.embedding.forward(indices)
        cell_tapes = []
        masks = []
        for layer in self.recurrent:
            hs, tape = layer.forward_seq(x, train)
            x, mask = dropout_forward(hs, self.dropout_rate, train, dropout_rng)
            cell_tapes.append(tape)
            masks.append(mask)
        logits = self.dense.forward(x)
        if not train:
            return logits, None
        return logits, StackTape(indices, cell_tapes, masks, x)

    def backward(self, tape: StackTape, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter, keyed like params()."""
        if tape is None:
            raise ValueError("backward needs the tape from a training-mode forward")
        grads = {}
        dx, dense_grads = self.dense.backward(tape.dense_input, dlogits)
        for k, v in dense_grads.items():
            grads[f"dense.{k}"] = v
        for i in range(len(self.recurrent) - 1, -1, -1):
            dx = dropout_backward(dx, tape.masks[i])
            dx, layer_grads = self.recurrent[i].backward_seq(tape.cell_tapes[i], dx)
            for k, v in layer_grads.items():
                grads[f"rnn{i}.{k}"] = v
        grads["embedding.table"] = self.embedding.backward(tape.indices, dx)
        return {name: grads[name] for name in self.params()}

    def init_state(self, batch: int):
        return [layer.init_state(batch) for layer in self.recurrent]

    def step(self, indices: np.ndarray, state):
        """Single-character forward for generation: [B] indices -> [B, V] logits."""
        x = self.embedding.forward(indices)
        new_state = []
        for layer, st in zip(self.recurrent, state):
            x, st = layer.step(x, st)
            new_state.append(st)
        return self.dense.forward(x), new_state

    def params(self) -> dict[str, np.ndarray]:
        """Parameters in canonical order: embedding, each layer, dense."""
        out = {"embedding.table": self.embedding.table}
        for i, layer in enumerate(self.recurrent):
            for k, v in layer.params().items():
                out[f"rnn{i}.{k}"] = v
        for k, v in self.dense.params().items():
            out[f"dense.{k}"] = v
        return out

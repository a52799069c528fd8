"""Layers with hand-derived forward and backward passes.

RecurrentStack takes token indices [B, L] and returns logits [B, L, V], but
runs time-major inside: the recurrent layers and dropout take and return
[L, B, features], so each step's rows are one contiguous [B, features] block.
It transposes the ids once, as a view. The last dropout writes through a
time-major view of the batch-major dense input, and the dense backward writes
d input time-major through a batch-major view (the same per-row GEMMs), so
no transposed copy is made either way. Recurrent layers scan left to
right from a zero state; the bidirectional wrapper additionally scans right
to left over the same input, xs[::-1], and concatenates both directions.
Either input kind takes that time slice: an [L, B, D] array, or an Embedded
(below), whose __getitem__ slices its ids. Backward passes are exact
reverse-mode derivatives of the forward code (backpropagation through time),
written out gate by gate.

Gate layouts are fixed so checkpoints stay readable across versions:
  LSTM kernel columns: (input i, forget f, candidate g, output o), each H wide.
  GRU kernel columns:  (update z, reset r, candidate n), each H wide.

LSTM step:   i,f,o = sigmoid(x W_x + b + h W_h)[gates], g = tanh(...)
             c' = f*c + i*g,  h' = o*tanh(c')
             (all four in one tanh pass: sigmoid(x) = 0.5 tanh(0.5 x) + 0.5)
GRU step:    z,r = sigmoid(x W_x + b + h W_h)[gates]
             n = tanh(x Wx_n + b_n + (r*h) Wh_n),  h' = z*h + (1-z)*n
Note the GRU candidate applies the reset gate to h before its recurrent
matmul, and z is a "keep" gate (z = 1 preserves the old state).

Only the recurrence runs inside the time loops. Forward: x W_x + b for every
step is one GEMM before the loop (_Cell._project, the one place rows are
projected as a block), and each step adds h W_h to its row of the
tape and turns it into the gates in place (the LSTM with one tanh over the
whole row, the GRU with a sigmoid over z and r and a tanh over n). That loop,
_Cell._loop, is shared by the scan and by step(). Backward walks the sequence
in blocks of _BLOCK steps, last block first. Per block it first computes
every factor of d loss / d pre-activation (da) that needs no recurrence, for
all the block's steps at once; the loop then carries dh (and the LSTM's dc)
back one step at a time, scales da in place, and makes the recurrent
matmuls: dh = da W_h^T (the GRU also da_n Wh_n^T for the reset path). After
the loop, dW_x, dW_h, db and dxs are one GEMM or reduction each over the
block's _BLOCK * B rows.

A training scan's tape holds the layer's input, the gates [L, B, kH] (their
values, written over the pre-activations) and, in "starts", every state at
each block start t = 0, _BLOCK, 2 _BLOCK, ... ([S, ceil(L / _BLOCK), B, H]
for a cell of S states); it holds no array the scan returns. Before each
block, backward replays the block's states from its start with the cell's
_advance, the state update the forward runs after its gate math (the LSTM's
c' = f*c + i*g, h' = o*tanh(c'); the GRU's h' = n + z*(h - n)). The replay
needs no matmul, since each taped gate row already includes h W_h, and it
equals the forward's states bit for bit, as it is the same code
(recomputation instead of storage, as in Chen et al., arXiv:1604.06174).
Blocking bounds the extra memory of backward to da [_BLOCK, B, kH] and a
replay scratch [2, _BLOCK + 1, B, H], whatever the sequence length.

The embedding is folded into layer 0. Its input is table[ids] with no dropout
in between, so RecurrentStack.forward hands it an Embedded (the ids and the
table) instead of gathered [L, B, E] rows. The projection is then
P = table W_x + b, a [V, kH] GEMM, and gates = P[ids]; backward sums each
block's da rows by id into S [V, kH] (the one-hot GEMM of
Embedding.backward) and, after the last block, takes dW_x = table^T S,
db as usual and d table = S W_x^T, both directions' summed for birnn. With
V around 60 and E = 256 this replaces three B * L-row GEMMs per layer-0
direction. P is rebuilt on every forward, as the optimizer updates table
and W_x in place. Generation uses the same arithmetic: RecurrentStack's
init_state builds P for each layer-0 direction and keeps it in the state it
returns (never on the cell), and step gathers P[ids]. The scan and
init_state both take P from _Cell._project, so layer 0's hidden states
equal the training forward's bit for bit. RecurrentStack.step runs
layer by layer, each layer over every position fed; deeper layers project
one position at a time, since one GEMM over all positions rounds
differently, so a prime in one call equals the same prime fed one character
per call, bit for bit. After the prime, generation feeds each character
through RecurrentStack.feeder: the same cells' _recur, with the arithmetic of
a one-position step() call, on state rows allocated once per request, which
each feed advances in place.

Cells hold only gate math. LstmCell and GruCell each define GATES, STATES
(the names of the state arrays, h first: a cell's state is a tuple of [B, H]
arrays in that order, then P in layer 0), _recur (one forward step: the
gates, then _advance), _advance (the state update from finished gates) and
_back_block (one backward block: the non-recurrent factors of da, the
recurrent loop and dW_h). The private base _Cell holds the rest: the
kernels, the zero state, the block projection _project (rows W_x + b: one
GEMM, then the bias added in place), the recurrence loop _loop, _step
(time-major positions from a given state) and the scan _scan (a whole
sequence from the zero state, with its hoisted projection and tape), which
both run _loop, the replay _replay, and the BPTT block loop _bptt with its
flush of da into dW_x, db and dxs (or S). Each cell binds forward_seq,
backward_seq and step to _Cell's methods in its own class body, because
perfbench/tracing.py rebinds them through the class __dict__, where a name
that is only inherited is not found; tests/test_layers.py checks those names
resolve.

Dropout keeps a boolean keep mask, one byte a unit, and scales in place:
x * keep * s equals x times a float mask of 0 and s bit for bit. Its
backward scales the gradient in place, which is safe because every such
array is made by the stack or by a layer's backward. The forward writes a
new array (or the dense input); no tape holds a layer's output, so it could
write in place. A training step's memory peaks in the backward of one
layer, on top of the tapes, dropout outputs and masks the forward left;
model.expected_step_floats counts it.

Parameters and gradients are named owner.name, as in rnn0.fwd.w_x: each
owner (the stack for its layers, the bidirectional wrapper for its two
cells) renames its parts' dicts through _prefixed, the one place that rule
is written. Parameters are drawn only by model._init_params; the classes
here wrap arrays they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, ShapeError, VocabularyError
from .numerics import Rng, check_ids, sigmoid

# Time steps per backward block (see the module docstring).
_BLOCK = 25


def _split(a: np.ndarray, parts: int) -> list[np.ndarray]:
    """Views of `parts` equal slices of the last axis (one per gate)."""
    width = a.shape[-1] // parts
    return [a[..., k * width : (k + 1) * width] for k in range(parts)]


def _prefixed(prefix: str, named: dict) -> dict:
    """The entries of named, each key k renamed prefix.k (its owner's name)."""
    return {f"{prefix}.{k}": v for k, v in named.items()}


class Embedding:
    """Lookup table [V, E]; forward is a row gather, backward a scatter-add."""

    def __init__(self, table: np.ndarray):
        self.table = table

    def forward(self, indices: np.ndarray) -> np.ndarray:
        check_ids(indices, self.table.shape[0], VocabularyError, "embedding index")
        return self.table[indices]

    def backward(self, indices: np.ndarray, dout: np.ndarray) -> np.ndarray:
        """Sum the rows of dout [..., W] by index into [V, W].

        With dout = d loss / d forward(indices) this is d loss / d table; the
        folded layer 0 uses it to sum da by id (see _Cell._bptt). It is
        one GEMM of the [V, N] one-hot matrix with dout as [N, W] rows.
        """
        onehot = np.arange(self.table.shape[0])[:, None] == indices.reshape(1, -1)
        return onehot.astype(np.float64) @ dout.reshape(-1, dout.shape[-1])


class Embedded:
    """Layer 0's input, table[ids] [L, B, E], held as the time-major ids
    [L, B] and the table.

    The rows are never gathered: a cell given an Embedded projects the V-row
    table instead of the B * L rows (see _Cell._scan and _Cell._bptt), and a
    step gathers rows of that projection (see _Cell._step). A bad id is
    reported at its batch-major position (b, t), as the stack's callers
    index their [B, L] ids.
    """

    def __init__(self, embedding: Embedding, ids: np.ndarray):
        check_ids(ids.T, embedding.table.shape[0], VocabularyError, "embedding index")
        self.embedding = embedding
        self.ids = ids

    def __getitem__(self, steps: slice) -> Embedded:
        """The rows of a slice of time steps, as x[steps] of an [L, B, E] array."""
        return Embedded(self.embedding, self.ids[steps])


class _Cell:
    """One recurrent direction: kernels w_x [D, kH], w_h [H, kH], bias b [kH].

    k is the subclass's GATES. Holds everything but the gate math: the zero
    state, step, the scan, the replay and the BPTT block loop (see the module
    docstring). A subclass defines GATES, STATES, _recur, _advance and
    _back_block.
    """

    GATES: int
    STATES: tuple[str, ...]  # names of the [B, H] state arrays, h first

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
        self.w_x = w_x
        self.w_h = w_h
        self.b = b

    @property
    def hidden_size(self) -> int:
        return self.w_h.shape[0]

    def params(self):
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}

    def init_state(self, batch: int, embedding: Embedding | None = None):
        """Zero state, one [B, H] array per STATES entry; given the embedding
        (layer 0), then P = table W_x + b [V, kH] from the weights as they are
        now, since the optimizer updates them in place."""
        zeros = tuple(np.zeros((batch, self.hidden_size)) for _ in self.STATES)
        if embedding is None:
            return zeros
        return (*zeros, self._project(embedding.table))

    def _project(self, rows: np.ndarray) -> np.ndarray:
        """rows [..., D] W_x + b [..., kH]: one GEMM over the rows as [N, D],
        then the bias added in place."""
        out = rows.reshape(-1, rows.shape[-1]) @ self.w_x
        out += self.b
        return out.reshape(*rows.shape[:-1], -1)

    def _loop(self, gates, state, starts=None):
        """The recurrence: from the state arrays ([B, H] each), turn each row
        gates[t] [B, kH] of x W_x + b into its gates in place. Returns (hs
        [L, B, H], the last position's state arrays); the state passed in is
        not written. Step t writes its h into hs[t], and any other state (the
        LSTM's c) in place into one private copy of the given one: exact, as
        _recur reads h_prev in its matmuls first and _advance reads each
        element of the old state before writing it. Given starts [S,
        ceil(L / _BLOCK), B, H], the state at each block start t = 0, _BLOCK,
        2 _BLOCK, ... is copied into it. The scan and the step both run it."""
        hs = np.empty((len(gates), *state[0].shape))
        h, *rest = state
        rest = [s.copy() for s in rest]
        for t, (a, now) in enumerate(zip(gates, hs)):
            if starts is not None and t % _BLOCK == 0:
                starts[:, t // _BLOCK] = (h, *rest)
            self._recur(a, h, *rest, now, *rest)
            h = now
        return hs, (h, *rest)

    def _step(self, x, state):
        """Run the time-major positions x [L, B, D] from state. Returns
        (hs [L, B, H], the new state); the state passed in is not written.

        An Embedded x (layer 0, ids [L, B]) gathers P[ids], the rows _scan
        gathers, from the state's P in one go; any other x is projected as
        x W_x + b one position at a time, the GEMV a one-position call makes
        (one _project GEMM over all positions would round differently).
        """
        k = len(self.STATES)
        if isinstance(x, Embedded):
            gates = state[k][x.ids]
        else:
            gates = np.empty((*x.shape[:-1], self.w_x.shape[1]))
            for xt, at in zip(x, gates):
                np.matmul(xt, self.w_x, out=at)
                at += self.b
        if gates.ndim != 3 or gates.shape[1] != len(state[0]):
            raise ShapeError(f"step takes x [L, B, D] or Embedded ids [L, B] with the state's "
                             f"batch B = {len(state[0])}; its gates are {gates.shape}")
        hs, last = self._loop(gates, state[:k])
        return hs, (*last, *state[k:])

    def _scan(self, xs, train: bool):
        """Scan the whole time-major sequence xs [L, B, D] from a zero state.

        Returns (hs [L, B, H], tape); the tape is None unless train is set.
        x W_x + b has no recurrence, so it is one GEMM before _loop, which
        turns each row gates[t] [B, kH], contiguous, into its gates in place.
        For an Embedded input the GEMM is table W_x + b, [V, kH], and the
        steps' rows are gathered from it by id.

        The tape holds the input, the gates and, in "starts", every state at
        each block start ([S, ceil(L / _BLOCK), B, H]), from which _replay
        rebuilds a block's states. It holds no array the scan returns.
        """
        if isinstance(xs, Embedded):
            gates = self._project(xs.embedding.table)[xs.ids]
        else:
            gates = self._project(xs)
        length, batch = gates.shape[:2]
        starts = None
        if train:
            starts = np.empty((len(self.STATES), -(-length // _BLOCK), batch, self.hidden_size))
        hs, _ = self._loop(gates, self.init_state(batch), starts)
        return hs, ({"xs": xs, "gates": gates, "starts": starts} if train else None)

    def _replay(self, tape, t0, t1, scratch) -> None:
        """Rebuild the states of steps [t0, t1) into scratch [S, t1 - t0 + 1,
        B, H]: scratch[:, j] is the state step t0 + j reads, and scratch[:, -1]
        the state after step t1 - 1. It runs _advance from the tape's block
        start over the taped gates, which already include h W_h, so no matmul
        is made and the states equal the forward's bit for bit."""
        scratch[:, 0] = tape["starts"][:, t0 // _BLOCK]
        steps = list(zip(*scratch))  # each step's tuple of [B, H] state arrays
        gates = zip(*_split(tape["gates"][t0:t1], self.GATES))
        for row, prev, now in zip(gates, steps, steps[1:]):
            self._advance(row, prev, now)

    def _bptt(self, tape, dhs: np.ndarray):
        """BPTT given d loss / d hs [L, B, H]. Returns (dxs, grads). The tape
        is not modified.

        Blocks of _BLOCK steps run last first and share one da scratch array
        [t1 - t0, B, k, H] and one scratch [2, t1 - t0 + 1, B, H]. Per block,
        _replay rebuilds the block's states into the scratch's first S slabs;
        _back_block then fills da, carries the state gradients across the
        block and adds its dW_h, and the block's da rows are flushed into db,
        dW_x and dxs. For an Embedded input the rows are only summed by id
        into S [V, kH]; the steps' x are rows of the table, so after the last
        block dW_x = table^T S and d table = S W_x^T.
        """
        xs = tape["xs"]
        embedded = isinstance(xs, Embedded)
        w_x_t = self.w_x.T
        length, batch, hidden = dhs.shape
        width = self.GATES * hidden
        block = min(length, _BLOCK)
        grads = {k: np.zeros_like(v) for k, v in self.params().items()}
        dxs = np.zeros((xs.embedding.table.shape[0], width)) if embedded else np.empty(xs.shape)
        carry = tuple(np.zeros((batch, hidden)) for _ in self.STATES)
        work = np.empty(batch * block * width)
        scratch = np.empty((2, block + 1, batch, hidden))
        for t0 in range((length - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
            t1 = min(t0 + _BLOCK, length)
            da = work[: (t1 - t0) * batch * width].reshape(t1 - t0, batch, self.GATES, hidden)
            states = scratch[:, : t1 - t0 + 1]
            self._replay(tape, t0, t1, states[: len(self.STATES)])
            carry = self._back_block(tape, dhs, t0, t1, da, carry, grads["w_h"], states)
            da = da.reshape(-1, width)
            grads["b"] += da.sum(axis=0)
            if embedded:
                dxs += xs.embedding.backward(xs.ids[t0:t1], da)
            else:
                grads["w_x"] += xs[t0:t1].reshape(-1, xs.shape[2]).T @ da
                np.matmul(da, w_x_t, out=dxs[t0:t1].reshape(-1, xs.shape[2]))
        if embedded:
            grads["w_x"] += xs.embedding.table.T @ dxs
            dxs = dxs @ w_x_t
        return dxs, grads


class LstmCell(_Cell):
    """One LSTM direction; kernel columns are the gates (i, f, g, o)."""

    GATES = 4
    STATES = ("h", "c")
    forward_seq, backward_seq, step = _Cell._scan, _Cell._bptt, _Cell._step

    def __init__(self, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray):
        super().__init__(w_x, w_h, b)
        # _recur's one tanh pass over (i, f, g, o): scale, tanh, scale again
        # and shift, so i, f and o come out as sigmoids; [4H] rows
        self._scale = np.repeat([0.5, 0.5, 1.0, 0.5], self.hidden_size)
        self._shift = np.repeat([0.5, 0.5, 0.0, 0.5], self.hidden_size)

    def _recur(self, a, h_prev, c_prev, h, c) -> None:
        """One timestep, writing h and c.

        a holds x W_x + b [B, 4H] on entry and the gates (i, f, g, o) on
        exit. All four gates take one tanh pass: sigmoid(x) =
        0.5 tanh(0.5 x) + 0.5, and scaling by 0.5 (or 1 on g) is exact, so
        this equals numerics.sigmoid on i, f, o and tanh on g bit for bit.
        """
        a += h_prev @ self.w_h
        a *= self._scale
        np.tanh(a, out=a)
        a *= self._scale
        a += self._shift
        self._advance(_split(a, 4), (h_prev, c_prev), (h, c))

    def _advance(self, gates, prev, now) -> None:
        """The state update from the gates (i, f, g, o), [B, H] each:
        c' = f*c + i*g, h' = o*tanh(c'), written into now (h, c)."""
        i, f, g, o = gates
        h, c = now
        np.multiply(f, prev[1], out=c)
        c += i * g
        np.tanh(c, out=h)
        h *= o

    def _back_block(self, tape, dhs, t0, t1, da, carry, dw_h, scratch):
        """Steps [t0, t1) of BPTT: da, the carried (dh, dc) and dW_h, given
        the replayed h and c in scratch[0] and scratch[1] (see _replay);
        tanh(c) after each step is taken over scratch[1]'s rows in place,
        once the set-up has read c_prev."""
        block = tape["gates"][t0:t1]
        batch, hs_n = da.shape[1], self.hidden_size
        w_h_t = self.w_h.T
        i, f, g, o = _split(block, 4)
        h_prev, cs = scratch[0, :-1], scratch[1]
        # da starts as the local derivative of each gate's pre-activation;
        # the loop scales it in place by dc (i, f, g) or by dh (o)
        da_i, da_f, da_g, da_o = (da[:, :, k] for k in range(4))
        da_block = da.reshape(block.shape)
        np.subtract(1.0, block, out=da_block)
        da_block *= block  # s * (1 - s), right for every gate but g
        da_i *= g
        da_f *= cs[:-1]
        np.multiply(g, g, out=da_g)
        np.subtract(1.0, da_g, out=da_g)
        da_g *= i
        tc = np.tanh(cs[1:], out=cs[1:])
        da_o *= tc
        dc_dh = np.multiply(tc, tc, out=tc)  # becomes o * (1 - tanh(c)^2)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        dh_next, dc_next = carry
        for j in range(t1 - t0 - 1, -1, -1):
            dh = dhs[t0 + j] + dh_next
            dc = dh * dc_dh[j]
            dc += dc_next
            da[j, :, :3] *= dc[:, None]
            da[j, :, 3] *= dh
            dh_next = da[j].reshape(batch, 4 * hs_n) @ w_h_t
            dc_next = dc * f[j]
        dw_h += h_prev.reshape(-1, hs_n).T @ da.reshape(-1, 4 * hs_n)
        return dh_next, dc_next


class GruCell(_Cell):
    """One GRU direction; kernel columns are the gates (z, r, n)."""

    GATES = 3
    STATES = ("h",)
    forward_seq, backward_seq, step = _Cell._scan, _Cell._bptt, _Cell._step

    def _recur(self, a, h_prev, h) -> None:
        """One timestep, writing h.

        a holds x W_x + b [B, 3H] on entry and the gates (z, r, n) on exit.
        The candidate needs r before its matmul, so z, r and n are computed
        in fresh contiguous arrays and copied into a.
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
        self._advance((z, r, n), (h_prev,), (h,))

    def _advance(self, gates, prev, now) -> None:
        """The state update from the gates (z, r, n), [B, H] each:
        h' = z*h + (1-z)*n, as n + z*(h - n), written into now (h,)."""
        z, _, n = gates
        (h,) = now
        np.subtract(prev[0], n, out=h)
        h *= z
        h += n

    def _back_block(self, tape, dhs, t0, t1, da, carry, dw_h, scratch):
        """Steps [t0, t1) of BPTT: da, the carried dh and dW_h, given the
        replayed h in scratch[0] (see _replay); scratch[1] holds two
        temporaries in turn."""
        batch, hs_n = da.shape[1], self.hidden_size
        w_h_zr_t = self.w_h[:, : 2 * hs_n].T
        w_h_n_t = self.w_h[:, 2 * hs_n :].T
        z, r, n = _split(tape["gates"][t0:t1], 3)
        h_prev, temp = scratch[0, :-1], scratch[1, 1:]
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
        one_minus_nn = np.multiply(n, n, out=temp)
        np.subtract(1.0, one_minus_nn, out=one_minus_nn)
        da_n *= one_minus_nn
        (dh_next,) = carry
        for j in range(t1 - t0 - 1, -1, -1):
            dh = dhs[t0 + j] + dh_next
            da[j, :, 0] *= dh
            da[j, :, 2] *= dh
            drh = da[j, :, 2] @ w_h_n_t
            da[j, :, 1] *= drh
            dh_next = da[j, :, :2].reshape(batch, 2 * hs_n) @ w_h_zr_t
            dh_next += dh * z[j]
            dh_next += drh * r[j]
        da = da.reshape(-1, 3 * hs_n)
        h_prev = h_prev.reshape(-1, hs_n)
        dw_h[:, : 2 * hs_n] += h_prev.T @ da[:, : 2 * hs_n]
        rh = np.multiply(r.reshape(-1, hs_n), h_prev, out=temp.reshape(-1, hs_n))
        dw_h[:, 2 * hs_n :] += rh.T @ da[:, 2 * hs_n :]
        return (dh_next,)


class BidirectionalLstm:
    """Two LSTM cells over the same input, outputs concatenated to width 2H.

    The forward cell scans t = 0..L-1, the backward cell scans t = L-1..0, so
    position t of the output has read the entire sequence. When a target
    stream is the input shifted by one, the backward half therefore sees the
    targets themselves; training converges almost immediately and the layer
    is useless for autoregressive generation. That leakage is inherent to the
    construction and is kept, not patched.

    During generation both cells step left to right over the same input and
    carry their states forward; the backward direction degenerates to a
    second forward scan.
    """

    def __init__(self, fwd: LstmCell, bwd: LstmCell):
        if fwd.hidden_size != bwd.hidden_size:
            raise ConfigError(
                f"direction widths differ: {fwd.hidden_size} vs {bwd.hidden_size}"
            )
        self.fwd = fwd
        self.bwd = bwd

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

    def init_state(self, batch: int, embedding: Embedding | None = None):
        return self.fwd.init_state(batch, embedding), self.bwd.init_state(batch, embedding)

    def step(self, x, state):
        state_f, state_b = state
        hf, state_f = self.fwd.step(x, state_f)
        hb, state_b = self.bwd.step(x, state_b)
        return np.concatenate([hf, hb], axis=2), (state_f, state_b)

    def forward_seq(self, xs, train: bool):
        hf, tape_f = self.fwd.forward_seq(xs, train)
        hb_rev, tape_b = self.bwd.forward_seq(xs[::-1], train)
        out = np.concatenate([hf, hb_rev[::-1]], axis=2)
        tape = {"f": tape_f, "b": tape_b} if train else None
        return out, tape

    def backward_seq(self, tape, dhs: np.ndarray):
        h = self.hidden_size
        dxs, grads_f = self.fwd.backward_seq(tape["f"], dhs[:, :, :h])
        dxs_b_rev, grads_b = self.bwd.backward_seq(tape["b"], dhs[::-1, :, h:])
        # an Embedded input's gradient is d table, which has no time axis
        dxs += dxs_b_rev if dxs.ndim == 2 else dxs_b_rev[::-1]
        return dxs, {**_prefixed("fwd", grads_f), **_prefixed("bwd", grads_b)}

    def params(self):
        return {**_prefixed("fwd", self.fwd.params()), **_prefixed("bwd", self.bwd.params())}


class Dense:
    """Affine map on the last axis; no activation (the loss owns the softmax)."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w = w
        self.b = b

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.w + self.b

    def backward(self, x: np.ndarray, dout: np.ndarray, out: np.ndarray | None = None):
        """(d loss / d x, grads) given dout = d loss / d forward(x). d x =
        dout W^T is written into out when given: the stack passes a
        batch-major view of its time-major array, so the same per-row GEMMs
        write the time-major gradient with no transposed copy."""
        width = self.w.shape[0]
        x2 = x.reshape(-1, width)
        d2 = dout.reshape(-1, self.w.shape[1])
        return np.matmul(dout, self.w.T, out=out), {"w": x2.T @ d2, "b": d2.sum(axis=0)}

    def params(self):
        return {"w": self.w, "b": self.b}


def dropout_forward(x: np.ndarray, rate: float, train: bool, rng: Rng | None,
                    out: np.ndarray | None = None):
    """Inverted dropout on time-major x [L, B, ...]: zero units with
    probability rate, scale the rest by 1 / (1 - rate).

    A unit is kept where its uniform draw is >= rate. The draws run in
    batch-major [B, L, ...] order, the order seeded masks are defined in,
    whatever the layout of x. The output is x * keep, then scaled in place:
    x * 1 * s = x * s and x * 0 * s = x * 0, signed zero included, so it
    equals x times a float mask of 0 and s bit for bit. Eval mode (or rate
    0) is an exact identity. The output is written into out when given (any
    layout, such as a view of a batch-major array), else into a new array.
    Returns (output, keep) where keep is the boolean mask [L, B, ...], a view
    of the batch-major draw, and None when nothing was dropped.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        if out is None:
            return x, None
        np.copyto(out, x)
        return out, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = rng.uniform_at_least(x.swapaxes(0, 1).shape, rate).swapaxes(0, 1)
    out = np.multiply(x, keep, out=out)
    out *= 1.0 / (1.0 - rate)
    return out, keep


def dropout_backward(dout: np.ndarray, keep, rate: float) -> np.ndarray:
    """d loss / d x given dout = d loss / d output and dropout_forward's keep,
    computed in place in dout (the same two multiplies as the forward)."""
    if keep is not None:
        dout *= keep
        dout *= 1.0 / (1.0 - rate)
    return dout


@dataclass
class StackTape:
    """Cached activations from one training-mode forward pass: each layer's
    cell tape, each dropout's boolean keep mask (None when nothing was
    dropped) and the batch-major dense input [B, L, F]."""

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
        """Full-sequence forward. Returns (logits [B, L, V], tape or None).

        The recurrent layers and dropout run time-major on [L, B, ·]. Layer 0
        reads the transposed ids and the table, not gathered rows (see
        Embedded). The last dropout writes its output straight into the
        batch-major dense input, through a time-major view, so the logits
        keep their [B, L, V] rows with no transposed copy.
        """
        x = Embedded(self.embedding, indices.T)
        cell_tapes = []
        masks = []
        for i, layer in enumerate(self.recurrent):
            x, tape = layer.forward_seq(x, train)
            out = None
            if i == len(self.recurrent) - 1:
                out = np.empty_like(x.swapaxes(0, 1), order="C").swapaxes(0, 1)
            # rebinding x releases a birnn's concatenated output once dropped
            x, mask = dropout_forward(x, self.dropout_rate, train, dropout_rng, out)
            cell_tapes.append(tape)
            masks.append(mask)
        x = x.swapaxes(0, 1)
        logits = self.dense.forward(x)
        if not train:
            return logits, None
        return logits, StackTape(cell_tapes, masks, x)

    def backward(self, tape: StackTape, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every parameter, keyed like params().

        The dense layer writes d loss / d its input time-major, through a
        batch-major view, and each dropout's backward scales that array in
        place: every array it touches is made here or by a layer's backward.
        """
        if tape is None:
            raise ValueError("backward needs the tape from a training-mode forward")
        dx = np.empty_like(tape.dense_input.swapaxes(0, 1), order="C")
        # the returned view of dx is not kept: it would hold dx past the loop
        dense_grads = self.dense.backward(tape.dense_input, dlogits, out=dx.swapaxes(0, 1))[1]
        grads = _prefixed("dense", dense_grads)
        for i in range(len(self.recurrent) - 1, -1, -1):
            dx = dropout_backward(dx, tape.masks[i], self.dropout_rate)
            dx, layer_grads = self.recurrent[i].backward_seq(tape.cell_tapes[i], dx)
            grads.update(_prefixed(f"rnn{i}", layer_grads))
        grads["embedding.table"] = dx  # layer 0 returns d table (see _Cell._bptt)
        return {name: grads[name] for name in self.params()}

    def init_state(self, batch: int = 1):
        """Zero states; layer 0's also hold P = table W_x + b (see _Cell.init_state)."""
        first, *rest = self.recurrent
        return [first.init_state(batch, self.embedding)] + [
            layer.init_state(batch) for layer in rest]

    def step(self, indices: np.ndarray, state):
        """Forward for generation: feed [B] or [B, L] ids from state. The ids
        are checked once; then each layer runs every position from its
        state in one call, layer 0 on P[ids]. Returns the last position's
        logits [B, V] and the new state; the dense layer runs once, and the
        state passed in is not written."""
        ids = np.asarray(indices)
        ids = ids[:, None] if ids.ndim == 1 else ids
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ShapeError(f"step needs [B] or [B, L] ids with L >= 1, got {ids.shape}")
        x = Embedded(self.embedding, ids.T)
        state = list(state)
        for i, layer in enumerate(self.recurrent):
            x, state[i] = layer.step(x, state[i])
        return self.dense.forward(x[-1]), state

    def feeder(self, state):
        """Generation's per-character step, from a batch-1 state that step()
        returned: feed(i) runs the one id i, carries the state on and returns
        the logits [V], in a buffer the next call writes over. The id is not
        checked: it must be an index the caller drew from these logits.

        Every array is allocated here, once: per layer one gate row and one
        output row (a birnn layer's two directions in its halves), per LSTM
        cell one c row, and the logits row. Each cell runs its own _recur on
        them, the arithmetic step() runs, with its state as both the state
        read and the state written, as in _loop: layer 0 copies its P[i] row,
        deeper layers make x W_x + b with out=, and the dense layer writes
        x W + b into the logits. A birnn layer alternates which direction runs
        first, so that the two GEMVs in a row read the same W_h, still in cache.
        """
        # per layer (gate row, output row, per cell (its _recur, w_x, b,
        # P or None, its state arrays as read and as written))
        layers = []
        for layer, s in zip(self.recurrent, state):
            cells, states = (((layer.fwd, layer.bwd), s) if isinstance(layer, BidirectionalLstm)
                             else ((layer,), (s,)))
            h = layer.hidden_size
            out = np.concatenate([st[0] for st in states], axis=1)  # never the given h
            steps = []
            for d, (cell, st) in enumerate(zip(cells, states)):
                k = len(cell.STATES)
                now = (out[:, d * h : (d + 1) * h], *(c.copy() for c in st[1:k]))
                p = st[k] if len(st) > k else None  # layer 0's state ends with P
                steps.append((cell._recur, cell.w_x, cell.b, p, now + now))
            layers.append((np.empty((1, cells[0].w_h.shape[1])), out, steps))
        # the cell orders of alternate feeds: a birnn's other direction first
        orders = (layers, [(gate, out, steps[::-1]) for gate, out, steps in layers])
        w, b = self.dense.w, self.dense.b
        logits = np.empty((1, w.shape[1]))
        row = logits[0]
        turn = 0

        def feed(i: int) -> np.ndarray:
            nonlocal turn
            x = None
            for gate, out, steps in orders[turn]:
                for recur, w_x, b_x, p, states in steps:
                    if p is not None:
                        gate[0] = p[i]
                    else:
                        np.matmul(x, w_x, out=gate)
                        gate += b_x
                    recur(gate, *states)
                x = out
            turn ^= 1
            np.matmul(x, w, out=logits)
            np.add(logits, b, out=logits)
            return row

        return feed

    def params(self) -> dict[str, np.ndarray]:
        """Parameters in canonical order: embedding, each layer, dense."""
        out = {"embedding.table": self.embedding.table}
        for i, layer in enumerate(self.recurrent):
            out.update(_prefixed(f"rnn{i}", layer.params()))
        out.update(_prefixed("dense", self.dense.params()))
        return out

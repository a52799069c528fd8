"""The deterministic RNG used by every other module, the float64 kernels
(softmax, sigmoid, categorical sampling) the layers and the sampler share, and
the field rules: check_ids, what a valid id is for the layers, the loss and
the vocabulary; is_int / check_int_fields, what a valid size or seed is for
the configs and plans; and check_real_fields, what a valid learning rate,
clip norm, dropout rate or temperature is.

Conventions: arrays are C-order (row-major) float64 ndarrays of rank <= 3,
enough for (batch x time x features). Gradients are hand-derived in the layer
code; nothing here depends on an autodiff framework. numpy supplies the array
storage and elementwise/matrix arithmetic.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .exceptions import ConfigError, DistributionError, ShapeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
# draws per pass of Rng's bulk methods: a pass's three 128 KB uint64 buffers
# stay in L2, and no temporary grows with the draw count
_CHUNK = 1 << 14


def is_int(value) -> bool:
    """An integer that is not a bool (JSON and argv parse true, 5.0 and the
    like, none of which is a size or a seed)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int_fields(obj, names) -> None:
    """Raise ConfigError unless every attribute of obj in names is_int."""
    for name in names:
        if not is_int(getattr(obj, name)):
            raise ConfigError(f"{name} must be an integer, got {getattr(obj, name)!r}")


def check_real_fields(obj, names) -> None:
    """Raise ConfigError unless every attribute of obj in names is a real
    number: bool, str and None are refused before any range check compares
    them."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ConfigError(f"{name} must be a real number, got {value!r}")


def check_ids(ids: np.ndarray, size: int, error: type, what: str) -> None:
    """Raise error unless ids is an integer array with every entry in
    [0, size).

    Bools are refused with the other non-integer dtypes, as numpy would read
    them as a mask; a negative id is refused, as numpy would wrap it. The
    position named is the first bad id's index in ids, an int when ids is
    1-D.
    """
    if ids.dtype.kind not in "iu":
        raise error(f"{what} values must be integers, got dtype {ids.dtype}")
    # one reduction: cast to unsigned, a negative id wraps above any size
    if ids.size and ids.astype(np.uint64, copy=False).max() >= size:
        at = np.unravel_index(np.argmax((ids < 0) | (ids >= size)), ids.shape)
        pos = int(at[0]) if ids.ndim == 1 else tuple(map(int, at))
        raise error(f"{what} {ids[at]} out of range [0, {size}) at position {pos}")


class Rng:
    """Deterministic splitmix64 stream.

    The state advances by the 64-bit golden-ratio increment and each output
    is the splitmix64 finalizer of the new state:

        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    all modulo 2**64. The algorithm is frozen: identical seeds produce
    identical streams on any platform and in any future version, which is
    what makes seeded runs reproducible.

    Bulk draws (array uniform, uniform_at_least, array randint) emit exactly
    the same stream as repeated single draws. They share one private path,
    _chunks, that computes the stream _CHUNK draws at a time into two reused
    uint64 buffers; each method converts a chunk straight into its slice of
    one preallocated result, so no temporary grows with the draw count.
    Chunking is exact because draw i depends only on the seed state plus
    i * gamma.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        """One 64-bit draw."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _chunks(self, n: int):
        """Yield (start, z) over the next n draws: z holds draws start ..
        start + len(z) - 1 as uint64, identical to that many next_u64 calls,
        at most _CHUNK of them at a time.

        Draw i (from 1) is the finalizer of state + i * gamma, so each chunk
        starts from its own offset and the state advances by n at once. z is
        one buffer reused for every chunk: read it before the next.
        """
        base = self._state
        self._state = (base + n * _GAMMA) & _MASK64
        size = min(n, _CHUNK)
        steps = np.arange(1, size + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)
        buf, tmp = np.empty(size, np.uint64), np.empty(size, np.uint64)
        for start in range(0, n, _CHUNK):
            m = min(_CHUNK, n - start)
            z, t = buf[:m], tmp[:m]
            np.add(steps[:m], np.uint64((base + start * _GAMMA) & _MASK64), out=z)
            np.right_shift(z, np.uint64(30), out=t)
            z ^= t
            z *= np.uint64(_MIX1)
            np.right_shift(z, np.uint64(27), out=t)
            z ^= t
            z *= np.uint64(_MIX2)
            np.right_shift(z, np.uint64(31), out=t)
            z ^= t
            yield start, z

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        """Floats in [low, high) with 53-bit resolution.

        Returns a scalar when shape is None, else a float64 array, filled a
        chunk at a time.
        """
        if shape is None:
            u = (self.next_u64() >> 11) * _INV_2_53
            return low + (high - low) * u
        out = np.empty(shape)
        flat = out.reshape(-1)
        for start, z in self._chunks(flat.size):
            u = flat[start : start + z.size]
            z >>= np.uint64(11)
            np.multiply(z, _INV_2_53, out=u)
            u *= high - low
            u += low
        return out

    def uniform_at_least(self, shape, threshold: float) -> np.ndarray:
        """Booleans equal to uniform(shape) >= threshold, for threshold in
        [0, 1), with the same draws.

        uniform's 53-bit integer u = z >> 11 of a draw z is >= threshold * 2^53
        exactly when u >= m = ceil(threshold * 2^53), that is when z >= m << 11,
        so each draw takes one integer compare and no float conversion.
        """
        bound = np.uint64(math.ceil(threshold * 2.0 ** 53) << 11)
        out = np.empty(shape, dtype=bool)
        flat = out.reshape(-1)
        for start, z in self._chunks(flat.size):
            np.greater_equal(z, bound, out=flat[start : start + z.size])
        return out

    def randint(self, bound):
        """Uniform integer in [0, bound) via the multiply-shift reduction
        (z * bound) >> 64 of one draw z.

        bound may also be an integer ndarray of bounds in [1, 2^32): the result
        is an int64 array of one draw per bound, in order, equal to the scalar
        calls. With 32-bit limbs z = hi * 2^32 + lo, (z * b) >> 64 is
        (hi * b + ((lo * b) >> 32)) >> 32, which cannot overflow uint64 for
        b < 2^32; larger bounds raise ValueError.
        """
        if not isinstance(bound, np.ndarray):
            if bound <= 0:
                raise ValueError(f"bound must be positive, got {bound}")
            return (self.next_u64() * bound) >> 64
        if bound.size and (bound.min() <= 0 or bound.max() >= 1 << 32):
            raise ValueError(f"array bounds must lie in [1, 2^32), got "
                             f"[{bound.min()}, {bound.max()}]")
        bounds = bound.reshape(-1)
        out = np.empty(bound.shape, dtype=np.int64)
        flat = out.reshape(-1)
        for start, z in self._chunks(flat.size):
            b = bounds[start : start + z.size].astype(np.uint64)
            lo = z & np.uint64(0xFFFFFFFF)
            lo *= b
            lo >>= np.uint64(32)
            z >>= np.uint64(32)
            z *= b
            z += lo
            z >>= np.uint64(32)
            flat[start : start + z.size] = z
        return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities along the last axis, stabilised by max subtraction."""
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ShapeError(f"softmax on empty input of shape {x.shape}")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x), evaluated as 0.5 * (1 + tanh(x / 2)), which cannot overflow.

    The result goes to out when given (x itself is allowed), else to a new
    array; either way it is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sample_categorical(probs: np.ndarray, rng: Rng) -> int:
    """Draw an index i with probability probs[i].

    Inverse-CDF selection: one uniform draw u, then the first index whose
    cumulative sum exceeds u. Zero-probability indices are never returned,
    and the draw is fully determined by the rng state. A negative entry is
    reported before a total away from 1 (NaN included), which is read from
    the last cumulative sum.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ShapeError(f"sample_categorical needs a non-empty vector, got {p.shape}")
    if np.fmin.reduce(p) < 0.0:  # fmin skips NaN, which the sum check catches
        bad = int(np.argmin(p))
        raise DistributionError(f"negative probability {p[bad]!r} at index {bad}")
    cum = np.add.accumulate(p)  # np.cumsum's ufunc, without its wrappers
    total = float(cum[-1])
    if not abs(total - 1.0) <= 1e-9:  # written so that a NaN total fails too
        raise DistributionError(f"probabilities sum to {total!r}, not 1")
    u = rng.uniform()
    idx = int(cum.searchsorted(u, "right"))
    if idx >= p.size:  # u landed in the tolerance slack above cum[-1]
        idx = int(np.nonzero(p > 0.0)[0][-1])
    return idx

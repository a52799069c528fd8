"""The deterministic RNG used by every other module, and the float64 kernels
(softmax, sigmoid, categorical sampling) the layers and the sampler share.

Conventions: arrays are C-order (row-major) float64 ndarrays of rank <= 3,
enough for (batch x time x features). Gradients are hand-derived in the layer
code; nothing here depends on an autodiff framework. numpy supplies the array
storage and elementwise/matrix arithmetic.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DistributionError, ShapeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


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
    what makes seeded runs reproducible. Bulk draws are vectorised but emit
    exactly the same stream as repeated single draws.
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

    def _bulk_u64(self, n: int) -> np.ndarray:
        """n draws as a uint64 array, identical to n calls of next_u64."""
        states = np.uint64(self._state) + np.uint64(_GAMMA) * np.arange(
            1, n + 1, dtype=np.uint64
        )
        self._state = (self._state + n * _GAMMA) & _MASK64
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        """Floats in [low, high) with 53-bit resolution.

        Returns a scalar when shape is None, else a float64 array.
        """
        if shape is None:
            u = (self.next_u64() >> 11) * _INV_2_53
            return low + (high - low) * u
        n = int(np.prod(shape))
        u = (self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return (low + (high - low) * u).reshape(shape)

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) via the multiply-shift reduction."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self.next_u64() * bound) >> 64


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
    cum = np.cumsum(p)
    total = float(cum[-1])
    if not abs(total - 1.0) <= 1e-9:  # written so that a NaN total fails too
        raise DistributionError(f"probabilities sum to {total!r}, not 1")
    u = rng.uniform()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= p.size:  # u landed in the tolerance slack above cum[-1]
        idx = int(np.nonzero(p > 0.0)[0][-1])
    return idx

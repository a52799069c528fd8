"""Sparse categorical cross-entropy and the RMSprop update.

Loss is reported in nats per predicted character: the mean over all batch*L
positions of -log softmax(logits)[target], computed through log-sum-exp so
probabilities are never exponentiated and re-logged. ce_loss also returns
the gradient, from the same softmax; ce_grad is the gradient alone.

RMSprop follows the classic running-average form

    V <- RHO * V + (1 - RHO) * g^2
    w <- w - alpha * g / sqrt(V + EPSILON)

where RHO = 0.9 and EPSILON = 1e-7 are this module's constants and the
learning rate alpha (RmspropState.alpha, 1e-3 unless given) is the one
setting. Some write-ups print a variant with the learning rate divided into
the accumulator and no alpha in the step; that form is dimensionally
inconsistent and is not what this module implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import LabelError, OptimizerError
from .numerics import check_ids


@dataclass(frozen=True)
class LossReport:
    mean_loss: float  # nats per character
    grad: np.ndarray = field(compare=False, repr=False)  # d mean_loss / d logits


def ce_loss(logits: np.ndarray, targets: np.ndarray) -> LossReport:
    """Mean negative log-likelihood of the integer targets, and its gradient.

    logits has classes on the last axis; targets must have the shape of the
    leading axes, since a smaller one would broadcast against them.
    The gradient, (softmax - one_hot) / N per position, reuses the loss's exp.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise LabelError(f"targets of shape {targets.shape} do not match logits "
                         f"of shape {logits.shape}")
    check_ids(targets, logits.shape[-1], LabelError, "target")
    at_target = targets[..., None]
    z = logits - logits.max(axis=-1, keepdims=True)
    grad = np.exp(z)
    total = grad.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(z, at_target, axis=-1) - np.log(total)
    grad /= total
    np.put_along_axis(grad, at_target, np.take_along_axis(grad, at_target, -1) - 1.0, -1)
    grad /= targets.size
    return LossReport(mean_loss=float(-picked.mean()), grad=grad)


def ce_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d mean-loss / d logits = (softmax - one_hot) / N per position."""
    return ce_loss(logits, targets).grad


RHO = 0.9  # decay of the squared-gradient average V
EPSILON = 1e-7  # added to V under the square root, so a zero V steps by 0


@dataclass
class RmspropState:
    """Per-parameter squared-gradient accumulators plus the learning rate."""

    v: dict[str, np.ndarray]
    alpha: float = 1e-3

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], alpha: float = alpha) -> "RmspropState":
        """Zero accumulators shaped like params; alpha defaults to the field's."""
        return cls({name: np.zeros_like(p) for name, p in params.items()}, alpha)


def rmsprop_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 state: RmspropState) -> None:
    """One in-place update of every parameter and its accumulator.

    The gradients are consumed: each is scaled in place into its step, so the
    update holds one scratch array the size of a parameter at a time. The
    products and sums are those of the formula above, in the same order, so
    the result is bitwise that of the out-of-place form.
    """
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for {name}")
        v = state.v[name]
        t = g * (1.0 - RHO)
        t *= g
        v *= RHO
        v += t
        np.add(v, EPSILON, out=t)
        np.sqrt(t, out=t)
        # a step past float64's range is left to the caller's finite-loss check
        with np.errstate(over="ignore"):
            g *= state.alpha
            g /= t
            p -= g

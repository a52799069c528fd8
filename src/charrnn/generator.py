"""Stepwise text generation with temperature-controlled selection.

The prime text is fed in blocks of _PRIME_BLOCK characters, one step() call
per block, each carrying the state on from the last. A call runs the
recurrent layers one after another, each over every character of its block
(layer 0 on the block's P rows, gathered at once), and the dense layer on
the block's last character only. Chained calls give the same bits as one
call over the whole prime, and the blocks bound the prime's working memory
(its gate rows and per-position states) whatever its length. Then the loop
alternates select-next-character / feed-it-back until the requested length
is reached. Each drawn character is fed back through the stack's feeder
(RecurrentStack.feeder), which runs the same cells on state, gate and logits
buffers allocated once per request from the prime's final state, with none
of step()'s checks and allocations: the id is one the loop itself drew. The
last character is not fed back, since nothing reads the logits that step
would give, so a request makes ceil(len(prime) / _PRIME_BLOCK) step() calls
and max(length - 1, 0) feeds. The softmax is written into one reused buffer.
Temperature divides the logits before the softmax:
T -> 0 sharpens the distribution toward the argmax, large T flattens it
toward uniform. Dividing the post-softmax probabilities instead would cancel
under renormalisation and do nothing, which is why the logits form is the
one implemented. The softmax's shift to a maximum of 0 comes before the
division, once per character, so a tiny T (1e-310, say) gives the argmax
limit rather than nan.

Two selection modes exist because both are defensible readings of common
practice: "sample" draws from the temperature-scaled distribution with a
seeded generator, "argmax" takes the most probable character (ties resolve to
the lowest index) and makes temperature irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .model import Model
from .numerics import Rng, check_int_fields, check_real_fields, sample_categorical

MODES = ("sample", "argmax")

# Prime characters per step() call (see the module docstring)
_PRIME_BLOCK = 64


@dataclass(frozen=True)
class GenerationPlan:
    prime_text: str
    length: int
    temperature: float = 1.0
    mode: str = "sample"
    sample_seed: int = 0

    def __post_init__(self):
        if not self.prime_text:
            raise ConfigError("prime_text must be non-empty")
        check_int_fields(self, ("length", "sample_seed"))
        check_real_fields(self, ("temperature",))
        if self.length < 0:
            raise ConfigError(f"length must be >= 0, got {self.length}")
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def generate(model: Model, plan: GenerationPlan) -> str:
    """Prime the model, then emit plan.length characters.

    Returns prime + generated text, exactly len(prime) + length characters.
    Runs on any model, whatever its configured batch size: it steps a batch-1
    state of its own, never applies dropout and never writes a weight.
    """
    prime = model.vocab.encode(plan.prime_text)[None, :]
    state = model.init_state(1)
    for t0 in range(0, prime.shape[1], _PRIME_BLOCK):
        logits, state = model.step(prime[:, t0 : t0 + _PRIME_BLOCK], state)
    logits = logits[0]
    feed = model.feeder(state)
    probs = np.empty_like(logits)
    temperature, argmax = plan.temperature, plan.mode == "argmax"
    rng = Rng(plan.sample_seed)
    out = []
    with np.errstate(over="ignore"):  # a tiny T overflows to -inf: the argmax limit
        for n in range(plan.length):
            if n:  # feed back the last character; the final one is never fed
                logits = feed(nxt)
            if argmax:
                # dividing by T > 0 keeps the argmax; rounding in softmax would not
                nxt = int(logits.argmax())
            else:
                # softmax with the shift taken once, before T divides; the
                # ufuncs are those of max(), sum() and the operators
                np.subtract(logits, np.maximum.reduce(logits), probs)
                np.true_divide(probs, temperature, probs)
                np.exp(probs, probs)
                np.true_divide(probs, np.add.reduce(probs), probs)
                nxt = sample_categorical(probs, rng)
            out.append(nxt)
    return plan.prime_text + model.vocab.decode(out)

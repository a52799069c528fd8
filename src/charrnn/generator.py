"""Stepwise text generation with temperature-controlled selection.

The prime text is fed in one step() call, which runs the recurrent layers
over every prime character and the dense layer on the last one only; then
the loop alternates select-next-character / feed-it-back until the requested
length is reached. Temperature divides the logits before the softmax:
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

from .corpus import Vocabulary
from .exceptions import ConfigError
from .model import Model
from .numerics import Rng, sample_categorical

MODES = ("sample", "argmax")


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
        if self.length < 0:
            raise ConfigError(f"length must be >= 0, got {self.length}")
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def apply_temperature(logits: np.ndarray, temperature: float) -> np.ndarray:
    if not 0.0 < temperature < math.inf:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
    return logits / temperature


def generate(model: Model, plan: GenerationPlan) -> str:
    """Prime the model, then emit plan.length characters.

    Returns prime + generated text, exactly len(prime) + length characters.
    Expects a batch-1 model (see rebuild_for_generation); generation never
    applies dropout.
    """
    vocab: Vocabulary = model.vocab
    logits, state = model.step(vocab.encode(plan.prime_text)[None, :], model.init_state(1))
    rng = Rng(plan.sample_seed)
    out = []
    with np.errstate(over="ignore"):  # a tiny T overflows to -inf: the argmax limit
        for _ in range(plan.length):
            if plan.mode == "argmax":
                # dividing by T > 0 keeps the argmax; rounding in softmax would not
                nxt = int(np.argmax(logits[0]))
            else:
                # softmax with the shift taken once, before T divides
                probs = apply_temperature(logits[0] - logits[0].max(), plan.temperature)
                np.exp(probs, out=probs)
                probs /= probs.sum()
                nxt = sample_categorical(probs, rng)
            out.append(nxt)
            logits, state = model.step(np.array([nxt], dtype=np.int64), state)
    return plan.prime_text + vocab.decode(out)

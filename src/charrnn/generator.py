"""Stepwise text generation with temperature-controlled selection.

generate owns the loop and the draw. One call to the stack's feeder
(RecurrentStack.feeder) primes it with the encoded prime text and returns
the logits of the prime's last character and a feed function. Then the loop
alternates select-next-character / feed-it-back until the requested length
is reached. Each drawn character is fed back through the feeder's one
in-place step, with none of step()'s checks: the id is one the loop itself
drew. The last character is not fed back, since nothing reads the logits
that step would give, so a request makes max(length - 1, 0) feeds.

The distribution is numerics.softmax at the plan's temperature, written
into one buffer reused for every character; its docstring gives the
temperature rule and why a tiny T is the argmax limit. The overflow such a T
causes is silenced once per request, here.

Two selection modes exist because both are defensible readings of common
practice: "sample" draws from the temperature-scaled distribution with a
seeded generator, "argmax" takes the most probable character (ties resolve to
the lowest index) and makes temperature irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .model import Model
from .numerics import (AT_LEAST_0, FINITE_POSITIVE, Rng, check_int_fields, check_real_fields,
                       sample_categorical, softmax)

MODES = ("sample", "argmax")


@dataclass(frozen=True)
class GenerationPlan:
    prime_text: str
    length: int
    temperature: float = 1.0
    mode: str = "sample"
    sample_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.prime_text, str):
            raise ConfigError(f"prime_text must be a str, got {type(self.prime_text).__name__}")
        if not self.prime_text:
            raise ConfigError("prime_text must be non-empty")
        check_int_fields(self, ("length",), AT_LEAST_0)
        check_int_fields(self, ("sample_seed",))
        check_real_fields(self, ("temperature",), FINITE_POSITIVE)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


def generate(model: Model, plan: GenerationPlan) -> str:
    """Prime the model, then emit plan.length characters.

    Returns prime + generated text, exactly len(prime) + length characters.
    Runs on any model, whatever its configured batch size: the feeder primes
    a batch-1 state of its own, never applies dropout and never writes a
    weight.
    """
    feed, logits = model.feeder(model.vocab.encode(plan.prime_text))
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
                nxt = sample_categorical(softmax(logits, temperature, probs), rng)
            out.append(nxt)
    return plan.prime_text + model.vocab.decode(out)

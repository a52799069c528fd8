"""A reference for charrnn.generator.generate: the loop that feeds every drawn
character back through the public, checked RecurrentStack.step.

The prime goes in blocks of 64 characters, one step() call each. Then each
character is drawn from the last logits, argmax or a temperature softmax
sampled by numerics.sample_categorical, and fed back as a one-element id
array; the last one is not fed. generate must return the same text for every
model and plan.

reference_generate(model, plan) returns prime + generated text.
"""

from __future__ import annotations

import numpy as np

from charrnn.numerics import Rng, sample_categorical

PRIME_BLOCK = 64


def reference_generate(model, plan) -> str:
    prime = model.vocab.encode(plan.prime_text)[None, :]
    state = model.init_state(1)
    for t0 in range(0, prime.shape[1], PRIME_BLOCK):
        logits, state = model.step(prime[:, t0 : t0 + PRIME_BLOCK], state)
    rng = Rng(plan.sample_seed)
    out = []
    with np.errstate(over="ignore"):  # a tiny T overflows to -inf: the argmax limit
        for n in range(plan.length):
            if n:
                logits, state = model.step(np.array([out[-1]], dtype=np.int64), state)
            if plan.mode == "argmax":
                nxt = int(np.argmax(logits[0]))
            else:
                probs = (logits[0] - logits[0].max()) / plan.temperature
                np.exp(probs, out=probs)
                probs /= probs.sum()
                nxt = sample_categorical(probs, rng)
            out.append(nxt)
    return plan.prime_text + model.vocab.decode(out)

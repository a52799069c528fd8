"""Seeded workload inputs: a Markov corpus and a stream of generate requests.

Everything here depends only on the workload seed and the fixture text, never
on the program under test, so the parent and the change receive identical
inputs. Python's ``random.Random`` is used because its stream for a given
integer seed is stable across Python versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MARKOV_ORDER = 4
PRIME_CHARS = (50, 500)
GENERATE_CHARS = (200, 400)
TEMPERATURES = (0.5, 1.5)
REPEAT_EVERY = 8  # every 8th request repeats an earlier one exactly


def markov_corpus(fixture: str, n_chars: int, seed: int) -> str:
    """n_chars of text from an order-MARKOV_ORDER character Markov chain.

    Transition counts come from the fixture read cyclically, so every context
    has at least one successor and the chain never dead-ends. The output uses
    only characters of the fixture.
    """
    order = MARKOV_ORDER
    if len(fixture) <= order:
        raise ValueError(f"fixture needs more than {order} characters")
    ring = fixture + fixture[:order]
    ctx_id: dict[str, int] = {}
    for i in range(len(fixture)):
        ctx_id.setdefault(ring[i : i + order], len(ctx_id))
    # successors[c] lists, with multiplicity, the context that follows c;
    # a uniform pick from it samples the next character by its count.
    successors: list[list[int]] = [[] for _ in ctx_id]
    for i in range(len(fixture)):
        successors[ctx_id[ring[i : i + order]]].append(ctx_id[ring[i + 1 : i + 1 + order]])
    last_char = [""] * len(ctx_id)
    for ctx, c in ctx_id.items():
        last_char[c] = ctx[-1]
    rng = random.Random(seed)
    draw = rng.random
    start = rng.randrange(len(fixture))
    state = ctx_id[ring[start : start + order]]
    out = [0] * n_chars
    for k in range(n_chars):
        succ = successors[state]
        state = succ[int(draw() * len(succ))]
        out[k] = state
    return "".join([last_char[c] for c in out])


@dataclass(frozen=True)
class GenerateRequest:
    kind: str
    prime: str
    length: int
    temperature: float
    sample_seed: int
    repeat_of: int | None = None  # index of an earlier identical request


def _stratified(rng: random.Random, n: int, low: float, high: float) -> list[float]:
    """n values, one in each of n equal slices of [low, high), in random order.

    Stratifying keeps the size mix of every seed's request list nearly the
    same, so request-time percentiles do not swing with the seed.
    """
    slots = list(range(n))
    rng.shuffle(slots)
    return [low + (high - low) * (s + rng.random()) / n for s in slots]


def generate_requests(fixture: str, kinds: tuple[str, ...], n: int, seed: int
                      ) -> list[GenerateRequest]:
    """n requests rotating over kinds, with sizes stratified per kind.

    Every REPEAT_EVERY-th request repeats an earlier one exactly, so the
    benchmark can check that a seeded request gives identical text.
    """
    rng = random.Random(seed)
    first = rng.randrange(len(kinds))
    order = [kinds[(first + i) % len(kinds)] for i in range(n)]
    draws = {}
    for kind in kinds:
        count = order.count(kind)
        draws[kind] = iter(list(zip(
            _stratified(rng, count, *PRIME_CHARS),
            _stratified(rng, count, GENERATE_CHARS[0], GENERATE_CHARS[1] + 1),
            _stratified(rng, count, *TEMPERATURES),
        )))
    requests: list[GenerateRequest] = []
    for i, kind in enumerate(order):
        prime_len, length, temperature = next(draws[kind])
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 and i >= len(kinds):
            # same kind as request i - len(kinds), which the rotation guarantees
            src = requests[i - len(kinds)]
            requests.append(GenerateRequest(src.kind, src.prime, src.length,
                                            src.temperature, src.sample_seed,
                                            repeat_of=i - len(kinds)))
            continue
        prime_len = int(prime_len)
        offset = rng.randrange(len(fixture) - prime_len + 1)
        requests.append(GenerateRequest(
            kind=kind,
            prime=fixture[offset : offset + prime_len],
            length=int(length),
            temperature=round(temperature, 6),
            sample_seed=rng.getrandbits(32),
        ))
    return requests

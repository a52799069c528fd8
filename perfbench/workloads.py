"""The three benchmark workloads, their set-up, timing and output checks.

Each workload does a fixed amount of work that depends only on its seed and
on the ``seconds`` it was asked to fill, so the parent and the change time
identical work. Calls into the program go through module attributes
(``trainer.train_epoch``, ``cli.main`` ...) at call time, so a tracer that
rebinds those attributes sees every call.

Workloads (one process, one client, closed loop, no think time):

train_grid  the repo's headline experiment: every kind x preset of
            scripts/run_comparison.py at scale 1/8, B=64, L=100, E=256,
            dropout 0.4, lr 1e-3, on a ~1 M-char seeded Markov corpus.
            Batched gate math, BPTT, the embedding scatter and dropout work.
train_b1    the criterion-4 shape (B=1, L=30, E=96, H=64, lr 0.015, no
            dropout): birnn then lstm on the fixture. Python per-call
            overhead dominates; embedding and corpus do almost nothing.
generate    the user's ``charrnn generate`` path: cli.main requests over
            lstm/gru/birnn checkpoints at uni scale 1/4. Stepwise batch-1
            sampling; BPTT, the objective and batching are bypassed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from charrnn import cli, corpus, trainer
from charrnn import model as model_mod
from charrnn.corpus import CorpusPlan
from charrnn.exceptions import CharRnnError
from charrnn.model import KINDS, PRESETS, ModelConfig, preset_widths
from charrnn.numerics import Rng
from charrnn.objective import RmspropState
from charrnn.trainer import HistoryRow, TrainPlan

import inputs

CLIP_NORM = 5.0  # TrainPlan's default, used by every training run here
FIRST_LOSS_TOLERANCE = 0.15  # first-step loss within this share of ln V


class Outcome:
    """Operations and checks attempted, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class RunResult:
    """Everything one pass of a workload measured."""

    op_label: str                 # "step" or "request"
    op_ms: list[float]            # wall time of each successful operation
    op_chars: int                 # characters those operations processed
    setup_s: list[float]          # one entry per set-up round
    outcome: Outcome
    final_loss: float | None = None
    reference_loss: float | None = None
    chars_encoded: int = 0        # per set-up round
    checkpoint_bytes: int = 0     # per set-up round
    details: dict = field(default_factory=dict)


def _mark(tracer, label: str) -> None:
    if tracer is not None:
        tracer.op = label


def _timed_setup(tracer, round_no: int, setup, times: list[float]):
    """Run setup() once as set-up round round_no, appending its wall time."""
    _mark(tracer, f"setup:{round_no}")
    t0 = time.perf_counter()
    state = setup()
    times.append(time.perf_counter() - t0)
    return state


def _extra_setup_points(reps: int, n_ops: int) -> dict[int, int]:
    """Operation index -> set-up round for rounds 1..reps-1.

    Round 0 builds what the run uses; the others, whose results are thrown
    away, run spread evenly between operations, so the reported median
    samples the machine at several moments of the run instead of one.
    """
    return {(i * n_ops) // reps: i for i in range(1, reps) if (i * n_ops) // reps > 0}


# --------------------------------------------------------------- training ---

@dataclass(frozen=True)
class TrainSpec:
    name: str
    combos: tuple[tuple[str, tuple[int, ...]], ...]   # (kind, layer widths)
    schedule: tuple[int, ...]   # combo index trained at each step, in order
    batch: int
    seq_len: int
    embed: int
    dropout: float
    lr: float
    corpus_chars: int | None    # Markov corpus length; None trains on the fixture
    setup_reps: int


# Nominal costs on a 2-core x86 box (OpenBLAS 0.3.31); they only size the
# fixed amount of work so that a run measures for about --seconds.
GRID_ROUND_S = 5.0        # one step of each of the nine grid combinations
B1_CYCLE_MS = 40.0        # one birnn step plus two lstm steps at B=1
GEN_REQUEST_S = 0.27      # one mean generate request


def train_grid_spec(seconds: float) -> TrainSpec:
    combos = tuple((kind, preset_widths(preset, 1 / 8)) for kind in KINDS for preset in PRESETS)
    rounds = max(1, round(seconds / GRID_ROUND_S))
    return TrainSpec(
        name="train_grid", combos=combos,
        schedule=tuple(c for _ in range(rounds) for c in range(len(combos))),
        batch=64, seq_len=100, embed=256, dropout=0.4, lr=1e-3,
        corpus_chars=1_000_000, setup_reps=5,
    )


def train_b1_spec(seconds: float) -> TrainSpec:
    steps = max(1, round(seconds * 1000 / B1_CYCLE_MS))
    # birnn then lstm; lstm takes twice the steps so the two kinds get about
    # equal time and the step-time median sits inside one kind's cluster.
    return TrainSpec(
        name="train_b1", combos=(("birnn", (64,)), ("lstm", (64,))),
        schedule=(0,) * steps + (1,) * (2 * steps),
        batch=1, seq_len=30, embed=96, dropout=0.0, lr=0.015,
        corpus_chars=None, setup_reps=25,
    )


@dataclass
class _Run:
    name: str
    model: object
    opt: RmspropState
    dropout_rng: Rng
    history: list = field(default_factory=list)


def _train_setup(spec: TrainSpec, seed: int, corpus_path: Path, workdir: Path):
    text = corpus.load_corpus(corpus_path)
    vocab = corpus.build_vocab(text)
    ids = vocab.encode(text)
    # seeds derive as in scripts/run_comparison.py: init, shuffle, dropout
    seeds = Rng(seed)
    init_seed, shuffle_seed, dropout_seed = seeds.next_u64(), seeds.next_u64(), seeds.next_u64()
    pairs = corpus.make_sequences(ids, CorpusPlan(spec.seq_len, spec.batch, shuffle_seed))
    # the first epoch's order, as trainer.train draws it
    cplan = CorpusPlan(spec.seq_len, spec.batch, shuffle_seed + 1)
    batches = corpus.shuffle_batches(pairs, cplan, Rng(cplan.shuffle_seed))
    runs = []
    ckpt_bytes = 0
    for i, (kind, widths) in enumerate(spec.combos):
        config = ModelConfig(kind=kind, layer_widths=widths, vocab_size=vocab.size,
                             batch_size=spec.batch, embed_dim=spec.embed,
                             dropout=spec.dropout, seq_len=spec.seq_len,
                             init_seed=init_seed)
        model = model_mod.build_model(config, vocab)
        path = workdir / f"{i}_{kind}.init.ckpt"
        model_mod.save_checkpoint(model, path)
        ckpt_bytes += path.stat().st_size
        runs.append(_Run(f"{kind}_{'-'.join(map(str, widths))}", model,
                         RmspropState.for_params(model.params(), alpha=spec.lr),
                         Rng(dropout_seed)))
    return vocab, batches, runs, len(text), ckpt_bytes


def run_training(spec: TrainSpec, seed: int, corpus_path: Path, workdir: Path,
                 reference: dict, tracer=None) -> RunResult:
    def setup():
        return _train_setup(spec, seed, corpus_path, workdir)

    setup_s: list[float] = []
    vocab, batches, runs, chars_encoded, ckpt_bytes = _timed_setup(tracer, 0, setup, setup_s)
    extra_setups = _extra_setup_points(spec.setup_reps, len(spec.schedule))
    out = Outcome()
    plan = TrainPlan(epochs=1, lr=spec.lr, clip_norm=CLIP_NORM)
    op_ms = []
    for k, c in enumerate(spec.schedule):
        if k in extra_setups:
            _timed_setup(tracer, extra_setups[k], setup, setup_s)
        run = runs[c]
        batch = batches[len(run.history) % len(batches)]
        _mark(tracer, f"step:{k}")
        t0 = time.perf_counter()
        try:
            loss, ms = trainer.train_epoch(run.model, [batch], plan, run.opt, run.dropout_rng)
        except CharRnnError as exc:
            out.check(False, f"step {k} ({run.name}): {exc}")
            continue
        dt = time.perf_counter() - t0
        if out.check(math.isfinite(loss), f"step {k} ({run.name}): loss {loss!r}"):
            op_ms.append(1000.0 * dt)
        run.history.append(HistoryRow(epoch=len(run.history) + 1, mean_loss=loss, ms_per_step=ms))

    _mark(tracer, "finish")
    ln_v = math.log(vocab.size)
    for i, run in enumerate(runs):
        if not run.history:
            continue
        first = run.history[0].mean_loss
        out.check(abs(first - ln_v) <= FIRST_LOSS_TOLERANCE * ln_v,
                  f"{run.name}: first-step loss {first:.4f} is not within "
                  f"{FIRST_LOSS_TOLERANCE:.0%} of ln V = {ln_v:.4f}")
        ckpt = workdir / f"{i}_{run.name}.ckpt"
        model_mod.save_checkpoint(run.model, ckpt)
        trainer.export_history(run.history, workdir / f"{i}_{run.name}.csv")
        out.check(_resaves_identically(ckpt, workdir / f"{i}_{run.name}.resaved.ckpt"),
                  f"{run.name}: checkpoint does not re-save to identical bytes")

    last = [run.history[-1].mean_loss for run in runs if run.history]
    final_loss = statistics.fmean(last) if len(last) == len(runs) else None
    # reference.json: workload -> {"tolerance": nats/char,
    #                               "final_loss": {steps: {seed: value}}}
    recorded = reference.get(spec.name, {})
    ref = recorded.get("final_loss", {}).get(str(len(spec.schedule)), {}).get(str(seed))
    if ref is not None:
        tol = recorded["tolerance"]
        out.check(final_loss is not None and abs(final_loss - ref) <= tol,
                  f"final_loss {final_loss!r} is not within {tol} of the reference {ref!r}")
    return RunResult(
        op_label="step", op_ms=op_ms, op_chars=spec.batch * spec.seq_len * len(op_ms),
        setup_s=setup_s, outcome=out, final_loss=final_loss, reference_loss=ref,
        chars_encoded=chars_encoded, checkpoint_bytes=ckpt_bytes,
        details={"steps": len(spec.schedule), "runs": [r.name for r in runs]},
    )


def _resaves_identically(path: Path, resaved: Path) -> bool:
    try:
        model_mod.save_checkpoint(model_mod.load_checkpoint(path), resaved)
    except CharRnnError:
        return False
    return resaved.read_bytes() == path.read_bytes()


# ------------------------------------------------------------- generation ---

GEN_KINDS = ("lstm", "gru", "birnn")


def generate_requests(fixture: str, seed: int, seconds: float) -> list[inputs.GenerateRequest]:
    n = max(len(GEN_KINDS), round(seconds / GEN_REQUEST_S))
    return inputs.generate_requests(fixture, GEN_KINDS, n, seed)


def _generate_setup(seed: int, fixture_path: Path, workdir: Path):
    text = corpus.load_corpus(fixture_path)
    vocab = corpus.build_vocab(text)
    init_seed = Rng(seed).next_u64()
    paths = {}
    ckpt_bytes = 0
    for kind in GEN_KINDS:
        # what `charrnn train --preset uni --scale 0.25` would build; sampling
        # cost does not depend on the weights, so they stay untrained.
        config = ModelConfig(kind=kind, layer_widths=preset_widths("uni", 0.25),
                             vocab_size=vocab.size, batch_size=64, embed_dim=256,
                             init_seed=init_seed)
        path = workdir / f"gen_{kind}.ckpt"
        model_mod.save_checkpoint(model_mod.build_model(config, vocab), path)
        ckpt_bytes += path.stat().st_size
        paths[kind] = path
    return vocab, paths, ckpt_bytes


def run_generate(seed: int, seconds: float, fixture_path: Path, workdir: Path,
                 reps: int = 9, tracer=None) -> RunResult:
    fixture = fixture_path.read_text(encoding="utf-8")
    requests = generate_requests(fixture, seed, seconds)
    def setup():
        return _generate_setup(seed, fixture_path, workdir)

    setup_s: list[float] = []
    vocab, paths, ckpt_bytes = _timed_setup(tracer, 0, setup, setup_s)
    extra_setups = _extra_setup_points(reps, len(requests))
    allowed = set(vocab.chars)
    out = Outcome()
    out_path = workdir / "generated.txt"
    texts: list[str | None] = []
    op_ms = []
    op_chars = 0
    for k, req in enumerate(requests):
        if k in extra_setups:
            _timed_setup(tracer, extra_setups[k], setup, setup_s)
        argv = ["generate", "--checkpoint", str(paths[req.kind]), "--prime", req.prime,
                "--length", str(req.length), "--temperature", repr(req.temperature),
                "--seed", str(req.sample_seed), "--out", str(out_path)]
        out_path.unlink(missing_ok=True)
        _mark(tracer, f"request:{k}")
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
        text = out_path.read_text(encoding="utf-8") if code == 0 and out_path.exists() else None
        texts.append(text)
        problem = _generate_problem(req, code, text, allowed,
                                    None if req.repeat_of is None else texts[req.repeat_of])
        if out.check(problem is None, f"request {k} ({req.kind}): {problem}"):
            op_ms.append(1000.0 * dt)
            op_chars += len(text)
    return RunResult(
        op_label="request", op_ms=op_ms, op_chars=op_chars, setup_s=setup_s,
        outcome=out, checkpoint_bytes=ckpt_bytes, chars_encoded=0,
        details={"requests": len(requests),
                 "repeats": sum(r.repeat_of is not None for r in requests)},
    )


def _generate_problem(req, code: int, text: str | None, allowed: set, earlier: str | None):
    """Why a generate request's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if text is None:
        return "no output file"
    if len(text) != len(req.prime) + req.length:
        return f"{len(text)} chars, expected {len(req.prime) + req.length}"
    if not text.startswith(req.prime):
        return "output does not start with the prime"
    if not set(text) <= allowed:
        return f"characters outside the vocabulary: {sorted(set(text) - allowed)!r}"
    if req.repeat_of is not None and text != earlier:
        return f"differs from the identical request {req.repeat_of}"
    return None


# ---------------------------------------------------------------- metrics ---

def tail(values: list[float], cap: float = 100.0) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile, at most
    cap, that still has at least ten samples beyond it; the maximum when
    fewer than twenty samples leave no such percentile above the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    rank = min(n - 11, math.ceil(n * cap / 100.0) - 1)
    return xs[rank], 100.0 * (rank + 1) / n, n

#!/usr/bin/env python3
"""charrnn benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train_grid --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload generate --seed 3 --trace 1 --out runs.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

--trace 0 measures the end-to-end metrics; --trace 1 runs half the work twice,
untraced and then traced, and reports the per-layer metrics and the tracing
overhead, so a traced run takes about as long as an untraced one. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it are a readable report with
the environment block. --out appends the full record (environment, metrics,
details) as one JSON line, which --compare reads.

The benchmark imports the program from ./src of the checkout it sits in and
nothing else: without src/charrnn or data/tiny_script.txt it exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
FIXTURE = ROOT / "data" / "tiny_script.txt"
WORKLOADS = ("train_grid", "train_b1", "generate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="workload seed (inputs derive from it)")
    p.add_argument("--seconds", type=float, default=45.0,
                   help="size the fixed amount of work to about this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full result record to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two JSONL result sets instead of running")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Cap every BLAS thread pool at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment(nproc: int, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_id = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "charrnn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": blas_id,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# op_ms_tail stops at p90: above it, a run on a shared 2-core machine
# mostly measures bursts of other tenants' load, which no change to the
# program can move. The uncapped tail is in the report and the record.
TAIL_CAP = 90.0


def end_to_end(res, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    from workloads import tail

    if not res.op_ms:
        return {}
    return {
        "chars_per_s": (res.op_chars / (sum(res.op_ms) / 1000.0), "char/s"),
        "op_ms_p50": (statistics.median(res.op_ms), "ms"),
        "op_ms_tail": (tail(res.op_ms, TAIL_CAP)[0], "ms"),
        "setup_s": (statistics.median(res.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def detail(res, e2e: dict) -> dict:
    """The same results under the names used to discuss them: train_* on the
    training workloads, gen_* on generate, plus the quality guard and counts.
    Returns name -> (value, unit); other facts go in with unit None."""
    from workloads import tail

    step = res.op_label == "step"
    prefix = "train_step_ms" if step else "gen_request_ms"
    out = {}
    if e2e:
        value, pct, n = tail(res.op_ms)
        _, capped_pct, _ = tail(res.op_ms, TAIL_CAP)
        out = {
            ("train_chars_per_s" if step else "gen_chars_per_s"): e2e["chars_per_s"],
            f"{prefix}_p50": e2e["op_ms_p50"],
            f"{prefix}_tail": (value, "ms"),
            "tail_percentile": (round(pct, 2), "%"),
            "samples": (n, "count"),
            "op_ms_tail": e2e["op_ms_tail"],
            "op_ms_tail_percentile": (round(capped_pct, 2), "%"),
            "setup_s": e2e["setup_s"],
            "peak_rss_mb": e2e["peak_rss_mb"],
        }
    if res.final_loss is not None:
        out["final_loss"] = (res.final_loss, "nats/char")
        out["final_loss_reference"] = (res.reference_loss, "nats/char")
    out["error_rate"] = (res.outcome.failed / max(1, res.outcome.attempted), "ratio")
    out["setup_rounds_s"] = (res.setup_s, "s")
    out["failures"] = (res.outcome.failures[:20], None)
    out.update({k: (v, None) for k, v in res.details.items()})
    return out


def run_workload(name: str, seed: int, seconds: float, workdir: Path, tracer=None):
    import inputs
    import workloads

    if name == "generate":
        return workloads.run_generate(seed, seconds, FIXTURE, workdir, tracer=tracer)
    spec = (workloads.train_grid_spec if name == "train_grid" else workloads.train_b1_spec)(seconds)
    corpus_path = FIXTURE
    if spec.corpus_chars is not None:
        # generating the corpus is input preparation, not set-up: untimed
        corpus_path = workdir / "corpus.txt"
        if not corpus_path.exists():
            text = inputs.markov_corpus(FIXTURE.read_text(encoding="utf-8"),
                                        spec.corpus_chars, seed)
            corpus_path.write_text(text, encoding="utf-8")
    reference = json.loads((HERE / "reference.json").read_text())
    return workloads.run_training(spec, seed, corpus_path, workdir, reference, tracer=tracer)


def measure(args, workdir: Path):
    """Returns (metrics, outcome, detail) for the requested mode."""
    seconds = args.seconds / 2 if args.trace else args.seconds
    first = run_workload(args.workload, args.seed, seconds, workdir)
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = end_to_end(first, rss)
        return e2e, first.outcome, detail(first, e2e)

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_workload(args.workload, args.seed, seconds, workdir, tracer)
    finally:
        tracer.remove()
    metrics = tracing.per_layer_metrics(tracer, traced, first)
    trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
    tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                             "seconds": seconds})
    info = detail(traced, {})
    info["trace_file"] = (str(trace_path.relative_to(ROOT)), None)
    if traced.final_loss != first.final_loss:
        traced.outcome.check(False, f"traced final_loss {traced.final_loss!r} differs "
                                    f"from untraced {first.final_loss!r}")
    traced.outcome.merge(first.outcome)
    return metrics, traced.outcome, info


def report(args, env: dict, metrics: dict, outcome, info: dict) -> None:
    print(f"perfbench {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    shares = {}
    if args.trace:
        import tracing

        op_ms = metrics["trace.op_ms"][0]
        shares = {k: metrics[k][0] / op_ms for k in tracing.OP_SELF_MS if op_ms}
    for key, (value, unit) in (metrics if args.trace else info).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            share = f"{shares[key]:>7.1%} of an operation" if key in shares else ""
            print(f"  {key:<34} {value:>16.6g} {unit or '':<7} {share}")
    print(f"  {'failed/attempted':<34} {outcome.failed:>8}/{outcome.attempted}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, benchmark=ROOT / "BENCHMARK.json")
    missing = [p for p in (SRC / "charrnn" / "__init__.py", FIXTURE) if not p.is_file()]
    if missing:
        print("perfbench: not a charrnn checkout, missing "
              + ", ".join(str(p.relative_to(ROOT)) for p in missing), file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import charrnn

    if Path(charrnn.__file__).resolve().parent != SRC / "charrnn":
        print(f"perfbench: imported charrnn from {charrnn.__file__}, not ./src", file=sys.stderr)
        return 2
    env = environment(nproc, args.seed)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, outcome, info = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, env, metrics, outcome, info)
    result = {
        "correct": outcome.failed == 0 and bool(metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, **result,
                  "detail": {k: v for k, (v, _) in info.items()}}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

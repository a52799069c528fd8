#!/usr/bin/env python3
"""Train every cell kind x width preset on one corpus and tabulate results.

Desk-scale analogue of the published comparison: nine runs (lstm, gru, birnn
x uni, bi, quad), each recording per-epoch mean loss and ms per step. Outputs
one checkpoint and history CSV per run plus a merged long-format report.csv
ready for plotting loss-vs-epoch curves.

Example:
    python scripts/run_comparison.py --outdir runs --epochs 10 --scale 0.0625
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from charrnn import cli
from charrnn.model import KINDS, PRESETS
from charrnn.trainer import parse_history


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", default=str(REPO_ROOT / "data" / "tiny_script.txt"))
    parser.add_argument("--outdir", default="comparison_runs")
    parser.add_argument("--epochs", type=int, default=75)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply preset widths (use e.g. 0.0625 for a quick pass)")
    parser.add_argument("--seq-len", type=int, default=100)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--embed-dim", type=int, default=256)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--dropout", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main():
    args = parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runs = [f"{kind}_{preset}" for kind in KINDS for preset in PRESETS]
    for run in runs:
        kind, preset = run.split("_")
        print(f"== {run}")
        # the flags carry the train subcommand's dest names and defaults
        cli.cmd_train(argparse.Namespace(**vars(args), kind=kind, preset=preset,
                                         out=str(outdir / f"{run}.ckpt"),
                                         history=str(outdir / f"{run}.csv")))

    histories = [str(outdir / f"{run}.csv") for run in runs]
    if cli.main(["report", "--history", *histories, "--out", str(outdir / "report.csv")]):
        sys.exit(1)

    print("\nfinal epoch summary")
    print(f"{'run':<14} {'mean_loss':>12} {'ms_per_step':>12}")
    for run, path in zip(runs, histories):
        last = parse_history(path)[-1]
        print(f"{run:<14} {last.mean_loss:>12.6f} {last.ms_per_step:>12.3f}")
    print(f"\nwrote {outdir}/report.csv")


if __name__ == "__main__":
    try:
        main()
    except cli.RUNTIME_ERRORS as exc:  # e.g. --scale 0 or a missing --corpus
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

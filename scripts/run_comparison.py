#!/usr/bin/env python3
"""Train every cell kind x width preset on one corpus and tabulate results.

Desk-scale analogue of the published comparison: nine runs (lstm, gru, birnn
x uni, bi, quad), each recording per-epoch mean loss and ms per step. Outputs
one checkpoint and history CSV per run plus a merged long-format report.csv
ready for plotting loss-vs-epoch curves.

Every flag but --outdir goes to `charrnn train` as is, which parses it; the
corpus defaults to the bundled sample.

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


def main() -> int:
    # no prefix matching, so an --out... flag goes to train, not to --outdir
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False,
        epilog="Every other flag is passed to charrnn train; see its --help.")
    parser.add_argument("--outdir", default="comparison_runs")
    args, train_args = parser.parse_known_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runs = [f"{kind}_{preset}" for kind in KINDS for preset in PRESETS]
    for run in runs:
        kind, preset = run.split("_")
        print(f"== {run}")
        # the bundled corpus comes first, so a --corpus among train_args wins
        if code := cli.main(["train", "--corpus", str(REPO_ROOT / "data" / "tiny_script.txt"),
                             *train_args, "--model", kind, "--preset", preset,
                             "--out", str(outdir / f"{run}.ckpt"),
                             "--history", str(outdir / f"{run}.csv")]):
            return code

    histories = [str(outdir / f"{run}.csv") for run in runs]
    if code := cli.main(["report", "--history", *histories, "--out", str(outdir / "report.csv")]):
        return code

    print("\nfinal epoch summary")
    print(f"{'run':<14} {'mean_loss':>12} {'ms_per_step':>12}")
    for run, path in zip(runs, histories):
        last = parse_history(path)[-1]
        print(f"{run:<14} {last.mean_loss:>12.6f} {last.ms_per_step:>12.3f}")
    print(f"\nwrote {outdir}/report.csv")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except cli.RUNTIME_ERRORS as exc:  # e.g. an --outdir that names a file
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

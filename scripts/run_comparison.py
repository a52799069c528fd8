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
from charrnn.corpus import build_vocab, load_corpus
from charrnn.model import KINDS, ModelConfig, PRESETS, preset_widths
from charrnn.trainer import TrainPlan, train


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
    vocab = build_vocab(load_corpus(args.corpus))
    print(f"corpus: {args.corpus} ({vocab.size} distinct characters)")

    # the same three derived streams as `charrnn train --seed`
    init_seed, shuffle_seed, dropout_seed = cli._derive_seeds(args.seed)
    results = []
    for kind in KINDS:
        for preset in PRESETS:
            run = f"{kind}_{preset}"
            config = ModelConfig(
                kind=kind,
                layer_widths=preset_widths(preset, args.scale),
                vocab_size=vocab.size,
                batch_size=args.batch_size,
                embed_dim=args.embed_dim,
                dropout=args.dropout,
                seq_len=args.seq_len,
                init_seed=init_seed,
            )
            plan = TrainPlan(epochs=args.epochs, lr=args.lr,
                             shuffle_seed=shuffle_seed, dropout_seed=dropout_seed)
            print(f"== {run}  widths={config.layer_widths}")
            _, history = train(
                args.corpus, config, plan,
                ckpt_path=outdir / f"{run}.ckpt",
                history_path=outdir / f"{run}.csv",
                progress=lambda row: print(
                    f"  epoch {row.epoch}  loss {row.mean_loss:.6f}"
                    f"  ms/step {row.ms_per_step:.3f}", flush=True),
            )
            results.append((run, history[-1].mean_loss, history[-1].ms_per_step))

    histories = [str(outdir / f"{run}.csv") for run, _, _ in results]
    if cli.main(["report", "--history", *histories, "--out", str(outdir / "report.csv")]):
        sys.exit(1)

    print("\nfinal epoch summary")
    print(f"{'run':<14} {'mean_loss':>12} {'ms_per_step':>12}")
    for run, loss, ms in results:
        print(f"{run:<14} {loss:>12.6f} {ms:>12.3f}")
    print(f"\nwrote {outdir}/report.csv")


if __name__ == "__main__":
    main()

"""Command-line front end: vocab, train, generate, report.

Contract: stdout carries data, stderr carries diagnostics. Exit codes are 0
on success, 2 for usage errors (argparse), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

from .corpus import _write_atomic, build_vocab, load_corpus
from .exceptions import CharRnnError
from .generator import MODES, GenerationPlan, generate
from .model import KINDS, PRESETS, ModelConfig, load_checkpoint, preset_widths
from .numerics import Rng
from .trainer import TrainPlan, parse_history, train


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _dropout_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charrnn",
        description="Character-level recurrent text generation, trained from scratch.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vocab = sub.add_parser("vocab", help="print the corpus vocabulary table")
    p_vocab.add_argument("--corpus", required=True, help="UTF-8 text file")
    p_vocab.set_defaults(run=cmd_vocab)

    p_train = sub.add_parser("train", help="train a model and record history")
    p_train.add_argument("--corpus", required=True, help="UTF-8 text file")
    p_train.add_argument("--model", required=True, choices=KINDS, dest="kind")
    p_train.add_argument("--preset", required=True, choices=tuple(PRESETS),
                         help="layer widths: uni=1024, bi=512,256, quad=512,256,128,64")
    p_train.add_argument("--seq-len", type=_positive_int, default=100)
    p_train.add_argument("--batch-size", type=_positive_int, default=64)
    p_train.add_argument("--epochs", type=_positive_int, default=75)
    p_train.add_argument("--lr", type=_positive_float, default=1e-3)
    p_train.add_argument("--dropout", type=_dropout_rate, default=0.4)
    p_train.add_argument("--embed-dim", type=_positive_int, default=256)
    p_train.add_argument("--seed", type=int, default=0,
                         help="master seed; init/shuffle/dropout streams derive from it")
    p_train.add_argument("--scale", type=_positive_float, default=1.0,
                         help="multiply preset widths (testing aid for the large presets)")
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--history", required=True, help="history CSV path")
    p_train.set_defaults(run=cmd_train)

    p_gen = sub.add_parser("generate", help="generate text from a checkpoint")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--prime", required=True, help="text fed before generation")
    p_gen.add_argument("--length", type=_nonnegative_int, required=True)
    p_gen.add_argument("--temperature", type=_positive_float, default=1.0)
    p_gen.add_argument("--mode", choices=MODES, default="sample")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="write here instead of stdout")
    p_gen.set_defaults(run=cmd_generate)

    p_rep = sub.add_parser("report", help="merge history CSVs into one long table")
    p_rep.add_argument("--history", required=True, nargs="+", help="history CSV files")
    p_rep.add_argument("--out", help="write here instead of stdout")
    p_rep.set_defaults(run=cmd_report)
    return parser


def _emit(text: str, out) -> None:
    """Write text to the file out, atomically, or else to stdout ending in a newline."""
    if out:
        _write_atomic(out, (text.encode("utf-8"),))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _render_char(c: str) -> str:
    if c.isprintable():
        return c
    return c.encode("unicode_escape").decode("ascii")


def cmd_vocab(args) -> int:
    vocab = build_vocab(load_corpus(args.corpus))
    print(f"vocab_size\t{vocab.size}")
    for i, c in enumerate(vocab.chars):
        print(f"{i}\t{_render_char(c)}")
    return 0


def _derive_seeds(seed: int) -> tuple[int, int, int]:
    r = Rng(seed)
    return r.next_u64(), r.next_u64(), r.next_u64()


def cmd_train(args) -> int:
    text = load_corpus(args.corpus)
    vocab = build_vocab(text)
    init_seed, shuffle_seed, dropout_seed = _derive_seeds(args.seed)
    config = ModelConfig(
        kind=args.kind,
        layer_widths=preset_widths(args.preset, args.scale),
        vocab_size=vocab.size,
        batch_size=args.batch_size,
        embed_dim=args.embed_dim,
        dropout=args.dropout,
        seq_len=args.seq_len,
        init_seed=init_seed,
    )
    plan = TrainPlan(epochs=args.epochs, lr=args.lr,
                     shuffle_seed=shuffle_seed, dropout_seed=dropout_seed)
    train(
        text, vocab, config, plan,
        ckpt_path=args.out, history_path=args.history,
        progress=lambda row: print(
            f"epoch {row.epoch}  loss {row.mean_loss:.6f}  ms/step {row.ms_per_step:.3f}",
            flush=True,
        ),
    )
    return 0


def cmd_generate(args) -> int:
    plan = GenerationPlan(
        prime_text=args.prime, length=args.length,
        temperature=args.temperature, mode=args.mode, sample_seed=args.seed,
    )
    _emit(generate(load_checkpoint(args.checkpoint), plan), args.out)
    return 0


def cmd_report(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # quotes a run name holding a comma
    writer.writerow(["run", "epoch", "mean_loss", "ms_per_step"])
    for path in args.history:
        run = Path(path).stem
        for row in parse_history(path):
            writer.writerow([run, row.epoch, repr(row.mean_loss), repr(row.ms_per_step)])
    _emit(buf.getvalue(), args.out)  # ends in "\n" already, so stdout gets it as is
    return 0


# Errors a command ends in on bad input: one "error:" line on stderr, exit 1
RUNTIME_ERRORS = (CharRnnError, OSError, UnicodeDecodeError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

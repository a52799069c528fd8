"""Command-line front end: vocab, train, generate, report.

Contract: stdout carries data, stderr carries diagnostics. Exit codes are 0
on success, 2 for usage errors (argparse), 1 for runtime failures.

Each command owns its outputs: _check_writable refuses, before any work, an
output path it could not write or that names one of its inputs or another
output. cmd_train builds the model, prints and collects the rows that
trainer.train yields, then saves the checkpoint and exports the history.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import os
import sys
from pathlib import Path

from .corpus import _write_atomic, build_vocab, load_corpus
from .exceptions import CharRnnError, ConfigError
from .generator import MODES, GenerationPlan, generate
from .model import (KINDS, PRESETS, ModelConfig, build_model, load_checkpoint, preset_widths,
                    save_checkpoint)
from .numerics import AT_LEAST_0, AT_LEAST_1, FINITE_POSITIVE, UNIT_RATE, Rng, Rule
from .trainer import _HISTORY_HEADER, TrainPlan, export_history, parse_history, train


def _number(parse, rule: Rule):
    """An argparse type: parse the text, then refuse a value outside the
    rule with "must be {rule.text}, got {text}", the wording of the
    ConfigError the field would raise. Text that does not parse reads as
    "invalid {parse.__name__} value", argparse's wording for type=int."""
    def check(text: str):
        value = parse(text)
        if not rule.ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule.text}, got {text}")
        return value
    check.__name__ = parse.__name__
    return check


_positive_float = _number(float, FINITE_POSITIVE)
_positive_int = _number(int, AT_LEAST_1)
_nonnegative_int = _number(int, AT_LEAST_0)
_dropout_rate = _number(float, UNIT_RATE)


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
                         help="layer widths: " + ", ".join(
                             f"{name}={','.join(map(str, widths))}"
                             for name, widths in PRESETS.items()))
    p_train.add_argument("--seq-len", type=_positive_int, default=ModelConfig.seq_len)
    p_train.add_argument("--batch-size", type=_positive_int, default=ModelConfig.batch_size)
    p_train.add_argument("--epochs", type=_positive_int, default=TrainPlan.epochs)
    p_train.add_argument("--lr", type=_positive_float, default=TrainPlan.lr)
    p_train.add_argument("--dropout", type=_dropout_rate, default=ModelConfig.dropout)
    p_train.add_argument("--embed-dim", type=_positive_int, default=ModelConfig.embed_dim)
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
    p_gen.add_argument("--temperature", type=_positive_float, default=GenerationPlan.temperature)
    p_gen.add_argument("--mode", choices=MODES, default=GenerationPlan.mode)
    p_gen.add_argument("--seed", type=int, default=GenerationPlan.sample_seed)
    p_gen.add_argument("--out", help="write here instead of stdout")
    p_gen.set_defaults(run=cmd_generate)

    p_rep = sub.add_parser("report", help="merge history CSVs into one long table")
    p_rep.add_argument("--history", required=True, nargs="+", help="history CSV files")
    p_rep.add_argument("--out", help="write here instead of stdout")
    p_rep.set_defaults(run=cmd_report)
    return parser


def _resolve(path) -> Path:
    """Path(path) made absolute with its symlinks followed, as far as it
    exists (an output not written yet resolves through its directory).

    A symlink loop raises OSError(ELOOP), the error opening path gives,
    naming path as given: before Python 3.13 resolve raises RuntimeError
    for one, which no command expects, and from 3.13 only its strict form
    reports one. Any other path the strict form cannot follow resolves as
    before, and the read or write that follows reports what is wrong.
    """
    try:
        try:
            return Path(path).resolve(strict=True)
        except OSError as exc:
            if exc.errno != errno.ELOOP:
                return Path(path).resolve()  # a loop past a missing part raises here
    except RuntimeError:
        pass
    raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), os.fspath(path))


def _check_writable(*paths, inputs=()) -> None:
    """Refuse, before any work, output paths that _write_atomic could not
    write. A path that names a directory, or whose directory (where the temp
    file would go) does not exist or is not a directory, raises the OSError
    subclass that writing would, naming that path. An output that resolves
    to the same file as one of the command's inputs, which the write would
    replace, or as an earlier output, which the later write would replace,
    raises ConfigError naming both paths as given. A path that a symlink
    loop keeps from resolving, in its directory or at its end, raises
    OSError (ELOOP) first: is_dir and exists read a loop as missing."""
    sources = {_resolve(path): path for path in inputs}
    seen = {}
    for path in paths:
        key = _resolve(path)
        target = Path(path)
        if target.is_dir():
            code = errno.EISDIR
        elif not target.parent.is_dir():
            code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        else:
            code = 0
        if code:
            raise OSError(code, os.strerror(code), os.fspath(path))
        if key in sources:
            raise ConfigError(f"output {os.fspath(path)!r} and input "
                              f"{os.fspath(sources[key])!r} are the same file")
        if key in seen:
            raise ConfigError(f"outputs {os.fspath(seen[key])!r} and "
                              f"{os.fspath(path)!r} are the same file")
        seen[key] = path


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
    rows = [f"vocab_size\t{vocab.size}"]
    rows += [f"{i}\t{_render_char(c)}" for i, c in enumerate(vocab.chars)]
    _emit("\n".join(rows), None)  # one write: stdout gets the whole table or none of it
    return 0


def _derive_seeds(seed: int) -> tuple[int, int, int]:
    r = Rng(seed)
    return r.next_u64(), r.next_u64(), r.next_u64()


def cmd_train(args) -> int:
    _check_writable(args.out, args.history, inputs=(args.corpus,))
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
    model = build_model(config, vocab)  # refuses a bad config before the corpus is cut
    history = []
    for row in train(model, text, plan):
        print(f"epoch {row.epoch}  loss {row.mean_loss:.6f}  ms/step {row.ms_per_step:.3f}",
              flush=True)
        history.append(row)
    # each write is atomic; a history write that fails late (a full disk,
    # say) leaves the new checkpoint in place
    save_checkpoint(model, args.out)
    export_history(history, args.history)
    return 0


def cmd_generate(args) -> int:
    if args.out:
        _check_writable(args.out, inputs=(args.checkpoint,))
    plan = GenerationPlan(
        prime_text=args.prime, length=args.length,
        temperature=args.temperature, mode=args.mode, sample_seed=args.seed,
    )
    _emit(generate(load_checkpoint(args.checkpoint), plan), args.out)
    return 0


def cmd_report(args) -> int:
    runs = [Path(path).stem for path in args.history]  # a run's name is its file's stem
    for i, run in enumerate(runs):
        if run in runs[:i]:
            raise ConfigError(f"histories {args.history[runs.index(run)]!r} and "
                              f"{args.history[i]!r} share the run name {run!r}")
    if args.out:
        _check_writable(args.out, inputs=args.history)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # quotes a run name holding a comma
    writer.writerow(["run", *_HISTORY_HEADER])
    for run, path in zip(runs, args.history):
        for row in parse_history(path):
            writer.writerow([run, row.epoch, repr(row.mean_loss), repr(row.ms_per_step)])
    _emit(buf.getvalue(), args.out)  # ends in "\n" already, so stdout gets it as is
    return 0


# Errors a command ends in on bad input: one "error:" line on stderr, exit 1.
# UnicodeError covers a corpus that is not UTF-8 and text stdout cannot encode.
RUNTIME_ERRORS = (CharRnnError, OSError, UnicodeError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C: a temp file being written is already removed
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

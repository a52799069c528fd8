"""Epoch loop, metrics recording, and history CSV export.

train(model, text, plan) is a generator: each epoch reshuffles the sequence
windows with shuffle_seed + epoch, then for every batch runs forward, loss,
backward, global-norm clipping, and one RMSprop step, and yields the epoch's
HistoryRow. It writes nothing: the caller (cli.cmd_train) saves the model
and exports the rows. Wall time per step is the monotonic clock around that
compute (data preparation excluded), averaged per epoch and reported in
milliseconds.

A history row has one spelling, _history_fields's: each field through its
column's parse, then its spell. export_history and cli.cmd_report write it,
and parse_history, having parsed a row, refuses it unless that spelling
gives back the fields it read.
"""

from __future__ import annotations

import math
import reprlib
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusPlan, _read_capped, _write_atomic, make_sequences, shuffle_batches
from .exceptions import ConfigError, HistoryFormatError, TrainingError
from .model import Model
from .numerics import AT_LEAST_1, FINITE_POSITIVE, Rng, check_int_fields, check_real_fields
from .objective import RmspropState, ce_loss, rmsprop_step


@dataclass(frozen=True)
class TrainPlan:
    epochs: int = 75
    lr: float = RmspropState.alpha
    clip_norm: float = 5.0
    shuffle_seed: int = 0
    dropout_seed: int = 0

    def __post_init__(self):
        check_int_fields(self, ("epochs",), AT_LEAST_1)
        check_int_fields(self, ("shuffle_seed", "dropout_seed"))
        check_real_fields(self, ("lr", "clip_norm"), FINITE_POSITIVE)


# each history column: its name, how parse_history reads a field, and how
# _history_fields spells the parsed value, the one spelling parse_history
# accepts
_HISTORY_COLUMNS = (("epoch", int, str), ("mean_loss", float, repr), ("ms_per_step", float, repr))
_HISTORY_HEADER = [name for name, _, _ in _HISTORY_COLUMNS]
# parse_history refuses a longer file before decoding it, so an endless one
# (/dev/zero) is an error, not a failed allocation. An exported line is under
# about 60 bytes (the epoch and two float reprs), so this holds over 250,000
# epochs, thousands of times the paper's 75.
MAX_HISTORY_BYTES = 2**24


@dataclass(frozen=True)
class HistoryRow:
    epoch: int
    mean_loss: float   # nats per character
    ms_per_step: float


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients jointly so their Euclidean norm is <= max_norm.

    Returns the pre-clip norm. Mutates the gradient arrays in place. When
    finite gradients' squares overflow, the norm is taken again over the
    gradients divided by their largest magnitude, so they still clip to
    max_norm rather than to 0. Non-finite gradients are left for
    rmsprop_step to refuse.
    """
    with np.errstate(over="ignore"):
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        if total == math.inf and all(np.isfinite(g).all() for g in grads.values()):
            peak = max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())
            root = math.sqrt(sum(float(np.sum(np.square(g / peak))) for g in grads.values()))
            total, scale = peak * root, max_norm / peak / root
        for g in grads.values():
            g *= scale
    return total


def train_epoch(model: Model, batches, plan: TrainPlan, opt_state: RmspropState,
                dropout_rng: Rng) -> tuple[float, float]:
    """One pass over the batches, each a [B, L + 1] array of windows whose
    inputs are batch[:, :-1] and targets batch[:, 1:] (one row of
    shuffle_batches' result). Returns (mean loss, mean ms per step).

    The steps update at opt_state.alpha, so a plan whose lr differs is a
    ConfigError, naming both, before the first step. A non-finite batch
    loss, or finite ones whose mean overflows, raises TrainingError."""
    if len(batches) == 0:
        raise TrainingError("train_epoch needs at least one batch")
    if plan.lr != opt_state.alpha:
        raise ConfigError(f"plan lr {plan.lr!r} is not the optimizer's alpha {opt_state.alpha!r}")
    losses = []
    seconds = []
    params = model.params()
    for k, batch in enumerate(batches):
        t0 = time.perf_counter()
        # an overflow here is refused by the finite check below, with one message
        with np.errstate(over="ignore", invalid="ignore"):
            logits, tape = model.forward(batch[:, :-1], train=True, dropout_rng=dropout_rng)
            report = ce_loss(logits, batch[:, 1:])
        del logits  # the backward needs only report.grad
        if not math.isfinite(report.mean_loss):
            raise TrainingError(
                f"non-finite loss {report.mean_loss!r} at batch {k}; aborting epoch"
            )
        grads = model.backward(tape, report.grad)
        clip_global_norm(grads, plan.clip_norm)
        rmsprop_step(params, grads, opt_state)
        seconds.append(time.perf_counter() - t0)
        losses.append(report.mean_loss)
        # rebound only by the next step, these would live through its forward
        del tape, report, grads
    with np.errstate(over="ignore"):  # finite losses near float64's top can sum past it
        mean_loss = float(np.mean(losses))
    if not math.isfinite(mean_loss):
        raise TrainingError(f"the mean of {len(losses)} finite batch losses overflows float64")
    return mean_loss, 1000.0 * float(np.mean(seconds))


def train(model: Model, text: str, plan: TrainPlan) -> Iterator[HistoryRow]:
    """Train model on a corpus text, yielding one history row as each epoch
    ends.

    A generator: nothing runs, not even the encoding, until it is iterated.
    The text is encoded with model.vocab and cut into windows of
    model.config.seq_len, batched by model.config.batch_size. A caller that
    stops after k rows holds the model and rows a k-epoch plan gives; saving
    either is the caller's.
    """
    config = model.config
    cplan = CorpusPlan(config.seq_len, config.batch_size)
    windows = make_sequences(model.vocab.encode(text), cplan)
    opt_state = RmspropState.for_params(model.params(), alpha=plan.lr)
    dropout_rng = Rng(plan.dropout_seed)
    for epoch in range(1, plan.epochs + 1):
        batches = shuffle_batches(windows, cplan, Rng(plan.shuffle_seed + epoch))
        yield HistoryRow(epoch, *train_epoch(model, batches, plan, opt_state, dropout_rng))


def _check_row(row: HistoryRow, last: int, error) -> None:
    """Raise error unless row may follow epoch last in a history: a later
    epoch, a finite mean_loss and a finite ms_per_step >= 0."""
    if row.epoch <= last:
        raise error(f"epoch {row.epoch} does not follow epoch {last}")
    if not math.isfinite(row.mean_loss):
        raise error(f"mean_loss {row.mean_loss!r} is not finite")
    if not 0 <= row.ms_per_step < math.inf:
        raise error(f"ms_per_step {row.ms_per_step!r} is not finite and >= 0")


def _history_fields(row: HistoryRow, error=ValueError) -> list[str]:
    """The fields of row as a history file spells them: each value through
    its column's parse, then its spell (str(int(v)), repr(float(v))), so a
    numpy scalar is written as the Python number it equals. A row that
    would not read back equal (an epoch of 1.5 reads back as 1) raises
    error."""
    parsed = HistoryRow(*(parse(getattr(row, name)) for name, parse, _ in _HISTORY_COLUMNS))
    if parsed != row:
        raise error(f"{row} would read back as {parsed}")
    return [spell(getattr(parsed, name)) for name, _, spell in _HISTORY_COLUMNS]


def export_history(history: list[HistoryRow], path) -> None:
    """CSV with header epoch,mean_loss,ms_per_step, one row per epoch.

    Each row is spelled by _history_fields, floats with repr, so parsing the
    file recovers them exactly. A row that _check_row or _history_fields
    refuses is a TrainingError before anything is written. The file is
    written atomically.
    """
    if not history:
        raise TrainingError("refusing to export an empty history")
    lines = [",".join(_HISTORY_HEADER)]
    last = 0
    for row in history:
        _check_row(row, last, TrainingError)
        lines.append(",".join(_history_fields(row, TrainingError)))
        last = row.epoch
    _write_atomic(path, (("\n".join(lines) + "\n").encode("utf-8"),))


def parse_history(path) -> list[HistoryRow]:
    """Inverse of export_history; raises HistoryFormatError with a line number.

    Accepts only what export_history writes, in at most MAX_HISTORY_BYTES
    bytes: the header line, then rows of three fields, every line ending in
    "\n". A row's fields are read through their columns' parses, then must
    equal _history_fields's spelling of the row read (str of the epoch,
    repr of each float), the first field that differs named, and the row
    must be one that _check_row allows.
    """
    data = _read_capped(path, MAX_HISTORY_BYTES, HistoryFormatError)
    lines = data.split(b"\n")  # the last item is what follows the last newline
    rows: list[HistoryRow] = []
    for number, line in enumerate(lines, 1):
        try:
            text = line.decode("utf-8")
            fields = text.split(",")
            if number == len(lines):
                if text:
                    raise ValueError("no newline at the end of the file")
            elif number == 1:
                if fields != _HISTORY_HEADER:
                    raise ValueError(f"bad header {reprlib.repr(text)}")
            elif len(fields) != 3:
                raise ValueError(f"expected 3 fields, got {len(fields)}")
            else:
                row = HistoryRow(*(parse(f) for (_, parse, _), f in zip(_HISTORY_COLUMNS, fields)))
                # a sign, space, zero or exponent that export_history never writes
                for name, field, want in zip(_HISTORY_HEADER, fields, _history_fields(row)):
                    if field != want:
                        raise ValueError(f"{name} {reprlib.repr(field)} is not written as {want!r}")
                _check_row(row, rows[-1].epoch if rows else 0, ValueError)
                rows.append(row)
        except ValueError as exc:  # UnicodeDecodeError is one
            raise HistoryFormatError(f"{path}: line {number}: {exc}") from exc
    if not rows:
        raise HistoryFormatError(f"{path}: no data rows")
    return rows

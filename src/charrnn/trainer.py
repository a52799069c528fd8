"""Epoch loop, metrics recording, and history CSV export.

train(model, text, plan) is a generator: each epoch reshuffles the sequence
windows with shuffle_seed + epoch, then for every batch runs forward, loss,
backward, global-norm clipping, and one RMSprop step, and yields the epoch's
HistoryRow. It writes nothing: the caller (cli.cmd_train) saves the model
and exports the rows. Wall time per step is the monotonic clock around that
compute (data preparation excluded), averaged per epoch and reported in
milliseconds.
"""

from __future__ import annotations

import math
import reprlib
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusPlan, _read_capped, _write_atomic, make_sequences, shuffle_batches
from .exceptions import HistoryFormatError, TrainingError
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
# export_history spells the value, the one spelling parse_history accepts
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
    """One pass over the batches. Returns (mean loss, mean ms per step).

    A non-finite batch loss, or finite ones whose mean overflows, raises
    TrainingError."""
    if not batches:
        raise TrainingError("train_epoch needs at least one batch")
    losses = []
    seconds = []
    params = model.params()
    for k, batch in enumerate(batches):
        t0 = time.perf_counter()
        # an overflow here is refused by the finite check below, with one message
        with np.errstate(over="ignore", invalid="ignore"):
            logits, tape = model.forward(batch.inputs, train=True, dropout_rng=dropout_rng)
            report = ce_loss(logits, batch.targets)
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


def export_history(history: list[HistoryRow], path) -> None:
    """CSV with header epoch,mean_loss,ms_per_step, one row per epoch.

    Floats are written with repr, so parsing the file recovers them exactly.
    A row _check_row refuses is a TrainingError before anything is written.
    The file is written atomically.
    """
    if not history:
        raise TrainingError("refusing to export an empty history")
    last = 0
    for row in history:
        _check_row(row, last, TrainingError)
        last = row.epoch
    lines = [",".join(_HISTORY_HEADER)]
    lines += [",".join(spell(getattr(row, name)) for name, _, spell in _HISTORY_COLUMNS)
              for row in history]
    _write_atomic(path, (("\n".join(lines) + "\n").encode("utf-8"),))


def _spelled(text: str, name: str, parse, spell):
    """parse(text), refused with ValueError unless spell(value) is text, so
    a sign, space, zero or exponent that export_history never writes is
    refused."""
    value = parse(text)
    if spell(value) != text:
        raise ValueError(f"{name} {reprlib.repr(text)} is not written as {spell(value)!r}")
    return value


def parse_history(path) -> list[HistoryRow]:
    """Inverse of export_history; raises HistoryFormatError with a line number.

    Accepts only what export_history writes, in at most MAX_HISTORY_BYTES
    bytes: the header line, then rows of three fields, each spelled as
    export_history spells its value (str of the epoch, repr of each float)
    and each row one that _check_row allows, every line ending in "\n".
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
                row = HistoryRow(*(_spelled(field, *column)
                                   for field, column in zip(fields, _HISTORY_COLUMNS)))
                _check_row(row, rows[-1].epoch if rows else 0, ValueError)
                rows.append(row)
        except ValueError as exc:  # UnicodeDecodeError is one
            raise HistoryFormatError(f"{path}: line {number}: {exc}") from exc
    if not rows:
        raise HistoryFormatError(f"{path}: no data rows")
    return rows

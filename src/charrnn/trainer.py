"""Epoch loop, metrics recording, and history CSV export.

Each epoch reshuffles the sequence windows with shuffle_seed + epoch, then for
every batch runs forward, loss, backward, global-norm clipping, and one
RMSprop step. Wall time per step is the monotonic clock around that compute
(data preparation excluded), averaged per epoch and reported in milliseconds.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import (CorpusPlan, Vocabulary, _read_capped, _write_atomic, make_sequences,
                     shuffle_batches)
from .exceptions import ConfigError, HistoryFormatError, TrainingError
from .model import Model, ModelConfig, build_model, save_checkpoint
from .numerics import Rng, check_int_fields, check_real_fields
from .objective import RmspropState, ce_loss, rmsprop_step


@dataclass(frozen=True)
class TrainPlan:
    epochs: int = 75
    lr: float = 1e-3
    clip_norm: float = 5.0
    shuffle_seed: int = 0
    dropout_seed: int = 0

    def __post_init__(self):
        check_int_fields(self, ("epochs", "shuffle_seed", "dropout_seed"))
        check_real_fields(self, ("lr", "clip_norm"))
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 < self.clip_norm < math.inf:
            raise ConfigError(f"clip_norm must be positive and finite, got {self.clip_norm}")


_HISTORY_HEADER = ["epoch", "mean_loss", "ms_per_step"]
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
    """One pass over the batches. Returns (mean loss, mean ms per step)."""
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
    return float(np.mean(losses)), 1000.0 * float(np.mean(seconds))


def train(text: str, vocab: Vocabulary, config: ModelConfig, plan: TrainPlan,
          ckpt_path=None, history_path=None,
          progress: Callable[[HistoryRow], None] | None = None
          ) -> tuple[Model, list[HistoryRow]]:
    """Full training run on a corpus text and its vocabulary (see build_vocab).

    Writes the checkpoint and history CSV when paths are given (both
    atomically, so a failed run never leaves partial files). Returns the
    trained model and one history row per epoch.
    """
    model = build_model(config, vocab)  # refuses a bad config before the corpus is cut
    cplan = CorpusPlan(config.seq_len, config.batch_size, plan.shuffle_seed)
    windows = make_sequences(vocab.encode(text), cplan)
    opt_state = RmspropState.for_params(model.params(), alpha=plan.lr)
    dropout_rng = Rng(plan.dropout_seed)
    history: list[HistoryRow] = []
    for epoch in range(1, plan.epochs + 1):
        batches = shuffle_batches(windows, cplan, Rng(plan.shuffle_seed + epoch))
        mean_loss, ms_per_step = train_epoch(model, batches, plan, opt_state, dropout_rng)
        row = HistoryRow(epoch=epoch, mean_loss=mean_loss, ms_per_step=ms_per_step)
        history.append(row)
        if progress is not None:
            progress(row)
    if ckpt_path is not None:
        save_checkpoint(model, ckpt_path)
    if history_path is not None:
        export_history(history, history_path)
    return model, history


def export_history(history: list[HistoryRow], path) -> None:
    """CSV with header epoch,mean_loss,ms_per_step, one row per epoch.

    Floats are written with repr, so parsing the file recovers them exactly.
    The file is written atomically.
    """
    if not history:
        raise TrainingError("refusing to export an empty history")
    last = 0
    for row in history:
        if row.epoch <= last:
            raise TrainingError(f"history epochs not strictly increasing at {row.epoch}")
        last = row.epoch
    lines = [",".join(_HISTORY_HEADER)]
    lines += [f"{row.epoch},{row.mean_loss!r},{row.ms_per_step!r}" for row in history]
    _write_atomic(path, (("\n".join(lines) + "\n").encode("utf-8"),))


def parse_history(path) -> list[HistoryRow]:
    """Inverse of export_history; raises HistoryFormatError with a line number.

    Accepts only what export_history writes: three fields per row and epochs
    that strictly increase from 1, in at most MAX_HISTORY_BYTES bytes.
    """
    data = _read_capped(path, MAX_HISTORY_BYTES, HistoryFormatError)
    rows: list[HistoryRow] = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != _HISTORY_HEADER:
                raise HistoryFormatError(f"{path}: line 1: bad header {header!r}")
            for rec in reader:
                if not rec:
                    continue
                if len(rec) != 3:
                    raise ValueError(f"expected 3 fields, got {len(rec)}")
                row = HistoryRow(int(rec[0]), float(rec[1]), float(rec[2]))
                last = rows[-1].epoch if rows else 0
                if row.epoch <= last:
                    raise ValueError(f"epoch {row.epoch} does not follow epoch {last}")
                rows.append(row)
        except (ValueError, csv.Error) as exc:  # csv.Error: e.g. a field over the size limit
            raise HistoryFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise HistoryFormatError(f"{path}: no data rows")
    return rows

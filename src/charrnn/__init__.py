"""Character-level recurrent text generation with hand-derived gradients."""

from .corpus import (
    CorpusPlan,
    SequenceBatch,
    Vocabulary,
    build_vocab,
    load_corpus,
    make_sequences,
    shuffle_batches,
)
from .generator import GenerationPlan, generate
from .model import (
    Model,
    ModelConfig,
    build_model,
    expected_param_count,
    load_checkpoint,
    preset_widths,
    save_checkpoint,
)
from .numerics import Rng
from .objective import LossReport, RmspropState, ce_loss, rmsprop_step
from .trainer import HistoryRow, TrainPlan, export_history, parse_history, train, train_epoch

__all__ = [
    "CorpusPlan",
    "GenerationPlan",
    "HistoryRow",
    "LossReport",
    "Model",
    "ModelConfig",
    "RmspropState",
    "Rng",
    "SequenceBatch",
    "TrainPlan",
    "Vocabulary",
    "build_model",
    "build_vocab",
    "ce_loss",
    "expected_param_count",
    "export_history",
    "generate",
    "load_checkpoint",
    "load_corpus",
    "make_sequences",
    "parse_history",
    "preset_widths",
    "rmsprop_step",
    "save_checkpoint",
    "shuffle_batches",
    "train",
    "train_epoch",
]

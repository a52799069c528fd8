"""Model assembly, parameter bookkeeping, and checkpoint serialization.

A Model is the layers.RecurrentStack its config describes, assembled from the
kind table, plus its config and vocabulary; it adds only the training-mode
batch-size check to the stack's forward.

Parameter order is canonical and derived from the config alone: embedding
table, then per recurrent layer its input kernel, recurrent kernel and bias
(forward direction then backward direction for the bidirectional kind), then
the dense kernel and bias. Parameter counts per layer type:

    embedding            V * E
    lstm layer           4H * (D + H + 1)
    gru layer            3H * (D + H + 1)
    bidirectional layer  2 * 4H * (D + H + 1)
    dense                F * V + V

with D the layer's input width (E for the first layer, previous output width
after that), H the layer width, and F the final feature width (H or 2H).

Checkpoint file format, all integers little-endian:

    magic "CRNF"
    u32 version (currently 1)
    u32 header length, then that many bytes of canonical UTF-8 JSON holding
        {"config": {...}, "vocab": [code points in index order]}
    per parameter in canonical order:
        u32 rank, u32 dims[rank], then IEEE-754 float32 values in row-major
    u32 CRC-32 of the payload (every byte after the version field and before
        this checksum)

Training arithmetic is float64; checkpoints store float32, so values are
rounded once on save and save -> load -> save is byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary, _write_atomic
from .exceptions import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    ShapeError,
    VocabularyError,
)
from .layers import BidirectionalLstm, Dense, Embedding, GruCell, LstmCell, RecurrentStack
from .numerics import Rng

# kind -> (cell class, parameter-name prefix of each direction, in order)
_KIND_TABLE = {
    "lstm": (LstmCell, ("",)),
    "gru": (GruCell, ("",)),
    "birnn": (LstmCell, ("fwd.", "bwd.")),
}
KINDS = tuple(_KIND_TABLE)
PRESETS = {"uni": (1024,), "bi": (512, 256), "quad": (512, 256, 128, 64)}

_MAGIC = b"CRNF"
_VERSION = 1
# build_model refuses larger models before drawing anything: about 200x the
# paper's largest preset, and a ConfigError instead of a failed allocation
MAX_PARAMS = 2**31


def preset_widths(name: str, scale: float = 1.0) -> tuple[int, ...]:
    """Layer widths for a named preset, optionally scaled down for tests."""
    if name not in PRESETS:
        valid = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; valid presets: {valid}")
    if not 0 < scale * max(PRESETS[name]) < math.inf:  # also rejects nan
        raise ConfigError(f"scale must be positive and keep the widths finite, got {scale}")
    return tuple(max(1, round(w * scale)) for w in PRESETS[name])


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    layer_widths: tuple[int, ...]
    vocab_size: int
    batch_size: int
    embed_dim: int = 256
    dropout: float = 0.4
    seq_len: int = 100
    init_seed: int = 0
    unit_forget_bias: bool = True

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.layer_widths or any(w < 1 for w in self.layer_widths):
            raise ConfigError(f"layer_widths must be positive, got {self.layer_widths}")
        for name in ("vocab_size", "batch_size", "embed_dim", "seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes implied by the config."""
    cell, directions = _KIND_TABLE[config.kind]
    shapes: dict[str, tuple[int, ...]] = {
        "embedding.table": (config.vocab_size, config.embed_dim)
    }
    d = config.embed_dim
    for i, h in enumerate(config.layer_widths):
        for prefix in directions:
            shapes[f"rnn{i}.{prefix}w_x"] = (d, cell.GATES * h)
            shapes[f"rnn{i}.{prefix}w_h"] = (h, cell.GATES * h)
            shapes[f"rnn{i}.{prefix}b"] = (cell.GATES * h,)
        d = len(directions) * h
    shapes["dense.w"] = (d, config.vocab_size)
    shapes["dense.b"] = (config.vocab_size,)
    return shapes


def expected_param_count(config: ModelConfig) -> int:
    # math.prod is exact; np.prod wraps at 2^63 on large configs
    return sum(math.prod(s) for s in expected_param_shapes(config).values())


def _init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    """Glorot-uniform kernels, zero biases, drawn in canonical order.

    A kernel of shape (fan_in, fan_out) is Uniform(-l, l) with
    l = sqrt(6 / (fan_in + fan_out)). LSTM forget-gate bias slices start at
    1.0 when unit_forget_bias is set. This is the only place weights are drawn.
    """
    cell, _ = _KIND_TABLE[config.kind]
    forget_bias = config.unit_forget_bias and cell is LstmCell
    rng = Rng(config.init_seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in expected_param_shapes(config).items():
        if len(shape) == 1:
            b = np.zeros(shape)
            if forget_bias and name != "dense.b":
                h = shape[0] // LstmCell.GATES
                b[h : 2 * h] = 1.0
            params[name] = b
        else:
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            params[name] = rng.uniform(shape, -limit, limit)
    return params


class Model(RecurrentStack):
    """The recurrent stack a config describes, plus its vocabulary."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, params: dict[str, np.ndarray]):
        cell, directions = _KIND_TABLE[config.kind]
        layers = []
        for i in range(len(config.layer_widths)):
            cells = [cell(*(params[f"rnn{i}.{prefix}{k}"] for k in ("w_x", "w_h", "b")))
                     for prefix in directions]
            layers.append(BidirectionalLstm(*cells) if len(cells) == 2 else cells[0])
        super().__init__(Embedding(params["embedding.table"]), layers, config.dropout,
                         Dense(params["dense.w"], params["dense.b"]))
        self.config = config
        self.vocab = vocab

    def forward(self, indices: np.ndarray, train: bool = False,
                dropout_rng: Rng | None = None):
        if train and indices.shape[0] != self.config.batch_size:
            raise ShapeError(
                f"training batch is {indices.shape[0]} rows but the model is "
                f"configured for {self.config.batch_size}"
            )
        return super().forward(indices, train=train, dropout_rng=dropout_rng)


def build_model(config: ModelConfig, vocab: Vocabulary) -> Model:
    if vocab.size != config.vocab_size:
        raise ConfigError(
            f"config.vocab_size is {config.vocab_size} but the vocabulary has "
            f"{vocab.size} characters"
        )
    count = expected_param_count(config)
    if count > MAX_PARAMS:
        raise ConfigError(f"the model would hold {count} parameters, more than {MAX_PARAMS}")
    return Model(config, vocab, _init_params(config))


def _header_bytes(config: ModelConfig, vocab: Vocabulary) -> bytes:
    header = {
        "config": dataclasses.asdict(config),
        "vocab": [ord(c) for c in vocab.chars],
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(model: Model, path) -> None:
    """Write the checkpoint atomically (temp file + rename)."""
    header = _header_bytes(model.config, model.vocab)
    parts = [struct.pack("<I", len(header)), header]
    for arr in model.params().values():
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f4").tobytes(order="C"))
    payload = b"".join(parts)
    blob = _MAGIC + struct.pack("<I", _VERSION) + payload + struct.pack(
        "<I", zlib.crc32(payload)
    )
    _write_atomic(path, blob)


def _scan_structure(blob: bytes) -> list[tuple[int, tuple[int, ...]]]:
    """Walk the length fields; returns (data offset, dims) per parameter.

    Raises CheckpointFormatError, with the offset, on any structural problem.
    """
    n = len(blob)
    if n < 16:
        raise CheckpointFormatError(f"file is {n} bytes, too short for a checkpoint")
    pos = 8
    (header_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if pos + header_len > n - 4:
        raise CheckpointFormatError(f"header of {header_len} bytes overruns the file at offset {pos}")
    pos += header_len
    layout = []
    while pos < n - 4:
        if pos + 4 > n - 4:
            raise CheckpointFormatError(f"truncated parameter block at offset {pos}")
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if rank == 0 or rank > 3:
            raise CheckpointFormatError(f"parameter rank {rank} at offset {pos - 4} is not in 1..3")
        if pos + 4 * rank > n - 4:
            raise CheckpointFormatError(f"truncated dims at offset {pos}")
        dims = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        count = math.prod(dims)  # exact: u32 dims can overflow a fixed-width product
        if count == 0 or count > (1 << 32):
            raise CheckpointFormatError(f"implausible dims {dims} at offset {pos}")
        if not 0 <= pos <= pos + 4 * count <= n - 4:
            raise CheckpointFormatError(f"truncated parameter data at offset {pos}")
        layout.append((pos, dims))
        pos += 4 * count
    if pos != n - 4:
        raise CheckpointFormatError(f"stray bytes before the checksum at offset {pos}")
    return layout


def load_checkpoint(path) -> Model:
    """Read, verify (magic, version, structure, CRC, finite values) and rebuild the model."""
    blob = Path(path).read_bytes()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise CheckpointFormatError("bad magic: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported version {version}, expected {_VERSION}")
    layout = _scan_structure(blob)
    payload = blob[8:-4]
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(payload) != stored_crc:
        raise CheckpointIntegrityError("payload CRC-32 mismatch")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
        config = ModelConfig(**header["config"])
        vocab = Vocabulary(tuple(chr(c) for c in header["vocab"]))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CheckpointFormatError(f"malformed header: {exc}") from exc
    except VocabularyError as exc:  # not sorted and unique
        raise CheckpointIntegrityError(str(exc)) from exc
    if vocab.size != config.vocab_size:
        raise CheckpointIntegrityError(
            f"header vocab has {vocab.size} characters, config says {config.vocab_size}"
        )
    expected = expected_param_shapes(config)
    if len(layout) != len(expected):
        raise CheckpointIntegrityError(
            f"checkpoint holds {len(layout)} parameters, config implies {len(expected)}"
        )
    params = {}
    for (offset, dims), (name, shape) in zip(layout, expected.items()):
        if dims != shape:
            raise CheckpointIntegrityError(
                f"parameter {name} has dims {dims}, expected {shape}"
            )
        count = math.prod(dims)
        raw = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(raw).all():
            raise CheckpointIntegrityError(f"parameter {name} holds non-finite values")
        params[name] = raw.astype(np.float64).reshape(shape)
    return Model(config, vocab, params)


def rebuild_for_generation(model: Model) -> Model:
    """Same parameters, batch size 1, for stepwise sampling.

    Parameters are copied, so generating never perturbs a training model.
    """
    config = dataclasses.replace(model.config, batch_size=1)
    params = {name: p.copy() for name, p in model.params().items()}
    return Model(config, model.vocab, params)

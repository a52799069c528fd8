"""A whole-file reference for charrnn.model.load_checkpoint.

It reads the file into one bytes object and checks it in the order the
charrnn.model module docstring gives: magic, version and a length of at least
16 bytes; the header length, then the header (its config and vocabulary,
that its bytes are the sorted-key, space-free JSON of them, and that their
sizes agree); per parameter, that its block ends before the checksum, its
rank, its dims; no stray bytes; the CRC over the whole payload at once;
finite values, on the float32 values as stored.
The streaming loader must raise the same class with the same message on
every file, or return the same config, vocabulary and parameter bytes.

reference_load(path) returns a charrnn.model.Model.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from charrnn.corpus import Vocabulary
from charrnn.exceptions import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    VocabularyError,
)
from charrnn.model import Model, ModelConfig

_MAGIC = b"CRNF"
_VERSION = 1
_GATES = {"lstm": 4, "gru": 3, "birnn": 4}  # gate blocks per cell, in its columns


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's name and shape, in file order, from the config alone:
    the embedding table; per layer and direction (fwd. and bwd. for birnn)
    w_x, w_h and b, each of gates * width columns; then the dense layer,
    whose input is the last layer's output of directions * width."""
    prefixes = ("fwd.", "bwd.") if config.kind == "birnn" else ("",)
    columns = _GATES[config.kind]
    shapes = {"embedding.table": (config.vocab_size, config.embed_dim)}
    d = config.embed_dim
    for i, h in enumerate(config.layer_widths):
        for prefix in prefixes:
            shapes[f"rnn{i}.{prefix}w_x"] = (d, columns * h)
            shapes[f"rnn{i}.{prefix}w_h"] = (h, columns * h)
            shapes[f"rnn{i}.{prefix}b"] = (columns * h,)
        d = len(prefixes) * h
    shapes["dense.w"] = (d, config.vocab_size)
    shapes["dense.b"] = (config.vocab_size,)
    return shapes


def reference_load(path) -> Model:
    blob = Path(path).read_bytes()
    n = len(blob)
    if n < 8 or blob[:4] != _MAGIC:
        raise CheckpointFormatError("bad magic: not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported version {version}, expected {_VERSION}")
    if n < 16:
        raise CheckpointFormatError(f"file is {n} bytes, too short for a checkpoint")
    (header_len,) = struct.unpack_from("<I", blob, 8)
    pos = 12 + header_len
    if pos > n - 4:
        raise CheckpointFormatError(f"header of {header_len} bytes overruns the file at offset 12")
    try:
        header = json.loads(blob[12:pos].decode("utf-8"))
        config = ModelConfig(**header["config"])
        vocab = Vocabulary(tuple(chr(c) for c in header["vocab"]))
    except (ValueError, KeyError, TypeError, OverflowError, ConfigError) as exc:
        raise CheckpointFormatError(f"malformed header: {exc}") from exc
    except VocabularyError as exc:
        raise CheckpointIntegrityError(str(exc)) from exc
    canonical = {"config": dataclasses.asdict(config), "vocab": [ord(c) for c in vocab.chars]}
    if blob[12:pos] != json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8"):
        raise CheckpointFormatError("malformed header: not the canonical JSON of its content")
    if vocab.size != config.vocab_size:
        raise CheckpointIntegrityError(
            f"header vocab has {vocab.size} characters, config says {config.vocab_size}"
        )
    values = {}
    for name, shape in param_shapes(config).items():
        rank, count = len(shape), math.prod(shape)
        data = pos + 4 * (1 + rank)
        if data + 4 * count > n - 4:
            raise CheckpointFormatError(f"truncated parameter {name} at offset {pos}")
        (stored_rank,) = struct.unpack_from("<I", blob, pos)
        if stored_rank != rank:
            raise CheckpointFormatError(
                f"parameter {name} has rank {stored_rank} at offset {pos}, expected {rank}"
            )
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 4)
        if dims != shape:
            raise CheckpointIntegrityError(f"parameter {name} has dims {dims}, expected {shape}")
        values[name] = np.frombuffer(blob, dtype="<f4", count=count, offset=data).reshape(shape)
        pos = data + 4 * count
    if pos != n - 4:
        raise CheckpointFormatError(f"stray bytes before the checksum at offset {pos}")
    (stored_crc,) = struct.unpack_from("<I", blob, pos)
    if zlib.crc32(memoryview(blob)[8:pos]) != stored_crc:
        raise CheckpointIntegrityError("payload CRC-32 mismatch")
    params = {}
    for name, raw in values.items():
        if not np.isfinite(raw).all():
            raise CheckpointIntegrityError(f"parameter {name} holds non-finite values")
        params[name] = raw.astype(np.float64)
    return Model(config, vocab, params)

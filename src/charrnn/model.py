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
    u32 header length, then that many bytes of canonical UTF-8 JSON (sorted
        keys, no spaces, exactly as _header_bytes writes it) holding
        {"config": {...}, "vocab": [code points in index order]}
    per parameter in canonical order:
        u32 rank, u32 dims[rank], then IEEE-754 float32 values in row-major
    u32 CRC-32 of the payload (every byte after the version field and before
        this checksum)

The header's config fixes every parameter's rank, dims and offset, so loading
is one walk of that layout, which _layout generates a parameter at a time as
the walk goes. No table of it is held, so a header naming 10^6 layers is
refused at its first short block without 3 * 10^6 shapes being built first.
Its checks run in this order: magic, version and a length of at least 16
bytes; the header length, then the header: its config and vocabulary, that
it is the canonical JSON _header_bytes writes for them, and that their sizes
agree; per parameter, that its block ends before the checksum, its rank, its
dims; no stray bytes; the CRC; finite values. The header is read before the
CRC is checked because only the config says where the blocks end: a
truncated file must read as a format error, not as a CRC mismatch. The walk
streams: it needs a regular file, whose size it takes from fstat, and reads
the values in bounded chunks into one float64 block, sized by the file, that
the parameters view, with a running CRC, so a load never holds the file. Only
the bytes _header_bytes writes pass the header check, so every file that
loads re-saves to the same bytes.

Training arithmetic is float64; checkpoints store float32, so values are
rounded once on save and save -> load -> save is byte-identical. Saving
streams the file to its temp file one part at a time (magic and version, the
header, each parameter's dims and float32 values, the CRC), the CRC-32
running over the payload parts as they are written, so no copy of the
payload is built. A parameter that is not finite at float32 (a diverged
weight past float32's range, say) is a CheckpointIntegrityError raised before
the rename, so a save never leaves a file that load would refuse.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import Vocabulary, _write_atomic
from .exceptions import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    ConfigError,
    ShapeError,
    VocabularyError,
)
from .layers import _BLOCK, BidirectionalLstm, Dense, Embedding, GruCell, LstmCell, RecurrentStack
from .numerics import AT_LEAST_1, UNIT_RATE, Rng, check_int_fields, check_real_fields, is_int

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
# build_model refuses a config whose training step would hold more float64
# values (16 GiB, 16x birnn uni) before drawing anything: a ConfigError instead
# of a failed allocation. The step holds every parameter's gradient, so this
# also caps the model at 2^31 parameters.
MAX_STEP_FLOATS = 2**31
_LOAD_CHUNK = 1 << 16  # float32 values per read in load_checkpoint


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
    batch_size: int = 64
    embed_dim: int = 256
    dropout: float = 0.4
    seq_len: int = 100
    init_seed: int = 0
    unit_forget_bias: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        # a checkpoint header is JSON, where 5.0 and true parse but are no size
        widths = tuple(self.layer_widths)
        if not widths or not all(is_int(w) and w >= 1 for w in widths):
            raise ConfigError(f"layer_widths must be positive integers, got {widths}")
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in widths))
        check_int_fields(self, ("vocab_size", "batch_size", "embed_dim", "seq_len"), AT_LEAST_1)
        check_int_fields(self, ("init_seed",))
        check_real_fields(self, ("dropout",), UNIT_RATE)
        if not isinstance(self.unit_forget_bias, bool):
            raise ConfigError(f"unit_forget_bias must be a bool, got {self.unit_forget_bias!r}")


def _layout(config: ModelConfig):
    """(name, shape) of each parameter in canonical order, one at a time."""
    cell, directions = _KIND_TABLE[config.kind]
    yield "embedding.table", (config.vocab_size, config.embed_dim)
    d = config.embed_dim
    for i, h in enumerate(config.layer_widths):
        for prefix in directions:
            yield f"rnn{i}.{prefix}w_x", (d, cell.GATES * h)
            yield f"rnn{i}.{prefix}w_h", (h, cell.GATES * h)
            yield f"rnn{i}.{prefix}b", (cell.GATES * h,)
        d = len(directions) * h
    yield "dense.w", (d, config.vocab_size)
    yield "dense.b", (config.vocab_size,)


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes implied by the config."""
    return dict(_layout(config))


def expected_param_count(config: ModelConfig) -> int:
    # math.prod is exact; np.prod wraps at 2^63 on large configs
    return sum(math.prod(shape) for _, shape in _layout(config))


def expected_step_floats(config: ModelConfig) -> int:
    """float64 values one training step holds at its peak, in exact integers;
    a boolean keep mask counts as one value per 8 units.

    From its forward to the end of its update a step holds, per direction of
    a layer of width H, the gate tape B*L*kH and the cell's s states at
    every block start, s*ceil(L/_BLOCK)*B*H, from which its backward replays
    them; per layer of output width F (H, or 2H for birnn), its dropout
    output B*L*F (the next layer's input, or the batch-major dense input)
    and its keep mask; the
    loss's gradient B*L*V, as the logits are dropped once the loss is taken;
    and one gradient per parameter. On top sits the largest transient, which
    is one layer's backward at every preset: its output gradient B*L*F, an
    input gradient per direction (B*L*D; for layer 0, whose input is the
    embedding, the [V, kH] sums, the [V, _BLOCK*B] one-hot of
    Embedding.backward and d table [V, E]) and the scratch of one BPTT block
    of n = min(L, _BLOCK) steps: da, n*B*kH; the replay scratch,
    2*(n+1)*B*H; and the largest product the block makes, of dW_h [H, kH],
    the flush's [D, kH] and [n*B, D], or for layer 0 the id sums [V, kH]
    with their boolean one-hot. The loss's logits and shifted logits
    (2*B*L*V) and the update's one scratch array the size of the largest
    parameter are the other candidates.
    """
    cell, directions = _KIND_TABLE[config.kind]
    d, k, s = len(directions), cell.GATES, len(cell.STATES)
    b, t, v = config.batch_size, config.seq_len, config.vocab_size
    block, starts = min(t, _BLOCK), -(-t // _BLOCK)
    held = b * t * v + expected_param_count(config)
    largest = max(math.prod(shape) for _, shape in _layout(config))
    transient = max(2 * b * t * v, largest)
    for h, h_in in zip(config.layer_widths, (None, *config.layer_widths)):
        f = d * h
        held += d * b * (k * t + s * starts) * h + b * t * f + -(-b * t * f // 8)
        if h_in is None:
            d_in = d * v * (k * h + block * b + config.embed_dim)
            product = v * k * h + -(-v * block * b // 8)
        else:
            d_in = d * b * t * d * h_in
            product = max(d * h_in * k * h, block * b * d * h_in)
        scratch = b * block * k * h + 2 * b * (block + 1) * h + max(k * h * h, product)
        transient = max(transient, b * t * f + d_in + scratch)
    return held + transient


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
    for name, shape in _layout(config):
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
    floats = expected_step_floats(config)
    if floats > MAX_STEP_FLOATS:
        raise ConfigError(f"one training step would hold {floats} float64 values, more than "
                          f"{MAX_STEP_FLOATS}, for {expected_param_count(config)} parameters")
    return Model(config, vocab, _init_params(config))


# the one spelling of the header's JSON: sorted keys, no spaces, ASCII only
_HEADER_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _header(config: ModelConfig, vocab: Vocabulary) -> dict:
    return {"config": dataclasses.asdict(config), "vocab": [ord(c) for c in vocab.chars]}


def _header_bytes(config: ModelConfig, vocab: Vocabulary) -> bytes:
    return _HEADER_JSON.encode(_header(config, vocab)).encode("utf-8")


def _is_header_of(text: bytes, config: ModelConfig, vocab: Vocabulary) -> bool:
    """Whether text is _header_bytes(config, vocab), compared a JSON piece at
    a time: the one-shot encoder holds a string per list item, some 40 times
    the bytes of a header that lists 10^4 layer widths."""
    pos = 0
    for piece in _HEADER_JSON.iterencode(_header(config, vocab)):
        if not text.startswith(piece.encode("ascii"), pos):
            return False
        pos += len(piece)
    return pos == len(text)


def _checkpoint_chunks(model: Model):
    """The file in order: magic and version; then the payload, which is the
    header and, per parameter in the order of _layout (the layout
    load_checkpoint walks), its rank and dims and its float32 values
    (an array, written through the buffer protocol); then the payload's CRC.
    A parameter that is not finite at float32 (a weight past its range, say)
    is a CheckpointIntegrityError, as the loader would refuse the file."""
    yield _MAGIC + struct.pack("<I", _VERSION)
    header = _header_bytes(model.config, model.vocab)
    part = struct.pack("<I", len(header)) + header
    crc = zlib.crc32(part)
    yield part
    params = model.params()
    for name, _ in _layout(model.config):
        arr = params[name]
        part = struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
        crc = zlib.crc32(part, crc)
        yield part
        with np.errstate(over="ignore"):  # beyond float32's range casts to inf: refused below
            part = arr.astype("<f4", order="C")  # part held the dims: one float32 copy at a time
        if not (math.isfinite(part.min()) and math.isfinite(part.max())):
            raise CheckpointIntegrityError(
                f"parameter {name} holds values that are not finite at float32; not saved")
        crc = zlib.crc32(part, crc)
        yield part
    yield struct.pack("<I", crc)


def save_checkpoint(model: Model, path) -> None:
    """Write the checkpoint atomically (temp file + rename).

    The file is streamed a part at a time with a running CRC, so at most one
    parameter is held as float32 and no copy of the payload exists.
    """
    _write_atomic(path, _checkpoint_chunks(model))


def load_checkpoint(path) -> Model:
    """Read, verify and rebuild the model in one streaming walk of the layout its header implies.

    path must name a regular file, whose size fstat gives before anything is
    read. Checks run in this order: magic, version and a length of at least
    16 bytes; the header length, then the header (its config and
    vocabulary, that it is byte-equal to _header_bytes of them, and that
    their sizes agree); then, per parameter of _layout(config), generated as
    it is walked and never held whole, that its block ends before the
    checksum, its rank and its dims; no stray bytes before the checksum; the
    CRC; finite values. The header comes before the CRC because only the
    config says where each block ends, so a truncated file reads as a format
    error rather than a CRC mismatch.

    Values are read at most _LOAD_CHUNK at a time into a float32 staging
    array, one per parameter and no longer than it, and cast into one
    float64 block of n // 4 values, the most a file of n bytes can hold,
    that the parameters are views of. The CRC-32 runs over the bytes as
    they are read, so a load holds the parameters and one chunk, never the
    file. A read that comes up short, as when the file shrank after fstat,
    is the format error of a file that short.
    """
    # without O_NONBLOCK, opening a FIFO would wait for a writer; a regular
    # file reads the same either way. A directory opens too, but open(fd)
    # would refuse it, so the raw fd is checked and closed here first.
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode):
        os.close(fd)
        raise CheckpointFormatError(f"{os.fspath(path)} is not a regular file")
    with open(fd, "rb") as f:
        return _read_checkpoint(f, info.st_size)


def _read_checkpoint(f, n: int) -> Model:
    """The model in the checkpoint f, a file of n bytes open at its start."""
    def read(size: int, error: str) -> bytes:
        data = f.read(size)
        if len(data) != size:
            raise CheckpointFormatError(error)
        return data

    head = f.read(12)
    if len(head) < 8 or head[:4] != _MAGIC:
        raise CheckpointFormatError("bad magic: not a checkpoint file")
    (version,) = struct.unpack_from("<I", head, 4)
    if version != _VERSION:
        raise CheckpointFormatError(f"unsupported version {version}, expected {_VERSION}")
    if n < 16 or len(head) < 12:
        raise CheckpointFormatError(f"file is {n} bytes, too short for a checkpoint")
    (header_len,) = struct.unpack_from("<I", head, 8)
    pos = 12 + header_len
    overrun = f"header of {header_len} bytes overruns the file at offset 12"
    if pos > n - 4:
        raise CheckpointFormatError(overrun)
    text = read(header_len, overrun)
    crc = zlib.crc32(text, zlib.crc32(head[8:]))
    try:
        header = json.loads(text.decode("utf-8"))
        config = ModelConfig(**header["config"])
        vocab = Vocabulary(tuple(chr(c) for c in header["vocab"]))
    except (ValueError, KeyError, TypeError, OverflowError, ConfigError) as exc:
        raise CheckpointFormatError(f"malformed header: {exc}") from exc
    except VocabularyError as exc:  # not sorted and unique
        raise CheckpointIntegrityError(str(exc)) from exc
    # JSON that parses to the same config can be other bytes (true for a code
    # point 1, a spaced or reordered key, an extra key); only the bytes this
    # program writes load, so every file that loads re-saves to itself
    if not _is_header_of(text, config, vocab):
        raise CheckpointFormatError("malformed header: not the canonical JSON of its content")
    if vocab.size != config.vocab_size:
        raise CheckpointIntegrityError(
            f"header vocab has {vocab.size} characters, config says {config.vocab_size}"
        )
    # One allocation for all values. With one per parameter, glibc trimmed
    # and refaulted the heap on every load of a process that loads again.
    # Every value that passes its block's bound check fits in n // 4.
    block = np.empty(n // 4)
    params = {}
    offset = 0
    for name, shape in _layout(config):  # walked, never held: a header may name 10^6 layers
        rank, count = len(shape), math.prod(shape)
        data = pos + 4 * (1 + rank)
        truncated = f"truncated parameter {name} at offset {pos}"
        if data + 4 * count > n - 4:
            raise CheckpointFormatError(truncated)
        fields = read(4 * (1 + rank), truncated)
        crc = zlib.crc32(fields, crc)
        (stored_rank,) = struct.unpack_from("<I", fields)
        if stored_rank != rank:
            # the block's length is then unknown, so the walk cannot go on
            raise CheckpointFormatError(
                f"parameter {name} has rank {stored_rank} at offset {pos}, expected {rank}"
            )
        dims = struct.unpack_from(f"<{rank}I", fields, 4)
        if dims != shape:
            raise CheckpointIntegrityError(f"parameter {name} has dims {dims}, expected {shape}")
        staging = np.empty(min(_LOAD_CHUNK, count), dtype="<f4")
        staged = memoryview(staging).cast("B")
        for start in range(offset, offset + count, _LOAD_CHUNK):
            k = min(_LOAD_CHUNK, offset + count - start)
            if f.readinto(staged[: 4 * k]) != 4 * k:
                raise CheckpointFormatError(truncated)
            crc = zlib.crc32(staged[: 4 * k], crc)
            # a signalling NaN raises the invalid flag as it widens; the
            # finite check below is what refuses it
            with np.errstate(invalid="ignore"):
                np.copyto(block[start : start + k], staging[:k])
        params[name] = block[offset : offset + count].reshape(shape)
        offset += count
        pos = data + 4 * count
    if pos != n - 4:
        raise CheckpointFormatError(f"stray bytes before the checksum at offset {pos}")
    # a file cut inside the checksum leaves the last block short of it
    (stored_crc,) = struct.unpack("<I", read(4, truncated))
    if crc != stored_crc:
        raise CheckpointIntegrityError("payload CRC-32 mismatch")
    for name, values in params.items():
        if not np.isfinite(values).all():
            raise CheckpointIntegrityError(f"parameter {name} holds non-finite values")
    return Model(config, vocab, params)


def rebuild_for_generation(model: Model) -> Model:
    """A snapshot: the same config at batch size 1, over copies of the parameters.

    generate() needs no rebuild, since it runs on any model and writes no
    weight; the copy only keeps a model that training goes on to update apart
    from the one it is taken from.
    """
    config = dataclasses.replace(model.config, batch_size=1)
    params = {name: p.copy() for name, p in model.params().items()}
    return Model(config, model.vocab, params)

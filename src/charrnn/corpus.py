"""Corpus ingestion: vocabulary, integer encoding, sequence cutting, batching.

The pipeline is load -> build_vocab -> encode -> make_sequences ->
shuffle_batches. Targets are the input stream shifted one position, so each
window of seq_len + 1 characters yields an (input, target) pair of length
seq_len. The windows are one [n, seq_len + 1] view of the encoded stream;
each epoch gathers its kept windows once, and every batch's inputs and
targets are views of that gather. Annotation lines (speaker tags and the
like) are ordinary text and pass through untouched.

Set-up runs as array passes: build_vocab and encode read the text as UTF-32
code points _CHUNK characters at a time, so no temporary grows with the
corpus, and shuffle_batches takes its Fisher-Yates draws from one bulk
Rng.randint call.

_read_capped is the bounded read of the corpus and of history CSVs, and
_write_atomic the temp-file-and-rename writer of checkpoints, history CSVs
and the CLI's --out files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import CorpusError, ShapeError, VocabularyError
from .numerics import AT_LEAST_1, Rng, check_ids, check_int_fields


# load_corpus refuses a longer file, so an endless one (/dev/zero) is an
# error, not a failed allocation. The pipeline holds about 18-25 bytes a
# character (the str, the int64 ids, an epoch's window gather), so a corpus
# at the cap needs 1.2-1.6 GiB; it is 64 times the benchmark's 1M characters.
MAX_CORPUS_BYTES = 2**26


def load_corpus(path) -> str:
    """Read a UTF-8 text file (or pipe) of at most MAX_CORPUS_BYTES bytes.

    Raises FileNotFoundError for a missing file, CorpusError for a longer one
    and UnicodeDecodeError (which carries the byte offset) for invalid UTF-8.
    """
    return _read_capped(path, MAX_CORPUS_BYTES, CorpusError).decode("utf-8")


def _read_capped(path, cap: int, error) -> bytes:
    """The bytes of path in one read of at most cap + 1, so a pipe is read to
    its end or to the cap; more than cap raises error("{path}: longer than
    {cap} bytes"). The read reserves cap + 1 bytes up front, but pages it
    never touches are not resident."""
    with open(path, "rb") as f:
        data = f.read(cap + 1)
    if len(data) > cap:
        raise error(f"{path}: longer than {cap} bytes")
    return data


def _write_atomic(path, chunks) -> None:
    """Write the bytes-like chunks, in order, through a temp file in the same
    directory and a rename, so a failed write (an exception from the
    iterable included) never leaves a partial file at path. The temp file is
    opened as a plain write opens a new file (mode 0o666 less the umask), so
    path gets the mode a direct write would give it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CHUNK = 1 << 16  # characters per UTF-32 pass in build_vocab and encode


def _code_chunks(text: str):
    """(start, code points as uint32) per _CHUNK characters of text.

    UTF-32 gives one code unit per character; surrogatepass lets a lone
    surrogate (as argv can carry) through as its code point.
    """
    for start in range(0, len(text), _CHUNK):
        chunk = text[start : start + _CHUNK].encode("utf-32-le", "surrogatepass")
        yield start, np.frombuffer(chunk, dtype=np.uint32)


@dataclass(frozen=True)
class Vocabulary:
    """Bijective character <-> index mapping; code points strictly increase,
    so a character's index is its rank."""

    chars: tuple[str, ...]
    # code point -> index, -1 where no character; its last entry, one past
    # the largest code point, is -1 too and stands for every larger one
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes = np.array([ord(c) for c in self.chars], dtype=np.int64)
        if np.any(codes[1:] <= codes[:-1]):
            raise VocabularyError("vocabulary is not sorted and unique")
        table = np.full(int(codes.max(initial=-1)) + 2, -1, dtype=np.int64)
        table[codes] = np.arange(codes.size)
        object.__setattr__(self, "_table", table)

    @property
    def size(self) -> int:
        return len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        """Characters to int64 indices; unknown characters are an error.

        One table lookup per character, _CHUNK characters at a time, into
        one preallocated output; code points above the table clip to its
        last, unknown entry.
        """
        ids = np.empty(len(text), dtype=np.int64)
        for start, codes in _code_chunks(text):
            chunk = np.take(self._table, codes, mode="clip", out=ids[start : start + codes.size])
            if chunk.min() < 0:
                i = start + int(np.argmax(chunk < 0))
                raise VocabularyError(f"unknown character {text[i]!r} at position {i}")
        return ids

    def decode(self, indices) -> str:
        """A 1-D sequence of integer indices back to text; any other index
        is an error."""
        ids = np.asarray(indices)
        if ids.size == 0:
            return ""
        if ids.ndim != 1:
            raise ShapeError(f"decode needs a 1-D sequence of indices, got shape {ids.shape}")
        check_ids(ids, self.size, VocabularyError, "index")
        return "".join([self.chars[i] for i in ids.tolist()])


def build_vocab(text: str) -> Vocabulary:
    """Distinct characters of the text, ordered by code point.

    Sums one bincount of code points per _CHUNK characters; the nonzero
    counts are the characters.
    """
    if not text:
        raise CorpusError("cannot build a vocabulary from empty text")
    total = np.zeros(0, dtype=np.int64)
    for _, codes in _code_chunks(text):
        counts = np.bincount(codes)
        if counts.size < total.size:
            counts, total = total, counts
        counts[: total.size] += total
        total = counts
    return Vocabulary(tuple(map(chr, np.flatnonzero(total).tolist())))


@dataclass(frozen=True)
class CorpusPlan:
    """How the encoded corpus is cut and batched."""

    seq_len: int
    batch_size: int
    shuffle_seed: int = 0

    def __post_init__(self):
        check_int_fields(self, ("seq_len", "batch_size"), AT_LEAST_1)
        check_int_fields(self, ("shuffle_seed",))


@dataclass(frozen=True)
class SequenceBatch:
    """Integer matrices [batch x L]; targets are inputs shifted by one."""

    inputs: np.ndarray
    targets: np.ndarray


def make_sequences(indices: np.ndarray, plan: CorpusPlan) -> np.ndarray:
    """Cut the index stream into consecutive non-overlapping windows.

    Returns an [n, seq_len + 1] view of the stream: row k is chunk k, whose
    input is row[:-1] and target row[1:]. A trailing chunk shorter than
    seq_len + 1 is dropped.
    """
    indices = np.asarray(indices, dtype=np.int64)
    window = plan.seq_len + 1
    if indices.size < window:
        raise CorpusError(
            f"corpus yields {indices.size} encoded characters but at least "
            f"{window} (seq_len + 1) are required"
        )
    n_chunks = indices.size // window
    return indices[: n_chunks * window].reshape(n_chunks, window)


def shuffle_batches(windows: np.ndarray, plan: CorpusPlan, rng: Rng) -> list[SequenceBatch]:
    """Seeded Fisher-Yates permutation of the windows, then grouping into
    full batches.

    The swap partner of position i (n - 1 down to 1) is the draw for bound
    i + 1 of one rng.randint call over the bounds n, n - 1, ..., 2, in that
    order (so n is below 2^32). The final partial batch is dropped so
    every batch has fixed dimensions. The kept windows are gathered once;
    each batch's inputs and targets are views of that gather.
    """
    n = len(windows)
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.randint(np.arange(n, 1, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    size = plan.batch_size
    n_batches = n // size
    if n_batches == 0:
        raise CorpusError(f"{n} sequence pairs cannot fill a single batch of {size}")
    rows = windows[order[: n_batches * size]]
    return [SequenceBatch(inputs=rows[b * size : (b + 1) * size, :-1],
                          targets=rows[b * size : (b + 1) * size, 1:])
            for b in range(n_batches)]

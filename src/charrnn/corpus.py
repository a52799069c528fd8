"""Corpus ingestion: vocabulary, integer encoding, sequence cutting, batching.

The pipeline is load -> build_vocab -> encode -> make_sequences ->
shuffle_batches. Targets are the input stream shifted one position, so each
window of seq_len + 1 characters yields an (input, target) pair of length
seq_len. Annotation lines (speaker tags and the like) are ordinary text and
pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, CorpusError, VocabularyError
from .numerics import Rng


def load_corpus(path) -> str:
    """Read a UTF-8 text file in full.

    Raises FileNotFoundError for a missing file and UnicodeDecodeError (which
    carries the byte offset) for invalid UTF-8.
    """
    return Path(path).read_bytes().decode("utf-8")


@dataclass(frozen=True)
class Vocabulary:
    """Bijective character <-> index mapping, sorted by Unicode code point."""

    chars: tuple[str, ...]
    char2idx: dict[str, int] = field(init=False, repr=False, compare=False)
    # code points in ascending order, then a sentinel above every code point,
    # and the index of each sorted code point: the lookup tables of encode
    _sorted_codes: np.ndarray = field(init=False, repr=False, compare=False)
    _sorted_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "char2idx", {c: i for i, c in enumerate(self.chars)}
        )
        codes = np.array([ord(c) for c in self.chars], dtype=np.uint32)
        order = np.argsort(codes)
        object.__setattr__(self, "_sorted_codes",
                           np.append(codes[order], np.uint32(0xFFFFFFFF)))
        object.__setattr__(self, "_sorted_index", order.astype(np.int64))

    @property
    def size(self) -> int:
        return len(self.chars)

    def encode(self, text: str) -> np.ndarray:
        """Characters to int64 indices; unknown characters are an error.

        One binary search per character over the vocabulary's code points.
        UTF-32 gives one code unit per character; surrogatepass lets a lone
        surrogate (as argv can carry) through, to be reported as unknown.
        """
        codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        pos = np.searchsorted(self._sorted_codes, codes)
        unknown = self._sorted_codes[pos] != codes
        if unknown.any():
            i = int(np.argmax(unknown))
            raise VocabularyError(f"unknown character {text[i]!r} at position {i}")
        return self._sorted_index[pos]

    def decode(self, indices) -> str:
        """Indices back to text; out-of-range indices are an error."""
        chars = self.chars
        v = len(chars)
        out = []
        for i, idx in enumerate(indices):
            idx = int(idx)
            if not 0 <= idx < v:
                raise VocabularyError(f"index {idx} out of range [0, {v}) at position {i}")
            out.append(chars[idx])
        return "".join(out)


def build_vocab(text: str) -> Vocabulary:
    """Distinct characters of the text, ordered by code point."""
    if not text:
        raise CorpusError("cannot build a vocabulary from empty text")
    return Vocabulary(tuple(sorted(set(text))))


@dataclass(frozen=True)
class CorpusPlan:
    """How the encoded corpus is cut and batched."""

    seq_len: int = 100
    batch_size: int = 64
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class SequenceBatch:
    """Integer matrices [batch x L]; targets are inputs shifted by one."""

    inputs: np.ndarray
    targets: np.ndarray


def make_sequences(indices: np.ndarray, plan: CorpusPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cut the index stream into consecutive non-overlapping windows.

    Each chunk of seq_len + 1 indices yields input = chunk[:-1] and
    target = chunk[1:]; a trailing chunk shorter than seq_len + 1 is dropped.
    """
    indices = np.asarray(indices, dtype=np.int64)
    window = plan.seq_len + 1
    if indices.size < window:
        raise CorpusError(
            f"corpus yields {indices.size} encoded characters but at least "
            f"{window} (seq_len + 1) are required"
        )
    n_chunks = indices.size // window
    pairs = []
    for k in range(n_chunks):
        chunk = indices[k * window : (k + 1) * window]
        pairs.append((chunk[:-1].copy(), chunk[1:].copy()))
    return pairs


def shuffle_batches(pairs, plan: CorpusPlan, rng: Rng) -> list[SequenceBatch]:
    """Seeded Fisher-Yates permutation, then grouping into full batches.

    The final partial batch is dropped so every batch has fixed dimensions.
    """
    order = list(range(len(pairs)))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randint(i + 1)
        order[i], order[j] = order[j], order[i]
    n_batches = len(pairs) // plan.batch_size
    if n_batches == 0:
        raise CorpusError(
            f"{len(pairs)} sequence pairs cannot fill a single batch of "
            f"{plan.batch_size}"
        )
    batches = []
    for b in range(n_batches):
        chosen = order[b * plan.batch_size : (b + 1) * plan.batch_size]
        batches.append(
            SequenceBatch(
                inputs=np.stack([pairs[i][0] for i in chosen]),
                targets=np.stack([pairs[i][1] for i in chosen]),
            )
        )
    return batches

"""Corpus ingestion: vocabulary, integer encoding, sequence cutting, batching.

The pipeline is load -> build_vocab -> encode -> make_sequences ->
shuffle_batches. Targets are the input stream shifted one position, so each
window of seq_len + 1 characters is an (input, target) pair of length
seq_len: its [:-1] and its [1:]. The windows are one [n, seq_len + 1] view
of the encoded stream; each epoch gathers its kept windows once, as one
[n_batches, batch_size, seq_len + 1] array whose row k is batch k.
Annotation lines (speaker tags and the like) are ordinary text and pass
through untouched.

Set-up runs as array passes: build_vocab and encode read the text as UTF-32
code points _CHUNK characters at a time, so no temporary grows with the
corpus, and shuffle_batches takes its Fisher-Yates draws from one bulk
Rng.randint call.

_read_capped is the bounded read of the corpus and of history CSVs, and
_write_atomic the temp-file-and-rename writer of checkpoints, history CSVs
and the CLI's --out files. An output path means the file _resolve gives for
it, symlinks followed, and _write_target is the one rule for which of those
can be written: a regular file, or a new file in an existing directory. An
empty path, or one that ends in a separator or a "." or ".." part, is
refused as written, with the error a plain open gives. _write_atomic
writes through it, and the CLI's _check_writable calls it before any work.
"""

from __future__ import annotations

import errno
import os
import stat
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


def _write_target(path) -> Path:
    """The file _write_atomic writes for path, _resolve's, once it is known
    that the write can go there: a regular file, or a new file in an
    existing directory. A directory raises the OSError that opening it to
    write would (EISDIR), as does a missing directory (ENOENT) or a file in
    its place (ENOTDIR); an existing FIFO, device or socket, which the
    rename would replace with a regular file, raises OSError("{path} is not
    a regular file"). Each names path as given.

    A path that ends in a separator or in a "." or ".." part can only name
    a directory, and Path drops the separator and the ".", so such a path
    is judged as written first, as is an empty one (ENOENT): it raises
    what open(path, "wb") raises. A name ending in a separator is EISDIR
    where its directory exists; a last "." or ".." part is what looking
    path up gives, or EISDIR once found."""
    text = os.fspath(path)
    head = text.rstrip(os.sep + (os.altsep or ""))
    last = os.path.basename(head)
    if not text:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), text)
    if head != text or last in (".", ".."):
        # open looks up the directory the last name is in, or the one a
        # last "." or ".." names, and fails there or at the name
        probe = head if last in (".", "..") else os.path.dirname(head) or "."
        try:
            code = errno.EISDIR if stat.S_ISDIR(os.stat(probe).st_mode) else errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
        raise OSError(code, os.strerror(code), text)
    target = _resolve(path)
    try:
        mode = target.stat().st_mode
    except (FileNotFoundError, NotADirectoryError):
        if target.parent.is_dir():
            return target
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        if stat.S_ISREG(mode):
            return target
        if not stat.S_ISDIR(mode):
            raise OSError(f"{text} is not a regular file")
        code = errno.EISDIR
    raise OSError(code, os.strerror(code), text)


def _write_atomic(path, chunks) -> None:
    """Write the bytes-like chunks, in order, to the file path resolves to,
    as a plain open would: a symlink stays a link and its target (created,
    if the link dangles) gets the bytes. _write_target refuses a target it
    cannot write before anything is made. The write goes through a temp
    file in the target's directory and a rename, so a failed write (an
    exception from the iterable included) never leaves a partial file. The
    temp file is opened as a plain write opens a new file (mode 0o666 less
    the umask), so the target gets the mode a direct write would give it."""
    path = _write_target(path)
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


def shuffle_batches(windows: np.ndarray, plan: CorpusPlan, rng: Rng) -> np.ndarray:
    """Seeded Fisher-Yates permutation of the windows, then grouping into
    full batches.

    The swap partner of position i (n - 1 down to 1) is the draw for bound
    i + 1 of one rng.randint call over the bounds n, n - 1, ..., 2, in that
    order (so n is below 2^32). The final partial batch is dropped so
    every batch has fixed dimensions. The kept windows are gathered once
    and returned as one [n_batches, batch_size, seq_len + 1] view of that
    gather: batch k is row k, B windows, whose inputs are batch[:, :-1]
    and targets batch[:, 1:].
    """
    n = len(windows)
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.randint(np.arange(n, 1, -1)).tolist()):
        order[i], order[j] = order[j], order[i]
    size = plan.batch_size
    n_batches = n // size
    if n_batches == 0:
        raise CorpusError(f"{n} sequence pairs cannot fill a single batch of {size}")
    return windows[order[: n_batches * size]].reshape(n_batches, size, -1)

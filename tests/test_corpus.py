import hashlib
import os
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn import corpus
from charrnn.corpus import (
    CorpusPlan,
    Vocabulary,
    build_vocab,
    load_corpus,
    make_sequences,
    shuffle_batches,
)
from charrnn.exceptions import ConfigError, CorpusError, VocabularyError
from charrnn.numerics import Rng

# shuffle_batches' row order for 11 windows, batch size 3, Rng(9)
ORDER_11_RNG9 = [8, 9, 5, 4, 3, 0, 1, 6, 2]

# SHA-256 of the kept row order (little-endian int64) for 5,000 windows at
# batch size 7, and the Rng's next draw after the shuffle, per seed; computed
# with the one-draw-per-call Fisher-Yates loop
ORDER_5000_B7 = {
    1: ("80406e0f8c095b577f8beec951236461067044723d88473771f51e01471e3ce1",
        1027644350607440444),
    2024: ("fad696fb7d2c8ebe5851bfb1fafe6116fbe48f0c0db45691d6c44b839c1634c7",
           6492685813686816635),
}


class TestLoadCorpus:
    def test_plain_text(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("abc", encoding="utf-8")
        assert load_corpus(p) == "abc"

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_bytes(b"")
        assert load_corpus(p) == ""

    def test_multibyte_roundtrip(self, tmp_path):
        text = "naïve — 三体 🚀\nend"
        p = tmp_path / "m.txt"
        p.write_bytes(text.encode("utf-8"))
        loaded = load_corpus(p)
        assert loaded == text
        assert loaded.encode("utf-8") == p.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.txt")

    def test_invalid_utf8_reports_offset(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"ok\xff\xfe")
        with pytest.raises(UnicodeDecodeError) as exc:
            load_corpus(p)
        assert exc.value.start == 2

    def test_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "MAX_CORPUS_BYTES", 8)
        p = tmp_path / "c.txt"
        p.write_bytes(b"abcdefgh")
        assert load_corpus(p) == "abcdefgh"
        p.write_bytes(b"abcdefghi")
        with pytest.raises(CorpusError, match="c.txt: longer than 8 bytes"):
            load_corpus(p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_loads(self, tmp_path):
        # a pipe (as --corpus <(zcat ...) gives) is read to its end, over
        # several of the pipe's buffers; the checkpoint loader refuses pipes
        text = "pipe — 管道\n" * 20_000
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,),
                                  kwargs={"encoding": "utf-8"}, daemon=True)
        writer.start()
        assert load_corpus(fifo) == text
        writer.join(timeout=60)
        assert not writer.is_alive()


class TestVocabulary:
    def test_sorted_assignment(self):
        v = build_vocab("abcab")
        assert v.size == 3
        assert v.encode("abc").tolist() == [0, 1, 2]
        assert v.decode([0, 1, 2]) == "abc"

    def test_single_char(self):
        assert build_vocab("aaaa").size == 1

    def test_newline_sorts_first(self):
        v = build_vocab("ba\n")
        assert v.chars == ("\n", "a", "b")

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            build_vocab("")

    def test_encode(self):
        v = build_vocab("ab")
        assert np.array_equal(v.encode("aba"), [0, 1, 0])

    def test_decode_empty(self):
        assert build_vocab("ab").decode([]) == ""

    def test_encode_unknown_char_position(self):
        v = build_vocab("ab")
        with pytest.raises(VocabularyError, match=r"'z' at position 2"):
            v.encode("abz")

    def test_encode_empty(self):
        out = build_vocab("ab").encode("")
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_encode_non_bmp(self):
        v = build_vocab("a\U0001F600b")
        assert v.chars == ("a", "b", "\U0001F600")
        assert np.array_equal(v.encode("\U0001F600ba\U0001F600"), [2, 1, 0, 2])
        with pytest.raises(VocabularyError, match="'\U0001F642' at position 1"):
            v.encode("a\U0001F642")

    def test_encode_lone_surrogate(self):
        # argv decoded with surrogateescape can carry one, e.g. a --prime
        # holding invalid UTF-8; it must be an unknown character, not a
        # UnicodeEncodeError
        with pytest.raises(VocabularyError, match=r"'\\udcff' at position 1"):
            build_vocab("ab").encode("a\udcffb")

    def test_encode_reports_first_unknown(self):
        v = build_vocab("abc")
        with pytest.raises(VocabularyError, match=r"^unknown character 'x' at position 3$"):
            v.encode("cabxyzx")

    @pytest.mark.parametrize("chars", [("b", "a"), ("a", "a"), ("a", "c", "b")],
                             ids=["unsorted", "duplicate", "unsorted_tail"])
    def test_unsorted_or_duplicate_rejected(self, chars):
        with pytest.raises(VocabularyError, match="^vocabulary is not sorted and unique$"):
            Vocabulary(chars)

    def test_decode_bad_index_position(self):
        v = build_vocab("ab")
        with pytest.raises(VocabularyError, match="position 1"):
            v.decode([0, 5])

    @given(st.text(min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_bijection_and_roundtrip(self, text):
        v = build_vocab(text)
        assert list(v.chars) == sorted(set(text))
        assert v.encode("".join(v.chars)).tolist() == list(range(v.size))
        assert v.decode(v.encode(text)) == text

    def test_roundtrip_on_fixture(self, fixture_text, fixture_vocab):
        assert fixture_vocab.decode(fixture_vocab.encode(fixture_text)) == fixture_text


class TestChunks:
    """build_vocab and encode read the text _CHUNK (2^16) characters at a time."""

    def test_largest_code_point_gives_the_largest_table(self):
        v = build_vocab("a\U0010FFFFb")
        assert v.chars == ("a", "b", "\U0010FFFF")
        assert v._table.size == 0x110001
        assert v.encode("\U0010FFFFba").tolist() == [2, 1, 0]
        with pytest.raises(VocabularyError, match=r"^unknown character '\\U0010fffe' at position 1$"):
            v.encode("a\U0010FFFE")

    # U+18AE9 is ord("a") + 1000 * 101: a lookup that wrapped around the
    # 101-entry table instead of clipping would read "a"'s index
    @pytest.mark.parametrize("probe", ["d", "\u4e00", "\U0001F600", "\U00018AE9", "\U0010FFFF",
                                       "\udcff"])
    def test_probe_above_the_largest_code_point(self, probe):
        v = build_vocab("abc")
        assert v._table.size == ord("c") + 2
        with pytest.raises(VocabularyError) as exc:
            v.encode("ab" + probe + "x")
        assert str(exc.value) == f"unknown character {probe!r} at position 2"

    @pytest.mark.parametrize("pos", [2**16 - 1, 2**16, 2**16 + 1, 2**17 + 5])
    def test_first_unknown_in_a_later_chunk(self, pos):
        v = build_vocab("ab")
        text = "ab" * (pos // 2) + "a" * (pos % 2) + "z" + "b" * 10 + "y"
        with pytest.raises(VocabularyError) as exc:
            v.encode(text)
        assert str(exc.value) == f"unknown character 'z' at position {pos}"

    def test_encode_across_chunks(self):
        text = ("ab\U0001F600c" * 40_000)[:150_001]
        v = build_vocab(text)
        ids = v.encode(text)
        assert ids.dtype == np.int64 and ids.shape == (150_001,)
        assert ids.tolist() == [v.chars.index(c) for c in text]

    @pytest.mark.parametrize("text", [
        "\U0010FFFF" + "a" * 2**16 + "b",  # a later chunk with a smaller top
        "a" * 2**16 + "\U0001F600",        # a later chunk with a larger top
        "b" * 2**17 + "a",                  # a character only in the last chunk
    ], ids=["smaller_later", "larger_later", "last_chunk_only"])
    def test_vocab_across_chunks(self, text):
        assert list(build_vocab(text).chars) == sorted(set(text))


# any code point: every category, non-BMP characters, and lone surrogates
# (category Cs), which argv decoded with surrogateescape can carry
_CHARS = st.one_of(st.characters(exclude_categories=()),
                   st.characters(min_codepoint=0x10000),
                   st.characters(categories=["Cs"]))


class TestVocabularyProperties:
    @given(st.text(_CHARS, max_size=40))
    @settings(max_examples=200)
    def test_build_vocab_sorted_and_round_trips(self, text):
        if not text:
            with pytest.raises(CorpusError):
                build_vocab(text)
            return
        v = build_vocab(text)
        codes = [ord(c) for c in v.chars]
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert v.decode(v.encode(text)) == text

    @given(st.text(_CHARS, min_size=1, max_size=20), st.text(_CHARS, max_size=20))
    @settings(max_examples=200)
    def test_encode_round_trips_or_names_first_unknown(self, corpus_text, probe):
        v = build_vocab(corpus_text)
        unknown = [i for i, c in enumerate(probe) if c not in v.chars]
        if not unknown:
            assert v.decode(v.encode(probe)) == probe
            return
        i = unknown[0]
        with pytest.raises(VocabularyError) as exc:
            v.encode(probe)
        assert str(exc.value) == f"unknown character {probe[i]!r} at position {i}"


class TestMakeSequences:
    def test_hand_enumeration(self):
        # "abcdefg" over {a..g}, L=3: one chunk "abcd", remainder dropped
        idx = np.arange(7)
        windows = make_sequences(idx, CorpusPlan(seq_len=3, batch_size=1))
        assert len(windows) == 1
        assert np.array_equal(windows[0, :-1], [0, 1, 2])
        assert np.array_equal(windows[0, 1:], [1, 2, 3])

    def test_exact_boundary(self):
        windows = make_sequences(np.arange(4), CorpusPlan(seq_len=3, batch_size=1))
        assert len(windows) == 1

    def test_windows_view_the_stream(self):
        idx = np.arange(11, dtype=np.int64)
        windows = make_sequences(idx, CorpusPlan(seq_len=2, batch_size=1))
        assert windows.shape == (3, 3)
        assert np.shares_memory(windows, idx)

    def test_too_short(self):
        with pytest.raises(CorpusError, match="4"):
            make_sequences(np.arange(3), CorpusPlan(seq_len=3, batch_size=1))

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=13, max_value=200))
    @settings(max_examples=100)
    def test_shift_relation(self, seq_len, n):
        idx = np.arange(n) % 7
        windows = make_sequences(idx, CorpusPlan(seq_len=seq_len, batch_size=1))
        assert len(windows) == n // (seq_len + 1)
        for inp, tgt in zip(windows[:, :-1], windows[:, 1:]):
            assert np.array_equal(tgt[:-1], inp[1:])

    @given(st.lists(st.integers(0, 60), max_size=60), st.integers(1, 20))
    @settings(max_examples=200)
    def test_short_stream_error_else_rows_are_slices(self, stream, seq_len):
        plan = CorpusPlan(seq_len=seq_len, batch_size=1)
        window = seq_len + 1
        if len(stream) < window:
            with pytest.raises(CorpusError):
                make_sequences(np.array(stream, dtype=np.int64), plan)
            return
        windows = make_sequences(np.array(stream, dtype=np.int64), plan)
        assert windows.shape == (len(stream) // window, window)
        for k, row in enumerate(windows):
            assert row.tolist() == stream[k * window : (k + 1) * window]

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            CorpusPlan(seq_len=0, batch_size=1)
        with pytest.raises(ConfigError):
            CorpusPlan(seq_len=1, batch_size=0)


class TestShuffleBatches:
    def _windows(self, n, length=4):
        # window i is all i: its input row is all i
        return np.repeat(np.arange(n)[:, None], length + 1, axis=1)

    def test_counts(self):
        plan = CorpusPlan(seq_len=4, batch_size=4)
        batches = shuffle_batches(self._windows(10), plan, Rng(0))
        assert len(batches) == 2
        assert all(b[:, :-1].shape == (4, 4) for b in batches)

    def test_seeded_determinism(self):
        plan = CorpusPlan(seq_len=4, batch_size=3)
        a = shuffle_batches(self._windows(11), plan, Rng(9))
        b = shuffle_batches(self._windows(11), plan, Rng(9))
        assert all(np.array_equal(x[:, :-1], y[:, :-1]) for x, y in zip(a, b))

    def test_retained_multiset_is_subset(self):
        plan = CorpusPlan(seq_len=4, batch_size=4)
        windows = self._windows(10)
        batches = shuffle_batches(windows, plan, Rng(1))
        retained = Counter(
            int(row[0]) for b in batches for row in b[:, :-1]
        )
        original = Counter(int(w[0]) for w in windows)
        assert all(retained[k] <= original[k] for k in retained)
        assert sum(retained.values()) == (10 // 4) * 4

    def test_zero_batches_rejected(self):
        plan = CorpusPlan(seq_len=4, batch_size=64)
        with pytest.raises(CorpusError):
            shuffle_batches(self._windows(3), plan, Rng(0))

    def test_batches_are_a_view_of_one_gather(self):
        windows = make_sequences(np.arange(50) % 7, CorpusPlan(seq_len=4, batch_size=3))
        batches = shuffle_batches(windows, CorpusPlan(seq_len=4, batch_size=3), Rng(2))
        assert len(batches) == 3
        rows = batches.base  # the 9 kept windows, gathered once
        assert rows.shape == (9, 5) and not np.shares_memory(rows, windows)
        assert batches.shape == (3, 3, 5) and np.shares_memory(batches, rows)

    @pytest.mark.parametrize("seed", sorted(ORDER_5000_B7))
    def test_fisher_yates_order_at_scale(self, seed):
        rng = Rng(seed)
        batches = shuffle_batches(self._windows(5_000), CorpusPlan(seq_len=4, batch_size=7), rng)
        order = np.array([int(row[0]) for b in batches for row in b[:, :-1]], dtype="<i8")
        assert order.size == 5_000 // 7 * 7
        assert (hashlib.sha256(order.tobytes()).hexdigest(), rng.next_u64()) == ORDER_5000_B7[seed]

    def test_fisher_yates_order(self):
        # the permutation the seeded Rng draws; any change reorders training
        batches = shuffle_batches(self._windows(11), CorpusPlan(seq_len=4, batch_size=3), Rng(9))
        assert [int(row[0]) for b in batches for row in b[:, :-1]] == ORDER_11_RNG9

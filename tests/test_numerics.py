import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn.corpus import CorpusPlan, Vocabulary
from charrnn.exceptions import (
    ConfigError,
    DistributionError,
    LabelError,
    ShapeError,
    VocabularyError,
)
from charrnn.generator import GenerationPlan
from charrnn.model import ModelConfig, build_model
from charrnn.numerics import _CHUNK, Rng, sample_categorical, sigmoid, softmax
from charrnn.objective import ce_loss
from charrnn.trainer import TrainPlan


def _sigmoid_piecewise(x):
    """The boolean-mask form sigmoid had before: the reference it must match."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _unshift(y: int, k: int) -> int:
    """The x with x ^ (x >> k) == y, for 64-bit x."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def _seed_for_first_draw(z: int) -> int:
    """A seed whose first Rng draw is z: splitmix64's finalizer inverted."""
    mask = (1 << 64) - 1
    z = _unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return (_unshift(z, 30) - 0x9E3779B97F4A7C15) & mask


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_bulk_matches_single_draws(self):
        a, b = Rng(7), Rng(7)
        bulk = a.uniform(257)
        singles = np.array([b.uniform() for _ in range(257)])
        assert np.array_equal(bulk, singles)

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_bulk_draws_across_chunk_boundaries(self, n):
        # each bulk method against per-draw references, then the next draw
        bounds = np.arange(n) % 1000 + 1
        cases = [
            (lambda r: r.uniform((n,), -2.0, 5.0), lambda r: r.uniform(None, -2.0, 5.0)),
            (lambda r: r.uniform_at_least((n,), 0.4), lambda r: r.uniform() >= 0.4),
            (lambda r: r.randint(bounds), None),
        ]
        for bulk, single in cases:
            a, b = Rng(5), Rng(5)
            got = bulk(a)
            if single is None:
                want = [(b.next_u64() * int(k)) >> 64 for k in bounds]
            else:
                want = [single(b) for _ in range(n)]
            assert got.shape == (n,) and got.tolist() == want
            assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("method, dtype", [("uniform", np.float64),
                                               ("uniform_at_least", np.bool_)])
    def test_bulk_draws_hold_the_result_and_one_chunk(self, method, dtype):
        # the result, three uint64 chunk buffers, numpy's 64 KB cast buffer
        # and some slack; a uint64 temporary the size of the result is more
        shape = (256, 1024)
        r = Rng(3)
        draw = r.uniform if method == "uniform" else lambda s: r.uniform_at_least(s, 0.4)
        bound = math.prod(shape) * np.dtype(dtype).itemsize + 3 * 8 * _CHUNK + 131_072
        draw(shape)  # lazy imports and caches are not the draw's
        tracemalloc.start()
        try:
            draw(shape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_uniform_range(self):
        u = Rng(3).uniform(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        lo = Rng(3).uniform(1_000, low=-2.0, high=5.0)
        assert lo.min() >= -2.0 and lo.max() < 5.0

    @given(threshold=st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 0.4, 1 - 2**-53]),
                               st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
           shape=st.lists(st.integers(min_value=0, max_value=7), max_size=3).map(tuple),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=80, deadline=None)
    def test_uniform_at_least_is_the_float_compare(self, threshold, shape, seed):
        a, b = Rng(seed), Rng(seed)
        got = a.uniform_at_least(shape, threshold)
        assert got.dtype == np.bool_
        assert np.array_equal(got, b.uniform(shape) >= threshold)
        assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("threshold", [0.1, 1 / 3, 0.4, 0.5, 5e-324])
    def test_uniform_at_least_at_the_boundary(self, threshold):
        # seeds whose first draw's 53-bit integer sits just below and at
        # ceil(threshold * 2^53), the one place an off-by-one bound shows
        bound = math.ceil(threshold * 2.0**53)
        for u53, kept in ((bound - 1, False), (bound, True)):
            for low_bits in (0, 0x7FF):
                seed = _seed_for_first_draw((u53 << 11) | low_bits)
                assert Rng(seed).next_u64() == (u53 << 11) | low_bits
                assert Rng(seed).uniform_at_least((1,), threshold)[0] == kept
                assert (Rng(seed).uniform() >= threshold) == kept

    def test_randint_bounds(self):
        r = Rng(11)
        draws = [r.randint(7) for _ in range(1_000)]
        assert min(draws) == 0 and max(draws) == 6

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           bounds=st.lists(st.one_of(st.sampled_from([1, 2, 3, 2**31, 2**32 - 1]),
                                     st.integers(min_value=1, max_value=2**32 - 1)),
                           max_size=40))
    @settings(max_examples=150)
    def test_randint_array_is_the_scalar_draws(self, seed, bounds):
        a, b = Rng(seed), Rng(seed)
        got = a.randint(np.array(bounds, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == (len(bounds),)
        assert got.tolist() == [(b.next_u64() * k) >> 64 for k in bounds]
        assert a.next_u64() == b.next_u64()

    @pytest.mark.parametrize("z", [2**64 - 1, 2**64 - 2**32, 2**32 - 1, 0])
    @pytest.mark.parametrize("bound", [1, 2, 2**32 - 1])
    def test_randint_array_at_the_limb_extremes(self, z, bound):
        # z = 2^64 - 1 with b = 2^32 - 1 makes hi * b + ((lo * b) >> 32) its
        # largest, 2^64 - 2^32 - 1; a draw that carried out of uint64 would
        # show here
        seed = _seed_for_first_draw(z)
        for dtype in (np.int64, np.uint64, np.uint32):
            got = Rng(seed).randint(np.array([bound, bound], dtype=dtype))
            assert int(got[0]) == (z * bound) >> 64 == Rng(seed).randint(bound)
        assert (z * bound) >> 64 < bound

    @pytest.mark.parametrize("bounds", [[0], [3, -1], [2**32], [5, 2**62]])
    def test_randint_array_bounds_outside_rejected(self, bounds):
        r = Rng(4)
        with pytest.raises(ValueError, match=r"\[1, 2\^32\)"):
            r.randint(np.array(bounds, dtype=np.int64))
        assert r.next_u64() == Rng(4).next_u64()  # nothing was drawn

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           bound=st.integers(min_value=1, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_randint_scalar_is_the_multiply_shift_draw(self, seed, bound):
        got = Rng(seed).randint(bound)
        assert got.dtype == np.int64 and got.shape == ()
        assert int(got) == (Rng(seed).next_u64() * bound) >> 64

    def test_randint_scalar_bound_outside_rejected(self):
        r = Rng(4)
        with pytest.raises(ValueError, match=r"\[1, 2\^32\)"):
            r.randint(2**32)
        assert r.next_u64() == Rng(4).next_u64()  # nothing was drawn

    def test_randint_empty_array_draws_nothing(self):
        r = Rng(4)
        got = r.randint(np.zeros(0, dtype=np.int64))
        assert got.dtype == np.int64 and got.shape == (0,)
        assert r.next_u64() == Rng(4).next_u64()

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50)
    def test_any_seed_valid(self, seed):
        r = Rng(seed)
        assert 0 <= r.next_u64() < 2**64


def _sampler_softmax(logits, temperature):
    """The four ufuncs generate ran on a logits vector before it called
    softmax: the bits softmax(logits, temperature) must keep."""
    probs = np.empty_like(logits)
    np.subtract(logits, np.maximum.reduce(logits), probs)
    np.true_divide(probs, temperature, probs)
    np.exp(probs, probs)
    np.true_divide(probs, np.add.reduce(probs), probs)
    return probs


def _plain_softmax(x):
    """The temperature-free softmax numerics had before: its bits at T = 1."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmax:
    @pytest.mark.parametrize("temperature", [1e-300, 0.05, 0.5, 1.0, 3.0])
    def test_bits_of_the_samplers_former_softmax(self, temperature):
        for size, seed in ((5, 1), (51, 2), (300, 3)):
            logits = np.random.default_rng(seed).normal(size=size) * 4.0
            with np.errstate(over="ignore"):  # 1e-300 divides to -inf, as in generate
                got = softmax(logits, temperature)
                want = _sampler_softmax(logits, temperature)
            assert got.tobytes() == want.tobytes(), size
            if temperature == 1e-300:  # the argmax limit
                assert got.tobytes() == np.eye(size)[logits.argmax()].tobytes()

    def test_out_is_written_and_returned(self):
        logits = np.random.default_rng(4).normal(size=(3, 7))
        want = softmax(logits, 0.5)
        out = np.full_like(logits, np.nan)
        assert softmax(logits, 0.5, out) is out
        assert out.tobytes() == want.tobytes()
        assert softmax(logits, 0.5, logits) is logits  # in place
        assert logits.tobytes() == want.tobytes()

    def test_bits_of_the_plain_softmax_at_one(self):
        rng = np.random.default_rng(6)
        for x in (rng.normal(size=9) * 3.0, rng.normal(size=(4, 33)) * 3.0):
            want = _plain_softmax(x)
            assert softmax(x).tobytes() == want.tobytes()
            assert softmax(x, 1.0).tobytes() == want.tobytes()

    def test_constant_is_uniform(self):
        for c in (0.0, -3.5, 1e3):
            out = softmax(np.full(4, c))
            assert np.allclose(out, 0.25, atol=1e-12)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 4.0, 2.2])
        for k in (1.0, -50.0, 1e3):
            assert np.allclose(softmax(x), softmax(x + k), atol=1e-12)

    def test_closed_form(self):
        out = softmax(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_probability_vector(self, logits):
        out = softmax(np.array(logits))
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_closed_form(self):
        assert abs(sigmoid(np.array(math.log(3.0))) - 0.75) < 1e-15

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    @given(st.lists(st.floats(min_value=-745.0, max_value=745.0),
                    min_size=1, max_size=64))
    @settings(max_examples=300)
    def test_sigmoid_matches_piecewise_reference(self, values):
        x = np.array(values)
        assert np.max(np.abs(sigmoid(x) - _sigmoid_piecewise(x))) <= 5e-16

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300)
    def test_sigmoid_finite_unit_interval_any_scalar(self, value):
        out = sigmoid(value)
        assert np.ndim(out) == 0
        assert np.isfinite(out) and 0.0 <= out <= 1.0
        assert sigmoid(np.array(value)) == out

    def test_sigmoid_in_place(self):
        x = np.linspace(-30.0, 30.0, 60).reshape(3, 20)
        expected = sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert np.array_equal(x, expected)


class TestSampleCategorical:
    def test_one_hot_always_selected(self):
        rng = Rng(0)
        probs = np.array([0.0, 1.0, 0.0])
        assert all(sample_categorical(probs, rng) == 1 for _ in range(200))

    def test_singleton(self):
        rng = Rng(1)
        assert sample_categorical(np.array([1.0]), rng) == 0

    def test_seeded_coin_frequencies(self):
        rng = Rng(123)
        draws = np.array([sample_categorical(np.array([0.5, 0.5]), rng)
                          for _ in range(10_000)])
        freq1 = draws.mean()
        assert 0.47 <= freq1 <= 0.53

    def test_chi_square_against_target(self):
        from scipy import stats

        probs = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        rng = Rng(99)
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[sample_categorical(probs, rng)] += 1
        stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        assert stat < stats.chi2.ppf(0.99, df=4)

    def test_negative_entry_rejected(self):
        with pytest.raises(DistributionError, match="negative"):
            sample_categorical(np.array([0.5, -0.1, 0.6]), Rng(0))

    def test_bad_sum_rejected(self):
        with pytest.raises(DistributionError, match="sum"):
            sample_categorical(np.array([0.5, 0.6]), Rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN total compares False against any tolerance
        with pytest.raises(DistributionError, match="sum"):
            sample_categorical(np.array([bad, 1.0]), Rng(0))

    @pytest.mark.parametrize("probs", [[np.nan, -0.1, 1.1], [-np.inf, np.inf], [1.5, -0.5]])
    def test_negative_reported_before_sum(self, probs):
        with pytest.raises(DistributionError, match="negative"):
            sample_categorical(np.array(probs), Rng(0))

    def test_determinism(self):
        probs = np.array([0.25, 0.25, 0.5])
        a = [sample_categorical(probs, Rng(7)) for _ in range(1)]
        b = [sample_categorical(probs, Rng(7)) for _ in range(1)]
        assert a == b


_VOCAB7 = Vocabulary(tuple("abcdefg"))
_STACK7 = build_model(ModelConfig(kind="gru", layer_widths=(4,), vocab_size=7, batch_size=1,
                                  embed_dim=3, dropout=0.0), _VOCAB7)


@st.composite
def _bad_ids(draw):
    """([B, L] ids that no caller may accept, kind): a non-integer dtype, or
    integers with one id outside [0, 7)."""
    shape = (draw(st.integers(1, 3), label="batch"), draw(st.integers(1, 5), label="length"))
    ids = np.array(draw(st.lists(st.integers(0, 6), min_size=shape[0] * shape[1],
                                 max_size=shape[0] * shape[1]))).reshape(shape)
    kind = draw(st.sampled_from(["float", "bool", "str", "object", "high", "negative"]))
    if kind == "float":
        return ids + draw(st.floats(0.0, 0.99)), kind
    if kind in ("bool", "str", "object"):
        return {"bool": ids > 3, "str": ids.astype(str), "object": ids.astype(object)}[kind], kind
    signed = kind == "negative"
    dtype = np.dtype(draw(st.sampled_from(
        ["int8", "int32", "int64"] + ([] if signed else ["uint8", "uint64"]))))
    info = np.iinfo(dtype)
    bad = draw(st.integers(int(info.min), -1) if signed else st.integers(7, int(info.max)))
    ids = ids.astype(dtype)
    ids.flat[draw(st.integers(0, ids.size - 1), label="at")] = bad
    return ids, kind


_INT_FIELDS = [
    (GenerationPlan, "length"), (GenerationPlan, "sample_seed"),
    (TrainPlan, "epochs"), (TrainPlan, "shuffle_seed"), (TrainPlan, "dropout_seed"),
    (CorpusPlan, "seq_len"), (CorpusPlan, "batch_size"), (CorpusPlan, "shuffle_seed"),
]
_REAL_FIELDS = [(TrainPlan, "lr"), (TrainPlan, "clip_norm"), (GenerationPlan, "temperature"),
                (ModelConfig, "dropout")]
_PLAN_BASE = {
    GenerationPlan: {"prime_text": "a", "length": 1},
    ModelConfig: {"kind": "gru", "layer_widths": (4,), "vocab_size": 7, "batch_size": 1},
}


class TestIntegerRules:
    @settings(max_examples=200, deadline=None)
    @given(_bad_ids())
    def test_bad_ids_raise_the_callers_error(self, case):
        # one rule for the loss's targets, decode's indices and the stack's
        # ids: a float is never truncated, a bool never read as a mask, and
        # a negative id never wraps
        ids, kind = case
        calls = [
            (LabelError, "target", lambda: ce_loss(np.zeros((*ids.shape, 7)), ids)),
            (VocabularyError, "index", lambda: _VOCAB7.decode(ids.reshape(-1))),
            (VocabularyError, "embedding index",
             lambda: _STACK7.step(ids, _STACK7.init_state(len(ids)))),
            (VocabularyError, "embedding index", lambda: _STACK7.forward(ids)),
        ]
        for error, what, call in calls:
            with pytest.raises(error) as exc:
                call()
            if kind in ("high", "negative"):
                at = tuple(np.argwhere((ids < 0) | (ids >= 7))[0].tolist())
                pos = np.ravel_multi_index(at, ids.shape) if what == "index" else at
                assert str(exc.value) == f"{what} {ids[at]} out of range [0, 7) at position {pos}"
            else:
                assert str(exc.value) == f"{what} values must be integers, got dtype {ids.dtype}"

    @pytest.mark.parametrize("value, cls, field", [
        *((value, cls, field) for value in (2.5, True, "3") for cls, field in _INT_FIELDS),
        *((value, cls, field) for value in (True, "0.1", None) for cls, field in _REAL_FIELDS),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_plan_sizes_and_seeds_must_be_integers(self, value, cls, field):
        # unchecked, a float length reaches range(), a float seed is
        # truncated by Rng and True generates one character; a str or None
        # rate, norm or temperature ends in a raw TypeError from its range
        # check, and True would pass for 1
        base = _PLAN_BASE.get(cls, {})
        real = (cls, field) in _REAL_FIELDS
        cls(**{**base, field: np.float64(0.5) if real else np.int64(3)})
        rule = "a real number" if real else "an integer"
        with pytest.raises(ConfigError, match=f"^{field} must be {rule}, got {value!r}$"):
            cls(**{**base, field: value})

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn.exceptions import DistributionError, ShapeError
from charrnn.numerics import Rng, add, matmul, mul, sample_categorical, sigmoid, softmax, tanh


def _sigmoid_piecewise(x):
    """The boolean-mask form sigmoid had before: the reference it must match."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_bulk_matches_single_draws(self):
        a, b = Rng(7), Rng(7)
        bulk = a.uniform(257)
        singles = np.array([b.uniform() for _ in range(257)])
        assert np.array_equal(bulk, singles)

    def test_uniform_range(self):
        u = Rng(3).uniform(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        lo = Rng(3).uniform(1_000, low=-2.0, high=5.0)
        assert lo.min() >= -2.0 and lo.max() < 5.0

    def test_split_streams_differ(self):
        r = Rng(5)
        child = r.split()
        assert child.next_u64() != r.next_u64()

    def test_randint_bounds(self):
        r = Rng(11)
        draws = [r.randint(7) for _ in range(1_000)]
        assert min(draws) == 0 and max(draws) == 6

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50)
    def test_any_seed_valid(self, seed):
        r = Rng(seed)
        assert 0 <= r.next_u64() < 2**64


class TestMatmul:
    def test_identity(self):
        a = np.arange(12.0).reshape(3, 4)
        assert np.allclose(matmul(a, np.eye(4)), a)

    def test_zero(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(a, np.zeros((3, 5))), np.zeros((2, 5)))

    def test_hand_product(self):
        got = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]),
                     np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(got, [[19.0, 22.0], [43.0, 50.0]])

    def test_dim_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associative_with_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, b, c = (rng.normal(size=(8, 8)) for _ in range(3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            denom = np.maximum(np.abs(left) + np.abs(right), 1e-12)
            assert np.max(np.abs(left - right) / denom) < 1e-10
            assert np.allclose(matmul(a, np.eye(8)), a)


class TestSoftmax:
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

    def test_tanh_zero(self):
        assert tanh(np.array(0.0)) == 0.0

    def test_add_mul(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        assert np.array_equal(add(a, b), [4.0, 6.0])
        assert np.array_equal(mul(a, b), [3.0, 8.0])

    def test_binary_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeError):
            mul(np.zeros((2, 2)), np.zeros(4))


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

    def test_determinism(self):
        probs = np.array([0.25, 0.25, 0.5])
        a = [sample_categorical(probs, Rng(7)) for _ in range(1)]
        b = [sample_categorical(probs, Rng(7)) for _ in range(1)]
        assert a == b

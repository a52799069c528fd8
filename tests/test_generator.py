import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn.corpus import Vocabulary
from charrnn.exceptions import ConfigError, VocabularyError
from charrnn.generator import GenerationPlan, apply_temperature, generate
from charrnn.model import ModelConfig, build_model, rebuild_for_generation
from charrnn.numerics import Rng, sample_categorical, softmax

VOCAB = Vocabulary(tuple("abcde"))


def _gen_model(kind="lstm", seed=5):
    config = ModelConfig(kind=kind, layer_widths=(6,), vocab_size=5, batch_size=2,
                         embed_dim=4, dropout=0.0, seq_len=8, init_seed=seed)
    return rebuild_for_generation(build_model(config, VOCAB))


class TestApplyTemperature:
    def test_identity_at_one(self):
        logits = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(apply_temperature(logits, 1.0), logits)

    def test_near_zero_sharpens_to_argmax(self):
        probs = softmax(apply_temperature(np.array([1.0, 2.0]), 0.01))
        assert probs[1] > 1.0 - 1e-12
        assert sample_categorical(probs, Rng(0)) == 1

    def test_closed_form_at_two(self):
        probs = softmax(apply_temperature(np.array([0.0, 2.0]), 2.0))
        expected = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
        assert np.allclose(probs, expected, atol=1e-12)
        assert abs(probs[0] - 0.2689414) < 1e-6

    def test_nonpositive_rejected(self):
        for t in (0.0, -1.0):
            with pytest.raises(ConfigError):
                apply_temperature(np.zeros(3), t)

    def test_non_finite_rejected(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                apply_temperature(np.zeros(3), t)


class TestPlanValidation:
    def test_empty_prime(self):
        with pytest.raises(ConfigError):
            GenerationPlan(prime_text="", length=5)

    def test_negative_length(self):
        with pytest.raises(ConfigError):
            GenerationPlan(prime_text="a", length=-1)

    def test_bad_temperature(self):
        with pytest.raises(ConfigError):
            GenerationPlan(prime_text="a", length=1, temperature=0.0)

    def test_non_finite_temperature(self):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                GenerationPlan(prime_text="a", length=1, temperature=t)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            GenerationPlan(prime_text="a", length=1, mode="beam")


class TestGenerate:
    def test_length_zero_returns_prime(self):
        model = _gen_model()
        out = generate(model, GenerationPlan(prime_text="abc", length=0))
        assert out == "abc"

    def test_argmax_deterministic(self):
        model = _gen_model()
        plan = GenerationPlan(prime_text="ab", length=40, mode="argmax")
        assert generate(model, plan) == generate(model, plan)

    def test_sample_seeded_reproducible(self):
        model = _gen_model()
        plan = GenerationPlan(prime_text="ab", length=40, mode="sample", sample_seed=3)
        assert generate(model, plan) == generate(model, plan)
        other = GenerationPlan(prime_text="ab", length=40, mode="sample", sample_seed=4)
        assert generate(model, plan) != generate(model, other)

    def test_low_temperature_equals_argmax(self):
        # 1e-310 is finite and valid; the logits over it overflow to -inf
        for kind in ("lstm", "gru", "birnn"):
            model = _gen_model(kind)
            hot = GenerationPlan(prime_text="ad", length=30, mode="argmax")
            for temperature in (0.001, 1e-310):
                cold = GenerationPlan(prime_text="ad", length=30, mode="sample",
                                      temperature=temperature, sample_seed=8)
                assert generate(model, cold) == generate(model, hot)

    def test_argmax_reads_logits_not_rounded_probabilities(self):
        # softmax rounds logits [0, 1e-17, -3] to a tie between the first two
        config = ModelConfig(kind="gru", layer_widths=(2,), vocab_size=3, batch_size=1,
                             embed_dim=2, dropout=0.0)
        model = build_model(config, Vocabulary(tuple("abc")))
        for p in model.params().values():
            p[...] = 0.0
        model.params()["dense.b"][:] = [0.0, 1e-17, -3.0]
        plan = GenerationPlan(prime_text="a", length=6, mode="argmax")
        assert generate(model, plan) == "abbbbbb"

    def test_unknown_prime_char(self):
        model = _gen_model()
        with pytest.raises(VocabularyError, match="'z'"):
            generate(model, GenerationPlan(prime_text="az", length=3))

    @given(
        prime=st.text(alphabet="abcde", min_size=1, max_size=8),
        length=st.integers(min_value=0, max_value=30),
        temperature=st.floats(min_value=0.1, max_value=5.0),
        mode=st.sampled_from(["sample", "argmax"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_length_contract_and_vocab_closure(self, prime, length, temperature, mode):
        model = _gen_model()
        plan = GenerationPlan(prime_text=prime, length=length,
                              temperature=temperature, mode=mode, sample_seed=1)
        out = generate(model, plan)
        assert len(out) == len(prime) + length
        assert out.startswith(prime)
        assert set(out) <= set(VOCAB.chars)


class TestSelectionFrequencies:
    def test_sample_frequencies_match_tempered_softmax(self):
        from scipy import stats

        logits = np.array([1.2, -0.3, 0.8, 2.0, 0.0])
        n = 10_000
        for temperature in (0.5, 1.0, 2.0):
            probs = softmax(apply_temperature(logits, temperature))
            rng = Rng(41)
            counts = np.zeros(logits.size)
            for _ in range(n):
                counts[sample_categorical(probs, rng)] += 1
            stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
            assert stat < stats.chi2.ppf(0.99, df=logits.size - 1)

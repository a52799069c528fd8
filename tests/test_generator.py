import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charrnn import generator
from charrnn.corpus import Vocabulary
from charrnn.exceptions import ConfigError, VocabularyError
from charrnn.generator import GenerationPlan, generate
from charrnn.layers import RecurrentStack
from charrnn.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from charrnn.numerics import Rng, sample_categorical, softmax
from tests.conftest import REPO_ROOT
from tests.generator_reference import reference_generate

VOCAB = Vocabulary(tuple("abcde"))


def _gen_model(kind="lstm", seed=5):
    config = ModelConfig(kind=kind, layer_widths=(6,), vocab_size=5, batch_size=2,
                         embed_dim=4, dropout=0.0, seq_len=8, init_seed=seed)
    return build_model(config, VOCAB)


def _bias_model(bias):
    # with every other weight zero, each step's logits are dense.b
    config = ModelConfig(kind="gru", layer_widths=(2,), vocab_size=len(bias), batch_size=1,
                         embed_dim=2, dropout=0.0)
    model = build_model(config, Vocabulary(tuple("abcde"[:len(bias)])))
    for p in model.params().values():
        p[...] = 0.0
    model.params()["dense.b"][:] = bias
    return model


def _sampled_probs(monkeypatch, model, temperature):
    """The probabilities generate samples its one character from, and that character."""
    seen = []

    def recording(probs, rng):
        seen.append(probs.copy())
        return sample_categorical(probs, rng)

    monkeypatch.setattr(generator, "sample_categorical", recording)
    out = generate(model, GenerationPlan(prime_text="a", length=1, temperature=temperature))
    (probs,) = seen
    return probs, out[-1]


class TestApplyTemperature:
    """The temperature rule: generate samples from softmax(logits / T), T > 0 finite."""

    def test_identity_at_one(self, monkeypatch):
        logits = np.array([0.5, -1.0, 2.0])
        probs, _ = _sampled_probs(monkeypatch, _bias_model(logits), 1.0)
        assert np.allclose(probs, softmax(logits), atol=1e-12)

    def test_near_zero_sharpens_to_argmax(self, monkeypatch):
        probs, char = _sampled_probs(monkeypatch, _bias_model([1.0, 2.0]), 0.01)
        assert probs[1] > 1.0 - 1e-12
        assert char == "b"

    def test_closed_form_at_two(self, monkeypatch):
        probs, _ = _sampled_probs(monkeypatch, _bias_model([0.0, 2.0]), 2.0)
        expected = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
        assert np.allclose(probs, expected, atol=1e-12)
        assert abs(probs[0] - 0.2689414) < 1e-6

    def test_nonpositive_rejected(self):
        # no plan generate receives can hold such a T, replace() included
        plan = GenerationPlan(prime_text="a", length=1)
        for t in (0.0, -0.0, -1.0):
            with pytest.raises(ConfigError, match="temperature"):
                dataclasses.replace(plan, temperature=t)

    def test_non_finite_rejected(self):
        plan = GenerationPlan(prime_text="a", length=1)
        for t in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="temperature"):
                dataclasses.replace(plan, temperature=t)


class TestPlanValidation:
    def test_empty_prime(self):
        with pytest.raises(ConfigError):
            GenerationPlan(prime_text="", length=5)

    def test_negative_length(self):
        with pytest.raises(ConfigError):
            GenerationPlan(prime_text="a", length=-1)

    def test_bad_temperature(self):
        for t in (0.0, -1.0):
            with pytest.raises(ConfigError):
                GenerationPlan(prime_text="a", length=1, temperature=t)

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

    @pytest.mark.parametrize("prime, length, calls", [
        *(pytest.param("abc", length, calls, id=f"{length}-{calls}")
          for length, calls in [(0, 1), (1, 1), (2, 2), (5, 5), (40, 40)]),
        pytest.param("abcde" * 30, 3, 5, id="long-prime"),  # blocks of 64, 64 and 22
    ])
    def test_step_calls(self, monkeypatch, prime, length, calls):
        # one step() call per prime block, then one feed per sampled character
        # but the last, each feeding the character just drawn
        counted = []
        real_step, real_feeder = RecurrentStack.step, RecurrentStack.feeder

        def counting_step(self, ids, state):
            counted.append(np.shape(ids))
            return real_step(self, ids, state)

        def counting_feeder(self, state):
            feed = real_feeder(self, state)

            def counting_feed(i):
                counted.append(i)
                return feed(i)

            return counting_feed

        monkeypatch.setattr(RecurrentStack, "step", counting_step)
        monkeypatch.setattr(RecurrentStack, "feeder", counting_feeder)
        model = _gen_model()
        out = generate(model, GenerationPlan(prime_text=prime, length=length, sample_seed=2))
        block = generator._PRIME_BLOCK
        blocks = [(1, min(block, len(prime) - t0)) for t0 in range(0, len(prime), block)]
        assert len(counted) == calls
        assert counted[: len(blocks)] == blocks
        fed = counted[len(blocks) :]
        assert len(fed) == max(length - 1, 0)
        assert all(type(i) is int for i in fed)
        assert fed == model.vocab.encode(out[len(prime) : -1]).tolist()

    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    def test_prime_memory_does_not_grow_with_its_length(self, fixture_text, fixture_vocab, kind):
        # past two blocks, a longer prime adds only its 8-byte ids to the peak:
        # the gate rows and per-position states are held one block at a time
        config = ModelConfig(kind=kind, layer_widths=(32, 24), vocab_size=fixture_vocab.size,
                             batch_size=1, embed_dim=16, dropout=0.0, init_seed=3)
        model = build_model(config, fixture_vocab)

        def peak(n):
            plan = GenerationPlan(prime_text=fixture_text[:n], length=1)
            generate(model, plan)  # warm-up: lazily built tables stay out of the peak
            tracemalloc.start()
            try:
                generate(model, plan)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = 2 * generator._PRIME_BLOCK
        assert len(fixture_text) >= 2_000
        assert peak(2_000) <= peak(short) + 8 * (2_000 - short) + 4_096

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


class TestAgainstReference:
    """generate returns the text of the loop that feeds every drawn character
    back through the public step() (tests/generator_reference.py)."""

    @given(
        kind=st.sampled_from(["lstm", "gru", "birnn"]),
        layers=st.integers(min_value=1, max_value=2),
        mode=st.sampled_from(["sample", "argmax"]),
        temperature=st.floats(min_value=0.05, max_value=5.0),
        prime_len=st.sampled_from([1, 2, 63, 64, 65, 100, 127, 128, 129, 150]),
        length=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_text_as_the_reference(self, kind, layers, mode, temperature, prime_len,
                                        length, seed):
        config = ModelConfig(kind=kind, layer_widths=(7, 5)[:layers], vocab_size=5,
                             batch_size=1, embed_dim=4, dropout=0.0, init_seed=seed)
        model = build_model(config, VOCAB)
        for p in model.params().values():
            p *= 4.0  # wide logits, so that T changes what is sampled
        prime = VOCAB.decode(np.random.default_rng(seed).integers(0, 5, prime_len))
        plan = GenerationPlan(prime_text=prime, length=length, temperature=temperature,
                              mode=mode, sample_seed=seed)
        assert generate(model, plan) == reference_generate(model, plan)


class TestSelectionFrequencies:
    def test_sample_frequencies_match_tempered_softmax(self):
        from scipy import stats

        logits = np.array([1.2, -0.3, 0.8, 2.0, 0.0])
        n = 10_000
        for temperature in (0.5, 1.0, 2.0):
            probs = softmax(logits / temperature)
            rng = Rng(41)
            counts = np.zeros(logits.size)
            for _ in range(n):
                counts[sample_categorical(probs, rng)] += 1
            stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
            assert stat < stats.chi2.ppf(0.99, df=logits.size - 1)


# SHA-256 of the UTF-8 text generate() returns, per (kind, layers, mode,
# temperature), on the checkpoints _golden_model writes. A change to the
# sampling arithmetic that moves any sampled character changes a digest.
_GOLDEN = {
    "lstm1-argmax-1.0": "473f9d380f38137abddf45a1d56f85546e2bc1b89f126d085ac637c5bd3bc129",
    "lstm1-sample-0.5": "21c3e79aec82c41cd743de57315dcee768cdaed27f68527b068a9f5116d9014e",
    "lstm1-sample-1.0": "4cfcc1a0ed792077a7abeff5c91fb5fe877ffba4e71d219beaaab3d14c0ce67c",
    "lstm1-sample-1.5": "d934ca9d2b41dc0d3b5075f9047150aba9edaefc83efdc36b0166dbaedcf4f59",
    "gru1-argmax-1.0": "39e7b8212e2626fbf6b1250a1c6793c729d7f6dc7c34598ae60631988539eec4",
    "gru1-sample-0.5": "35012809f6288912eaaa134be828d285b6395bf8e17e6f24169fc01e47127200",
    "gru1-sample-1.0": "f802a65b09d60cb71e1b03042255a731b9c23197c5c4afe0bceef22e0a8579c2",
    "gru1-sample-1.5": "88d5f759d211b767172215c94945cd975baf77eee507639053d2c2247d14a53e",
    "birnn1-argmax-1.0": "7d30de9e533336d1537ae75fbc3a61830d26ad40522a4cfc4a70433e73c300e7",
    "birnn1-sample-0.5": "0136531bdddce8e8bec74ae8b2f52381b3d3bf741b5892b5dda3ae70cf98ce24",
    "birnn1-sample-1.0": "1a46505b00293c0fc119c4f95f9f64d51adb4cd6a3f41c2fb49432d51b06841a",
    "birnn1-sample-1.5": "d8933df60a63df2361edd81fbe3f30723444becf79adf55c4c80086032168c0f",
    "lstm2-argmax-1.0": "c60852bc2f85b22c54ee428adba4a2ec4bd07c8de37acecfaef29e589be2a52f",
    "lstm2-sample-0.5": "24486a9cc165645216e007bdf438b2230f5832949597947bf62cd366e47ff822",
    "lstm2-sample-1.0": "cb7754ea82f872d80dc4a387dd11de642c6b5b69708ef0fe02abb17328fa4d40",
    "lstm2-sample-1.5": "24cbc89a6438244df9060430e3b5b95fb66079fa5e8c598347bfd4120b5619c7",
    "gru2-argmax-1.0": "2a87f2824563aab0e69cf25d83b42543f2cf32764acaea10e435268e4ae64a3f",
    "gru2-sample-0.5": "ea97a9a14796f57f5b479a4404d50e83321b54f5f30c1eab8761d3b9ca60c8c0",
    "gru2-sample-1.0": "3e99508ff24cb1253de09ddb76c8143a133cecb1915ed1b928e05717c3a08dc2",
    "gru2-sample-1.5": "d8e871d32bff02b032cc84041b06b3b71cdc4188fbb229f2166cd8d960f9d25e",
    "birnn2-argmax-1.0": "fbf9e6c800a9f8c7c66fd8757f7a4df83364109efd55bfdff1806ba9a6d5737f",
    "birnn2-sample-0.5": "66f040e8596bbc14c300dd2eb694db37805604024109fa958101407e71ff05ce",
    "birnn2-sample-1.0": "045212faa83af0df5cc845b28a62e59119b6994a5a29c3a63c0356cb031f0a34",
    "birnn2-sample-1.5": "8438c1d8e165fcb768724396ab7af696a71af9859d0f64180a0caf88b2c84805",
}


def _golden_model(tmp_path, fixture_vocab, kind, layers):
    config = ModelConfig(kind=kind, layer_widths=(32, 24)[:layers],
                         vocab_size=fixture_vocab.size, batch_size=4, embed_dim=16,
                         dropout=0.0, seq_len=10, init_seed=29)
    model = build_model(config, fixture_vocab)
    for p in model.params().values():
        p *= 4.0  # wider logits than a fresh init, so each temperature samples its own text
    path = tmp_path / f"{kind}{layers}.ckpt"
    save_checkpoint(model, path)
    return load_checkpoint(path)


def _golden_digests(tmp_path, fixture_vocab, kind, layers):
    """(the digests generate gives now, the golden ones) for one model."""
    model = _golden_model(tmp_path, fixture_vocab, kind, layers)
    got = {}
    for mode, temperature in (("argmax", 1.0), ("sample", 0.5), ("sample", 1.0),
                              ("sample", 1.5)):
        plan = GenerationPlan(prime_text="GUARD: Halt! Who goes there", length=200,
                              temperature=temperature, mode=mode, sample_seed=11)
        text = generate(model, plan)
        got[f"{kind}{layers}-{mode}-{temperature}"] = (
            hashlib.sha256(text.encode("utf-8")).hexdigest())
    return got, {k: v for k, v in _GOLDEN.items() if k.startswith(f"{kind}{layers}-")}


class TestGoldenText:
    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_sampled_text_digests(self, tmp_path, fixture_vocab, kind, layers):
        got, want = _golden_digests(tmp_path, fixture_vocab, kind, layers)
        assert got == want

    def test_digests_hold_under_a_forced_haswell_kernel(self):
        # the child alone gets OPENBLAS_CORETYPE; it reports the core it runs
        # on, then reruns the digest tests, whose text is the same on every core
        src = str(REPO_ROOT / "src")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, pytest; from tests.conftest import openblas_corename; "
                "print('core', openblas_corename()); "
                "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
                "'tests/test_generator.py::TestGoldenText::test_sampled_text_digests']))")
        child = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.stdout.startswith("core Haswell\n"), child.stdout
        assert child.returncode == 0 and "6 passed" in child.stdout, child.stdout

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("kind", ["lstm", "gru", "birnn"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_prime_block_size_keeps_the_digests(self, monkeypatch, tmp_path, fixture_vocab,
                                                kind, layers, block):
        # the 27-character prime in 27 or 4 calls samples the same text as in one
        monkeypatch.setattr(generator, "_PRIME_BLOCK", block)
        got, want = _golden_digests(tmp_path, fixture_vocab, kind, layers)
        assert got == want

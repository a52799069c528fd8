"""Release acceptance suite.

One test per criterion; each prints an explicit PASS or FAIL line (run with
pytest -s to see them live). Training-based criteria use the bundled script
fixture; their batch sizes, window lengths, and learning rates are free knobs
chosen for desk-scale runtimes, while every asserted threshold is fixed here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from charrnn.cli import main as cli_main
from charrnn.corpus import SequenceBatch
from charrnn.generator import GenerationPlan, generate
from charrnn.model import (
    ModelConfig,
    build_model,
    load_checkpoint,
    preset_widths,
    rebuild_for_generation,
    save_checkpoint,
)
from charrnn.numerics import Rng, sample_categorical
from charrnn.objective import RmspropState, ce_grad, ce_loss, rmsprop_step
from charrnn.trainer import TrainPlan, parse_history, train, train_epoch


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def _train_manual(text, vocab, kind, *, widths=(64,), embed=96, seq_len=30,
                  batch_size=1, lr=0.01, epochs=2, stop_below=None, seed=11,
                  dropout=0.0):
    """train() with an early stop, returning (model, per-epoch mean losses)."""
    config = ModelConfig(kind=kind, layer_widths=widths, vocab_size=vocab.size,
                         batch_size=batch_size, embed_dim=embed, dropout=dropout,
                         seq_len=seq_len, init_seed=seed)
    plan = TrainPlan(epochs=epochs, lr=lr, shuffle_seed=1, dropout_seed=2)
    model = build_model(config, vocab)
    losses = []
    for row in train(model, text, plan):
        losses.append(row.mean_loss)
        if stop_below is not None and row.mean_loss < stop_below:
            break
    return model, losses


def test_criterion_1_gradient_oracle(fixture_vocab):
    """Full-stack analytic gradients match central differences everywhere."""
    start = time.perf_counter()
    with criterion(1, "gradient oracle: all kinds x depths, rel err < 1e-4"):
        coord_rng = np.random.default_rng(123)
        h = 1e-5
        for kind in ("lstm", "gru", "birnn"):
            for widths in ((8,), (8, 6), (8, 6, 5, 4)):
                config = ModelConfig(kind=kind, layer_widths=widths, vocab_size=5,
                                     batch_size=2, embed_dim=4, dropout=0.0,
                                     seq_len=5, init_seed=7)
                from charrnn.corpus import Vocabulary

                model = build_model(config, Vocabulary(tuple("abcde")))
                for p in model.params().values():
                    p += coord_rng.normal(scale=0.15, size=p.shape)
                inputs = coord_rng.integers(0, 5, size=(2, 5))
                targets = coord_rng.integers(0, 5, size=(2, 5))
                logits, tape = model.forward(inputs, train=True, dropout_rng=Rng(0))
                grads = model.backward(tape, ce_grad(logits, targets))
                worst = 0.0
                for name, p in model.params().items():
                    flat = p.reshape(-1)
                    gflat = grads[name].reshape(-1)
                    picks = coord_rng.choice(
                        flat.size, size=min(40, flat.size), replace=False
                    )
                    for i in picks:
                        orig = flat[i]
                        flat[i] = orig + h
                        up = ce_loss(model.forward(inputs)[0], targets).mean_loss
                        flat[i] = orig - h
                        down = ce_loss(model.forward(inputs)[0], targets).mean_loss
                        flat[i] = orig
                        fd = (up - down) / (2.0 * h)
                        worst = max(worst, abs(fd - gflat[i])
                                    / max(1e-6, abs(fd) + abs(gflat[i])))
                assert worst < 1e-4, f"{kind} {widths}: worst rel err {worst:.3e}"
        assert time.perf_counter() - start < 60.0


def test_criterion_2_loss_floor(fixture_text, fixture_vocab):
    """Fresh-init first-epoch mean loss sits within 15% of ln V."""
    start = time.perf_counter()
    with criterion(2, "loss floor: first epoch within 15% of ln V"):
        ln_v = math.log(fixture_vocab.size)
        for kind in ("lstm", "gru", "birnn"):
            _, losses = _train_manual(
                fixture_text, fixture_vocab, kind,
                widths=(32,), embed=32, seq_len=50, batch_size=8, lr=1e-3, epochs=1,
            )
            assert 0.85 * ln_v <= losses[0] <= 1.15 * ln_v, (kind, losses[0], ln_v)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_overfit_convergence(fixture_text, fixture_vocab):
    """H=64 LSTM memorizes the fixture and replays it via argmax generation."""
    start = time.perf_counter()
    with criterion(3, "overfit: < 0.1 nats within 200 epochs + 50-char replay"):
        model, losses = _train_manual(
            fixture_text, fixture_vocab, "lstm",
            widths=(64,), embed=96, seq_len=40, batch_size=8, lr=0.01,
            epochs=200, stop_below=0.095,
        )
        first_hit = next((i + 1 for i, l in enumerate(losses) if l < 0.1), None)
        assert first_hit is not None and first_hit <= 200, losses[-10:]
        gen = rebuild_for_generation(model)
        prime = fixture_text[:20]
        out = generate(gen, GenerationPlan(prime_text=prime, length=50, mode="argmax"))
        assert out[20:70] == fixture_text[20:70]
        assert time.perf_counter() - start < 300.0


def test_criterion_4_birnn_leakage(fixture_text, fixture_vocab):
    """Bidirectional target leakage: loss collapses within 2 epochs, at least
    10x sooner than a unidirectional LSTM under identical settings."""
    start = time.perf_counter()
    with criterion(4, "leakage: birnn < 0.1 in <= 2 epochs, >= 10x before lstm"):
        settings = dict(widths=(64,), embed=96, seq_len=30, batch_size=1, lr=0.015)
        _, bi_losses = _train_manual(fixture_text, fixture_vocab, "birnn",
                                     epochs=2, **settings)
        bi_hit = next((i + 1 for i, l in enumerate(bi_losses) if l < 0.1), None)
        assert bi_hit is not None and bi_hit <= 2, bi_losses
        # the LSTM must not reach the same loss in 10x as many epochs
        horizon = 10 * bi_hit - 1
        _, lstm_losses = _train_manual(fixture_text, fixture_vocab, "lstm",
                                       epochs=horizon, **settings)
        assert all(l >= 0.1 for l in lstm_losses), min(lstm_losses)
        assert time.perf_counter() - start < 120.0


def _epoch_timer(kind, vocab, *, hidden=96, embed=64, batch=32, seq_len=64,
                 n_batches=8, seed=0):
    """A warmed-up model of this kind, as a function that trains one epoch of
    its n_batches and returns the epoch's mean ms per step."""
    config = ModelConfig(kind=kind, layer_widths=(hidden,), vocab_size=vocab.size,
                         batch_size=batch, embed_dim=embed, dropout=0.0,
                         seq_len=seq_len, init_seed=seed)
    model = build_model(config, vocab)
    rng = np.random.default_rng(3)
    batches = [
        SequenceBatch(rng.integers(0, vocab.size, (batch, seq_len)),
                      rng.integers(0, vocab.size, (batch, seq_len)))
        for _ in range(n_batches)
    ]
    plan = TrainPlan(epochs=1, lr=1e-3)
    opt = RmspropState.for_params(model.params())
    train_epoch(model, batches[:2], plan, opt, Rng(0))  # warmup
    return lambda: train_epoch(model, batches, plan, opt, Rng(0))[1]


def test_criterion_5_timing_ordering(fixture_vocab):
    """Per-step wall time ordering at equal dims: birnn slowest by a wide
    margin, gru comparable to lstm. No absolute times asserted.

    The three models are built once, then timed in 5 interleaved rounds of
    one epoch each, and each kind's time is its minimum over the rounds. The
    host's speed drifts over seconds: timed one kind after another, a slow
    stretch lands on one kind, while across interleaved rounds each kind's
    minimum comes from a quiet moment.
    """
    with criterion(5, "timing: birnn > 1.5x lstm; gru within 30% of lstm"):
        timers = {kind: _epoch_timer(kind, fixture_vocab) for kind in ("lstm", "gru", "birnn")}
        best = dict.fromkeys(timers, math.inf)
        for _ in range(5):
            for kind, epoch_ms in timers.items():
                best[kind] = min(best[kind], epoch_ms())
        lstm, gru, birnn = best["lstm"], best["gru"], best["birnn"]
        assert birnn > 1.5 * lstm, (birnn, lstm)
        assert 0.7 * lstm <= gru <= 1.3 * lstm, (gru, lstm)


def test_criterion_6_optimizer_trace():
    """The update matches the hand-computed two-step trace to 1e-12."""
    with criterion(6, "optimizer trace: hand-computed steps to rel 1e-12"):
        params = {"w": np.array([0.0])}
        state = RmspropState.for_params(params, alpha=1e-3, rho=0.9, epsilon=0.0)
        rmsprop_step(params, {"w": np.array([1.0])}, state)
        assert abs(state.v["w"][0] - 0.1) <= 1e-13
        expected = -1e-3 / math.sqrt(0.1)  # ~ -3.1623e-3
        assert abs(params["w"][0] - expected) / abs(expected) < 1e-12
        w, v = float(params["w"][0]), 0.1
        rmsprop_step(params, {"w": np.array([-2.0])}, state)
        v = 0.9 * v + 0.1 * 4.0
        w = w - 1e-3 * (-2.0) / math.sqrt(v)
        assert abs(state.v["w"][0] - v) / v < 1e-12
        assert abs(params["w"][0] - w) / abs(w) < 1e-12


def test_criterion_7_loss_identities():
    """Uniform-logit loss equals ln V exactly; gradient rows are zero-sum."""
    with criterion(7, "loss identities: ln V and zero-sum gradient rows"):
        for v in (2, 7, 51):
            logits = np.zeros((2, 3, v))
            targets = np.zeros((2, 3), dtype=np.int64)
            assert abs(ce_loss(logits, targets).mean_loss - math.log(v)) <= 1e-12
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(3, 4, 11)) * 5.0
        targets = rng.integers(0, 11, size=(3, 4))
        rows = ce_grad(logits, targets).sum(axis=-1)
        assert np.max(np.abs(rows)) <= 1e-12


def test_criterion_8_temperature_limit(fixture_text, fixture_vocab):
    """T -> 0 sampling degenerates to argmax; seeded draw frequencies match
    the tempered softmax by chi-square at alpha = 0.01.

    The limit check runs on a briefly trained model: a fresh random init
    leaves near-exact logit ties, where no finite temperature can force the
    sampled index to match the tie-broken argmax.
    """
    from scipy import stats
    from scipy.special import softmax

    with criterion(8, "temperature: T=0.001 equals argmax; chi-square at 3 temps"):
        trained, _ = _train_manual(
            fixture_text, fixture_vocab, "lstm",
            widths=(32,), embed=32, seq_len=40, batch_size=8, lr=5e-3, epochs=10,
        )
        model = rebuild_for_generation(trained)
        prime = "GUARD: "
        cold = generate(model, GenerationPlan(prime_text=prime, length=40,
                                              temperature=0.001, mode="sample",
                                              sample_seed=5))
        greedy = generate(model, GenerationPlan(prime_text=prime, length=40,
                                                mode="argmax"))
        assert cold == greedy
        logits = np.array([1.2, -0.3, 0.8, 2.0, 0.0])
        n = 10_000
        for temperature in (0.5, 1.0, 2.0):
            probs = softmax(logits / temperature)
            rng = Rng(41)
            counts = np.zeros(logits.size)
            for _ in range(n):
                counts[sample_categorical(probs, rng)] += 1
            stat = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
            assert stat < stats.chi2.ppf(0.99, df=logits.size - 1), temperature


def test_criterion_9_serialization(fixture_vocab, tmp_path):
    """Byte-stable checkpoints, CRC detection, and exact rebuild equivalence."""
    with criterion(9, "serialization: stable bytes, CRC catches corruption, "
                      "rebuild logits equal to 1e-12"):
        for kind in ("lstm", "gru", "birnn"):
            config = ModelConfig(kind=kind, layer_widths=(6, 4),
                                 vocab_size=fixture_vocab.size, batch_size=4,
                                 embed_dim=8, dropout=0.0, seq_len=10, init_seed=3)
            model = build_model(config, fixture_vocab)
            p1 = tmp_path / f"{kind}_1.ckpt"
            p2 = tmp_path / f"{kind}_2.ckpt"
            save_checkpoint(model, p1)
            save_checkpoint(load_checkpoint(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

            blob = bytearray(p1.read_bytes())
            blob[len(blob) // 2] ^= 0x20
            corrupt = tmp_path / f"{kind}_bad.ckpt"
            corrupt.write_bytes(bytes(blob))
            from charrnn.exceptions import (
                CheckpointFormatError,
                CheckpointIntegrityError,
            )

            with pytest.raises((CheckpointIntegrityError, CheckpointFormatError)):
                load_checkpoint(corrupt)

            reference = load_checkpoint(p1)
            rebuilt = rebuild_for_generation(reference)
            for char in range(0, fixture_vocab.size, 7):
                seq = np.array([[char]], dtype=np.int64)
                full, _ = reference.forward(seq)
                stepped, _ = rebuilt.step(np.array([char]), rebuilt.init_state(1))
                assert np.max(np.abs(full[0, 0] - stepped[0])) <= 1e-12


def _strip_time_column(csv_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:2]) for line in csv_text.splitlines())


def test_criterion_10_determinism(fixture_path, tmp_path):
    """Two identically seeded runs produce byte-identical checkpoints and
    identical history content. The ms_per_step column is wall-clock
    measurement and is excluded from the byte comparison, since machine
    timing noise is not reproducible even with every seed fixed."""
    with criterion(10, "determinism: identical seeds, identical artifacts"):
        outputs = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"{tag}.ckpt"
            hist = tmp_path / f"{tag}.csv"
            code = cli_main([
                "train", "--corpus", str(fixture_path), "--model", "gru",
                "--preset", "bi", "--scale", "0.03125", "--seq-len", "25",
                "--batch-size", "8", "--epochs", "2", "--embed-dim", "16",
                "--seed", "99", "--out", str(ckpt), "--history", str(hist),
            ])
            assert code == 0
            outputs.append((ckpt.read_bytes(), hist.read_text()))
        assert outputs[0][0] == outputs[1][0]
        assert _strip_time_column(outputs[0][1]) == _strip_time_column(outputs[1][1])


def test_criterion_11_all_preset_combinations(fixture_path, tmp_path):
    """Every Table-of-presets x cell combination trains two epochs with finite
    losses and round-trips its checkpoint (widths scaled by 1/16 for speed)."""
    start = time.perf_counter()
    with criterion(11, "nine preset x cell combinations train and round-trip"):
        scale = 1 / 16
        for kind in ("lstm", "gru", "birnn"):
            for preset in ("uni", "bi", "quad"):
                ckpt = tmp_path / f"{kind}_{preset}.ckpt"
                hist = tmp_path / f"{kind}_{preset}.csv"
                code = cli_main([
                    "train", "--corpus", str(fixture_path), "--model", kind,
                    "--preset", preset, "--scale", str(scale),
                    "--batch-size", "16", "--epochs", "2", "--embed-dim", "64",
                    "--seed", "1", "--out", str(ckpt), "--history", str(hist),
                ])
                assert code == 0, (kind, preset)
                rows = parse_history(hist)
                assert len(rows) == 2
                assert all(math.isfinite(r.mean_loss) for r in rows), (kind, preset)
                loaded = load_checkpoint(ckpt)
                assert loaded.config.layer_widths == preset_widths(preset, scale)
                again = tmp_path / f"{kind}_{preset}_again.ckpt"
                save_checkpoint(loaded, again)
                assert again.read_bytes() == ckpt.read_bytes(), (kind, preset)
        assert time.perf_counter() - start < 600.0

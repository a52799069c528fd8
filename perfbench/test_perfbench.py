"""Tests of the benchmark itself, at a tiny length.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from charrnn import cli, model  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FIXTURE_TEXT = run.FIXTURE.read_text(encoding="utf-8")


@pytest.fixture
def tiny_grid(monkeypatch):
    """train_grid with small shapes and corpus, so one round takes well under a second."""
    full = workloads.train_grid_spec

    def small(seconds):
        return dataclasses.replace(full(seconds), batch=4, seq_len=12, embed=16,
                                   corpus_chars=5_000, setup_reps=2)

    monkeypatch.setattr(workloads, "train_grid_spec", small)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace, tiny_grid, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_same_seed_same_inputs():
    a = inputs.markov_corpus(FIXTURE_TEXT, 20_000, seed=11)
    assert a.encode("utf-8") == inputs.markov_corpus(FIXTURE_TEXT, 20_000, seed=11).encode("utf-8")
    assert a != inputs.markov_corpus(FIXTURE_TEXT, 20_000, seed=12)
    assert set(a) <= set(FIXTURE_TEXT)
    r1 = workloads.generate_requests(FIXTURE_TEXT, 11, seconds=20)
    assert r1 == workloads.generate_requests(FIXTURE_TEXT, 11, seconds=20)
    assert r1 != workloads.generate_requests(FIXTURE_TEXT, 12, seconds=20)
    for req in r1:
        assert 50 <= len(req.prime) <= 500 and 200 <= req.length <= 400
        assert 0.5 <= req.temperature <= 1.5 and req.prime in FIXTURE_TEXT
    assert any(req.repeat_of is not None for req in r1)


def test_corrupted_generate_output_is_counted(monkeypatch, tmp_path):
    real = cli.generate
    monkeypatch.setattr(cli, "generate", lambda m, plan: real(m, plan) + "!")
    res = workloads.run_generate(5, 0.3, run.FIXTURE, tmp_path, reps=1)
    assert res.outcome.attempted >= 1
    assert res.outcome.failed == res.outcome.attempted
    assert not res.op_ms


def test_corrupted_checkpoint_is_counted(monkeypatch, tmp_path):
    real = model.load_checkpoint

    def load_and_perturb(path):
        m = real(path)
        m.params()["dense.b"][0] += 1.0
        return m

    monkeypatch.setattr(model, "load_checkpoint", load_and_perturb)
    spec = dataclasses.replace(workloads.train_b1_spec(0.01), schedule=(0, 1), setup_reps=1)
    res = workloads.run_training(spec, 5, run.FIXTURE, tmp_path, reference={})
    assert res.outcome.failed == 2  # one re-save mismatch per trained model
    assert all("identical bytes" in f for f in res.outcome.failures)


def test_final_loss_reference_is_checked(tmp_path):
    spec = dataclasses.replace(workloads.train_b1_spec(0.01), schedule=(0, 1), setup_reps=1)
    first = workloads.run_training(spec, 5, run.FIXTURE, tmp_path, reference={})
    steps = str(len(spec.schedule))
    good = {"train_b1": {"tolerance": 1e-3, "final_loss": {steps: {"5": first.final_loss}}}}
    bad = {"train_b1": {"tolerance": 1e-3,
                        "final_loss": {steps: {"5": first.final_loss + 2e-3}}}}
    assert workloads.run_training(spec, 5, run.FIXTURE, tmp_path, good).outcome.failed == 0
    assert workloads.run_training(spec, 5, run.FIXTURE, tmp_path, bad).outcome.failed == 1


def test_tracer_restores_the_program(tmp_path):
    before = {id(getattr(owner, attr)) for owner, attr, _ in tracing._FUNCTIONS}
    methods = {id(cls.__dict__[attr]) for cls, attr, _ in tracing._METHODS}
    tracer = tracing.Tracer()
    tracer.install()
    assert {id(getattr(owner, attr)) for owner, attr, _ in tracing._FUNCTIONS}.isdisjoint(before)
    tracer.remove()
    assert {id(getattr(owner, attr)) for owner, attr, _ in tracing._FUNCTIONS} == before
    assert {id(cls.__dict__[attr]) for cls, attr, _ in tracing._METHODS} == methods
    assert cli.generate.__module__ == "charrnn.generator"


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, -1, "step:0"], ["b", 10, 40, 0, "step:0"],
             ["c", 50, 60, 0, "step:0"], ["b", 20, 30, 1, "step:0"]]
    table = tracing.summarize(spans)
    assert table[("a", "step")] == [1, 100, 60]
    assert table[("b", "step")] == [2, 40, 30]
    assert tracing.step_coverage([["trainer.train_epoch", 0, 100, -1, "step:0"],
                                  ["x", 0, 90, 0, "step:0"]], [100e-6]) == pytest.approx(0.9)


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct, n = workloads.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_extra_setup_rounds_spread_over_the_run(tmp_path):
    assert workloads._extra_setup_points(5, 81) == {16: 1, 32: 2, 48: 3, 64: 4}
    assert workloads._extra_setup_points(1, 81) == {}
    assert len(workloads.run_generate(5, 0.3, run.FIXTURE, tmp_path, reps=2).setup_s) == 2


@pytest.mark.parametrize("change, expected", [
    ([90.0 + i % 3 for i in range(10)], "improved"),
    ([100.0 + i % 3 for i in range(10)], "unchanged"),
    ([130.0 + i % 3 for i in range(10)], "worse"),
])
def test_compare_verdicts(change, expected):
    parent = [100.0 + i % 3 for i in range(10)]
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, "lower", 0.1)[0] == expected


def test_compare_wide_spread_is_unresolved():
    parent = [100.0, 140.0, 80.0, 120.0, 95.0, 150.0, 70.0, 110.0]
    change = [105.0, 130.0, 85.0, 125.0, 90.0, 145.0, 75.0, 115.0]
    assert compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.1)[0] == "unresolved"


def test_compare_rows_pair_by_seed():
    def rec(seed, value):
        return {"workload": "generate", "seed": seed, "trace": 0,
                "metrics": {"chars_per_s": {"value": value, "unit": "char/s"}}}

    parent = [rec(s, 100.0 + s) for s in range(10)]
    change = [rec(s, 150.0 + s) for s in reversed(range(10))]
    rows = compare.compare(parent, change, BENCHMARK)
    assert [(r["metric"], r["verdict"], r["win_share"]) for r in rows] == [
        ("chars_per_s", "improved", 1.0)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_b1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]

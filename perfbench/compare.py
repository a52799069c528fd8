"""Compare two result sets, parent and change, metric by metric per workload.

A result set is a JSONL file of records written by ``run.py --out``. Runs
are paired by seed (in file order when the seeds differ). For each metric
and workload the table shows each side's median and quartiles, the share of
pairs the change wins (ties count for neither side), and a verdict:

improved    the change wins at least 9 in 10 pairs and the medians differ,
            in the better direction, by more than the parent's quartile
            spread;
unresolved  an end-to-end metric whose run-to-run spread (quartile distance
            over median, either side) is wider than its bound, unless every
            change run reads better than every parent run;
worse       an end-to-end metric whose change median is worse than the
            parent's by more than its bound, or a per-layer metric that
            loses 9 in 10 pairs by more than the parent's spread;
unchanged   an end-to-end metric within its bound;
no claim    a per-layer metric (no bound) that neither improved nor worsened.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rel_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs the change wins)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    gain = sign * (statistics.median(change) - pmed)
    if share >= 0.9 and gain > pq3 - pq1:
        return "improved", share
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > pq3 - pq1:
            return "worse", share
        return "no claim", share
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if max(_rel_spread(parent), _rel_spread(change)) > bound and not all_better:
        return "unresolved", share
    if pmed and -gain / abs(pmed) > bound:
        return "worse", share
    return "unchanged", share


def _pairs(parent_runs: list[dict], change_runs: list[dict], metric: str):
    by_seed = {r["seed"]: r for r in change_runs}
    if all(r["seed"] in by_seed for r in parent_runs):
        matched = [(r, by_seed[r["seed"]]) for r in parent_runs]
    else:
        matched = list(zip(parent_runs, change_runs))
    return [(p["metrics"][metric]["value"], c["metrics"][metric]["value"])
            for p, c in matched
            if metric in p["metrics"] and metric in c["metrics"]]


def compare(parent: list[dict], change: list[dict], benchmark: dict) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    specs = [(m, 0) for m in benchmark["end_to_end"]] + [(m, 1) for m in benchmark["per_layer"]]
    rows = []
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        for spec, trace in specs:
            name = spec["name"]
            p_runs = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            c_runs = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            p_vals = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            result, share = verdict(p_vals, c_vals, _pairs(p_runs, c_runs, name),
                                    spec["better"], spec.get("bound"))
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "parent": quartiles(p_vals), "change": quartiles(c_vals),
                "runs": (len(p_vals), len(c_vals)), "win_share": share, "verdict": result,
            })
    return rows


def main(parent_path, change_path, benchmark: Path) -> int:
    """Print the comparison; exit status 1 when an end-to-end metric is worse."""
    bench = json.loads(Path(benchmark).read_text())
    rows = compare(load(parent_path), load(change_path), bench)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    print(f"{'workload':<11} {'metric':<34} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'delta':>8} {'wins':>5} {'runs':>7}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        delta = (c[1] - p[1]) / abs(p[1]) if p[1] else 0.0
        print(f"{r['workload']:<11} {r['metric']:<34} "
              f"{p[0]:>10.4g} {p[1]:>10.4g} {p[2]:>10.4g} "
              f"{c[0]:>10.4g} {c[1]:>10.4g} {c[2]:>10.4g} "
              f"{delta:>+8.1%} {r['win_share']:>5.0%} {r['runs'][0]:>3}/{r['runs'][1]:<3}  "
              f"{r['verdict']}")
    worse = [r for r in rows if r["metric"] in end_to_end and r["verdict"] == "worse"]
    return 1 if worse else 0

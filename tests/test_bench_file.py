"""``tools/bench_file.py``'s summary of alternating runs, on synthetic run lines.

No benchmark is started: each run is the last JSON line that
``perfbench/run.py`` would print, written out here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"
spec = importlib.util.spec_from_file_location("bench_file", TOOL)
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)

END_TO_END = [{"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def side(qps: float, p90: float, attempted: int = 100, failed: int = 0,
         lines: int = 2700) -> dict:
    return {"src_lines": lines, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"throughput_qps": {"value": qps, "unit": "1/s"},
                    "latency_p90_ms": {"value": p90, "unit": "ms"}}}}


def test_medians_quartiles_and_wins_follow_each_metric_direction():
    parent = [(100, 2.0), (110, 2.2), (90, 1.8), (105, 2.1), (95, 1.9)]
    change = [(120, 1.9), (100, 2.3), (130, 1.7), (125, 2.1), (118, 1.5)]
    runs = [{"seed": 11 + i, "parent": side(*p), "change": side(*c, attempted=120)}
            for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_file.summarize(runs, END_TO_END)
    assert summary["seeds"] == [11, 12, 13, 14, 15]
    assert summary["median"] == {"throughput_qps": {"parent": 100, "change": 120},
                                 "latency_p90_ms": {"parent": 2.0, "change": 1.9}}
    # statistics.quantiles' default (exclusive) method: positions (n + 1)/4 and 3(n + 1)/4
    assert summary["quartiles"] == {
        "throughput_qps": {"parent": [92.5, 107.5], "change": [109.0, 127.5]},
        "latency_p90_ms": {"parent": [1.85, 2.15], "change": [1.6, 2.2]}}
    # qps: higher is better; p90: lower is better, and its tie in the fourth pair is no win
    assert summary["wins"] == {"throughput_qps": 4, "latency_p90_ms": 3}
    assert summary["attempted"] == {"parent": 500, "change": 600}
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["correct"] == {"parent": True, "change": True}
    assert summary["runs"] == runs


def test_ties_failures_and_a_single_pair():
    runs = [{"seed": 7, "parent": side(100, 2.0), "change": side(100, 2.0, failed=3)}]
    summary = bench_file.summarize(runs, END_TO_END)
    assert summary["wins"] == {"throughput_qps": 0, "latency_p90_ms": 0}
    assert summary["quartiles"]["throughput_qps"] == {"parent": [100, 100], "change": [100, 100]}
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["correct"] == {"parent": True, "change": False}


def test_seeds_default_to_the_file_number():
    assert bench_file._seeds(None, 30, 3) == [3001, 3002, 3003]
    assert bench_file._seeds("5-8", 30, 4) == [5, 6, 7, 8]

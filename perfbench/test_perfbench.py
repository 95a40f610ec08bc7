"""Tests of the benchmark itself (generator, checker, tracer).

Run from a checkout root: ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from jthresh import cli, cones, surface  # noqa: E402

from checker import Checker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MALFORMED, WORKLOADS, Workload  # noqa: E402


def _first(workload, kind, seed=5):
    return next(q for q in Workload(workload, seed, cli.run).pass_queries(0) if q.kind == kind)


def test_same_seed_gives_identical_documents():
    for name in WORKLOADS:
        a = Workload(name, 7, cli.run)
        b = Workload(name, 7, cli.run)
        for index in range(3):
            assert a.pass_queries(index) == b.pass_queries(index)
    assert Workload("query_mix", 7, cli.run).pass_queries(0) != \
        Workload("query_mix", 8, cli.run).pass_queries(0)


def test_generated_outputs_pass_the_checker():
    checker = Checker()
    for name in ("toric_ladder", "query_mix"):
        for query in Workload(name, 3, cli.run).pass_queries(0)[:12]:
            code, out = cli.run(list(query.argv), query.stdin)
            assert checker.check(query, code, out).errors == []


def test_every_query_mix_pass_holds_each_malformed_kind_once():
    # so the failed share of a run does not depend on how many passes fit in it
    for seed in (1, 2):
        wl = Workload("query_mix", seed, cli.run)
        for index in range(3):
            cases = [q.case for q in wl.pass_queries(index) if q.kind == "malformed"]
            assert sorted(cases) == sorted(f"qm/malformed/{kind}" for kind in MALFORMED)


def test_reference_loop_scales_each_query_by_its_neighbours(monkeypatch):
    import run

    loops = iter([1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0] + [2.0] * 1000)
    monkeypatch.setattr(run, "_time_reference", lambda: next(loops) * run.REFERENCE_S)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    wl = Workload("toric_ladder", 1, cli.run)
    queries = wl.pass_queries(0)[:3]
    monkeypatch.setattr(wl, "pass_queries", lambda index: queries)
    tally, scaled, rates, scales = run._timed(cli, wl, Checker(), 0)
    assert tally.errors == [] and len(scaled) == 3 and len(rates) == 1
    # query 0 sees loops 0..2 (1, 1, 2); query 1 sees loops 0..3 (1, 1, 2, 2)
    assert scales[:3] == [1.0, 1 / 1.5, 0.5]
    assert scaled == [x * k for x, k in zip(tally.latencies, scales)]


def _corrupt(out: bytes, path: list[str], value) -> bytes:
    payload = json.loads(out)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(payload).encode()


def test_checker_flags_a_corrupted_exact_value():
    checker = Checker()
    toric = _first("toric_ladder", "toric")
    code, out = cli.run(list(toric.argv), toric.stdin)
    assert checker.check(toric, code, out).errors == []
    for path in (["exact", "value"], ["audit", "C"], ["minimizer"]):
        bad = _corrupt(out, path, "12345/7")
        verdict = checker.check(toric, code, bad)
        assert verdict.failed and verdict.errors, path


def test_checker_flags_a_wrong_path_numerator_and_ross_value():
    checker = Checker()
    path = next(q for q in Workload("surface_path", 2, cli.run).pass_queries(0)
                if q.kind == "path" and "json" in q.argv)
    code, out = cli.run(list(path.argv), path.stdin)
    payload = json.loads(out)
    payload["rows"][3]["R_numerator"] = "1/3"
    assert any("closed form" in e for e in checker.check(path, code, json.dumps(payload).encode()).errors)
    ross = _first("query_mix", "ross")
    code, out = cli.run(list(ross.argv), ross.stdin)
    assert any("closed form" in e for e in
               checker.check(ross, code, _corrupt(out, ["exact", "value"], "1")).errors)


def test_checker_ignores_an_added_field():
    checker = Checker()
    toric = _first("toric_ladder", "toric")
    code, out = cli.run(list(toric.argv), toric.stdin)
    assert checker.check(toric, code, _corrupt(out, ["audit", "memo_hits"], 3)).errors == []


def test_malformed_input_is_judged_by_exit_code_and_line_count():
    checker = Checker()
    query = _first("query_mix", "malformed")
    assert not checker.check(query, 2, b"BadParams: x\n").failed
    assert checker.check(query, 1, b"InternalError: x\n").failed
    assert checker.check(query, 2, b"a\nb\n").failed
    assert checker.check(query, 0, b"{}").errors


def _traced_counts(queries):
    tracer = Tracer()
    tracer.install()
    try:
        for qid, query in enumerate(queries, start=1):
            tracer.query[0] = qid
            cli.run(list(query.argv), query.stdin)
    finally:
        tracer.uninstall()
    return tracer


def test_two_traced_runs_give_identical_counters():
    queries = (Workload("query_mix", 4, cli.run).pass_queries(0)
               + Workload("toric_ladder", 4, cli.run).pass_queries(0)[:4])
    first, second = _traced_counts(queries), _traced_counts(queries)
    assert first.calls == second.calls
    assert first.count("toric.Fan.is_face") > 0 and first.count("lattice.IntersectionLattice.pair") > 0
    assert first.span_count == sum(first.calls)


def test_tracer_rebinds_imported_names_and_restores_them():
    original = cones.seshadri_T
    tracer = Tracer()
    tracer.install()
    try:
        assert surface.seshadri_T is cones.seshadri_T is not original
        assert cli.seshadri_T is cones.seshadri_T
    finally:
        tracer.uninstall()
    assert surface.seshadri_T is original and cli.seshadri_T is original


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toric_ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

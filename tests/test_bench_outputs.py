"""Every benchmark case still gives the outputs recorded in ``perfbench/expected.json``.

``perfbench/workloads.universe`` lists every query the benchmark can issue.
Each one runs once through ``jthresh.cli.run`` and ``perfbench/checker.Checker``
judges it: closed forms computed from the query itself, then every recorded
field.  The universe and the recorded cases must be the same set.  The test
only reads ``perfbench/``.
"""

from __future__ import annotations

from pathlib import Path

from jthresh import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_universe_case_matches_the_recorded_fields(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from checker import Checker
    from workloads import universe

    checker, cases, bad = Checker(), set(), []
    for query in universe(cli.run):
        code, out = cli.run(list(query.argv), query.stdin)
        verdict = checker.check(query, code, out)
        cases.add(query.case)
        if verdict.failed or verdict.errors:
            bad.append((query.case, code, verdict.errors))
    assert bad == []
    assert cases == set(checker.expected)

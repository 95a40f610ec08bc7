"""Record the exact fields of every case into ``expected.json``.

Run once from a checkout root at the commit whose outputs are the reference::

    python3 perfbench/record.py

Every case of every workload (see ``workloads.universe``) runs once through
``jthresh.cli.run``; its closed-form checks must pass before its fields are
written.  Malformed inputs are not recorded: their expected outcome is fixed
by the CLI contract (exit 2, one diagnostic line), not by any commit.
"""

import json
import sys

from run import _import_engine
from checker import EXPECTED_PATH, Checker, fields
from workloads import universe


def main() -> int:
    cli = _import_engine()
    checker = Checker(expected={})
    cases = {}
    for query in universe(cli.run):
        code, out = cli.run(list(query.argv), query.stdin)
        verdict = checker.check(query, code, out)
        problems = [e for e in verdict.errors if not e.endswith("no recorded fields for this case")]
        if code != 0 or problems:
            print(f"{query.case}: exit {code}; {problems or out[:200]}", file=sys.stderr)
            return 1
        cases[query.case] = {"fields": fields(query, out)}
    with open(EXPECTED_PATH, "w") as handle:
        json.dump({"cases": cases}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(cases)} cases in {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

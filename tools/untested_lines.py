"""Print each executable statement of src/jthresh that no tier-1 test runs.

Needs no coverage package: a ``sys.settrace`` line tracer is installed before
pytest imports jthresh, tier-1 (the tests under ``tests/``) runs in this
process, and each line of ``src/jthresh`` that carries bytecode but never ran
is printed as ``path:line: source``.  Code that tests run in a subprocess,
such as ``cli.main``, is not traced, so it is reported too.

Under the tracer tier-1 runs about four times slower (about 95 s on an Intel
Xeon, 2 vCPU, Python 3.11.7), so tests that time themselves can fail, among
them ``test_radicand_past_the_trial_division_cap_is_answered_quickly`` and
``test_trial_division_stops_at_its_cap``.  The script reports lines, not
verdicts: the pytest summary above the report says nothing about the suite.
It is not part of tier-1.

    python tools/untested_lines.py [extra pytest arguments, e.g. -x or -k name]
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jthresh"


def executable_lines(path: Path) -> set[int]:
    """Lines that carry bytecode in the module or in any code object nested in it
    (line 0 is the module's own entry, not a statement)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def trace_tier1(pytest_args: list[str]) -> dict[str, set[int]]:
    """The lines that ran per file of the package while tier-1 ran."""
    ran: dict[str, set[int]] = {str(p): set() for p in PACKAGE.glob("*.py")}

    def on_call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events outside the package

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line
        return on_line

    src = str(PACKAGE.parent)
    sys.path.insert(0, src)  # as tier-1's PYTHONPATH=src does, for subprocesses too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest  # jthresh itself is imported by the tests, under the tracer

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = Path(sys.modules["jthresh"].__file__).resolve().parent
    if imported != PACKAGE:
        sys.exit(f"tier-1 imported jthresh from {imported}, not {PACKAGE}")
    return ran


def main() -> None:
    ran = trace_tier1(sys.argv[1:])
    report, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        report += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                   for n in sorted(lines - ran[str(path)])]
    print(f"# {len(report)} of {total} executable lines in src/jthresh not run by tier-1")
    print("\n".join(report))


if __name__ == "__main__":
    main()

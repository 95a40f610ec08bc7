"""Every function the benchmark's tracer wraps must exist under its name.

``perfbench/tracing.py`` lists the functions it wraps as ``TARGETS``, pairs
of (layer, qualified name) resolved on ``jthresh.<layer>``; a dotted name is
a method, looked up in the class ``__dict__``.  A refactor that renames or
drops one of them breaks ``perfbench/run.py --trace 1``, so this test reads
``TARGETS`` from that file, by path, and resolves every pair.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.TARGETS)


def test_every_trace_target_resolves():
    targets = _targets()
    missing = []
    for layer, name in targets:
        module = importlib.import_module(f"jthresh.{layer}")
        owner, attr = module, name
        if "." in name:
            cls_name, attr = name.split(".")
            owner = vars(module).get(cls_name)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{layer}.{name}")
    assert targets and missing == []

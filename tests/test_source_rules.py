"""Source rules: the package computes without floats (exact kernels only).

Decimal counts as a float here: it rounds at a context's precision.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "jthresh").glob("*.py"))
EXACT_MATH = {"gcd", "lcm", "isqrt", "prod"}


def float_faults(tree: ast.AST) -> list[str]:
    """Each float literal, use of the name float, math import past EXACT_MATH and
    decimal import, by line."""
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            faults.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            faults.append(f"{node.lineno}: name float")
        elif isinstance(node, ast.Import):
            faults += [f"{node.lineno}: import {a.name}" for a in node.names
                       if a.name in ("math", "decimal")]
        elif isinstance(node, ast.ImportFrom) and node.module == "decimal":
            faults.append(f"{node.lineno}: from decimal import")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            faults += [f"{node.lineno}: from math import {a.name}"
                       for a in node.names if a.name not in EXACT_MATH]
    return faults


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"exactnum.py", "surface.py", "toric.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats_in_the_package(path):
    assert float_faults(ast.parse(path.read_text(), str(path))) == []


def test_the_rule_sees_each_kind_of_fault():
    source = ("from math import gcd, sqrt\nimport math\nx = 0.5\ny = float('1')\n"
              "z = isinstance(x, float)\nw = 2j\nfrom decimal import Decimal\nimport decimal\n")
    assert sorted(float_faults(ast.parse(source))) == [
        "1: from math import sqrt", "2: import math", "3: float literal 0.5",
        "4: name float", "5: name float", "6: float literal 2j",
        "7: from decimal import", "8: import decimal"]

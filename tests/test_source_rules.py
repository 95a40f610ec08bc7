"""Source rules: the package computes without floats (exact kernels only),
imports nothing it does not use, defines no function without a reader:
code in the package, the public API, argparse, or, for a listed few, only the
benchmark's tracer, and lets no caller choose the class a gate raises.

Decimal counts as a float here: it rounds at a context's precision.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import jthresh
from test_bench_targets import _targets

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "jthresh").glob("*.py"))
EXACT_MATH = {"gcd", "lcm", "isqrt", "prod"}
# argparse calls these by name; nothing in the package does
HOOKS = {"cli._Parser.error", "cli._Parser.print_help"}
# kept only by perfbench/tracing.py's TARGETS: ROADMAP item 1's deletion list
TRACER_ONLY = {
    "cones.is_nef", "cones.is_kahler", "surface.c_constant", "exactnum.poly_roots_quadratic",
    "exactnum.QuadNum.sign", "documents.quad_from_json", "toric.Fan.rewrite_terms",
    "toric.enumerate_orbits", "toric.invariant_curves", "toric.is_ample",
    "toric.toric_seshadri_T"}


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


def unused_imports(source: str) -> list[str]:
    """Each name a module imports at top level and never reads, by line; an import
    marked '# noqa: F401' on any of its lines is a re-export and exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults = []
    for node in tree.body:
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        faults += [f"{node.lineno}: {name}" for alias in node.names
                   if (name := (alias.asname or alias.name).split(".")[0]) not in read]
    return faults


def unreferenced(sources: dict[str, str]) -> list[str]:
    """'module.name' of each top-level function and 'module.Class.name' of each method
    whose name no source reads, as a name or an attribute; an import is not a read,
    and a dunder method, which Python calls, is exempt."""
    defs, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, ast.FunctionDef)]
        read |= {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return [qualified for qualified, name in defs
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def fault_class_parameters(source: str) -> list[str]:
    """'line: function.parameter' of each parameter annotated type[JThreshError]: a
    gate raises its own class, and a document rewords it as BadDocument in one place."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            faults += [f"{arg.lineno}: {node.name}.{arg.arg}" for arg in
                       (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                       if arg is not None and arg.annotation is not None
                       and ast.unparse(arg.annotation).replace("errors.", "")
                       in ("type[JThreshError]", "Type[JThreshError]")]
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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports_in_the_package(path):
    # __init__.py imports only to re-export README's names
    assert unused_imports(path.read_text()) == []


def test_the_import_rule_sees_each_kind_of_fault():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from a import (b,\n    c)  # noqa: F401\nfrom d import e, f as g\n"
              "def h():\n    import sys\n    return e\n")
    assert unused_imports(source) == ["2: os", "3: j", "6: g"]


def test_every_function_has_a_reader():
    # a function nothing in src reads is public (jthresh.__all__), an argparse
    # hook, or a tracer target; the last kind is item 1's list, to be deleted
    found = set(unreferenced({p.stem: p.read_text() for p in SOURCES}))
    public = {name for name in found if name.partition(".")[2] in jthresh.__all__}
    traced = {f"{layer}.{name}" for layer, name in _targets()}
    assert found - public - HOOKS - traced == set()
    assert found - public - HOOKS == TRACER_ONLY


def test_the_reader_rule_sees_each_kind_of_fault():
    sources = {"a": ("import b\nfrom c import g\ndef f():\n    return h(b.k)\n"
                     "def g():\n    pass\ndef h(x):\n    return x\n"),
               "b": ("def k():\n    pass\nclass K:\n    def __init__(self):\n        pass\n"
                     "    def m(self):\n        pass\n    def n(self):\n        return self.m\n")}
    assert unreferenced(sources) == ["a.f", "a.g", "b.K.n"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_gate_takes_a_fault_class(path):
    assert fault_class_parameters(path.read_text()) == []


def test_the_fault_class_rule_sees_each_kind_of_fault():
    source = ("def rat(value, error: type[JThreshError] = BadParams):\n    pass\n"
              "class K:\n    def m(self, *, cls: Type[errors.JThreshError]):\n        pass\n"
              "def f(x: type[int], y: JThreshError, *rest: type[JThreshError]):\n"
              "    def g(**kw: type[JThreshError]):\n        pass\n")
    assert sorted(fault_class_parameters(source)) == [
        "1: rat.error", "4: m.cls", "6: f.rest", "7: g.kw"]

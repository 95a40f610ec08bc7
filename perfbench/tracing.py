"""Spans and counters around jthresh's public functions, from outside the package.

``Tracer.install`` replaces each target with a wrapper that records one span
(name, start, end, parent span, query id) and one call count, and rebinds
every name under which a jthresh module imported the target (``from .cones
import seshadri_T`` makes ``surface.seshadri_T`` a second reference), so no
call goes uncounted.  Spans stay in memory as columns and are written out by
``Tracer.write``.  A span's self time is its duration minus the time covered
by its child spans; a layer's self time is the sum over the layer's spans.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "documents", "catalog", "surface", "cones", "lattice", "exactnum", "toric")

QUADNUM_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__eq__", "__lt__", "__le__",
               "__gt__", "__ge__", "sign")

# (layer, qualified name); a dotted name is a method
TARGETS = (
    [("cli", "run")]
    + [("documents", n) for n in ("parse_document", "document_to_json", "quad_to_json",
                                  "quad_from_json")]
    + [("catalog", n) for n in ("build", "ross_polarization", "ross_gamma_closed_form")]
    + [("surface", n) for n in ("surface_gamma", "c_constant", "path_R", "sample_path",
                                "is_solvable", "stable_subcone", "csck_criterion")]
    + [("cones", n) for n in ("seshadri_T", "sigma_inf", "is_kahler", "is_nef",
                              "validate_cone", "cone_constants")]
    + [("lattice", n) for n in ("IntersectionLattice.pair", "IntersectionLattice.signature",
                                "validate_signature")]
    + [("exactnum", n) for n in ("decimal_str", "poly_roots_quadratic", "rat_sqrt")]
    + [("exactnum", f"QuadNum.{op}") for op in QUADNUM_OPS]
    + [("toric", n) for n in ("Fan.is_face", "Fan.rewrite_terms", "validate_fan",
                              "enumerate_orbits", "invariant_curves", "is_ample",
                              "toric_seshadri_T", "subvariety_score", "toric_gamma",
                              "intersection_number")]
)


class Tracer:
    """Installs wrappers on jthresh and collects spans and counters."""

    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, name in TARGETS]
        self.layer_of = [layer for layer, _ in TARGETS]
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.query = [0]
        self._stack: list[list] = [[0, 0.0]]  # frames: [span id, time in children]
        self.columns = {"name": array("H"), "id": array("q"), "parent": array("q"),
                        "query": array("q"), "start": array("d"), "end": array("d")}
        self._restore: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    def _wrapper(self, fn, sid: int):
        clock, stack = time.perf_counter, self._stack
        calls, self_s, query = self.calls, self.self_s, self.query
        c = self.columns
        c_name, c_id, c_parent = c["name"].append, c["id"].append, c["parent"].append
        c_query, c_start, c_end = c["query"].append, c["start"].append, c["end"].append
        counter = self._ids

        def traced(*args, **kwargs):
            frame = [next(counter), 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                calls[sid] += 1
                self_s[sid] += duration - frame[1]
                c_name(sid)
                c_id(frame[0])
                c_parent(parent[0])
                c_query(query[0])
                c_start(start)
                c_end(end)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"jthresh.{layer}") for layer in LAYERS}
        package = importlib.import_module("jthresh")
        everywhere = [package, *modules.values()]
        for sid, (layer, name) in enumerate(TARGETS):
            owner, attr = modules[layer], name
            if "." in name:
                cls_name, attr = name.split(".")
                owner = getattr(modules[layer], cls_name)
                original = owner.__dict__[attr]
                self._swap(owner, attr, self._wrapper(original, sid))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, sid)
            for module in everywhere:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)

    def _swap(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def self_time(self, name: str) -> float:
        return self.self_s[self.names.index(name)]

    def layer_self_time(self, layer: str) -> float:
        return sum(t for t, owner in zip(self.self_s, self.layer_of) if owner == layer)

    def quadnum_ops(self) -> int:
        return sum(self.count(f"exactnum.QuadNum.{op}") for op in QUADNUM_OPS)

    @property
    def span_count(self) -> int:
        return len(self.columns["id"])

    def write(self, stem: Path) -> None:
        """Write the spans as raw columns (``.bin``) described by a ``.json`` header."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": self.span_count,
                  "columns": [[key, col.typecode, col.itemsize]
                              for key, col in self.columns.items()],
                  "clock": "time.perf_counter, seconds", "parent_of_root": 0}
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for col in self.columns.values():
                col.tofile(handle)
        with open(stem.with_suffix(".json"), "w") as handle:
            json.dump(header, handle, indent=1)

"""The package's public surface is the name list that README.md states.

README's Library section opens with a bullet list of backquoted names;
``jthresh.__all__`` must be exactly that list, and every name must resolve
on the package.  Its public value types are immutable and hashable, and a
copy or a pickle round trip gives an equal value of the same type.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest

import jthresh
from jthresh import (DivClass, LightConeFacet, QuadNum, build, csck_criterion,
                     ross_polarization, sample_path, stable_subcone, surface_gamma,
                     toric_gamma)
from jthresh.documents import parse_document

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_names() -> list[str]:
    library = README.read_text().split("\n## Library\n", 1)[1]
    bullets = library.split("\n\n")[1]  # the paragraph after the opening sentence
    return re.findall(r"`(\w+)`", bullets)


def test_all_equals_readme_list():
    names = _readme_names()
    assert len(names) == len(set(names)) > 0
    assert sorted(jthresh.__all__) == sorted(names)
    assert all(hasattr(jthresh, name) for name in names)


def _values() -> dict[str, object]:
    """One value of each public value type that README's Library section describes."""
    blowup, ross = build("blowup_path"), build("ross", {"g": 3, "s_C": 2})
    f1 = build("hirzebruch", {"a": 1})
    theta, a = blowup.classes["theta"], blowup.classes["a"]
    h, f = f1.toric_classes["H"], f1.toric_classes["F"]
    gamma = surface_gamma(blowup.lattice, blowup.cone, theta, DivClass([5, -1]))
    toric = toric_gamma(f1.fan, h, h + f)
    return {
        "DivClass": theta, "IntersectionLattice": blowup.lattice, "NefConeModel": blowup.cone,
        "LightConeFacet": LightConeFacet(DivClass([1, 0])), "Fan": f1.fan,
        "QuadNum": QuadNum(Fraction(1, 2), Fraction(-1, 3), 5), "ConeConstants": gamma.audit,
        "ThresholdResult": gamma,
        "StableSubcone": stable_subcone(blowup.lattice, blowup.cone, theta, a),
        "CsckReport": csck_criterion(ross.lattice, ross.cone, ross.classes["K"],
                                     ross_polarization(3), Fraction(1, 2)),
        "PathSample": sample_path(blowup.lattice, blowup.cone, theta, a, 2)[0],
        "ToricGammaResult": toric, "SubvarietyScore": toric.scores[0],
        "InputDocument": parse_document({
            "lattice": {"matrix": [["1", "0"], ["0", "-1"]]}, "classes": {"H": ["1", "0"]},
            "query": {"theta": "H", "samples": 3}}),
        "CatalogEntry": f1,
    }


VALUES = _values()


def _field_names(value: object) -> list[str]:
    if dataclasses.is_dataclass(value):
        return [f.name for f in dataclasses.fields(value)]
    return list(type(value).__slots__)  # QuadNum


def _mutable_parts(value: object, path: str) -> list[str]:
    """path for a dict, list or set, and the same inside tuples."""
    if isinstance(value, (dict, list, set)):
        return [path]
    if isinstance(value, tuple):
        return [p for i, x in enumerate(value) for p in _mutable_parts(x, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("name", sorted(VALUES))
def test_public_value_types_are_immutable_and_hashable(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    hash(value)
    for field in _field_names(value):
        part = getattr(value, field)
        assert _mutable_parts(part, field) == []
        if isinstance(part, Mapping):
            with pytest.raises(TypeError):
                part["x"] = None  # e.g. a catalog entry's classes and params
        with pytest.raises(AttributeError):
            setattr(value, field, part)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)

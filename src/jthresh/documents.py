"""Input documents: the JSON schema shared by the CLI and the catalog export.

All scalar payloads are exact strings ("p/q", denominator omitted when 1);
quadratic irrationals serialize as {"rat": "p/q", "coef": "r/s", "rad": d}
and collapse to a plain string when rational.  Fan ray indices are 0-based.
Parsing validates everything it loads: lattice signature, cone consistency
and fan structure, so a parsed document is safe to compute with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping

from .cones import LightConeFacet, NefConeModel, validate_cone
from .errors import BadDocument, BadParams, DimensionMismatch
from .exactnum import QuadNum, exact_int, format_rat, rat
from .lattice import DivClass, IntersectionLattice, validate_signature
from .toric import MAX_FIXED_POINT_TERMS, Fan


def _rat_list(value: Any, what: str) -> list[Fraction]:
    """A JSON list of exact rationals; a string is never iterated."""
    if not isinstance(value, list):
        raise BadDocument(f"{what} must be a list of exact rationals, got {value!r}")
    return [rat(x) for x in value]


def _object(data: dict[str, Any], key: str, message: str) -> dict[str, Any]:
    """data[key] as an object: only an absent field or null means an empty one."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise BadDocument(message)
    return value


def _labelled(data: dict[str, Any], key: str) -> dict[str, Any]:
    return _object(data, key, f"{key} must be an object mapping labels to classes")


def quad_to_json(x: QuadNum) -> Any:
    if x.is_rational:
        return format_rat(x.a)
    return {"rat": format_rat(x.a), "coef": format_rat(x.b), "rad": x.d}


def quad_from_json(value: Any) -> QuadNum:
    try:  # rat's and QuadNum's radicand gate: each BadParams line as a BadDocument
        if not isinstance(value, dict):
            return QuadNum(rat(value))
        if missing := {"rat", "coef", "rad"} - set(value):
            raise BadDocument(f"quadratic number missing fields {sorted(missing)}")
        return QuadNum(rat(value["rat"]), rat(value["coef"]), value["rad"])
    except BadParams as exc:
        raise BadDocument(str(exc)) from None


@dataclass(frozen=True)
class InputDocument:
    """A parsed document; each map, a field declared hash=False, is a read-only copy.

    The hash reads the lattice, the cone and the fan: equal documents have
    equal parts, and a query may hold lists, which have no hash.
    """

    lattice: IntersectionLattice | None = None
    cone: NefConeModel | None = None
    fan: Fan | None = None
    classes: Mapping[str, DivClass] = field(default_factory=dict, hash=False)
    toric_classes: Mapping[str, DivClass] = field(default_factory=dict, hash=False)
    query: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        for f in fields(self):
            if f.hash is False:
                object.__setattr__(self, f.name, MappingProxyType(dict(getattr(self, f.name))))

    def __reduce__(self):  # copy and pickle rebuild through the constructor, from plain dicts
        return type(self), tuple(dict(getattr(self, f.name)) if f.hash is False
                                 else getattr(self, f.name) for f in fields(self))


def _parse_lattice(data: Any) -> IntersectionLattice:
    if not isinstance(data, dict) or "matrix" not in data:
        raise BadDocument("lattice must be an object with a 'matrix' field")
    matrix = data["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise BadDocument("lattice matrix must be a list of rows")
    rows = [[rat(x) for x in row] for row in matrix]
    try:
        lattice = IntersectionLattice(rows, data.get("labels"))
    except DimensionMismatch as exc:
        raise BadDocument(str(exc)) from None
    if "rank" in data:
        rank = exact_int(data["rank"], "lattice rank")
        if rank != lattice.rank:
            raise BadDocument(f"declared rank {rank} != matrix rank {lattice.rank}")
    validate_signature(lattice)
    return lattice


def _parse_cone(data: Any, lattice: IntersectionLattice) -> NefConeModel:
    if not isinstance(data, dict):
        raise BadDocument("cone must be an object")
    rows = data.get("facets", [])
    if not isinstance(rows, list):
        raise BadDocument("cone facets must be a list of classes")
    facets = [DivClass(_rat_list(row, "cone facet")) for row in rows]
    labels = data.get("facet_labels")
    if labels is not None and (not isinstance(labels, list)
                               or not all(isinstance(x, str) for x in labels)):
        raise BadDocument(f"cone facet_labels must be a list of strings, got {labels!r}")
    light = None
    lc = data.get("light_cone")
    if lc is not None:
        if not isinstance(lc, dict) or "H" not in lc:
            raise BadDocument("light_cone must be an object with reference class 'H'")
        light = LightConeFacet(DivClass(_rat_list(lc["H"], "light_cone.H")))
    cone = NefConeModel(facets=facets, light_cone=light, facet_labels=labels)
    validate_cone(lattice, cone)
    return cone


def _parse_fan(data: Any) -> Fan:
    if not isinstance(data, dict):
        raise BadDocument("fan must be an object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise BadDocument(f"fan missing field {key!r}")
    dim, cones = exact_int(data["dim"], "fan dim"), data["max_cones"]
    # the cap before any entry, never forming 2^dim; Fan gates the entries and validates
    if isinstance(cones, list) and dim > 0 and len(cones) > MAX_FIXED_POINT_TERMS >> dim:
        raise BadDocument(f"fan has len(max_cones) * 2^dim = {len(cones)} * 2^{dim} fixed-point "
                          f"terms, over MAX_FIXED_POINT_TERMS = {MAX_FIXED_POINT_TERMS}")
    return Fan(dim=dim, rays=data["rays"], max_cones=cones)


def parse_document(data: Any) -> InputDocument:
    """Parse and fully validate a JSON document object; the BadParams line of a gate
    it passes (rat, exact_int, lattice labels, fan data) is raised as a BadDocument."""
    if not isinstance(data, dict):
        raise BadDocument("document must be a JSON object")
    try:
        lattice = cone = fan = None
        if data.get("lattice") is not None:
            lattice = _parse_lattice(data["lattice"])
        if data.get("cone") is not None:
            if lattice is None:
                raise BadDocument("cone requires a lattice")
            cone = _parse_cone(data["cone"], lattice)
        if data.get("fan") is not None:
            fan = _parse_fan(data["fan"])
        if lattice is None and fan is None:
            raise BadDocument("document must contain a lattice or a fan")
        classes: dict[str, DivClass] = {}
        for label, coords in _labelled(data, "classes").items():
            if lattice is None:
                raise BadDocument("'classes' requires a lattice; use 'toric_classes' with a fan")
            cls = DivClass(_rat_list(coords, f"class {label!r}"))
            lattice.check_class(cls)
            classes[str(label)] = cls
        toric_classes: dict[str, DivClass] = {}
        for label, coeffs in _labelled(data, "toric_classes").items():
            if fan is None:
                raise BadDocument("'toric_classes' requires a fan")
            coeffs = _rat_list(coeffs, f"toric class {label!r}")
            if len(coeffs) != len(fan.rays):
                raise BadDocument(f"toric class {label!r} needs one coefficient per ray")
            toric_classes[str(label)] = DivClass(coeffs)
        return InputDocument(lattice, cone, fan, classes, toric_classes,
                             _object(data, "query", "query must be an object"))
    except BadParams as exc:
        raise BadDocument(str(exc)) from None


def document_to_json(doc: InputDocument) -> dict[str, Any]:
    """Inverse of parse_document up to field ordering."""
    out: dict[str, Any] = {}
    if doc.lattice is not None:
        out["lattice"] = {
            "rank": doc.lattice.rank,
            "matrix": [[format_rat(x) for x in row] for row in doc.lattice.matrix],
            "labels": list(doc.lattice.labels),
        }
    if doc.cone is not None:
        cone: dict[str, Any] = {
            "facets": [[format_rat(x) for x in f.coords] for f in doc.cone.facets],
            "facet_labels": list(doc.cone.facet_labels),
            "light_cone": None,
        }
        if doc.cone.light_cone is not None:
            ref = doc.cone.light_cone.reference_kahler
            cone["light_cone"] = {"H": [format_rat(x) for x in ref.coords]}
        out["cone"] = cone
    if doc.fan is not None:
        out["fan"] = {
            "dim": doc.fan.dim,
            "rays": [list(ray) for ray in doc.fan.rays],
            "max_cones": [list(c) for c in doc.fan.max_cones],
        }
    if doc.classes:
        out["classes"] = {label: [format_rat(x) for x in cls.coords]
                          for label, cls in sorted(doc.classes.items())}
    if doc.toric_classes:
        out["toric_classes"] = {label: [format_rat(x) for x in cls.coords]
                                for label, cls in sorted(doc.toric_classes.items())}
    if doc.query:
        out["query"] = dict(doc.query)
    return out

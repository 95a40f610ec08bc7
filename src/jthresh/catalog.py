"""Built-in surface families with lattice, cone and (where toric) fan data.

Families:
  ross              product-of-curves surfaces: rank-2 lattice diag(2, -2g)
                    in the basis (f, dp) with canonical class K = (2g-2, 0)
                    and polarizations L_t = (t, -1); the nef cone is modeled
                    by the two facets x + s_C*y >= 0 and x - g*y >= 0.
  hirzebruch        rational ruled surfaces: rational model diag(1, -1) with
                    named classes E (negative section), F (fiber), H = E + aF
                    (positive section), plus the matching fan.
  perfect_lightcone light-cone-only cone over diag(1, -1, ..., -1): no
                    negative boundary directions at all.
  blowup_path       one-point blowup model diag(1, -1) with the exceptional
                    facet and a light-cone facet; boundary class a = H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .cones import LightConeFacet, NefConeModel, validate_cone
from .documents import InputDocument
from .errors import BadParams, OutOfDomain, UnknownName
from .exactnum import RatLike, int_between, rat
from .lattice import DivClass, diagonal_lattice, validate_signature
from .toric import Fan

# largest perfect_lightcone rank: a rank x rank matrix, built by `jthresh catalog` in
# 0.1 s at rank 200, 0.5 s at 500 and 1.6 s at 800 (Intel Xeon, Python 3.11.7)
MAX_RANK = 500

ROSS_MODEL_FACET_NOTE = ("facet w_up (x - g*y >= 0, from the diagonal class) is an inner "
                         "model of the true nef cone; it never binds sigma on t > s_C "
                         "but does bound T on the opposite side")


@dataclass(frozen=True)
class CatalogEntry(InputDocument):
    """A family's document (lattice, cone, fan where toric, named classes), its name,
    its parameters (read-only, like every map of a document) and its notes."""

    name: str = ""
    params: Mapping[str, Fraction] = field(default_factory=dict, hash=False)
    notes: tuple[str, ...] = ()


def _require_integer(value: Fraction, name: str) -> int:
    if value.denominator != 1:
        raise BadParams(f"{name} must be an integer, got {value}")
    return value.numerator


def _check_ross_params(g: RatLike | str, s_c: RatLike | str) -> tuple[int, Fraction]:
    g = _require_integer(rat(g), "g")
    s_c = rat(s_c)
    if g < 2:
        raise BadParams(f"g = {g} < 2")
    if s_c <= 0:
        raise BadParams(f"s_C = {s_c} must be positive")
    if s_c * s_c < g:
        raise BadParams(f"s_C^2 = {s_c * s_c} < g = {g}: no such ample threshold")
    return g, s_c


def ross_entry(g: RatLike | str, s_c: RatLike | str) -> CatalogEntry:
    g, s_c = _check_ross_params(g, s_c)
    lattice = diagonal_lattice([2, -2 * g], labels=["f", "dp"])
    # facet classes realizing the covectors x + s_C*y and x - g*y
    w_low = DivClass([Fraction(1, 2), -s_c / (2 * g)])
    w_up = DivClass([Fraction(1, 2), Fraction(1, 2)])
    cone = NefConeModel(facets=[w_low, w_up], facet_labels=["w_low", "w_up"])
    classes = {
        "K": DivClass([2 * g - 2, 0]),
        "f": DivClass([1, 0]),
        "dp": DivClass([0, 1]),
    }
    return CatalogEntry(name="ross", params={"g": Fraction(g), "s_C": s_c},
                        lattice=lattice, cone=cone, classes=classes,
                        notes=(ROSS_MODEL_FACET_NOTE,))


def ross_polarization(t: RatLike | str) -> DivClass:
    """The polarization L_t = t*f - dp in the ross basis."""
    return DivClass([rat(t), -1])


def ross_gamma_closed_form(g: RatLike | str, s_c: RatLike | str,
                           t: RatLike | str) -> Fraction:
    """Closed form 2t(2g-2)/(t^2-g) - (2g-2)/(t-s_C), exact.

    Defined for t > s_C (then t^2 > s_C^2 >= g); t <= s_C is OutOfDomain.
    """
    g, s_c = _check_ross_params(g, s_c)
    t = rat(t)
    if t <= s_c:
        raise OutOfDomain(f"t = {t} <= s_C = {s_c}")
    k = 2 * g - 2
    return 2 * t * k / (t * t - g) - Fraction(k) / (t - s_c)


def hirzebruch_fan(a: int) -> Fan:
    return Fan(dim=2,
               rays=[(1, 0), (0, 1), (-1, a), (0, -1)],
               max_cones=[(0, 1), (1, 2), (2, 3), (3, 0)])


def hirzebruch_entry(a: RatLike | str) -> CatalogEntry:
    a = _require_integer(rat(a), "a")
    if a < 0:
        raise BadParams(f"a = {a} < 0")
    lattice = diagonal_lattice([1, -1], labels=["x", "y"])
    # rational dictionary with E^2 = -a, F^2 = 0, E.F = 1, H = E + a*F
    e = DivClass([Fraction(1 - a, 2), Fraction(1 + a, 2)])
    f = DivClass([1, -1])
    h = DivClass([Fraction(1 + a, 2), Fraction(1 - a, 2)])
    cone = NefConeModel(facets=[e, f], facet_labels=["E", "F"])
    classes = {"H": h, "E": e, "F": f}
    toric = {
        "F": DivClass([1, 0, 0, 0]),   # ray divisor D0, the fiber
        "E": DivClass([0, 1, 0, 0]),   # D1, the negative section
        "H": DivClass([0, 0, 0, 1]),   # D3 = E + a*F, the positive section
    }
    return CatalogEntry(name="hirzebruch", params={"a": Fraction(a)},
                        lattice=lattice, cone=cone, classes=classes,
                        fan=hirzebruch_fan(a), toric_classes=toric)


def perfect_lightcone_entry(rank: RatLike | str = 2) -> CatalogEntry:
    rank = int_between(_require_integer(rat(rank), "rank"), "rank", 1, MAX_RANK)
    lattice = diagonal_lattice([1] + [-1] * (rank - 1))
    h = DivClass([1] + [0] * (rank - 1))
    cone = NefConeModel(facets=[], light_cone=LightConeFacet(reference_kahler=h))
    return CatalogEntry(name="perfect_lightcone", params={"rank": Fraction(rank)},
                        lattice=lattice, cone=cone, classes={"H": h})


def blowup_path_entry() -> CatalogEntry:
    lattice = diagonal_lattice([1, -1], labels=["H", "E"])
    e = DivClass([0, 1])
    h = DivClass([1, 0])
    theta = DivClass([2, -1])
    cone = NefConeModel(facets=[e], facet_labels=["E"],
                        light_cone=LightConeFacet(reference_kahler=theta))
    classes = {"H": h, "E": e, "a": h, "theta": theta}
    return CatalogEntry(name="blowup_path", params={}, lattice=lattice,
                        cone=cone, classes=classes)


# family -> (builder, required params, optional params)
_BUILDERS = {
    "ross": (ross_entry, ("g", "s_C"), ()),
    "hirzebruch": (hirzebruch_entry, ("a",), ()),
    "perfect_lightcone": (perfect_lightcone_entry, (), ("rank",)),
    "blowup_path": (blowup_path_entry, (), ()),
}


def build(name: str, params: dict[str, RatLike | str] | None = None) -> CatalogEntry:
    """Construct a catalog entry; every entry is validated before returning."""
    params = dict(params or {})
    if name not in _BUILDERS:
        raise UnknownName(f"unknown catalog family {name!r}; "
                          f"choose from {sorted(_BUILDERS)}")
    builder, required, optional = _BUILDERS[name]
    unknown = set(params) - set(required) - set(optional)
    if unknown:
        raise BadParams(f"unexpected parameters {sorted(unknown)} for {name}")
    missing = [key for key in required if key not in params]
    if missing:
        raise BadParams(f"missing parameters {missing} for {name}")
    args = [params[key] for key in required]
    args += [params[key] for key in optional if key in params]
    entry = builder(*args)
    validate_signature(entry.lattice)
    validate_cone(entry.lattice, entry.cone)
    return entry

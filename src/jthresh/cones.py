"""Nef/ample cone models and the boundary constants T and sigma.

A cone is cut out by finitely many linear facets (classes paired through
the lattice) plus an optional quadratic "light-cone" facet D.D >= 0 with a
reference interior class fixing the forward component.  T(theta, omega) is
the largest delta with theta - delta*omega still in the cone; sigma is the
smallest delta making delta*omega - theta interior.

Every surface query pairs its two classes, theta and omega (or a path's
boundary class a), into one table, each entry once and when first read:
theta.f and omega.f for each facet f, theta^2, theta.omega and omega^2, and
theta.H and omega.H for a light cone's reference class H.  Every surface
command reads its checks from that table in order; C, T, sigma and their
binding facets are read from its integers over one common denominator.

Along a path omega_t = (1-t)a + t*theta from a nef, non-interior a to an
interior theta, sigma(theta, omega_t) = 1/t for t in (0, 1], so path rows need
no derivation here (see surface._path_rows).  delta*omega_t - theta =
delta(1-t)a + (delta*t - 1)theta is interior for delta > 1/t: a positive
multiple of theta plus a class of the closed cone.  At delta = 1/t it is
((1-t)/t)a, not interior, and no smaller delta works: adding the closed-cone
class (1/t - delta)omega_t would make ((1-t)/t)a interior.  Both steps need a
convex cone: any facet model, or a light cone on a lattice of signature
(1, r-1), which documents and catalog entries are validated to have."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import BadConeModel, BadSignature, OmegaNotKahler, ZeroVolume
from .exactnum import QuadNum, quad_ratio, scale_to_integers, squarefree_decompose
from .lattice import DivClass, IntersectionLattice

LIGHT_CONE = "light-cone"


@dataclass(frozen=True)
class LightConeFacet:
    """Quadratic facet D.D >= 0, forward component fixed by a reference class."""

    reference_kahler: DivClass

    def __post_init__(self):
        if not isinstance(h := self.reference_kahler, DivClass):
            raise BadConeModel(f"light-cone reference class must be a DivClass, got {h!r}")


@dataclass(frozen=True)
class NefConeModel:
    """Linear facets (DivClasses), labelled f0, f1, ... by default, and an optional light
    cone: at least one of them, and one str label per facet, or BadConeModel."""

    facets: Sequence[DivClass]
    light_cone: LightConeFacet | None = None
    facet_labels: Sequence[str] | None = None

    def __post_init__(self):
        init = object.__setattr__
        init(self, "facets", tuple(self.facets))
        if isinstance(labels := self.facet_labels, str):
            raise BadConeModel(f"facet labels must be a list of strings, got {labels!r}")
        init(self, "facet_labels", tuple(labels) if labels is not None
             else tuple(f"f{i}" for i in range(len(self.facets))))
        if not self.facets and self.light_cone is None:
            raise BadConeModel("no facets and no light-cone facet")
        if len(self.facet_labels) != len(self.facets):
            raise BadConeModel("one label per facet required")
        for f in self.facets:
            if not isinstance(f, DivClass):
                raise BadConeModel(f"cone facets must be DivClasses, got {f!r}")
        for label in self.facet_labels:
            if not isinstance(label, str):
                raise BadConeModel(f"facet labels must be strings, got {label!r}")


@dataclass(frozen=True)
class ConeConstants:
    """Everything one pairing table of (theta, omega) determines.

    C = 2 theta.omega / omega^2; T and sigma with the facets attaining them;
    theta_kahler says whether theta is interior to the cone model.
    """

    C: Fraction
    sigma: QuadNum
    T: QuadNum
    theta_kahler: bool
    binding_facet_sigma: str
    binding_facet_T: str


def validate_cone(lattice: IntersectionLattice, cone: NefConeModel) -> None:
    """The model against the lattice: class lengths and the light-cone reference class."""
    for f in cone.facets:
        lattice.check_class(f)
    if cone.light_cone is not None:
        h = cone.light_cone.reference_kahler
        lattice.check_class(h)
        if not lattice.self_int(h) > 0:
            raise BadConeModel("light-cone reference class has non-positive square")
        for f, name in zip(cone.facets, cone.facet_labels):
            if not lattice.pair(f, h) > 0:
                raise BadConeModel(f"light-cone reference not strictly inside facet {name}")


def _constraints(lattice: IntersectionLattice, cone: NefConeModel,
                 d: DivClass) -> list[Fraction]:
    """d.f per facet f, then d^2 and d.H with a light cone: d's sides of the cone."""
    vals = [lattice.pair(f, d) for f in cone.facets]
    if cone.light_cone is not None:
        vals.append(lattice.self_int(d))
        vals.append(lattice.pair(d, cone.light_cone.reference_kahler))
    return vals


def is_nef(lattice: IntersectionLattice, cone: NefConeModel, d: DivClass) -> bool:
    """Closed-cone membership: every constraint non-negative."""
    return all(v >= 0 for v in _constraints(lattice, cone, d))


def is_kahler(lattice: IntersectionLattice, cone: NefConeModel, d: DivClass) -> bool:
    """Interior membership: every constraint strictly positive."""
    return all(v > 0 for v in _constraints(lattice, cone, d))


NOT_INTERIOR = "omega is not interior to the cone model"


def _check_omega(cone: NefConeModel, tw: int, tt: int, ww: int) -> int:
    """omega^2's checks, then the light-cone discriminant tw^2 - tt*ww (0 without one).

    tw, tt, ww are theta.omega, theta^2, omega^2 as integers over one L > 0, for
    an omega whose other sides are positive.  The discriminant is non-negative
    on every validated hyperbolic lattice (Hodge index).
    """
    if cone.light_cone is None:
        if ww == 0:
            raise ZeroVolume("omega^2 = 0")
        if ww < 0:
            raise OmegaNotKahler("omega^2 <= 0")
        return 0
    if ww <= 0:
        raise OmegaNotKahler(NOT_INTERIOR)
    disc = tw * tw - tt * ww
    if disc < 0:
        raise BadSignature("negative light-cone discriminant; lattice signature is not (1, r-1)")
    return disc


def cone_constants(lattice: IntersectionLattice, cone: NefConeModel,
                   theta: DivClass, omega: DivClass) -> ConeConstants:
    """C, T, sigma, their binding facets and theta's interiority, in one pass.

    omega is rejected, never coerced: not interior raises OmegaNotKahler,
    omega^2 = 0 raises ZeroVolume and omega^2 < 0 raises OmegaNotKahler.
    Each linear facet f bounds delta at theta.f / omega.f.  The light-cone
    facet contributes the smaller root of the delta-quadratic to T (the
    feasible component containing delta -> -infinity, where theta - delta*omega
    is deep inside the forward cone) and the larger root to sigma.  T is the
    least bound and sigma the greatest; ties break to the lowest facet index,
    light-cone last.
    """
    return _constants(PairingTable(lattice, cone, theta, omega))


@dataclass(frozen=True)
class PairingTable:
    """The pairings of theta and a one surface query reads, each paired once, when first
    read: each class's sides (see _constraints), theta^2, a.theta and a^2 (tt, at, aa)."""

    lattice: IntersectionLattice
    cone: NefConeModel
    theta: DivClass
    a: DivClass

    theta_sides = cached_property(lambda self: _constraints(self.lattice, self.cone, self.theta))
    a_sides = cached_property(lambda self: _constraints(self.lattice, self.cone, self.a))
    tt = cached_property(lambda self: self.theta_sides[-2] if self.cone.light_cone
                         else self.lattice.self_int(self.theta))
    at = cached_property(lambda self: self.lattice.pair(self.a, self.theta))
    aa = cached_property(lambda self: self.a_sides[-2] if self.cone.light_cone
                         else self.lattice.self_int(self.a))

    @cached_property
    def integers(self) -> tuple[int, list[int], list[int], int, int, int]:
        """(L, theta's sides, a's sides, at, tt, aa), as integers over L > 0, their least
        common denominator, read in that order."""
        m = len(self.theta_sides)
        den, ints = scale_to_integers([*self.theta_sides, *self.a_sides,
                                       self.at, self.tt, self.aa])
        return (den, ints[:m], ints[m:2 * m], *ints[2 * m:])


def _constants(table: PairingTable) -> ConeConstants:
    """The checks and the derivation of cone_constants for theta and omega = table.a.

    The table's integers are over one denominator L > 0, which cancels from
    every result: facet f bounds delta at theta_f/omega_f, the light-cone roots
    are (tw -+ r sqrt(d))/ww with squarefree_decompose(tw^2 - tt*ww) = (r, d), and
    C = 2tw/ww.  Facet bounds compare by cross-multiplication; the binding
    bounds and the roots then compare as QuadNums, each root with one strict
    comparison, so on a tie the facet keeps it.
    """
    cone = table.cone
    _, theta_sides, omega_sides, tw, tt, ww = table.integers
    if not all(v > 0 for v in omega_sides):
        raise OmegaNotKahler(NOT_INTERIOR)
    disc = _check_omega(cone, tw, tt, ww)
    lower = upper = None  # (theta side, omega side) of the facets binding T and sigma
    t_facet = s_facet = LIGHT_CONE
    m = len(cone.facets)  # the light cone's sides follow the facets'
    for t, w, name in zip(theta_sides[:m], omega_sides[:m], cone.facet_labels, strict=True):
        # omega's sides are positive, so t/w < t'/w' is t*w' < t'*w
        if lower is None or t * lower[1] < lower[0] * w:
            lower, t_facet = (t, w), name
        if upper is None or t * upper[1] > upper[0] * w:
            upper, s_facet = (t, w), name
    T = None if lower is None else QuadNum(Fraction(*lower))
    sigma = None if upper is None else QuadNum(Fraction(*upper))
    if cone.light_cone is not None:
        r, d = squarefree_decompose(disc)
        root = quad_ratio(tw, -r, d, ww)
        if T is None or root < T:
            T, t_facet = root, LIGHT_CONE
        root = quad_ratio(tw, r, d, ww)
        if sigma is None or root > sigma:
            sigma, s_facet = root, LIGHT_CONE
    return ConeConstants(C=Fraction(2 * tw, ww), sigma=sigma, T=T,
                         theta_kahler=all(v > 0 for v in theta_sides),
                         binding_facet_sigma=s_facet, binding_facet_T=t_facet)


def seshadri_T(lattice: IntersectionLattice, cone: NefConeModel,
               theta: DivClass, omega: DivClass) -> tuple[QuadNum, str]:
    """sup{delta : theta - delta*omega in the closed cone}, with binding facet."""
    cc = cone_constants(lattice, cone, theta, omega)
    return cc.T, cc.binding_facet_T


def sigma_inf(lattice: IntersectionLattice, cone: NefConeModel,
              theta: DivClass, omega: DivClass) -> tuple[QuadNum, str]:
    """inf{delta : delta*omega - theta in the open cone}, with binding facet."""
    cc = cone_constants(lattice, cone, theta, omega)
    return cc.sigma, cc.binding_facet_sigma

"""Nef/ample cone models and the boundary constants T and sigma.

A cone is cut out by finitely many linear facets (classes paired through
the lattice) plus an optional quadratic "light-cone" facet D.D >= 0 with a
reference interior class fixing the forward component.  T(theta, omega) is
the largest delta with theta - delta*omega still in the cone; sigma is the
smallest delta making delta*omega - theta interior.

Every surface constant comes from one table of pairings, built once per
(theta, omega) by :func:`cone_constants`: theta.f and omega.f for each
facet f, theta^2, theta.omega and omega^2, and, with a light-cone facet,
theta.H and omega.H for its reference class H.  The Kahler checks, C, T,
sigma and their binding facets are read off those scalars, so along a
segment of omegas (:func:`segment_constants`) the table is formed from
scalars and nothing is paired per point."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BadConeModel, BadSignature, OmegaNotKahler, ZeroVolume
from .exactnum import QuadNum, Scalar, as_rat, rat_sqrt
from .lattice import DivClass, IntersectionLattice

LIGHT_CONE = "light-cone"


@dataclass(frozen=True)
class LightConeFacet:
    """Quadratic facet D.D >= 0, forward component fixed by a reference class."""

    reference_kahler: DivClass


@dataclass(frozen=True)
class NefConeModel:
    facets: tuple[DivClass, ...]
    light_cone: LightConeFacet | None = None
    facet_labels: tuple[str, ...] = ()

    def __init__(self, facets: Sequence[DivClass],
                 light_cone: LightConeFacet | None = None,
                 facet_labels: Sequence[str] | None = None):
        facets = tuple(facets)
        if facet_labels is None:
            facet_labels = tuple(f"f{i}" for i in range(len(facets)))
        else:
            facet_labels = tuple(facet_labels)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "light_cone", light_cone)
        object.__setattr__(self, "facet_labels", facet_labels)


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
    """Consistency of the model itself (not of any particular class)."""
    if not cone.facets and cone.light_cone is None:
        raise BadConeModel("no facets and no light-cone facet")
    if len(cone.facet_labels) != len(cone.facets):
        raise BadConeModel("one label per facet required")
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
                 d: DivClass) -> list[Scalar]:
    """d.f per facet f, then d^2 and d.H with a light cone; cone_constants reads it too."""
    vals: list[Scalar] = [lattice.pair(f, d) for f in cone.facets]
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


def _light_cone_roots(tw: Fraction, tt: Fraction, ww: Fraction) -> tuple[QuadNum, QuadNum]:
    """Roots of (theta - delta*omega)^2 = 0 in delta, smaller first.

    Takes theta.omega, theta^2 and omega^2; requires omega^2 > 0.  The
    discriminant is non-negative for every validated hyperbolic lattice
    (Hodge index), so a negative value means the lattice was never validated.
    """
    disc = tw * tw - tt * ww
    if disc < 0:
        raise BadSignature("negative light-cone discriminant; lattice signature is not (1, r-1)")
    r = rat_sqrt(disc)
    return (QuadNum((tw - r.a) / ww, -r.b / ww, r.d),
            QuadNum((tw + r.a) / ww, r.b / ww, r.d))


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
    theta_sides = _sides(lattice, cone, theta)
    omega_sides = _sides(lattice, cone, omega)
    tw = as_rat(lattice.pair(theta, omega))
    tt = _square(lattice, cone, theta, theta_sides)
    ww = _square(lattice, cone, omega, omega_sides)
    return _constants(cone, theta_sides, omega_sides, tt, tw, ww)


def segment_constants(lattice: IntersectionLattice, cone: NefConeModel, theta: DivClass,
                      a: DivClass, ts: Iterable[Fraction]) -> Iterator[ConeConstants]:
    """cone_constants(theta, omega_t) for omega_t = (1-t)a + t*theta at each t.

    a and theta are paired once; every pairing of omega_t is then a
    polynomial in t (omega_t.f, omega_t.H and theta.omega_t affine, omega_t^2
    quadratic), so each t costs only Fraction arithmetic and no pairing, and
    goes through the same checks and derivation as cone_constants.
    """
    k = len(cone.facets)
    theta_sides, a_sides = _sides(lattice, cone, theta), _sides(lattice, cone, a)
    at = as_rat(lattice.pair(a, theta))
    tt, aa = _square(lattice, cone, theta, theta_sides), _square(lattice, cone, a, a_sides)
    # omega_t.x = a.x + t (theta - a).x, and
    # omega_t^2 = a^2 + t (2 a.theta - 2 a^2) + t^2 (a^2 - 2 a.theta + theta^2)
    slopes = [y - x for x, y in zip(a_sides, theta_sides)]
    tw1, ww1, ww2 = tt - at, 2 * (at - aa), aa - 2 * at + tt
    for t in ts:
        omega_sides = [x + t * dx for x, dx in zip(a_sides, slopes)]
        tw = at + t * tw1
        ww = aa + t * (ww1 + t * ww2)
        if cone.light_cone is not None:
            omega_sides[k] = ww  # the light-cone side is omega_t^2, not an affine blend
        yield _constants(cone, theta_sides, omega_sides, tt, tw, ww)


def _sides(lattice: IntersectionLattice, cone: NefConeModel, d: DivClass) -> list[Fraction]:
    return [as_rat(v) for v in _constraints(lattice, cone, d)]


def _square(lattice: IntersectionLattice, cone: NefConeModel, d: DivClass,
            sides: list[Fraction]) -> Fraction:
    """d^2, read from d's sides when the light cone already paired it."""
    if cone.light_cone is None:
        return as_rat(lattice.self_int(d))
    return sides[len(cone.facets)]


def _constants(cone: NefConeModel, theta_sides: list[Fraction], omega_sides: list[Fraction],
               tt: Fraction, tw: Fraction, ww: Fraction) -> ConeConstants:
    """The checks and the derivation of cone_constants, from paired values only.

    Takes theta's and omega's sides (see _constraints), theta^2, theta.omega
    and omega^2.  Linear bounds compare as Fractions; each light-cone root
    enters with one strict comparison, so on a tie the facet keeps it.
    """
    if not all(v > 0 for v in omega_sides):
        raise OmegaNotKahler("omega is not interior to the cone model")
    if ww == 0:
        raise ZeroVolume("omega^2 = 0")
    if ww < 0:
        raise OmegaNotKahler("omega^2 <= 0")
    lower = upper = None
    t_facet = s_facet = LIGHT_CONE
    for t, w, name in zip(theta_sides, omega_sides, cone.facet_labels):
        bound = t / w
        if lower is None or bound < lower:
            lower, t_facet = bound, name
        if upper is None or bound > upper:
            upper, s_facet = bound, name
    T = QuadNum(lower) if lower is not None else None
    sigma = QuadNum(upper) if upper is not None else None
    if cone.light_cone is not None:
        lo, hi = _light_cone_roots(tw, tt, ww)
        if T is None or lo < T:
            T, t_facet = lo, LIGHT_CONE
        if sigma is None or hi > sigma:
            sigma, s_facet = hi, LIGHT_CONE
    if T is None:
        raise BadConeModel("no facets and no light-cone facet")
    return ConeConstants(C=2 * tw / ww, sigma=sigma, T=T,
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

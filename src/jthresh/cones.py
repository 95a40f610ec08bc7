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
sigma and their binding facets are read off those scalars."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

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
    root = rat_sqrt(disc)
    lo = (QuadNum(tw) - root) / ww
    hi = (QuadNum(tw) + root) / ww
    return lo, hi


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
    k = len(cone.facets)
    theta_sides = [as_rat(v) for v in _constraints(lattice, cone, theta)]
    omega_sides = [as_rat(v) for v in _constraints(lattice, cone, omega)]
    tw = as_rat(lattice.pair(theta, omega))
    if cone.light_cone is None:
        tt, ww = as_rat(lattice.self_int(theta)), as_rat(lattice.self_int(omega))
    else:
        tt, ww = theta_sides[k], omega_sides[k]
    if not all(v > 0 for v in omega_sides):
        raise OmegaNotKahler("omega is not interior to the cone model")
    if ww == 0:
        raise ZeroVolume("omega^2 = 0")
    if ww < 0:
        raise OmegaNotKahler("omega^2 <= 0")
    bounds = [(QuadNum(t / w), name)
              for t, w, name in zip(theta_sides[:k], omega_sides[:k], cone.facet_labels)]
    lower, upper = bounds, bounds
    if cone.light_cone is not None:
        lo, hi = _light_cone_roots(tw, tt, ww)
        lower, upper = bounds + [(lo, LIGHT_CONE)], bounds + [(hi, LIGHT_CONE)]
    t_val, t_facet = min(lower, key=itemgetter(0))
    s_val, s_facet = max(upper, key=itemgetter(0))
    return ConeConstants(C=2 * tw / ww, sigma=s_val, T=t_val,
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

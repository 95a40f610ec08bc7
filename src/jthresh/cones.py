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
binding facets are read from its integers over one common denominator, and
along a path from the integers of its two ends."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BadConeModel, BadParams, BadSignature, OmegaNotKahler, ZeroVolume
from .exactnum import (QuadNum, Scalar, _sign, as_rat, scale_to_integers,
                       squarefree_decompose)
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
    """d.f per facet f, then d^2 and d.H with a light cone: d's sides of the cone."""
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


def _radical(tw: int, tt: int, ww: int) -> tuple[int, int]:
    """(r, d) with tw^2 - tt*ww = r^2 d and d square-free, for integer tw, tt, ww.

    The discriminant is non-negative for every validated hyperbolic lattice
    (Hodge index), so a negative value means the lattice was never validated.
    """
    disc = tw * tw - tt * ww
    if disc < 0:
        raise BadSignature("negative light-cone discriminant; lattice signature is not (1, r-1)")
    return squarefree_decompose(disc)


def _root(n: int, tw: int, ww: int, r: int, d: int) -> QuadNum:
    """The light-cone root n(tw + r sqrt(d))/ww: the larger one, or the smaller one for -r."""
    if d <= 1:  # a square discriminant (r = 0 when d = 0): the root is rational
        return QuadNum(Fraction(n * (tw + r), ww))
    return QuadNum(Fraction(n * tw, ww), Fraction(n * r, ww), d)


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
    light-cone last.  This is the path row of theta and a = omega at t = 0.
    """
    return next(_table_rows(PairingTable(lattice, cone, theta, omega), [Fraction(0)]))


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


def _rational(v: Scalar, refusal: str) -> Fraction:
    """v as a Fraction; an irrational v is refused with BadParams(refusal + v)."""
    if isinstance(v, QuadNum) and not v.is_rational:
        raise BadParams(f"{refusal}{v}")
    return as_rat(v)


def _table_rows(table: PairingTable, ts: Iterable[Fraction]) -> Iterator[ConeConstants]:
    """cone_constants(theta, omega_t) for omega_t = (1-t)a + t*theta at each t.

    The table is read (theta's sides, a's sides, a.theta, theta^2, a^2) and
    written over one common denominator L; an irrational entry is refused as
    it is read, naming theta, or omega for a's entries and a.theta.  At t = j/n
    every pairing of omega_t is an integer over L*n (omega_t^2 over L*n^2)
    formed from those integers, and the light-cone discriminant is (n-j)^2
    times that of a and theta, so its square-free part is found once.
    """
    cone, m, k = table.cone, len(table.theta_sides), len(table.cone.facets)
    theta, omega = "theta needs rational pairings, got ", "omega needs rational pairings, got "
    values = [_rational(v, theta) for v in table.theta_sides]
    values += [_rational(v, omega) for v in table.a_sides]
    values += [_rational(table.at, omega), _rational(table.tt, theta), _rational(table.aa, omega)]
    _, ints = scale_to_integers(values)
    theta_sides, a_sides, (at, tt, aa) = ints[:m], ints[m:2 * m], ints[2 * m:]
    # a negative discriminant is left to each point, where _constants refuses it
    # after omega's checks (at t = 1 it is 0)
    radical = None
    if cone.light_cone is not None and at * at - tt * aa >= 0:
        radical = _radical(at, tt, aa)
    for t in ts:
        j, n = t.numerator, t.denominator
        b = n - j
        omega_sides = [b * x + j * y for x, y in zip(a_sides, theta_sides)]
        tw = b * at + j * tt
        ww = b * (b * aa + 2 * j * at) + j * j * tt
        if cone.light_cone is not None:
            omega_sides[k] = ww  # the light-cone side is omega_t^2, not an affine blend
        yield _constants(cone, theta_sides, omega_sides, tt, tw, ww, n,
                         None if radical is None else (abs(b) * radical[0], radical[1]))


def _constants(cone: NefConeModel, theta_sides: list[int], omega_sides: list[int],
               tt: int, tw: int, ww: int, n: int,
               radical: tuple[int, int] | None) -> ConeConstants:
    """The checks and the derivation of cone_constants, in integers.

    The scalars are integers over one denominator L > 0 and a point t = j/n:
    theta's sides (see _constraints) are theta_sides/L, omega's sides are
    omega_sides/(L*n) (its light-cone side, omega^2, only up to a positive
    factor), theta^2 = tt/L, theta.omega = tw/(L*n) and omega^2 = ww/(L*n^2).
    L cancels from every result: facet f bounds delta at n*theta_f/omega_f,
    the light-cone roots are n(tw -+ r sqrt(d))/ww with (r, d) = radical, by
    default _radical(tw, tt, ww), and C = 2n*tw/ww.  Bounds compare by
    cross-multiplication and a root against a bound by the sign of one
    a + b sqrt(d); each root enters with one strict comparison, so on a tie
    the facet keeps it.  Only the reported C, T and sigma become Fractions.
    """
    if not all(v > 0 for v in omega_sides):
        raise OmegaNotKahler("omega is not interior to the cone model")
    if ww == 0:
        raise ZeroVolume("omega^2 = 0")
    if ww < 0:
        raise OmegaNotKahler("omega^2 <= 0")
    lower = upper = None  # (theta side, omega side) of the facets binding T and sigma
    t_facet = s_facet = LIGHT_CONE
    for t, w, name in zip(theta_sides, omega_sides, cone.facet_labels):
        # omega's sides are positive, so t/w < t'/w' is t*w' < t'*w
        if lower is None or t * lower[1] < lower[0] * w:
            lower, t_facet = (t, w), name
        if upper is None or t * upper[1] > upper[0] * w:
            upper, s_facet = (t, w), name
    T = sigma = None
    if cone.light_cone is not None:
        r, d = _radical(tw, tt, ww) if radical is None else radical
        # n(tw -+ r sqrt(d))/ww against n*t/w: the sign of (tw*w - t*ww) -+ r*w sqrt(d)
        if lower is None or _sign(tw * lower[1] - lower[0] * ww, -r * lower[1], d) < 0:
            T, t_facet = _root(n, tw, ww, -r, d), LIGHT_CONE
        if upper is None or _sign(tw * upper[1] - upper[0] * ww, r * upper[1], d) > 0:
            sigma, s_facet = _root(n, tw, ww, r, d), LIGHT_CONE
    if T is None:
        if lower is None:
            raise BadConeModel("no facets and no light-cone facet")
        T = QuadNum(Fraction(n * lower[0], lower[1]))
    if sigma is None:
        sigma = QuadNum(Fraction(n * upper[0], upper[1]))
    return ConeConstants(C=Fraction(2 * n * tw, ww), sigma=sigma, T=T,
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

"""Surface-level threshold computations.

The central quantity is the formula value c = C(theta,omega) - sigma, the
optimal coercivity constant of the twisted energy against the reference
norm functional.  Positivity of c is equivalent to solvability; when the
twist class is interior the value is certified exactly, otherwise the
result is only conditional and the status says so.  Everything is exact:
rationals in, rationals or quadratic irrationals out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

# seshadri_T/sigma_inf re-exported beside surface_gamma (perfbench's tracer rebinds them)
from .cones import (ConeConstants, NefConeModel, PairingTable, _check_omega, _constants,
                    cone_constants, seshadri_T, sigma_inf)  # noqa: F401
from .errors import (ANotOnBoundary, BadConeModel, BadParams, NegativeSelfIntersection,
                     ThetaNotKahler, ZeroVolume)
from .exactnum import QuadNum, exact, int_between, rat_sqrt
from .lattice import DivClass, IntersectionLattice

CSCK_CAVEAT = "requires discrete automorphism group"
# largest path grid; a row is one integer derivation plus its rendering, and
# a 100 000-row sweep takes about 0.7 s in csv and 0.9 s in json or text
# (`jthresh path` on the blowup_path export, Intel Xeon, 2 vCPU, Python 3.11.7)
MAX_SAMPLES = 100_000


class Status(str, enum.Enum):
    """What the computed value certifies.

    ExactUnstable    interior twist, value <= 0: the threshold equals the value.
    Solvable         interior twist, value > 0: the equation is solvable.
    ConditionalExact non-interior twist, value < T: consistent, not certified.
    Indeterminate    non-interior twist, value >= T: nothing is certified.
    """

    EXACT_UNSTABLE = "ExactUnstable"
    SOLVABLE = "Solvable"
    CONDITIONAL_EXACT = "ConditionalExact"
    INDETERMINATE = "Indeterminate"

    @classmethod
    def of(cls, value: QuadNum | Fraction, T: QuadNum | Fraction | None) -> "Status":
        """The status of a value: T is None for an interior twist, else the bound T."""
        if T is None:
            return cls.SOLVABLE if value > 0 else cls.EXACT_UNSTABLE
        return cls.CONDITIONAL_EXACT if value < T else cls.INDETERMINATE


@dataclass(frozen=True)
class ThresholdResult:
    value: QuadNum
    status: Status
    audit: ConeConstants


@dataclass(frozen=True)
class PathAnalysis:
    """Sign analysis of the value along omega_t = (1-t)a + t*theta.

    numerator holds R's coefficients, lowest degree first, without trailing
    zeros; R > 0 exactly on (solvable_from, 1], and nowhere when it is None.
    """

    numerator: tuple[Fraction, ...]
    a_selfint: Fraction
    theta_selfint: Fraction
    solvable_from: QuadNum | None
    pairings: PairingTable = field(repr=False, compare=False)  # read again by _path_rows


@dataclass(frozen=True)
class StableSubcone:
    """Solvable polarizations between the twist and a positive boundary class.

    boundary_ray holds the coordinates of (lambda*a + theta)/2 as QuadNums: lambda
    may be irrational, and a DivClass holds Fractions only.
    """

    boundary_t: Fraction
    normalization: QuadNum
    boundary_ray: tuple[QuadNum, ...]


@dataclass(frozen=True)
class PerfectCone:
    """Distinguished outcome: a^2 = 0 certifies the whole path.

    Returned instead of a subcone when the boundary class a has zero square:
    then R(t) = t^2 theta^2 > 0, so every omega_t on (0, 1] is solvable.
    """

    note: str = "boundary class has zero square: every interior pair is solvable"


@dataclass(frozen=True)
class CsckReport:
    holds: bool
    lhs: QuadNum
    rhs: Fraction
    caveat: str = CSCK_CAVEAT


def c_constant(lattice: IntersectionLattice, theta: DivClass,
               omega: DivClass) -> Fraction:
    """The topological constant 2 (theta.omega) / omega^2."""
    vol = lattice.self_int(omega)
    if vol == 0:
        raise ZeroVolume("omega^2 = 0")
    return 2 * lattice.pair(theta, omega) / vol


def surface_gamma(lattice: IntersectionLattice, cone: NefConeModel,
                  theta: DivClass, omega: DivClass) -> ThresholdResult:
    """Formula value C - sigma with its certification status and audit data."""
    audit = cone_constants(lattice, cone, theta, omega)
    value = QuadNum(audit.C) - audit.sigma
    status = Status.of(value, None if audit.theta_kahler else audit.T)
    return ThresholdResult(value=value, status=status, audit=audit)


def is_solvable(lattice: IntersectionLattice, cone: NefConeModel,
                theta: DivClass, omega: DivClass) -> bool:
    """Solvability criterion: theta interior and the formula value C - sigma positive.

    For a Kahler omega this is C*omega - theta interior to the cone.  omega is
    checked as surface_gamma checks it, after theta, on the same pairing table.
    """
    table = PairingTable(lattice, cone, theta, omega)
    if not all(v > 0 for v in table.theta_sides):
        raise ThetaNotKahler("theta is not interior to the cone model")
    audit = _constants(table)
    return audit.sigma < audit.C


def _boundary_path(lattice: IntersectionLattice, cone: NefConeModel,
                   theta: DivClass, a: DivClass) -> PairingTable:
    """The pairing table of theta and a, after a path's checks on them."""
    table = PairingTable(lattice, cone, theta, a)
    if not all(v > 0 for v in table.theta_sides):
        raise ThetaNotKahler("theta must be interior to the cone model")
    if not all(v >= 0 for v in table.a_sides) or all(v > 0 for v in table.a_sides):
        raise ANotOnBoundary("class must be nef but not interior")
    if table.aa < 0:
        raise NegativeSelfIntersection(f"a^2 = {table.aa} < 0")
    return table


def path_R(lattice: IntersectionLattice, cone: NefConeModel,
           theta: DivClass, a: DivClass) -> PathAnalysis:
    """Numerator of the value along omega_t = (1-t)a + t*theta, and its sign set.

    R(t) = t^2 theta^2 - (1-t)^2 a^2 is positive on (0, 1] exactly where
    t*sqrt(theta^2) > (1-t)*sqrt(a^2): nowhere when theta^2 <= 0, everywhere when
    a^2 = 0, else on (1/(1+lambda), 1] for lambda = sqrt(theta^2/a^2).  It keeps its pairings.
    """
    table = _boundary_path(lattice, cone, theta, a)
    t2, a2, solvable_from = table.tt, table.aa, None
    if t2 > 0:
        solvable_from = QuadNum(0) if a2 == 0 else 1 / (1 + rat_sqrt(t2 / a2))
    # (-a^2, 2a^2, theta^2 - a^2) without trailing zeros; a^2 >= 0 was checked
    numerator = (-a2, 2 * a2, t2 - a2) if t2 != a2 else (-a2, 2 * a2) if a2 else ()
    return PathAnalysis(numerator=numerator, a_selfint=a2, theta_selfint=t2,
                        solvable_from=solvable_from, pairings=table)


def stable_subcone(lattice: IntersectionLattice, cone: NefConeModel,
                   theta: DivClass, a: DivClass) -> StableSubcone | PerfectCone:
    """Boundary data of the solvable subcone spanned between theta and a.

    With lambda = sqrt(theta^2/a^2), (lambda*a)^2 = theta^2 and the segment from
    lambda*a to theta is solvable for t in (1/2, 1]; the ray is its class at t = 1/2,
    (lambda*a + theta)/2 = (1+lambda)/2 omega_t at path_R's endpoint t = 1/(1+lambda).
    A boundary class with zero square yields the distinguished PerfectCone outcome;
    theta^2 <= 0 (a facet model allows it) leaves nothing solvable: BadConeModel.
    """
    table = _boundary_path(lattice, cone, theta, a)
    if not table.tt > 0:
        raise BadConeModel(f"theta^2 = {table.tt} <= 0 although theta is interior"
                           " to the cone model")
    if table.aa == 0:
        return PerfectCone()
    lam = rat_sqrt(table.tt / table.aa)
    half = Fraction(1, 2)
    ray = tuple(half * (lam * x + y) for x, y in zip(a.coords, theta.coords))
    return StableSubcone(boundary_t=half, normalization=lam, boundary_ray=ray)


def csck_criterion(lattice: IntersectionLattice, cone: NefConeModel,
                   minus_c1: DivClass, omega: DivClass,
                   alpha: Fraction) -> CsckReport:
    """Numerical existence criterion min(C - sigma, T) > -(3/2)*alpha.

    alpha, an int or a Fraction, is the user-supplied integrability exponent of
    the polarization; it is never computed here.  The report carries the
    discrete-automorphism caveat verbatim.
    """
    if not exact(alpha, "alpha") > 0:
        raise BadParams("alpha must be positive")
    res = surface_gamma(lattice, cone, minus_c1, omega)
    lhs = min(res.value, res.audit.T)
    rhs = -Fraction(3, 2) * alpha
    return CsckReport(holds=lhs > rhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class PathSample:
    """One row of a path sweep at rational t: every column is rational."""

    t: Fraction
    r_numerator: Fraction
    gamma: Fraction
    solvable: bool


def _path_rows(analysis: PathAnalysis, n: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(L*n^2, [(k, L*n^2*R(k/n), gp, gq) for k = 1..n]): the count's check, then each row's.

    With b = n - k and tt, at, aa the pairing table's theta^2, a.theta and a^2
    over its denominator L, L*n^2*omega_t^2 = b(b*aa + 2k*at) + k^2*tt and
    L*n^2*R(t) = k^2*tt - b^2*aa; gamma(t) = R(t)/(t*omega_t^2) = gp/gq with
    gp = n*L*n^2*R(t) and gq = k*L*n^2*omega_t^2 > 0, as sigma = 1/t (see cones);
    a caller reduces it once.  omega_t's other sides are positive, so a row runs
    cone_constants' checks of omega_t^2 and, with a light cone, of the
    discriminant.  Every gamma exists before a caller builds row strings: a
    row-by-row loop raised surface_path's peak RSS ~3%.
    """
    int_between(n, "samples", 1, MAX_SAMPLES)
    den, _, _, at, tt, aa = analysis.pairings.integers
    rows = []
    for k in range(1, n + 1):
        b = n - k
        ww = b * (b * aa + 2 * k * at) + k * k * tt
        _check_omega(analysis.pairings.cone, b * at + k * tt, tt, ww)
        num = k * k * tt - b * b * aa
        rows.append((k, num, n * num, k * ww))  # k * ww > 0 past the checks
    return den * n * n, rows


def sample_path(lattice: IntersectionLattice, cone: NefConeModel, theta: DivClass,
                a: DivClass, samples: int) -> list[PathSample]:
    """Evaluate the path at t = k/samples, k = 1..samples, in order.

    path_R's checks on theta and a come before the count's, as in the path command.
    """
    scale, rows = _path_rows(path_R(lattice, cone, theta, a), samples)
    return [PathSample(t=Fraction(k, samples), r_numerator=Fraction(num, scale),
                       gamma=Fraction(gp, gq), solvable=num > 0) for k, num, gp, gq in rows]

"""Smooth complete fans and exact intersection numbers of invariant divisors.

A :class:`Fan` is given by primitive integer rays and the index sets of its
maximal cones; a divisor class is a :class:`DivClass`, one coefficient per
ray.  The constructor validates: unimodularity of every maximal cone, the
wall condition (every ridge shared by exactly two maximal cones, lying on
opposite sides) and that the generic point c below lies in exactly one
maximal cone; together these certify a smooth complete fan with compatible
faces.  Validation finds every maximal cone's dual basis with one
elimination per fan (the fraction-free ``_eliminate``, once per connected
component), then one update per wall crossing (Cox-Little-Schenck, 6.4),
which also decides that wall's unimodularity and sides (``_wall_walk``).
The ``Fan`` keeps those bases and their weights at c; it holds no query state.

Intersection numbers come from localization at the torus-fixed points
(Brion; Cox-Little-Schenck, ch. 12-13).  At the fixed point of a maximal cone
sigma the tangent weights are sigma's dual basis (m_rho) and D = sum a_j D_j
restricts to sum_{rho in sigma} a_rho m_rho.  For every cone tau and classes
D_1..D_p, p = dim V(tau), int_{V(tau)} D_1...D_p is the sum over maximal
sigma containing tau of prod_k <D_k|sigma, c> / prod_{rho in sigma - tau} <m_rho, c>,
for any c with no <m_rho, c> = 0; c = (1, N, ..., N^(n-1)) with
N = 1 + max |dual entry| is one, since base-N digits are unique.  These
weights <m_rho, c> are the ones validation counts cones with.  One pass
over (maximal cone, face) pairs gives int_V omega^p and int_V theta omega^(p-1)
on every orbit closure (``_orbit_integrals``) as integer sums over one common
denominator D = lcm over sigma of |prod weights|, each class scaled to
integers.  ``toric_gamma`` reads the ampleness checks, T and the curve
attaining it, C and every orbit score from that one integer table; D cancels
from each ratio, so each reported rational is one Fraction of two integers.
A document fan with more than ``MAX_FIXED_POINT_TERMS`` (maximal cone, face)
pairs is refused before validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, takewhile
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import (BadFace, FanInvalid, JThreshError, NonPrimitiveRay, NotComplete,
                     NotSmooth, OmegaNotAmpleOnOrbit, OmegaNotKahler, WrongArity)
from .exactnum import exact_int
from .lattice import DivClass
from .surface import Status


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[int], int, list[list[int]]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns the pivot columns, the last pivot d and the reduced rows: d * the
    reduced row echelon form, so every pivot entry is d.  Each division is
    exact, since every entry stays a minor of the input.  For [A | I] with A
    square and invertible, |d| = |det A| and the right block is d * A^-1.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    d = 1
    for col in range(len(m[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top, new = m[r], m[r][col]
        m = [row if i == r else [(new * x - row[col] * y) // d for x, y in zip(row, top)]
             for i, row in enumerate(m)]
        d = new
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots, d, m


Dual = tuple[tuple[int, ...], ...]

# A query's localization pass has len(max_cones) * 2^dim fixed-point terms, one
# per (maximal cone, face), and its time follows that count.  Documents over
# the cap are refused before validation.  Sized with ``cli.run`` on toric-gamma
# (Xeon, 2 vCPU, Python 3.11): P^14 (245760 terms) takes 1.3-1.5 s, (P^1)^9
# (262144 terms) 0.7-1.1 s; P^15 and (P^1)^10 have twice as many terms or more.
MAX_FIXED_POINT_TERMS = 2 ** 18


def _unimodular_dual(rays: Sequence[Sequence[int]]) -> Dual | None:
    """Dual basis of n rays in Z^n, <m_k, rays[l]> = [k == l]; None unless |det| = 1."""
    n = len(rays)
    pivots, d, rows = _eliminate([list(col) + [int(i == j) for j in range(n)]
                                  for i, col in enumerate(zip(*rays))])
    if pivots[-1] != n - 1 or abs(d) != 1:
        return None
    return tuple(tuple(d * x for x in row[n:]) for row in rows)


def _dot(m: Sequence[int], u: Sequence[int]) -> int:
    return sum(map(mul, m, u))


def _rows(value: object, what: str, entry: str,
          error: type[JThreshError] = FanInvalid) -> tuple[tuple[int, ...], ...]:
    """A list or tuple of lists or tuples of ints, as tuples; anything else raises error."""
    sequence = (list, tuple)
    if not isinstance(value, sequence) or not all(isinstance(row, sequence) for row in value):
        raise error(f"fan {what} must be a list of integer lists, got {value!r}")
    return tuple([tuple([exact_int(x, entry, error) for x in row]) for row in value])


@dataclass(frozen=True, init=False, repr=False)
class Fan:
    """Rays and maximal cones of a smooth complete fan, certified when built.

    Ray indices are 0-based everywhere, including in documents.  The
    constructor refuses non-integer data and runs :func:`validate_fan`, so
    every ``Fan`` is valid.  It is a frozen dataclass, equal and hashed on
    dim, rays and max_cones, and also keeps the maximal cones' dual bases and
    their weights at the generic point c.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    _duals: tuple[Dual, ...] = field(compare=False)
    _weights: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, dim: int, rays: Sequence[Sequence[int]],
                 max_cones: Sequence[Sequence[int]]):
        init = object.__setattr__
        init(self, "dim", exact_int(dim, "fan dim", FanInvalid))
        init(self, "rays", _rows(rays, "rays", "fan ray entry"))
        init(self, "max_cones", tuple(tuple(sorted(cone)) for cone
                                      in _rows(max_cones, "max_cones", "fan cone index")))
        duals, weights = validate_fan(self)
        init(self, "_duals", duals)
        init(self, "_weights", weights)

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return Fan, (self.dim, self.rays, self.max_cones)

    # -- structure queries -------------------------------------------------

    def is_face(self, rays: frozenset[int]) -> bool:
        """True if the index set spans a cone of the fan (simplicial faces)."""
        return any(rays.issubset(mc) for mc in self.max_cones)

    def rewrite_terms(self, sigma: frozenset[int], i: int) -> tuple[tuple[int, int], ...]:
        """Replacement of divisor i, repeated inside sigma, by outside divisors.

        Uses the character m with <m, u_i> = -1 and <m, u_k> = 0 for the
        other rays of the ambient maximal cone, the lex-least one containing
        sigma (minus u_i's dual vector); the relation sum_j <m,u_j> D_j then
        expresses D_i through rays outside it.
        """
        ambient = min(((c, d) for c, d in zip(self.max_cones, self._duals)
                       if sigma.issubset(c)), default=None)
        if ambient is None:
            raise BadFace(f"rays {sorted(sigma)} do not span a cone of the fan")
        smax, dual = ambient
        m = dual[smax.index(i)]
        coeffs = ((j, -_dot(m, self.rays[j])) for j in range(len(self.rays)) if j not in smax)
        return tuple((j, c) for j, c in coeffs if c != 0)

    def __repr__(self) -> str:
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


def validate_fan(fan: Fan) -> tuple[tuple[Dual, ...], tuple[tuple[int, ...], ...]]:
    """Smoothness, completeness, face compatibility; each maximal cone's dual basis and weights.

    The first fault is reported: rays, then per cone in cone order its
    arity, indices and unimodularity, duplicate cones, unused rays, walls in
    ridge order and last the count of maximal cones containing c.  Both
    results follow cone order; a cone's weights are <m_rho, c> for its dual
    basis (m_rho), with c = (1, N, ..., N^(n-1)) and N = 1 + max |dual entry|.
    No weight is 0, since base-N digits are unique, so c is generic for
    every maximal cone.  Under the wall condition, once there is a cone,
    every generic point lies in the same number of maximal cones, at least
    one since each wall is covered from both sides; it must be one.
    """
    n = fan.dim
    if n < 1:
        raise FanInvalid("dimension must be positive")
    if len(set(fan.rays)) != len(fan.rays):
        raise FanInvalid("duplicate rays")
    for ray in fan.rays:
        if len(ray) != n:
            raise FanInvalid(f"ray {ray} has wrong length")
        if all(x == 0 for x in ray):
            raise NonPrimitiveRay("zero ray")
        g = gcd(*ray)
        if g != 1:
            raise NonPrimitiveRay(f"ray {ray} has content {g}")
    # certify the cones up to the first one of the wrong arity or with a
    # missing ray: an earlier cone that is not unimodular is met first
    cones = list(takewhile(lambda c: len(c) == len(set(c)) == n
                           and all(0 <= i < len(fan.rays) for i in c), fan.max_cones))
    ridges: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for cone in cones:
        for p, drop in enumerate(cone):
            ridges.setdefault(cone[:p] + cone[p + 1:], []).append((cone, drop))
    duals, sides = _wall_walk(fan.rays, cones, ridges)
    used: set[int] = set()
    for cone in fan.max_cones:
        if len(cone) != n or len(set(cone)) != n:
            raise NotSmooth(f"maximal cone {cone} does not have {n} distinct rays")
        if not all(0 <= i < len(fan.rays) for i in cone):
            raise FanInvalid(f"cone {cone} references missing rays")
        used.update(cone)
        if duals[cone] is None:
            raise NotSmooth(f"maximal cone {cone} is not unimodular")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        raise FanInvalid("duplicate maximal cones")
    if used != set(range(len(fan.rays))):
        raise FanInvalid("unused rays")

    # Wall condition: every ridge in exactly two maximal cones, opposite sides (a_d < 0).
    for ridge, owners in ridges.items():
        if len(owners) == 1:
            raise NotComplete(f"ridge {ridge} lies on the boundary of the support")
        if len(owners) > 2:
            raise BadFace(f"ridge {ridge} shared by {len(owners)} maximal cones")
        if sides[ridge] >= 0:
            raise BadFace(f"maximal cones at ridge {ridge} are on the same side")

    bases = tuple(duals[cone] for cone in cones)
    if not bases:  # before c, whose n entries cost time and memory linear in dim
        raise NotComplete("generic point not covered by any maximal cone")
    base = 1 + max(abs(x) for dual in bases for m in dual for x in m)
    c = [base ** i for i in range(n)]
    weights = tuple(tuple(_dot(m, c) for m in dual) for dual in bases)
    if sum(min(w) > 0 for w in weights) > 1:
        raise BadFace("maximal cones overlap in their interiors")
    return bases, weights


def _wall_walk(rays: Sequence[Sequence[int]], cones: Sequence[tuple[int, ...]],
               ridges: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]]
               ) -> tuple[dict[tuple[int, ...], Dual | None], dict[tuple[int, ...], int]]:
    """Each cone's dual basis (None if not unimodular), and a_d at each wall of two cones.

    One elimination starts each connected component; every other cone is
    reached across a wall.  At the wall tau of sigma = tau + u_d and
    sigma' = tau + u_e, let a_k = <m_k, u_e> in sigma's basis: |det sigma'| = |a_d|,
    so sigma' is unimodular exactly when a_d = +-1, and then its basis is
    m'_e = a_d m_d, m'_k = m_k - a_d a_k m_d.  Unimodular cones lie on opposite
    sides exactly when a_d = -1; m'_k = m_k when a_k = 0.  A wall into a cone
    that has its basis needs a_d alone.  Raises nothing: the caller reports
    the faults in its own order.
    """
    duals: dict[tuple[int, ...], Dual | None] = {}
    sides: dict[tuple[int, ...], int] = {}
    for start in cones:
        if start in duals:
            continue
        duals[start] = _unimodular_dual([rays[i] for i in start])
        stack = [start] if duals[start] is not None else []
        while stack:
            cone = stack.pop()
            dual = duals[cone]
            for p, drop in enumerate(cone):
                ridge = cone[:p] + cone[p + 1:]
                owners = ridges[ridge]
                if len(owners) != 2 or ridge in sides:
                    continue
                other, extra = owners[owners[0] == (cone, drop)]
                u, m_d = rays[extra], dual[p]
                if other in duals:
                    sides[ridge] = _dot(m_d, u)
                    continue
                a = [_dot(m, u) for m in dual]
                a_d = sides[ridge] = a[p]
                if abs(a_d) != 1:
                    duals[other] = None
                    continue
                basis = {i: tuple(x - a_d * a_k * y for x, y in zip(m, m_d)) if a_k else m
                         for i, m, a_k in zip(cone, dual, a)}
                basis[extra] = tuple(a_d * y for y in m_d)
                duals[other] = tuple(basis[i] for i in other)
                stack.append(other)
    return duals, sides


class Table(NamedTuple):
    """Integer localization sums of theta = Theta/q_theta and omega = Omega/q_omega.

    ``rows[tau]`` is [V, M] for the cone tau, p = dim V(tau):
    int_V(tau) omega^p = V / (D q_omega^p) and
    int_V(tau) theta omega^(p-1) = M / (D q_theta q_omega^(p-1)), with M = 0
    when p = 0.  D, q_theta and q_omega come from ``_localization``.
    """

    den: int
    q_theta: int
    q_omega: int
    rows: dict[tuple[int, ...], list[int]]


def _localization(fan: Fan, classes: Sequence[DivClass]) -> tuple[int, list[int], list[tuple]]:
    """D, each class's q and, per maximal cone sigma, (sigma, weights w, K_sigma, <N|sigma, c>).

    w are the weights ``validate_fan`` stored, D = lcm over sigma of |prod w|
    and K_sigma = D // prod w; a class is N/q with N integral and q > 0
    (``DivClass.integers``), and the last item holds each class's integer value.
    """
    for cls in classes:
        if len(cls) != len(fan.rays):
            raise WrongArity("one coefficient per ray required")
    scales, ints = [cls.integers[0] for cls in classes], [cls.integers[1] for cls in classes]
    products = [prod(w) for w in fan._weights]
    den = lcm(*products)
    return den, scales, [(cone, w, den // p, [sum(x[j] * y for j, y in zip(cone, w)) for x in ints])
                         for cone, w, p in zip(fan.max_cones, fan._weights, products)]


def _orbit_integrals(fan: Fan, theta: DivClass, omega: DivClass,
                     sizes: Sequence[int] | None = None) -> Table:
    """The integer sums V, M of int_V omega^p and int_V theta omega^(p-1) on every V(tau).

    tau runs over the cones with len(tau) in ``sizes`` (default: all, the
    empty cone included), p = dim V(tau).  Each maximal cone sigma adds to
    each of its faces tau, in integers over the common denominator D of
    ``_localization``: K_sigma V_sigma^p prod_{rho in tau} w_rho to V and
    K_sigma T_sigma V_sigma^(p-1) prod_{rho in tau} w_rho to M, for
    T_sigma and V_sigma the integer values of Theta and Omega at sigma.
    ``Table`` says how the sums scale to the integrals.
    """
    n = fan.dim
    den, (q_t, q_w), points = _localization(fan, [theta, omega])
    sums: dict[tuple[int, ...], list[int]] = {}
    for cone, weights, k, (t, v) in points:
        powers = [k]  # k v^p for p = 0..n
        for _ in range(n):
            powers.append(powers[-1] * v)
        for size in range(n + 1) if sizes is None else sizes:
            p = n - size
            vol, mixed = powers[p], t * powers[p - 1] if p else 0
            for tau, face in zip(combinations(cone, size), combinations(weights, size)):
                f, row = prod(face), sums.get(tau) or sums.setdefault(tau, [0, 0])
                row[0] += vol * f
                row[1] += mixed * f
    return Table(den, q_t, q_w, sums)


def intersection_number(fan: Fan, classes: Sequence[DivClass]) -> Fraction:
    """Exact top intersection product of dim-many invariant divisor classes."""
    if len(classes) != fan.dim:
        raise WrongArity(f"expected {fan.dim} classes, got {len(classes)}")
    den, scales, points = _localization(fan, classes)
    return Fraction(sum(k * prod(values) for _, _, k, values in points), den * prod(scales))


def _cones_of_size(fan: Fan, size: int) -> list[tuple[int, ...]]:
    """Every cone with ``size`` rays, once, in lex order of ray indices."""
    return sorted({tau for cone in fan.max_cones for tau in combinations(cone, size)})


def enumerate_orbits(fan: Fan) -> list[tuple[int, ...]]:
    """Every positive-dimension cone, once, ordered by (dim, lex ray indices)."""
    return [tau for size in range(1, fan.dim + 1) for tau in _cones_of_size(fan, size)]


def invariant_curves(fan: Fan) -> list[tuple[int, ...]]:
    """Cones tau of the invariant curves V(tau): dimension dim-1, so () if dim is 1."""
    return _cones_of_size(fan, fan.dim - 1)


def is_ample(fan: Fan, d: DivClass) -> bool:
    """Strict positivity against every invariant curve (toric Kleiman)."""
    return all(vol > 0 for vol, _ in _orbit_integrals(fan, d, d, [fan.dim - 1]).rows.values())


def toric_seshadri_T(fan: Fan, theta: DivClass, omega: DivClass) -> Fraction:
    """sup{delta : theta - delta*omega nef}, from the invariant-curve bounds."""
    return _seshadri_bound(fan.dim, _orbit_integrals(fan, theta, omega, [fan.dim - 1]))[0]


def _seshadri_bound(n: int, table: Table) -> tuple[Fraction, tuple[int, ...]]:
    """(T, tau): T = min theta.C / omega.C over the invariant curves C = V(tau),
    len(tau) = n - 1, and the lex-least tau attaining it; omega must be ample.

    theta.C / omega.C = q_omega M / (q_theta V) from tau's row, so with every
    V > 0 the curves compare as M / V by cross-multiplying, and T is one Fraction.
    """
    curves = [(tau, vol, mixed) for tau, (vol, mixed) in table.rows.items() if len(tau) == n - 1]
    if not all(vol > 0 for _, vol, _ in curves):
        raise OmegaNotKahler("omega is not ample")
    best, vol, mixed = curves[0]
    for tau, v, m in curves:
        d = m * vol - mixed * v
        if d < 0 or d == 0 and tau < best:
            best, vol, mixed = tau, v, m
    return Fraction(table.q_omega * mixed, table.q_theta * vol), best


@dataclass(frozen=True)
class SubvarietyScore:
    """Normalized obstruction of one orbit closure V(sigma).

    value = (C * int_V omega^p - p * int_V theta wedge omega^(p-1))
            / ((n-p) * int_V omega^p),  p = dim V.
    """

    cone: tuple[int, ...]
    p: int
    numerator: Fraction
    denominator: Fraction
    value: Fraction


AUTOMORPHISM_CAVEAT = ("toric manifolds have non-discrete automorphism groups; "
                       "twisted-equation statuses are unaffected but cscK "
                       "interpretations do not apply verbatim")


@dataclass(frozen=True)
class ToricGammaResult:
    """The minimum orbit score; T and the curve V(binding_curve) attaining it, or both None
    when theta is ample."""

    value: Fraction
    minimizer: tuple[int, ...]
    scores: tuple[SubvarietyScore, ...]
    status: Status
    C: Fraction
    T: Fraction | None
    binding_curve: tuple[int, ...] | None
    caveat: str = AUTOMORPHISM_CAVEAT


def _c_constant_toric(n: int, table: Table) -> Fraction:
    """C = n int theta omega^(n-1) / int omega^n = n q_omega M / (q_theta V), from the
    empty cone's row."""
    vol, mixed = table.rows[()]
    if vol <= 0:
        raise OmegaNotKahler(f"omega^n = {Fraction(vol, table.den * table.q_omega ** n)} <= 0")
    return Fraction(n * table.q_omega * mixed, table.q_theta * vol)


def _scores(n: int, table: Table,
            cones: Sequence[tuple[int, ...]]) -> tuple[SubvarietyScore, ...]:
    """The score of V(tau) for each tau in cones, from the integer rows; omega^n > 0.

    With (V_0, M_0) the empty cone's row, (V, M) tau's, s = len(tau) and
    p = n - s, the numerator C int_V omega^p - p int_V theta omega^(p-1) is
    q_omega (n M_0 V - p M V_0) / (q_theta V_0 D q_omega^p), the denominator
    s int_V omega^p is s V / (D q_omega^p), and their quotient drops
    D q_omega^p: each is one Fraction of two integers.
    """
    den, q_t, q_w, rows = table
    vol0, mixed0 = rows[()]
    c_top, c_bottom = n * mixed0, q_t * vol0  # C = q_omega c_top / c_bottom
    scales = [den]  # D q_omega^p for p = 0..n
    for _ in range(n):
        scales.append(scales[-1] * q_w)
    scores = []
    for tau in cones:
        vol, mixed = rows[tau]
        s = len(tau)
        p = n - s
        top = q_w * (c_top * vol - p * mixed * vol0)
        scores.append(SubvarietyScore(tau, p, Fraction(top, c_bottom * scales[p]),
                                      Fraction(s * vol, scales[p]),
                                      Fraction(top, s * c_bottom * vol)))
    return tuple(scores)


def subvariety_score(fan: Fan, theta: DivClass, omega: DivClass,
                     sigma: Sequence[int]) -> SubvarietyScore:
    """Exact score of the orbit closure of sigma, a sequence of int ray indices."""
    sigma = tuple(sorted(exact_int(i, "cone index") for i in sigma))
    if not 1 <= len(set(sigma)) == len(sigma) <= fan.dim or not fan.is_face(frozenset(sigma)):
        raise BadFace(f"rays {list(sigma)} do not span a positive-dimension cone")
    table = _orbit_integrals(fan, theta, omega, [0, len(sigma)])
    vol = table.rows[sigma][0]
    if vol <= 0:
        p = fan.dim - len(sigma)
        vol_p = Fraction(vol, table.den * table.q_omega ** p)
        raise OmegaNotAmpleOnOrbit(f"int_V omega^{p} = {vol_p} on orbit {sigma}")
    _c_constant_toric(fan.dim, table)  # omega^n > 0, checked after the orbit's volume
    return _scores(fan.dim, table, [sigma])[0]


def toric_gamma(fan: Fan, theta: DivClass, omega: DivClass) -> ToricGammaResult:
    """Minimum orbit score, its minimizer and a certification status.

    The minimizer tie-break follows the orbit enumeration order (dimension
    of the cone, then lex ray indices), so results are deterministic.
    For a non-ample twist the value is compared against the Seshadri-type
    bound computed from the fan's own invariant curves.  One integer table
    serves the whole query: curve degrees, C and every orbit score, its
    keys in (len, lex) order being the orbits of ``enumerate_orbits`` after
    the empty cone.  An ample omega is ample on every orbit closure, so no
    orbit volume needs a check.
    """
    n = fan.dim
    table = _orbit_integrals(fan, theta, omega)
    bound, curve = _seshadri_bound(n, table)
    c = _c_constant_toric(n, table)
    orbits = sorted(table.rows, key=lambda tau: (len(tau), tau))[1:]
    scores = _scores(n, table, orbits)
    best = min(scores, key=lambda s: s.value)  # first minimum in orbit order
    t_bound = None if bound > 0 else bound  # bound > 0 exactly when theta is ample
    return ToricGammaResult(value=best.value, minimizer=best.cone, scores=scores,
                            status=Status.of(best.value, t_bound), C=c, T=t_bound,
                            binding_curve=None if t_bound is None else curve)

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
The ``Fan`` keeps only the bases' weights at c; it holds no query state.

Intersection numbers come from localization at the torus-fixed points
(Brion; Cox-Little-Schenck, ch. 12-13).  At the fixed point of a maximal cone
sigma the tangent weights are sigma's dual basis (m_rho) and D = sum a_j D_j
restricts to sum_{rho in sigma} a_rho m_rho.  For every cone tau and classes
D_1..D_p, p = dim V(tau), int_{V(tau)} D_1...D_p is the sum over maximal
sigma containing tau of prod_k <D_k|sigma, c> / prod_{rho in sigma - tau} <m_rho, c>,
for any c with no <m_rho, c> = 0; c = (1, N, ..., N^(n-1)) with N = 1 + max
|dual entry| is one, since base-N digits are unique.  These weights also count
the cones (``count_orbits``; Fulton, Introduction to Toric Varieties, 5.2):
for p inside a cone tau, p + eps c lies inside one maximal sigma, and tau
holds every ray of sigma of weight < 0, so the cones part into intervals, from
those rays up to sigma, of 2^(weights > 0) cones each.  One pass over (maximal
cone, face) pairs gives int_V omega^p and int_V theta omega^(p-1) on every
orbit closure (``_orbit_integrals``) as integer sums over one common
denominator D = lcm over sigma of |prod weights|, each class scaled to
integers.  ``toric_gamma`` reads the ampleness checks, T and the curve
attaining it, C and every orbit score from that one integer table; D cancels
from each ratio, so a score is a row of integer pairs (``_score_rows``; the value
is top / val_den): the library returns one Fraction per rational, and the CLI
writes each from its two integers with one gcd.  A document fan with more than
``MAX_FIXED_POINT_TERMS`` (maximal cone, face) pairs is refused before validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import (BadFace, BadParams, FanInvalid, NonPrimitiveRay, NotComplete, NotSmooth,
                     OmegaNotAmpleOnOrbit, OmegaNotKahler, WrongArity)
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
# (Intel Xeon, 2 vCPU shared with other load, Python 3.11.7; 15 runs each): P^14
# (245760 terms) takes 0.55-0.95 s, (P^1)^9 (262144 terms) 0.32-0.75 s; P^15 and
# (P^1)^10 have twice as many terms or more.
MAX_FIXED_POINT_TERMS = 2 ** 18


def _unimodular_dual(rays: Sequence[Sequence[int]]) -> Dual | None:
    """Dual basis of n rays in Z^n, <m_k, rays[l]> = [k == l]; None unless |det| = 1."""
    n = len(rays)
    pivots, d, rows = _eliminate([list(col) + [int(i == j) for j in range(n)]
                                  for i, col in enumerate(zip(*rays))])
    if pivots[-1] != n - 1 or abs(d) != 1:
        return None
    return tuple(tuple(d * x for x in row[n:]) for row in rows)


def _rows(value: object, what: str) -> tuple[tuple[int, ...], ...]:
    """A list or tuple of lists or tuples of ints, as tuples; else one BadParams line."""
    sequence = (list, tuple)
    if not isinstance(value, sequence) or not all(isinstance(row, sequence) for row in value):
        raise BadParams(f"fan {what} must be a list of integer lists, got {value!r}")
    rows = tuple(map(tuple, value))
    if not all(type(x) is int for x in chain.from_iterable(rows)):  # exact_int words a fault
        return tuple([tuple([exact_int(x, f"fan {what} entry") for x in row]) for row in rows])
    return rows


@dataclass(frozen=True, init=False, repr=False)
class Fan:
    """Rays and maximal cones of a smooth complete fan, certified when built.

    Ray indices are 0-based everywhere, including in documents.  The
    constructor refuses non-integer data with BadParams and runs
    :func:`validate_fan`, so every ``Fan`` is valid.  It is a frozen dataclass,
    equal and hashed on dim, rays and max_cones, and also keeps the weights of
    the maximal cones' dual bases at the generic point c.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    _weights: tuple[tuple[int, ...], ...] = field(compare=False)

    def __init__(self, dim: int, rays: Sequence[Sequence[int]],
                 max_cones: Sequence[Sequence[int]]):
        init = object.__setattr__
        init(self, "dim", exact_int(dim, "fan dim"))
        init(self, "rays", _rows(rays, "rays"))
        init(self, "max_cones", tuple(tuple(sorted(c)) for c in _rows(max_cones, "max_cones")))
        init(self, "_weights", validate_fan(self))

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
        smax = min((c for c in self.max_cones if sigma.issubset(c)), default=None)
        if smax is None:
            raise BadFace(f"rays {sorted(sigma)} do not span a cone of the fan")
        m = _unimodular_dual([self.rays[j] for j in smax])[smax.index(i)]
        coeffs = ((j, -sum(map(mul, m, u))) for j, u in enumerate(self.rays) if j not in smax)
        return tuple((j, c) for j, c in coeffs if c != 0)

    def __repr__(self) -> str:
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


def validate_fan(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Smoothness, completeness, face compatibility; each maximal cone's weights.

    The first fault is reported: rays, then per cone in cone order its
    arity, indices and unimodularity, duplicate cones, unused rays, walls in
    ridge order and last the count of maximal cones containing c.  The weights
    follow cone order; a cone's weights are <m_rho, c> for its dual basis
    (m_rho), with c = (1, N, ..., N^(n-1)) and N = 1 + max |dual entry|.
    No weight is 0, since base-N digits are unique, so c is generic for
    every maximal cone.  Under the wall condition, once there is a cone,
    every generic point lies in the same number of maximal cones, at least
    one since each wall is covered from both sides; it must be one.
    """
    n, rays = fan.dim, fan.rays
    if n < 1:
        raise FanInvalid("dimension must be positive")
    if len(set(rays)) != len(rays):
        raise FanInvalid("duplicate rays")
    for ray in rays:
        if len(ray) != n:
            raise FanInvalid(f"ray {ray} has wrong length")
        if (g := gcd(*ray)) != 1:
            raise NonPrimitiveRay(f"ray {ray} has content {g}" if g else "zero ray")
    # certify the cones before the first one of the wrong arity or with a missing
    # ray (cones are sorted): an earlier cone that is not unimodular is met first
    cones = fan.max_cones
    end = next((k for k, cone in enumerate(cones) if len(cone) != n or len(set(cone)) != n
                or cone[0] < 0 or cone[-1] >= len(rays)), len(cones))
    duals, ridges, sides = _wall_walk(rays, cones[:end])
    if None in duals:
        raise NotSmooth(f"maximal cone {cones[duals.index(None)]} is not unimodular")
    if end < len(cones):
        cone = cones[end]
        if len(cone) != n or len(set(cone)) != n:
            raise NotSmooth(f"maximal cone {cone} does not have {n} distinct rays")
        raise FanInvalid(f"cone {cone} references missing rays")
    if len(set(cones)) != len(cones):
        raise FanInvalid("duplicate maximal cones")
    if set(chain.from_iterable(cones)) != set(range(len(rays))):
        raise FanInvalid("unused rays")

    # Wall condition: every ridge in exactly two maximal cones, opposite sides (a_d < 0).
    for mask, owners in ridges.items():
        if len(owners) != 2 or sides[mask] >= 0:
            ridge = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
            if len(owners) == 1:
                raise NotComplete(f"ridge {ridge} lies on the boundary of the support")
            raise BadFace(f"ridge {ridge} shared by {len(owners)} maximal cones" if len(owners) > 2
                          else f"maximal cones at ridge {ridge} are on the same side")

    if not cones:  # before c, whose n entries cost time and memory linear in dim
        raise NotComplete("generic point not covered by any maximal cone")
    base = 1 + max(map(abs, chain.from_iterable(chain.from_iterable(duals))))
    c = [base ** i for i in range(n)]
    weights = tuple(tuple([sum(map(mul, m, c)) for m in dual]) for dual in duals)
    if sum(min(w) > 0 for w in weights) > 1:
        raise BadFace("maximal cones overlap in their interiors")
    return weights


def _wall_walk(rays: Sequence[Sequence[int]], cones: Sequence[tuple[int, ...]]
               ) -> tuple[list[Dual | None], dict[int, list[tuple[int, int]]], dict[int, int]]:
    """Each cone's dual basis (None if not unimodular), the ridges and a_d at each wall.

    A ridge, keyed by the bitmask of its rays, maps to its owners (cone
    position, position of the dropped ray).  One elimination starts each
    connected component; every other cone is reached across a wall.  At the
    wall tau of sigma = tau + u_d and sigma' = tau + u_e, let a_k = <m_k, u_e>
    in sigma's basis: |det sigma'| = |a_d|, so sigma' is unimodular exactly when
    a_d = +-1, and then its basis is m'_e = a_d m_d, m'_k = m_k - a_d a_k m_d.
    Unimodular cones lie on opposite sides exactly when a_d = -1; m'_k = m_k when
    a_k = 0.  A wall into a cone that has its basis needs a_d alone.  Raises
    nothing: the caller reports the faults in its own order.
    """
    masks = [sum(1 << i for i in cone) for cone in cones]
    ridges: dict[int, list[tuple[int, int]]] = {}
    for k, cone in enumerate(cones):
        for p, drop in enumerate(cone):
            ridges.setdefault(masks[k] ^ 1 << drop, []).append((k, p))
    duals: list[Dual | None] = [None] * len(cones)
    seen, sides = [False] * len(cones), {}
    for start, cone in enumerate(cones):
        if seen[start]:
            continue
        seen[start] = True
        duals[start] = _unimodular_dual([rays[i] for i in cone])
        stack = [start] if duals[start] is not None else []
        while stack:
            k = stack.pop()
            cone, dual = cones[k], duals[k]
            for p, drop in enumerate(cone):
                ridge = masks[k] ^ 1 << drop
                owners = ridges[ridge]
                if len(owners) != 2 or ridge in sides:
                    continue
                other, q = owners[owners[0][0] == k]
                u, m_d = rays[cones[other][q]], dual[p]
                if seen[other]:
                    sides[ridge] = sum(map(mul, m_d, u))
                    continue
                seen[other] = True
                a = [sum(map(mul, m, u)) for m in dual]
                a_d = sides[ridge] = a[p]
                if abs(a_d) != 1:
                    continue
                basis = [tuple([x - a_d * a_k * y for x, y in zip(m, m_d)]) if a_k else m
                         for m, a_k in zip(dual, a)]
                del basis[p]
                basis.insert(q, tuple([a_d * y for y in m_d]))
                duals[other] = tuple(basis)
                stack.append(other)
    return duals, ridges, sides


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


def count_orbits(fan: Fan) -> int:
    """The number of positive-dimension cones, from the weights at c (module docstring)."""
    return sum(1 << sum(w > 0 for w in weights) for weights in fan._weights) - 1


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


def _score_rows(n: int, table: Table, cones: Sequence[tuple[int, ...]]) -> list[tuple]:
    """(tau, p, top, num_den, s V, scale, val_den) for each tau in cones; omega^n > 0.

    With (V_0, M_0) the empty cone's row, (V, M) tau's, s = len(tau), p = n - s,
    c_bottom = q_theta V_0 and scale = D q_omega^p, the numerator C int_V omega^p
    - p int_V theta omega^(p-1) is top / num_den, top = q_omega (n M_0 V - p M V_0)
    and num_den = c_bottom scale; the denominator s int_V omega^p is s V / scale,
    and the value is top / val_den, val_den = s V c_bottom.  Each bottom is > 0 if V > 0.
    """
    den, q_t, q_w, rows = table
    vol0, mixed0 = rows[()]
    c_top, c_bottom = n * mixed0, q_t * vol0  # C = q_omega c_top / c_bottom
    scales = [den]  # D q_omega^p for p = 0..n
    for _ in range(n):
        scales.append(scales[-1] * q_w)
    out = []
    for tau in cones:
        vol, mixed = rows[tau]
        p = n - len(tau)
        out.append((tau, p, q_w * (c_top * vol - p * mixed * vol0), c_bottom * scales[p],
                    len(tau) * vol, scales[p], len(tau) * vol * c_bottom))
    return out


def _scores(rows: Sequence[tuple]) -> tuple[SubvarietyScore, ...]:
    """Each score row of ``_score_rows`` as a SubvarietyScore: one Fraction per rational."""
    return tuple([SubvarietyScore(tau, p, Fraction(top, num_den), Fraction(sv, scale),
                                  Fraction(top, val_den))
                  for tau, p, top, num_den, sv, scale, val_den in rows])


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
    return _scores(_score_rows(fan.dim, table, [sigma]))[0]


def _gamma_rows(fan: Fan, theta: DivClass, omega: DivClass
                ) -> tuple[list[tuple], int, Fraction, Fraction | None, tuple[int, ...] | None]:
    """Every orbit's score row in (len, lex) order, the position of the first least score,
    C, and T and its binding curve (both None when theta is ample).

    Rows compare as top / val_den by cross-multiplying: every val_den > 0, since an
    ample omega is ample on every orbit closure.
    """
    n = fan.dim
    table = _orbit_integrals(fan, theta, omega)
    bound, curve = _seshadri_bound(n, table)
    c = _c_constant_toric(n, table)
    rows = _score_rows(n, table, sorted(table.rows, key=lambda tau: (len(tau), tau))[1:])
    best, (_, _, top, _, _, _, vd) = 0, rows[0]
    for k, (_, _, t, _, _, _, v) in enumerate(rows):
        if t * vd < top * v:  # strict: the first minimum in orbit order wins
            best, top, vd = k, t, v
    t_bound = None if bound > 0 else bound  # bound > 0 exactly when theta is ample
    return rows, best, c, t_bound, None if t_bound is None else curve


def toric_gamma(fan: Fan, theta: DivClass, omega: DivClass) -> ToricGammaResult:
    """Minimum orbit score, its minimizer and a certification status.

    The minimizer tie-break follows the orbit enumeration order (dimension
    of the cone, then lex ray indices), so results are deterministic.
    For a non-ample twist the value is compared against the Seshadri-type
    bound computed from the fan's own invariant curves.  One integer table
    serves the whole query: curve degrees, C and every orbit score, its
    keys in (len, lex) order being the orbits of ``enumerate_orbits`` after
    the empty cone (``_gamma_rows``).
    """
    rows, k, c, t_bound, curve = _gamma_rows(fan, theta, omega)
    scores = _scores(rows)
    best = scores[k]
    return ToricGammaResult(value=best.value, minimizer=best.cone, scores=scores,
                            status=Status.of(best.value, t_bound), C=c, T=t_bound,
                            binding_curve=curve)

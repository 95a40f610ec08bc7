"""Smooth complete fans and exact intersection numbers of invariant divisors.

A :class:`Fan` is given by primitive integer rays and the index sets of its
maximal cones; a divisor class is a :class:`DivClass`, one coefficient per
ray.  The constructor validates: unimodularity of every maximal cone, the
wall condition (every ridge shared by exactly two maximal cones, lying on
opposite sides) and that a generic point is covered exactly once; together
these certify a smooth complete fan with compatible faces.  Validation, the
rewrite characters and ``canonicalize`` all read one integer fraction-free
elimination (``_eliminate``), validation once per maximal cone (its dual basis).

The intersection engine evaluates products of invariant divisors by the
standard recursion: distinct rays spanning a cone contribute 1, distinct
rays not spanning a cone kill the term, and a repeated ray is rewritten
through a character that is -1 on it and 0 on the other rays of an ambient
maximal cone.  Orbit-closure integrals seed the recursion at the orbit's cone.
Each query builds one table over its classes (``_Intersections``) that
memoizes every orbit integral on (cone as a frozenset, sorted tuple of class
indices) and every rewrite relation on (ambient maximal cone, ray); the
:class:`Fan` itself holds no query state.  ``toric_gamma`` derives the
ampleness checks, T, C and every orbit score from one such table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import Sequence

from .errors import (BadFace, FanInvalid, NonPrimitiveRay, NotComplete,
                     NotSmooth, OmegaNotAmpleOnOrbit, OmegaNotKahler, WrongArity)
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


def _unimodular_dual(rays: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Dual basis of n rays in Z^n, <m_k, rays[l]> = [k == l]; None unless |det| = 1."""
    n = len(rays)
    pivots, d, rows = _eliminate([list(col) + [int(i == j) for j in range(n)]
                                  for i, col in enumerate(zip(*rays))])
    if pivots[-1] != n - 1 or abs(d) != 1:
        return None
    return [[d * x for x in row[n:]] for row in rows]


def _dot(m: Sequence[int], u: Sequence[int]) -> int:
    return sum(c * x for c, x in zip(m, u))


def _integer(value: object, what: str) -> int:
    """An int; bools, floats and strings are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FanInvalid(f"fan {what} must be an integer, got {value!r}")
    return value


class Fan:
    """Rays and maximal cones of a smooth complete fan, certified when built.

    Ray indices are 0-based everywhere, including in documents.  The
    constructor refuses non-integer data and runs :func:`validate_fan`, so
    every ``Fan`` is valid; it is immutable and holds no query state.
    """

    __slots__ = ("dim", "rays", "max_cones", "_max_cone_sets")

    def __init__(self, dim: int, rays: Sequence[Sequence[int]],
                 max_cones: Sequence[Sequence[int]]):
        init = object.__setattr__
        init(self, "dim", _integer(dim, "dim"))
        init(self, "rays", tuple(tuple(_integer(x, "ray entry") for x in ray) for ray in rays))
        init(self, "max_cones", tuple(tuple(sorted(_integer(i, "cone index") for i in cone))
                                      for cone in max_cones))
        init(self, "_max_cone_sets", tuple(frozenset(c) for c in self.max_cones))
        validate_fan(self)

    def __setattr__(self, name, value):  # immutable after __init__
        raise AttributeError("Fan is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return Fan, (self.dim, self.rays, self.max_cones)

    # -- structure queries -------------------------------------------------

    def is_face(self, rays: frozenset[int]) -> bool:
        """True if the index set spans a cone of the fan (simplicial faces)."""
        return any(rays <= mc for mc in self._max_cone_sets)

    def _ambient_max_cone(self, sigma: frozenset[int]) -> tuple[int, ...]:
        """Deterministic choice: lex-least maximal cone containing sigma."""
        best = min((c for c, s in zip(self.max_cones, self._max_cone_sets)
                    if sigma <= s), default=None)
        if best is None:
            raise BadFace(f"rays {sorted(sigma)} do not span a cone of the fan")
        return best

    def rewrite_terms(self, sigma: frozenset[int], i: int) -> tuple[tuple[int, int], ...]:
        """Replacement of divisor i, repeated inside sigma, by outside divisors.

        Uses the character m with <m, u_i> = -1 and <m, u_k> = 0 for the
        other rays of the ambient maximal cone (minus u_i's dual vector); the
        relation sum_j <m,u_j> D_j then expresses D_i through rays outside it.
        """
        smax = self._ambient_max_cone(sigma)
        dual = _unimodular_dual([self.rays[k] for k in smax])
        assert dual is not None  # maximal cones are unimodular
        m = dual[smax.index(i)]
        coeffs = ((j, -_dot(m, self.rays[j])) for j in range(len(self.rays)) if j not in smax)
        return tuple((j, c) for j, c in coeffs if c != 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return (self.dim == other.dim and self.rays == other.rays
                and self.max_cones == other.max_cones)

    def __repr__(self) -> str:
        return f"Fan(dim={self.dim}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"


def validate_fan(fan: Fan) -> None:
    """Smoothness, completeness and face compatibility; ``Fan.__init__`` runs it."""
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
    used: set[int] = set()
    duals: dict[tuple[int, ...], list[list[int]]] = {}
    for cone in fan.max_cones:
        if len(cone) != n or len(set(cone)) != n:
            raise NotSmooth(f"maximal cone {cone} does not have {n} distinct rays")
        if not all(0 <= i < len(fan.rays) for i in cone):
            raise FanInvalid(f"cone {cone} references missing rays")
        used.update(cone)
        dual = _unimodular_dual([fan.rays[i] for i in cone])
        if dual is None:
            raise NotSmooth(f"maximal cone {cone} is not unimodular")
        duals[cone] = dual
    if len(set(fan.max_cones)) != len(fan.max_cones):
        raise FanInvalid("duplicate maximal cones")
    if used != set(range(len(fan.rays))):
        raise FanInvalid("unused rays")

    # Wall condition: every ridge in exactly two maximal cones, opposite sides.
    ridges: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for cone in fan.max_cones:
        for drop in cone:
            ridge = tuple(i for i in cone if i != drop)
            ridges.setdefault(ridge, []).append((cone, drop))
    for ridge, owners in ridges.items():
        if len(owners) == 1:
            raise NotComplete(f"ridge {ridge} lies on the boundary of the support")
        if len(owners) > 2:
            raise BadFace(f"ridge {ridge} shared by {len(owners)} maximal cones")
        # Opposite sides: the second owner's extra ray, in the first owner's
        # basis, has a negative coordinate on the first owner's dropped ray.
        (cone, drop), (_, extra) = owners
        if _dot(duals[cone][cone.index(drop)], fan.rays[extra]) >= 0:
            raise BadFace(f"maximal cones at ridge {ridge} are on the same side")

    _generic_cover_check(fan, list(duals.values()))


def _generic_cover_check(fan: Fan, duals: Sequence[list[list[int]]]) -> None:
    """A generic point must lie in the interior of exactly one maximal cone.

    Combined with the wall condition this pins down degree one everywhere:
    crossing any wall preserves the covering count, so one generic sample
    certifies global completeness and pairwise disjoint interiors.  Cone
    coordinates are pairings with the dual basis, of the point scaled by lcm(q) > 0.
    """
    rng = Random(164207)
    for _ in range(64):
        draws = [(rng.randrange(-10**6, 10**6 + 1), rng.randrange(1, 1000))
                 for _ in range(fan.dim)]
        scale = lcm(*(q for _, q in draws))
        point = [p * (scale // q) for p, q in draws]
        coords = [[_dot(m, point) for m in dual] for dual in duals]
        if any(min(c) == 0 for c in coords):
            continue  # on the boundary of a maximal cone
        inside = sum(min(c) > 0 for c in coords)
        if inside == 0:
            raise NotComplete("generic point not covered by any maximal cone")
        if inside > 1:
            raise BadFace("maximal cones overlap in their interiors")
        return
    raise FanInvalid("could not find a generic sample point")  # pragma: no cover


class _Intersections:
    """Orbit integrals of products of one query's classes, memoized.

    A word is a sorted tuple of indices into ``classes``; the integral of a
    word over V(sigma) is memoized on (sigma, word), and each rewrite
    relation on (ambient maximal cone, ray).  Build one table per query.
    """

    def __init__(self, fan: Fan, classes: Sequence[DivClass]):
        for cls in classes:
            if len(cls) != len(fan.rays):
                raise WrongArity("one coefficient per ray required")
        self.fan = fan
        self.terms = [[(j, c) for j, c in enumerate(cls.coords) if c] for cls in classes]
        self.c: Fraction | None = None  # C of a (theta, omega) table, see _c_constant_toric
        self._memo: dict[tuple[frozenset[int], tuple[int, ...]], Fraction] = {}
        self._relations: dict[tuple[tuple[int, ...], int], tuple[tuple[int, int], ...]] = {}

    def integral(self, sigma: frozenset[int], word: tuple[int, ...]) -> Fraction:
        """Integral over V(sigma) of the product of the classes in ``word``."""
        if not word:
            return Fraction(1)
        value = self._memo.get((sigma, word))
        if value is None:
            value, tail = Fraction(0), word[1:]
            for i, coeff in self.terms[word[0]]:
                # a ray already in sigma is first rewritten through rays outside it
                for j, c in self._relation(sigma, i) if i in sigma else ((i, 1),):
                    grown = sigma | {j}
                    if self.fan.is_face(grown):
                        value += coeff * c * self.integral(grown, tail)
            self._memo[sigma, word] = value
        return value

    def _relation(self, sigma: frozenset[int], i: int) -> tuple[tuple[int, int], ...]:
        key = (self.fan._ambient_max_cone(sigma), i)
        terms = self._relations.get(key)
        if terms is None:
            terms = self._relations[key] = self.fan.rewrite_terms(sigma, i)
        return terms

    def curve_degrees(self, curves: Sequence[tuple[int, ...]], k: int) -> list[Fraction]:
        """Degree of class k on each invariant curve."""
        return [self.integral(frozenset(tau), (k,)) for tau in curves]


def intersection_number(fan: Fan, classes: Sequence[DivClass]) -> Fraction:
    """Exact top intersection product of dim-many invariant divisor classes."""
    if len(classes) != fan.dim:
        raise WrongArity(f"expected {fan.dim} classes, got {len(classes)}")
    return _Intersections(fan, classes).integral(frozenset(), tuple(range(fan.dim)))


def canonicalize(fan: Fan, cls: DivClass) -> DivClass:
    """Canonical representative: zero on the first dim-many independent rays.

    They are the pivot columns of the ray matrix; ray j is sum_r rows[r][j] / d
    times the r-th of them, so adding the character that is -cls on them zeroes cls there.
    """
    basis, d, rows = _eliminate(list(zip(*fan.rays)))
    c = cls.coords
    return DivClass([c[j] - sum(c[b] * row[j] for b, row in zip(basis, rows)) / d
                     for j in range(len(fan.rays))])


def classes_equivalent(fan: Fan, x: DivClass, y: DivClass) -> bool:
    """Linear equivalence of invariant divisor classes."""
    return canonicalize(fan, x) == canonicalize(fan, y)


def enumerate_orbits(fan: Fan) -> list[tuple[int, ...]]:
    """Every positive-dimension cone, once, ordered by (dim, lex ray indices)."""
    seen: set[tuple[int, ...]] = set()
    for cone in fan.max_cones:
        for mask in range(1, 1 << len(cone)):
            seen.add(tuple(cone[i] for i in range(len(cone)) if mask >> i & 1))
    return sorted(seen, key=lambda f: (len(f), f))


def invariant_curves(fan: Fan) -> list[tuple[int, ...]]:
    """Cones of dimension dim-1 (the invariant curves of the variety)."""
    return _curves(fan, enumerate_orbits(fan))


def _curves(fan: Fan, orbits: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Cones tau of the invariant curves V(tau): dimension dim-1, so () if dim is 1."""
    return [()] if fan.dim == 1 else [tau for tau in orbits if len(tau) == fan.dim - 1]


def is_ample(fan: Fan, d: DivClass) -> bool:
    """Strict positivity against every invariant curve (toric Kleiman)."""
    return all(x > 0 for x in _Intersections(fan, [d]).curve_degrees(invariant_curves(fan), 0))


def is_nef_toric(fan: Fan, d: DivClass) -> bool:
    return all(x >= 0 for x in _Intersections(fan, [d]).curve_degrees(invariant_curves(fan), 0))


def toric_seshadri_T(fan: Fan, theta: DivClass, omega: DivClass) -> Fraction:
    """sup{delta : theta - delta*omega nef}, from the invariant-curve bounds."""
    table, curves = _Intersections(fan, [theta, omega]), invariant_curves(fan)
    return _seshadri_bound(table.curve_degrees(curves, 0), table.curve_degrees(curves, 1))


def _seshadri_bound(theta_deg: list[Fraction], omega_deg: list[Fraction]) -> Fraction:
    if not all(x > 0 for x in omega_deg):
        raise OmegaNotKahler("omega is not ample")
    return min(t / w for t, w in zip(theta_deg, omega_deg))


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
    value: Fraction
    minimizer: tuple[int, ...]
    scores: tuple[SubvarietyScore, ...]
    status: Status
    C: Fraction
    T: Fraction | None
    caveat: str = AUTOMORPHISM_CAVEAT


def _c_constant_toric(fan: Fan, theta: DivClass, omega: DivClass, *,
                      table: _Intersections | None = None) -> Fraction:
    """C = n int theta omega^(n-1) / int omega^n, once per (theta, omega) table."""
    table = table or _Intersections(fan, [theta, omega])
    if table.c is None:
        n = fan.dim
        vol = table.integral(frozenset(), (1,) * n)
        if vol <= 0:
            raise OmegaNotKahler(f"omega^n = {vol} <= 0")
        table.c = n * table.integral(frozenset(), (0,) + (1,) * (n - 1)) / vol
    return table.c


def subvariety_score(fan: Fan, theta: DivClass, omega: DivClass,
                     sigma: Sequence[int], *,
                     table: _Intersections | None = None) -> SubvarietyScore:
    """Exact score of the orbit closure of sigma; ``table`` is the query's (theta, omega) table."""
    sigma = tuple(sorted(sigma))
    cone = frozenset(sigma)
    if not (1 <= len(sigma) <= fan.dim) or not fan.is_face(cone):
        raise BadFace(f"rays {list(sigma)} do not span a positive-dimension cone")
    table = table or _Intersections(fan, [theta, omega])
    p = fan.dim - len(sigma)
    vol = table.integral(cone, (1,) * p)
    if vol <= 0:
        raise OmegaNotAmpleOnOrbit(f"int_V omega^{p} = {vol} on orbit {sigma}")
    c = _c_constant_toric(fan, theta, omega, table=table)
    mixed = table.integral(cone, (0,) + (1,) * (p - 1)) if p >= 1 else Fraction(0)
    numerator = c * vol - p * mixed
    denominator = (fan.dim - p) * vol
    return SubvarietyScore(cone=sigma, p=p, numerator=numerator,
                           denominator=denominator, value=numerator / denominator)


def toric_gamma(fan: Fan, theta: DivClass, omega: DivClass) -> ToricGammaResult:
    """Minimum orbit score, its minimizer and a certification status.

    The minimizer tie-break follows the orbit enumeration order (dimension
    of the cone, then lex ray indices), so results are deterministic.
    For a non-ample twist the value is compared against the Seshadri-type
    bound computed from the fan's own invariant curves.  One table serves
    the whole query: curve degrees, C and every orbit score.
    """
    table, orbits = _Intersections(fan, [theta, omega]), enumerate_orbits(fan)
    curves = _curves(fan, orbits)
    theta_deg, omega_deg = table.curve_degrees(curves, 0), table.curve_degrees(curves, 1)
    if not all(x > 0 for x in omega_deg):
        raise OmegaNotKahler("omega is not ample")
    c = _c_constant_toric(fan, theta, omega, table=table)
    scores = tuple(subvariety_score(fan, theta, omega, sigma, table=table) for sigma in orbits)
    best = min(scores, key=lambda s: s.value)  # first minimum in orbit order
    if all(x > 0 for x in theta_deg):
        status = Status.SOLVABLE if best.value > 0 else Status.EXACT_UNSTABLE
        t_bound: Fraction | None = None
    else:
        t_bound = _seshadri_bound(theta_deg, omega_deg)
        status = (Status.CONDITIONAL_EXACT if best.value < t_bound
                  else Status.INDETERMINATE)
    return ToricGammaResult(value=best.value, minimizer=best.cone, scores=scores,
                            status=status, C=c, T=t_bound)

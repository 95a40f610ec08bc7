"""Shared random-instance generators and test-only oracles.

Instances are drawn from seeded PRNGs so every run is deterministic.  A
"validated instance" is a lattice of signature (1, r-1) together with a
cone model that provably contains interior classes; half the instances are
expressed in a sheared integer basis so the signature routine sees
non-diagonal matrices.  For surfaces, ``fraction_cone_constants`` is a
second route to the cone constants in Fraction arithmetic, and
``ample_difference_solvable`` a second route to solvability.  For toric
manifolds, ``RecursionOracle`` is a second route to orbit integrals,
``fraction_toric_gamma`` a second route to the orbit scores (Fraction
arithmetic on the Fractions of ``fraction_table``), and
``toric_surface_model`` turns a smooth complete fan of dimension 2 into a
lattice model of the same surface.  ``light_cone_roots`` and
``positive_set`` (the sign set of a path numerator, cut at its roots and
evaluated by ``poly_at``) go through ``poly_roots_quadratic``, and
``is_nef_toric`` through ``intersection_number`` on each invariant curve:
second routes built on public functions only.  ``per_cone_validation`` is a
second route to fan validation that eliminates every maximal cone on its own
and counts the cones around a random sample point (``_generic_cover_check``),
not around ``validate_fan``'s point c.  ``segment``,
``canonicalize`` and ``classes_equivalent`` are helpers that only tests need;
``canonicalize`` reuses ``toric._eliminate``, so it is not an oracle.  A
``DivClass`` holds Fractions only, so the oracles that step to an irrational
bound build that class as a tuple of QuadNums with ``quad_coords`` and pair
it with ``quad_pair``, or read its cone sides with ``quad_sides``.
``check_decimal`` checks a printed decimal without computing one: it parses
the string back and bounds its error by exact QuadNum comparison.
``fraction_signature`` is a second route to ``IntersectionLattice.signature``:
congruence diagonalization in Fraction arithmetic, as ``signature`` once did.
``del_pezzo`` builds the blowups of P^2 at 2 to 8 general points, with their
(-1)-curves as facets; they exist only here until a catalog entry builds them.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm
from random import Random

from jthresh import (DivClass, Fan, IntersectionLattice, LightConeFacet, NefConeModel,
                     QuadNum, diagonal_lattice, intersection_number)
from jthresh.cones import LIGHT_CONE, ConeConstants, is_kahler
from jthresh.errors import (BadConeModel, BadFace, BadSignature, FanInvalid, JThreshError,
                            NonPrimitiveRay, NotComplete, NotSmooth, OmegaNotKahler,
                            ZeroVolume)
from jthresh.exactnum import Scalar, poly_roots_quadratic, rat_sqrt
from jthresh.lattice import validate_signature
from jthresh.surface import Status, c_constant
from jthresh.toric import (SubvarietyScore, ToricGammaResult, _eliminate, _orbit_integrals,
                           _unimodular_dual, enumerate_orbits, invariant_curves)


def pytest_configure(config):
    """Run each benchmark once, as a test, unless --benchmark-enable asks for timings."""
    if hasattr(config.option, "benchmark_disable"):
        config.option.benchmark_disable = True


def segment(a: DivClass, b: DivClass, t: Fraction) -> DivClass:
    """The class (1-t)*a + t*b."""
    return a.scale(1 - t) + b.scale(t)


def quad_coords(*terms: tuple[Scalar, DivClass]) -> tuple[QuadNum, ...]:
    """The coordinates of sum c*x over (c, x) terms, as QuadNums: c may be irrational."""
    rank = len(terms[0][1])
    return tuple(sum((c * cls.coords[i] for c, cls in terms), QuadNum(0)) for i in range(rank))


def quad_pair(lattice: IntersectionLattice, x, y) -> QuadNum:
    """x^T M y for coordinate tuples x, y whose entries may be QuadNums."""
    return sum((xi * mij * yj for xi, row in zip(x, lattice.matrix)
                for mij, yj in zip(row, y)), QuadNum(0))


def quad_sides(lattice: IntersectionLattice, cone: NefConeModel, x) -> list[QuadNum]:
    """The cone sides of a coordinate tuple x with QuadNum entries, in cones._constraints'
    order: x.f per facet f, then x^2 and x.H with a light cone."""
    vals = [quad_pair(lattice, f.coords, x) for f in cone.facets]
    if cone.light_cone is not None:
        vals += [quad_pair(lattice, x, x),
                 quad_pair(lattice, x, cone.light_cone.reference_kahler.coords)]
    return vals


def check_decimal(x: Scalar, digits: int, text: str) -> None:
    """Assert that text is x to digits significant digits, correctly rounded, ties to even.

    The string is read back, never recomputed: it is Decimal.__str__'s form of
    exactly digits digits ("0" only for zero), and D = Fraction(text) lies
    within half a unit in its last place of x, by exact QuadNum comparison;
    a tie prints an even last digit.  Below a power of ten the next lower
    value is a tenth of a unit away, so on that side the bound is a twentieth.
    """
    v = x if isinstance(x, QuadNum) else QuadNum(Fraction(x))
    if text == "0":
        assert v == 0, (x, digits, text)
        return
    sign, coeff, exp = Decimal(text).as_tuple()
    assert str(Decimal(text)) == text and len(coeff) == digits and coeff[0], (x, digits, text)
    shown = Fraction(text)
    err = v - shown if v > shown else shown - v
    half, even = Fraction(10) ** exp / 2, coeff[-1] % 2 == 0
    if coeff == (1,) + (0,) * (digits - 1) and (v < shown) != bool(sign):
        # x lies nearer zero than the power of ten it printed: the next value
        # that way is a tenth of a unit off, and in tenths the power is even
        half, even = half / 10, True
    assert err < half or (err == half and even), (x, digits, text)
    assert v.sign() == (-1 if sign else 1), (x, digits, text)


def fraction_signature(matrix) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix by congruence
    diagonalization over the Fractions: swap a later non-zero diagonal entry in, or
    add row and column j to row and column i to make 2*m[i][j], then clear the column."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)

    def swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row_col(i: int, j: int) -> None:
        for k in range(n):
            m[i][k] += m[j][k]
        for k in range(n):
            m[k][i] += m[k][j]

    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                off = next(((i, j) for i in range(k, n)
                            for j in range(i + 1, n) if m[i][j] != 0), None)
                if off is None:
                    break  # remaining block is identically zero
                i, j = off
                add_row_col(i, j)
                if i != k:
                    swap(k, i)
        p = m[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / p
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
                for j in range(k, n):
                    m[j][i] -= f * m[j][k]
    return pos, neg, n - pos - neg


def random_symmetric(rng: Random, n: int, kind: str) -> list[list[Fraction]]:
    """A symmetric rational n x n matrix: "dense" random entries, "singular" B^T D B for
    fewer than n rows of B (zero when n = 1), "zero-diagonal" with zeros on the
    diagonal and random, sometimes zero, entries off it, or "block-diagonal" with dense
    random blocks of size 1 to 3 on the diagonal and zeros elsewhere."""
    if kind == "singular":
        k = rng.randint(0, n - 1)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        d = [rnd_fraction(rng, -3, 3, 3) for _ in range(k)]
        return [[sum((b[r][i] * d[r] * b[r][j] for r in range(k)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    if kind == "block-diagonal":
        start = 0
        while start < n:
            end = min(n, start + rng.randint(1, 3))
            for i in range(start, end):
                for j in range(i, end):
                    m[i][j] = m[j][i] = rnd_fraction(rng, -9, 9, 9)
            start = end
        return m
    for i in range(n):
        for j in range(i, n):
            if kind == "dense":
                m[i][j] = m[j][i] = rnd_fraction(rng, -9, 9, 9)
            elif i != j and rng.random() < 0.5:
                m[i][j] = m[j][i] = rnd_fraction(rng, -3, 3, 3)
    return m


def minus_one_curves(k: int) -> list[tuple[int, ...]]:
    """The (-1)-curves of P^2 blown up at k <= 8 general points, as coordinates
    (d, -m_1, ..., -m_k) of dL - sum m_i E_i: the E_i, then, in lex order of m for each
    d = 1..6, every m >= 0 with d^2 - sum m_i^2 = -1 and 3d - sum m_i = 1 (Manin,
    *Cubic Forms*, ch. IV; no such curve has d > 6 when k <= 8)."""
    def tails(length: int, total: int, squares: int):
        """Every m in N^length with sum m = total and sum m^2 = squares, in lex order."""
        if total * total > length * squares:  # Cauchy-Schwarz: no such m
            return
        if length == 0:
            if squares == 0:
                yield ()
            return
        for x in range(min(total, isqrt(squares)) + 1):
            for rest in tails(length - 1, total - x, squares - x * x):
                yield (x, *rest)

    curves = [(0, *(int(i == j) for j in range(k))) for i in range(k)]  # E_i: m_i = -1
    for d in range(1, 7):
        curves += [(d, *(-x for x in m)) for m in tails(k, 3 * d - 1, d * d + 1)]
    return curves


def del_pezzo(k: int) -> tuple[IntersectionLattice, NefConeModel, DivClass]:
    """(lattice, nef cone, -K) of P^2 blown up at k general points, 2 <= k <= 8.

    The basis is L, E1..Ek with lattice diag(1, -1, ..., -1), and -K = 3L - sum E_i.
    The nef cone is dual to the cone of curves, which the (-1)-curves span for k >= 2
    (cone theorem; Hartshorne V.4), so they are the facets, labelled by (d; m).
    """
    lattice = diagonal_lattice([1] + [-1] * k, labels=["L"] + [f"E{i}" for i in range(1, k + 1)])
    curves = minus_one_curves(k)
    cone = NefConeModel(facets=[DivClass(c) for c in curves],
                        facet_labels=[f"({c[0]}; {','.join(str(-x) for x in c[1:])})"
                                      for c in curves])
    return lattice, cone, DivClass([3] + [-1] * k)


def rnd_fraction(rng: Random, lo: int = -6, hi: int = 6, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def unimodular_shear(rng: Random, n: int, steps: int = 4) -> list[list[int]]:
    """Random integer matrix of determinant +-1 built from elementary ops."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        m[i], m[j] = m[j], m[i]
    return m


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def _transpose(a):
    return [list(col) for col in zip(*a)]


class Instance:
    """A validated lattice + cone with a guaranteed interior direction.

    ``to_coords`` maps coordinate vectors from the underlying diagonal
    model into the instance's (possibly sheared) basis.
    """

    def __init__(self, lattice: IntersectionLattice, cone: NefConeModel,
                 diag: list[Fraction], to_coords):
        self.lattice = lattice
        self.cone = cone
        self.diag = diag
        self.to_coords = to_coords
        self.center = to_coords([Fraction(1)] + [Fraction(0)] * (lattice.rank - 1))


def random_instance(rng: Random, rank: int | None = None,
                    light_cone: bool | None = None,
                    sheared: bool | None = None) -> Instance:
    rank = rank if rank is not None else rng.randint(2, 4)
    light = light_cone if light_cone is not None else rng.random() < 0.5
    shear = sheared if sheared is not None else rng.random() < 0.5

    diag = [Fraction(1)] + [Fraction(-rng.randint(1, 5)) for _ in range(rank - 1)]
    n_facets = 0 if (light and rng.random() < 0.4) else rng.randint(1, 3)
    covectors = [[Fraction(1)] + [rnd_fraction(rng, -1, 1, 3) for _ in range(rank - 1)]
                 for _ in range(n_facets)]
    # facet class f solves M f = covector; M is diagonal in the base model
    facets_diag = [[c / d for c, d in zip(cov, diag)] for cov in covectors]

    if shear:
        shear_rows = unimodular_shear(rng, rank)
        basis = [[Fraction(x) for x in row] for row in _transpose(shear_rows)]
        inverse = _unimodular_dual(shear_rows)  # rows of basis^-1
        diag_m = [[diag[i] if i == j else Fraction(0) for j in range(rank)]
                  for i in range(rank)]
        gram = _mat_mul(_transpose(basis), _mat_mul(diag_m, basis))
        lattice = IntersectionLattice(gram)

        def to_coords(v):
            return DivClass([sum(a * x for a, x in zip(row, v)) for row in inverse])
    else:
        lattice = diagonal_lattice(diag)

        def to_coords(v):
            return DivClass(v)

    validate_signature(lattice)
    facets = [to_coords(f) for f in facets_diag]
    center = to_coords([Fraction(1)] + [Fraction(0)] * (rank - 1))
    lc = LightConeFacet(reference_kahler=center) if light else None
    cone = NefConeModel(facets=facets, light_cone=lc)
    return Instance(lattice, cone, diag, to_coords)


def random_kahler(rng: Random, inst: Instance, tries: int = 60) -> DivClass:
    """A random interior class: a scaled center plus a small perturbation."""
    rank = inst.lattice.rank
    for _ in range(tries):
        eps = Fraction(1, 12)
        v = [Fraction(1)] + [eps * rnd_fraction(rng, -3, 3, 3) for _ in range(rank - 1)]
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        cand = inst.to_coords([scale * x for x in v])
        if is_kahler(inst.lattice, inst.cone, cand) and inst.lattice.self_int(cand) > 0:
            return cand
    return inst.center


def random_class(rng: Random, inst: Instance) -> DivClass:
    """An arbitrary (possibly wildly non-positive) class."""
    rank = inst.lattice.rank
    return inst.to_coords([rnd_fraction(rng, -5, 5, 4) for _ in range(rank)])


def fraction_cone_constants(lattice: IntersectionLattice, cone: NefConeModel,
                            theta: DivClass, omega: DivClass) -> ConeConstants:
    """cone_constants in Fraction arithmetic: the same checks, in the same order.

    Each facet's bound is the Fraction theta.f / omega.f, the light-cone
    roots are (theta.omega -+ sqrt(disc)) / omega^2 with the root taken by
    ``rat_sqrt``, and C = 2 theta.omega / omega^2.  It shares nothing with
    the integer derivation but the pairing and QuadNum.
    """
    def sides(d):
        vals = [lattice.pair(f, d) for f in cone.facets]
        if cone.light_cone is not None:
            vals += [lattice.self_int(d), lattice.pair(d, cone.light_cone.reference_kahler)]
        return vals

    theta_sides, omega_sides = sides(theta), sides(omega)
    tt, tw, ww = (lattice.pair(x, y) for x, y in ((theta, theta), (theta, omega), (omega, omega)))
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
        disc = tw * tw - tt * ww
        if disc < 0:
            raise BadSignature("negative light-cone discriminant; lattice signature is not (1, r-1)")
        r = rat_sqrt(disc)
        lo = QuadNum((tw - r.a) / ww, -r.b / ww, r.d)
        hi = QuadNum((tw + r.a) / ww, r.b / ww, r.d)
        if T is None or lo < T:
            T, t_facet = lo, LIGHT_CONE
        if sigma is None or hi > sigma:
            sigma, s_facet = hi, LIGHT_CONE
    if T is None:
        raise BadConeModel("no facets and no light-cone facet")
    return ConeConstants(C=2 * tw / ww, sigma=sigma, T=T,
                         theta_kahler=all(v > 0 for v in theta_sides),
                         binding_facet_sigma=s_facet, binding_facet_T=t_facet)


def ample_difference_solvable(lattice: IntersectionLattice, cone: NefConeModel,
                              theta: DivClass, omega: DivClass) -> bool:
    """Solvability as C*omega - theta interior to the cone, for Kahler theta and omega.

    It reads C from ``c_constant`` and asks ``is_kahler`` about the difference
    class, so it shares nothing with the sign of the formula value C - sigma.
    """
    assert is_kahler(lattice, cone, theta) and is_kahler(lattice, cone, omega)
    c = c_constant(lattice, theta, omega)
    return is_kahler(lattice, cone, omega.scale(c) - theta)


def constants_outcome(compute) -> tuple:
    """compute()'s ConeConstants as exact tuples, or its JThreshError's class and message."""
    try:
        cc = compute()
    except JThreshError as exc:
        return type(exc), str(exc)
    return (cc.C, (cc.sigma.a, cc.sigma.b, cc.sigma.d), (cc.T.a, cc.T.b, cc.T.d),
            cc.theta_kahler, cc.binding_facet_sigma, cc.binding_facet_T)


def light_cone_roots(tw: Scalar, tt: Scalar, ww: Scalar) -> tuple[QuadNum, QuadNum]:
    """Roots of (theta - delta*omega)^2 = 0 in delta, smaller first (twice if double).

    Takes theta.omega, theta^2 and omega^2 (rational, omega^2 > 0).
    """
    roots = poly_roots_quadratic([tt, -2 * tw, ww])
    return roots[0], roots[-1]


def poly_at(coeffs, x: Scalar) -> Scalar:
    """The polynomial with these coefficients, lowest degree first, at x (Horner)."""
    acc: Scalar = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def positive_set(coeffs) -> list[tuple[QuadNum, QuadNum, bool]]:
    """{t in (0,1] : poly(t) > 0} as exact intervals (lo, hi, hi_closed), lo excluded.

    The generic route: cut (0, 1] at the real roots of the polynomial with
    these coefficients, lowest degree first, and keep each piece on which it
    is positive at the midpoint.
    """
    if not any(coeffs):
        return []
    zero, one = QuadNum(0), QuadNum(1)
    cuts = [zero] + [r for r in poly_roots_quadratic(coeffs) if 0 < r < 1] + [one]
    return [(lo, hi, hi == one and poly_at(coeffs, Fraction(1)) > 0)
            for lo, hi in zip(cuts, cuts[1:]) if poly_at(coeffs, (lo + hi) / 2) > 0]


class RecursionOracle:
    """Orbit integrals of products of classes by the rewrite recursion.

    Distinct rays spanning a cone contribute 1, distinct rays not spanning a
    cone kill the term, and a ray already in the cone is first rewritten
    through rays outside it (``Fan.rewrite_terms``); ``integral(sigma, word)``
    is the integral over V(sigma) of the classes indexed by ``word``.  It
    shares nothing with the fixed-point engine but the fan's dual bases.
    """

    def __init__(self, fan: Fan, classes):
        self.fan = fan
        self.terms = [[(j, c) for j, c in enumerate(cls.coords) if c] for cls in classes]
        self.memo: dict = {}

    def integral(self, sigma: frozenset, word: tuple) -> Fraction:
        if not word:
            return Fraction(1)
        if (sigma, word) not in self.memo:
            value = Fraction(0)
            for i, coeff in self.terms[word[0]]:
                for j, c in self.fan.rewrite_terms(sigma, i) if i in sigma else ((i, 1),):
                    grown = sigma | {j}
                    if self.fan.is_face(grown):
                        value += coeff * c * self.integral(grown, word[1:])
            self.memo[sigma, word] = value
        return self.memo[sigma, word]


def fraction_table(fan: Fan, theta: DivClass, omega: DivClass) -> dict:
    """tau -> (int_V omega^p, int_V theta omega^(p-1)) as Fractions, p = dim V(tau):
    the integer sums of ``toric._orbit_integrals`` over the scales its ``Table`` names."""
    den, q_t, q_w, rows = _orbit_integrals(fan, theta, omega)
    return {tau: (Fraction(vol, den * q_w ** (p := fan.dim - len(tau))),
                  Fraction(mixed * q_w, den * q_t * q_w ** p))
            for tau, (vol, mixed) in rows.items()}


def fraction_toric_gamma(fan: Fan, theta: DivClass, omega: DivClass) -> ToricGammaResult:
    """``toric_gamma`` in Fraction arithmetic on ``fraction_table``, with its checks in its
    order: omega positive on every invariant curve, then omega^n > 0.

    T is the least theta.C / omega.C over ``invariant_curves`` and its curve the
    first there that attains it; C = n int theta omega^(n-1) / int omega^n, and
    each orbit of ``enumerate_orbits`` scores numerator / denominator with
    numerator = C vol - p mixed and denominator = len(tau) vol.  It shares only
    the integer table with ``toric_gamma``.
    """
    n, table, curves = fan.dim, fraction_table(fan, theta, omega), invariant_curves(fan)
    if not all(table[tau][0] > 0 for tau in curves):
        raise OmegaNotKahler("omega is not ample")
    bounds = [table[tau][1] / table[tau][0] for tau in curves]
    bound = min(bounds)
    vol, mixed = table[()]
    if vol <= 0:
        raise OmegaNotKahler(f"omega^n = {vol} <= 0")
    c = n * mixed / vol
    scores = []
    for tau in enumerate_orbits(fan):
        vol, mixed = table[tau]
        p = n - len(tau)
        numerator, denominator = c * vol - p * mixed, len(tau) * vol
        scores.append(SubvarietyScore(tau, p, numerator, denominator, numerator / denominator))
    best = min(scores, key=lambda s: s.value)
    t_bound = None if bound > 0 else bound
    return ToricGammaResult(value=best.value, minimizer=best.cone, scores=tuple(scores),
                            status=Status.of(best.value, t_bound), C=c, T=t_bound,
                            binding_curve=None if t_bound is None else curves[bounds.index(bound)])


def blowup_fan(rng: Random) -> tuple[Fan, DivClass]:
    """P^2 or some F_a blown up at 0-5 torus-fixed points, and an ample class on it.

    Blowing up the fixed point of the cone (u_i, u_(i+1)) inserts the ray
    u_i + u_(i+1) between them; every smooth complete toric surface arises
    this way (Fulton, section 2.5).  The ample class D = sum a_j D_j becomes
    2 pi^*D - E, whose coefficient on the new ray is 2 (a_i + a_(i+1)) - 1:
    doubling makes both edges of D's polygon at that vertex longer than 1.
    """
    if rng.random() < 0.2:
        rays, ample = [(1, 0), (0, 1), (-1, -1)], [1, 0, 0]
    else:
        a = rng.randint(0, 3)
        rays, ample = [(1, 0), (0, 1), (-1, a), (0, -1)], [a + 1, 1, 0, 0]
    for _ in range(rng.randint(0, 5)):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        e = 2 * (ample[i] + ample[(i + 1) % len(rays)]) - 1
        rays.insert(i + 1, (u[0] + v[0], u[1] + v[1]))
        ample = [2 * x for x in ample[:i + 1]] + [e] + [2 * x for x in ample[i + 1:]]
    k = len(rays)
    return Fan(2, rays, [(i, (i + 1) % k) for i in range(k)]), DivClass(ample)


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


def is_nef_toric(fan: Fan, d: DivClass) -> bool:
    """Non-negativity against every invariant curve (toric Kleiman).

    The curve V(tau) is the product of the D_j, j in tau (the fan is smooth).
    """
    def ray(j):
        return DivClass([int(i == j) for i in range(len(fan.rays))])

    return all(intersection_number(fan, [d] + [ray(j) for j in tau]) >= 0
               for tau in invariant_curves(fan))


def toric_surface_model(fan: Fan):
    """(lattice, cone, to_lattice): the surface of a 2-d fan as a lattice model.

    The basis is the D_j of the rays that are not pivots of ``canonicalize``,
    with Gram entries D_j.D_k; ``to_lattice`` reads a toric class's canonical
    representative on that basis.  Facet i is D_i, labelled "D<i>", so
    pair(facet i, x) = D_i.x and, by toric Kleiman, the cone is the nef cone.
    """
    pivots = _eliminate([list(col) for col in zip(*fan.rays)])[0]
    free = [j for j in range(len(fan.rays)) if j not in pivots]

    def ray(j):
        return DivClass([int(i == j) for i in range(len(fan.rays))])

    def to_lattice(cls: DivClass) -> DivClass:
        coords = canonicalize(fan, cls).coords
        return DivClass([coords[j] for j in free])

    lattice = IntersectionLattice([[intersection_number(fan, [ray(j), ray(k)]) for k in free]
                                   for j in free])
    cone = NefConeModel(facets=[to_lattice(ray(i)) for i in range(len(fan.rays))],
                        facet_labels=[f"D{i}" for i in range(len(fan.rays))])
    return lattice, cone, to_lattice


def per_cone_validation(dim: int, rays, max_cones) -> tuple:
    """The maximal cones' dual bases by one elimination per cone, in ``validate_fan``'s order.

    Rays and cones are read as ``Fan`` reads them.  Each cone's basis comes
    from its own ``_unimodular_dual``, and each wall's sides from the first
    owner's basis; the checks run in the order ``validate_fan`` promises,
    so a faulty fan raises the same first error.  It shares only
    ``_unimodular_dual`` and ``_eliminate`` with ``validate_fan``.
    """
    n, rays = dim, tuple(tuple(ray) for ray in rays)
    max_cones = tuple(tuple(sorted(cone)) for cone in max_cones)
    if n < 1:
        raise FanInvalid("dimension must be positive")
    if len(set(rays)) != len(rays):
        raise FanInvalid("duplicate rays")
    for ray in rays:
        if len(ray) != n:
            raise FanInvalid(f"ray {ray} has wrong length")
        if all(x == 0 for x in ray):
            raise NonPrimitiveRay("zero ray")
        if gcd(*ray) != 1:
            raise NonPrimitiveRay(f"ray {ray} has content {gcd(*ray)}")
    duals: dict = {}
    for cone in max_cones:
        if len(cone) != n or len(set(cone)) != n:
            raise NotSmooth(f"maximal cone {cone} does not have {n} distinct rays")
        if not all(0 <= i < len(rays) for i in cone):
            raise FanInvalid(f"cone {cone} references missing rays")
        duals[cone] = _unimodular_dual([rays[i] for i in cone])
        if duals[cone] is None:
            raise NotSmooth(f"maximal cone {cone} is not unimodular")
    if len(duals) != len(max_cones):
        raise FanInvalid("duplicate maximal cones")
    if {i for cone in max_cones for i in cone} != set(range(len(rays))):
        raise FanInvalid("unused rays")
    ridges: dict = {}
    for cone in max_cones:
        for drop in cone:
            ridges.setdefault(tuple(i for i in cone if i != drop), []).append((cone, drop))
    for ridge, owners in ridges.items():
        if len(owners) == 1:
            raise NotComplete(f"ridge {ridge} lies on the boundary of the support")
        if len(owners) > 2:
            raise BadFace(f"ridge {ridge} shared by {len(owners)} maximal cones")
        # opposite sides: the second owner's extra ray has a negative
        # coordinate on the first owner's dropped ray
        (cone, drop), (_, extra) = owners
        if sum(c * x for c, x in zip(duals[cone][cone.index(drop)], rays[extra])) >= 0:
            raise BadFace(f"maximal cones at ridge {ridge} are on the same side")
    bases = tuple(duals.values())
    _generic_cover_check(n, bases)
    return bases


def _generic_cover_check(dim: int, duals) -> None:
    """A generic point must lie in the interior of exactly one maximal cone.

    Combined with the wall condition this pins down degree one everywhere:
    crossing any wall preserves the covering count, so one generic sample
    certifies global completeness and pairwise disjoint interiors.  Cone
    coordinates are pairings with the dual basis, of the point scaled by lcm(q) > 0.
    """
    rng = Random(164207)
    for _ in range(64):
        draws = [(rng.randrange(-10**6, 10**6 + 1), rng.randrange(1, 1000))
                 for _ in range(dim)]
        scale = lcm(*(q for _, q in draws))
        point = [p * (scale // q) for p, q in draws]
        coords = [[sum(c * x for c, x in zip(m, point)) for m in dual] for dual in duals]
        if any(min(c) == 0 for c in coords):
            continue  # on the boundary of a maximal cone
        inside = sum(min(c) > 0 for c in coords)
        if inside == 0:
            raise NotComplete("generic point not covered by any maximal cone")
        if inside > 1:
            raise BadFace("maximal cones overlap in their interiors")
        return
    raise FanInvalid("could not find a generic sample point")  # pragma: no cover

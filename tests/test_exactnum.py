"""Numeric core: rationals, quadratic irrationals, quadratic root extraction."""

from __future__ import annotations

import copy
import pickle
import time
from decimal import Context, Decimal, getcontext
from fractions import Fraction
from math import isqrt
from random import Random

import pytest

from conftest import check_decimal, poly_at
from jthresh import exactnum
from jthresh.catalog import (MAX_RANK, blowup_path_entry, build, perfect_lightcone_entry,
                             ross_gamma_closed_form)
from jthresh.errors import BadParams, MixedRadicands, OutOfDomain, ZeroPolynomial
from jthresh.exactnum import (MAX_DECIMAL_DIGITS, QuadNum, decimal_str, exact,
                              exact_int, format_rat, poly_roots_quadratic, quad_ratio, rat,
                              rat_sqrt, squarefree_decompose)
from jthresh.surface import MAX_SAMPLES, sample_path

HUGE = 10**5000  # 5001 digits: str() and repr() of it raise ValueError


def oracle_sign(p: Fraction, q: Fraction, d: int) -> int:
    """Independent sign oracle: 64-digit decimal evaluation.

    Valid for the bounded random values used here: a nonzero p + q*sqrt(d)
    with numerators/denominators below 10^3 and d < 10^3 is bounded away
    from zero by far more than 10^-30, so 64 digits decide the sign; exact
    zero is detected symbolically first.
    """
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p * p == q * q * d and (p > 0) != (q > 0):
        return 0
    getcontext().prec = 64
    val = (Decimal(p.numerator) / Decimal(p.denominator)
           + Decimal(q.numerator) / Decimal(q.denominator) * Decimal(d).sqrt())
    return 1 if val > 0 else -1


class TestQuadSign:
    def test_known_signs(self):
        # sqrt(3) > 1 since 3 > 1
        assert QuadNum(-1, 1, 3).sign() == 1
        assert QuadNum(0, 0, 0).sign() == 0
        # 1 < sqrt(2) since 1 < 2
        assert QuadNum(1, -1, 2).sign() == -1

    def test_matches_decimal_oracle(self):
        rng = Random(7001)
        squarefree = [2, 3, 5, 6, 7, 10, 11, 13, 15, 17, 19, 21, 23, 26]
        for _ in range(500):
            p = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            q = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            d = rng.choice(squarefree)
            assert QuadNum(p, q, d).sign() == oracle_sign(p, q, d)

    def test_rational_embedding_agrees_with_fraction_order(self):
        rng = Random(7002)
        for _ in range(300):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            b = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            assert (QuadNum(a) < QuadNum(b)) == (a < b)
            assert (QuadNum(a) == QuadNum(b)) == (a == b)

    def test_perfect_square_radicand_collapses(self):
        rng = Random(7003)
        for _ in range(200):
            p = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            k = rng.randint(0, 9)
            x = QuadNum(p, q, k * k)
            assert x.is_rational
            assert x.a == p + q * k


class TestQuadArithmetic:
    def test_field_ops_match_rational_embedding(self):
        rng = Random(7004)
        for _ in range(200):
            a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 8)) for _ in "ab")
            total, product = QuadNum(a) + QuadNum(b), QuadNum(a) * QuadNum(b)
            assert total.is_rational and total.a == a + b
            assert product.is_rational and product.a == a * b

    def test_conjugate_norm(self):
        rng = Random(7005)
        for _ in range(200):
            p = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            x = QuadNum(p, q, 7)
            conj = QuadNum(p, -q, 7)
            assert (x * conj) == p * p - q * q * 7

    def test_division_round_trip(self):
        rng = Random(7006)
        for _ in range(200):
            x = QuadNum(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), 5)
            y = QuadNum(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)), 5)
            if y.sign() == 0:
                continue
            assert (x / y) * y == x

    def test_mixed_radicands_rejected(self):
        with pytest.raises(MixedRadicands):
            QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
        with pytest.raises(MixedRadicands):
            QuadNum(1, 1, 5) * QuadNum(1, 1, 7)

    def test_two_spellings_across_the_trial_division_cap_are_mixed(self):
        # sqrt(P^2 Q) = P sqrt(Q) for primes P, Q past the cap, but P^2 Q keeps its
        # square factor undecided, so the two radicands differ and are not combined
        big, small = 1000003, 1000033
        whole, factored = QuadNum(0, 1, big * big * small), QuadNum(0, big, small)
        assert (whole.b, whole.d, factored.b, factored.d) == (1, big * big * small, big, small)
        for compare in (lambda: whole == factored, lambda: whole < factored,
                        lambda: whole - factored):
            with pytest.raises(MixedRadicands):
                compare()

    def test_normalization_invariants(self):
        x = QuadNum(1, 2, 12)  # 1 + 2*sqrt(12) = 1 + 4*sqrt(3)
        assert (x.a, x.b, x.d) == (Fraction(1), Fraction(4), 3)
        assert QuadNum(0, 1, 9) == 3
        assert QuadNum(5, 0, 7).d == 0
        zero = QuadNum(0, 0, 0)
        assert zero.sign() == 0 and zero.d == 0

    def test_immutability(self):
        x = QuadNum(1, 1, 2)
        with pytest.raises(AttributeError):
            x.a = Fraction(2)

    def test_copy_and_pickle(self):
        for x in (QuadNum(Fraction(-3, 7)), QuadNum(Fraction(1, 2), Fraction(-5, 3), 7)):
            for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(clone) is QuadNum
                assert (clone.a, clone.b, clone.d) == (x.a, x.b, x.d)
                with pytest.raises(AttributeError):
                    clone.b = Fraction(0)

    def test_arithmetic_does_not_factor_radicands(self, monkeypatch):
        d = 10**13 + 37  # prime: factoring it by trial division is slow
        q, r = QuadNum(1, 2, d), QuadNum(Fraction(1, 3), -5, d)
        expected = [QuadNum(Fraction(4, 3), -3, d), QuadNum(Fraction(2, 3), 7, d),
                    QuadNum(Fraction(1, 3) - 10 * d, Fraction(-13, 3), d), QuadNum(-1, -2, d),
                    QuadNum(2, 2, d), QuadNum(3, 6, d), QuadNum(0, -2, d), QuadNum(0)]
        calls = []
        original = exactnum.squarefree_decompose
        monkeypatch.setattr(exactnum, "squarefree_decompose",
                            lambda n: calls.append(n) or original(n))
        results = [q + r, q - r, q * r, -q, q + 1, 3 * q, 1 - q, q - q]
        quotient = (q / r) * r
        comparisons = [q < r, q <= q + 1, q == quotient, q > 1, q >= r, q != r]
        assert calls == []
        assert [(x.a, x.b, x.d) for x in results] == [(x.a, x.b, x.d) for x in expected]
        assert comparisons == [False, True, True, True, True, True]
        assert (q - q).d == 0 and (q * QuadNum(1, -2, d)).d == 0

    def test_order_is_reflexive_on_irrationals(self):
        x = QuadNum(1, 2, 2)
        assert x <= x and x >= x and x == x
        assert not (x < x or x > x or x != x)

    def test_comparison_with_other_types_is_refused(self):
        x = QuadNum(1, 1, 2)
        for other in (1.5, "1"):
            with pytest.raises(TypeError):
                x < other  # noqa: B015
            assert x != other

    def test_float_operands_are_refused(self):
        # no floats in the kernels: every mixed operation raises, on either side,
        # and an arithmetic error names its own operator and operand order
        x = QuadNum(1, 1, 2)
        for symbol, op in (("+", lambda p, q: p + q), ("-", lambda p, q: p - q),
                           ("*", lambda p, q: p * q), ("/", lambda p, q: p / q),
                           ("<", lambda p, q: p < q)):
            for left, right in ((x, 1.5), (1.5, x), (QuadNum(3), 2.0), (2.0, QuadNum(3))):
                with pytest.raises(TypeError) as info:
                    op(left, right)
                if symbol != "<":
                    names = [type(v).__name__ for v in (left, right)]
                    assert str(info.value) == (f"unsupported operand type(s) for {symbol}: "
                                               f"'{names[0]}' and '{names[1]}'")

    def test_reflected_subtraction(self):
        x = QuadNum(Fraction(1, 2), 3, 5)
        for other in (2, Fraction(-7, 3), QuadNum(1, 1, 5)):
            assert other - x == -(x - other)

    def test_division_by_zero(self):
        # a zero divisor, however it was made, is refused with QuadNum's own message
        for zero in (QuadNum(0), QuadNum(1, 1, 2) - QuadNum(1, 1, 2), 0, Fraction(0)):
            for x in (QuadNum(1, 1, 2), QuadNum(Fraction(3, 4))):
                with pytest.raises(ZeroDivisionError, match="^division by zero QuadNum$"):
                    x / zero
        with pytest.raises(ZeroDivisionError, match="^division by zero QuadNum$"):
            1 / QuadNum(0)

    def test_hash_agrees_with_equality(self):
        rng = Random(7014)
        for _ in range(100):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            assert hash(QuadNum(q)) == hash(q)
            assert hash(QuadNum(q, 3, 4)) == hash(q + 6)  # sqrt(4) folds into the rational
            b, d = Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.choice([2, 3, 5, 6])
            x = QuadNum(q, b, d)
            y = (x + QuadNum(0, 1, d)) - QuadNum(0, 1, d)  # equal, built another way
            assert x == y and hash(x) == hash(y)
            assert QuadNum(q, b, d * 4) == QuadNum(q, 2 * b, d)
            assert hash(QuadNum(q, b, d * 4)) == hash(QuadNum(q, 2 * b, d))
        assert len({QuadNum(1), Fraction(1), 1, QuadNum(Fraction(2, 2))}) == 1


class TestSquarefree:
    def test_negative_input_is_refused(self):
        with pytest.raises(ValueError, match="radicand must be non-negative"):
            squarefree_decompose(-4)
        with pytest.raises(ValueError, match="square root of a negative rational"):
            rat_sqrt(Fraction(-1, 4))

    def test_decomposition(self):
        rng = Random(7007)
        for _ in range(300):
            n = rng.randint(0, 10**6)
            s, d = squarefree_decompose(n)
            assert s * s * d == n
            if n > 0:
                for p in range(2, isqrt(d) + 1):
                    assert d % (p * p) != 0

    def test_matches_trial_division_to_the_square_root(self):
        def by_square_root(n):  # the reference: trial division while p^2 <= what is left
            s, d, p = 1, n, 2
            while p * p <= d:
                while d % (p * p) == 0:
                    d //= p * p
                    s *= p
                p += 1 if p == 2 else 2
            return s, d

        rng = Random(7010)
        primes = [p for p in range(2, 1000) if all(p % q for q in range(2, isqrt(p) + 1))]
        cases = [rng.randint(1, 10**8) for _ in range(1500)]
        for _ in range(1500):
            # p^2, p*q, p^2*q and p^3 with p, q near the cube root of what is left
            p, q = rng.sample(primes, 2)
            cases += [p * p, p * q, p * p * q, p ** 3, p ** 3 * q,
                      rng.choice(primes[:10]) * p * p * q]
        for n in cases:
            assert squarefree_decompose(n) == by_square_root(n), n

    def test_large_prime_factors(self):
        # factorizations built from known primes; (s, d) read off the exponents
        rng = Random(7011)
        large = [21529, 21557, 46337, 46349, 999983, 1000003, 10000019]
        for _ in range(200):
            exponents = {p: rng.randint(1, 4) for p in rng.sample(range(2, 60), 3)
                         if all(p % q for q in range(2, p))}
            exponents.update({p: rng.randint(1, 2) for p in rng.sample(large, 1)})
            n = s = d = 1
            for p, e in exponents.items():
                n, s, d = n * p ** e, s * p ** (e // 2), d * p ** (e % 2)
            assert squarefree_decompose(n) == (s, d), n
        start = time.perf_counter()
        assert squarefree_decompose(10**13 + 37) == (1, 10**13 + 37)
        assert squarefree_decompose(3 * 10000019**2) == (10000019, 3)
        assert time.perf_counter() - start < 0.5

    def test_trial_division_stops_at_its_cap(self):
        # below the cap a cube is decided; past it an undecided part stays in d,
        # which is not a square but not proven square-free
        assert squarefree_decompose(999983**3) == (999983, 999983)
        assert squarefree_decompose(4 * 999983**3) == (2 * 999983, 999983)
        p = 10000019
        for n, expected in ((p**3, (1, p**3)),
                            (1000003 * 1000033 * 1000037, (1, 1000003 * 1000033 * 1000037)),
                            (2**40 * p**3, (2**20, p**3))):
            start = time.perf_counter()
            assert squarefree_decompose(n) == expected
            assert time.perf_counter() - start < 0.5
        # a part that becomes a square, or falls below p^3, is still decided past the cap
        assert squarefree_decompose(10000019**2) == (10000019, 1)
        assert squarefree_decompose(1000003 * 10000019) == (1, 1000003 * 10000019)

    def test_square_cofactors_end_the_search(self):
        # small primes times the square of large ones, as a common denominator
        # squared puts it into a radicand: once the part left is a square the
        # search ends, where trial division to its cube root took 0.5 s for
        # 3 * 10000000019^2 alone
        big = 10000000019 * 1000000007
        cases = {3 * 10000000019**2: (10000000019, 3),
                 18 * 10000000019**2: (3 * 10000000019, 2),
                 2 * 3**3 * 5 * big**2: (3 * big, 30),
                 7**5 * 998244353**2 * 1000000009**2: (49 * 998244353 * 1000000009, 7)}
        start = time.perf_counter()
        for n, expected in cases.items():
            assert squarefree_decompose(n) == expected, n
        assert time.perf_counter() - start < 0.05

    def test_rat_sqrt_squares_back(self):
        rng = Random(7008)
        for _ in range(200):
            x = Fraction(rng.randint(0, 400), rng.randint(1, 40))
            r = rat_sqrt(x)
            assert r.sign() >= 0
            assert r * r == x


class TestPolyRoots:
    def test_golden_quadratic(self):
        # 2t^2 + 2t - 1: roots (-1 +- sqrt(3))/2
        roots = poly_roots_quadratic([-1, 2, 2])
        assert roots == [QuadNum(Fraction(-1, 2), Fraction(-1, 2), 3),
                         QuadNum(Fraction(-1, 2), Fraction(1, 2), 3)]

    def test_double_and_linear(self):
        assert poly_roots_quadratic([0, 0, 1]) == [QuadNum(0)]
        assert poly_roots_quadratic([-1, 2]) == [QuadNum(Fraction(1, 2))]
        assert poly_roots_quadratic([5]) == []
        assert poly_roots_quadratic([1, 0, 1]) == []  # t^2 + 1

    def test_trailing_zeros_are_dropped(self):
        assert poly_roots_quadratic([-1, 2, 0]) == [QuadNum(Fraction(1, 2))]
        assert poly_roots_quadratic((Fraction(5), Fraction(0))) == []
        assert poly_roots_quadratic([-1, 0, 1, 0, 0]) == [QuadNum(-1), QuadNum(1)]

    def test_zero_polynomial_rejected(self):
        for coeffs in ([0, 0, 0], [], (Fraction(0),)):
            with pytest.raises(ZeroPolynomial):
                poly_roots_quadratic(coeffs)

    def test_degree_past_two_rejected(self):
        with pytest.raises(ValueError, match=r"^degree 3 > 2$"):
            poly_roots_quadratic([0, 0, 0, 1])
        with pytest.raises(ValueError, match=r"^degree 4 > 2$"):
            poly_roots_quadratic([1, 2, 3, 0, Fraction(1, 2), 0])

    def test_substitution_oracle(self):
        rng = Random(7009)
        found = 0
        for _ in range(300):
            coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
            if not any(coeffs):
                continue
            roots = poly_roots_quadratic(coeffs)
            for r in roots:
                assert poly_at(coeffs, r) == 0  # exact substitution
                found += 1
            assert roots == sorted(roots)
        assert found > 100  # the sweep actually exercised real roots

    def test_root_count_matches_discriminant(self):
        rng = Random(7010)
        for _ in range(200):
            c, b, a = (Fraction(rng.randint(-9, 9)) for _ in range(3))
            if a == 0:
                continue
            disc = b * b - 4 * a * c
            n = len(poly_roots_quadratic([c, b, a]))
            assert n == (0 if disc < 0 else 1 if disc == 0 else 2)


class TestSympyOracles:
    """QuadNum ordering and quadratic roots against sympy's exact arithmetic."""

    @staticmethod
    def to_sympy(sympy, x: QuadNum):
        return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(x.d)

    def test_ordering(self):
        sympy = pytest.importorskip("sympy")
        rng = Random(7011)
        for _ in range(300):
            d = rng.choice([2, 3, 5, 6, 7, 10, 8, 12])
            x, y = (QuadNum(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                            Fraction(rng.randint(-3, 3), rng.randint(1, 3)), d)
                    for _ in range(2))
            sx, sy = self.to_sympy(sympy, x), self.to_sympy(sympy, y)
            assert (x < y, x == y, x > y) == (bool(sx < sy), (sx - sy).is_zero, bool(sx > sy))
            assert x.sign() == sympy.sign(sx)

    def test_quadratic_roots(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = Random(7012)
        for _ in range(200):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            if not any(coeffs[1:]):  # degree < 1
                continue
            expected = sorted(sympy.roots(sympy.Poly(sum(
                sympy.Rational(c) * t ** i for i, c in enumerate(coeffs)), t), filter="R"))
            got = [self.to_sympy(sympy, r) for r in poly_roots_quadratic(coeffs)]
            assert len(got) == len(expected)
            assert all(sympy.expand(g - e) == 0 for g, e in zip(got, expected))


class TestRat:
    @pytest.mark.parametrize("text", ["1e5", "1E5", "-1.5e-3", "+.5e2", "1_000e1_0",
                                      " 1e5 ", "1.e5", "1e+5", "1e10000000"])
    def test_exponent_notation_is_refused(self, text):
        start = time.perf_counter()
        with pytest.raises(BadParams) as info:
            rat(text)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == f"bad rational {text!r}: exponent notation is not accepted"

    @pytest.mark.parametrize("text, message", [
        ("zz", "Invalid literal for Fraction: 'zz'"),
        ("x", "Invalid literal for Fraction: 'x'"),
        ("abc", "Invalid literal for Fraction: 'abc'"),
        ("1e", "Invalid literal for Fraction: '1e'"),
        ("1e5x", "Invalid literal for Fraction: '1e5x'"),
        ("1e5/2", "Invalid literal for Fraction: '1e5/2'"),
        ("1/0", "Fraction(1, 0)"),
    ])
    def test_other_malformed_strings_keep_their_message(self, text, message):
        with pytest.raises(BadParams) as info:
            rat(text)
        assert str(info.value) == f"bad rational {text!r}: {message}"

    @pytest.mark.parametrize("value", [True, False, 0.5, 1e-1, None, [1], {"p": 1}])
    def test_other_types_are_refused(self, value):
        with pytest.raises(BadParams) as info:
            rat(value)
        assert str(info.value) == (
            f"expected an exact rational (int, Fraction or 'p/q' string), got {value!r}")

    def test_plain_forms(self):
        assert [rat(s) for s in ("16/3", " 7 ", "1.25", "-2")] == [
            Fraction(16, 3), Fraction(7), Fraction(5, 4), Fraction(-2)]

    @pytest.mark.parametrize("text, value", [
        ("\u0661\u0662", 12), ("1_000", 1000), (" 3 ", 3), ("07/08", Fraction(7, 8)),
        ("-0/5", 0), ("+6/4", Fraction(3, 2)), ("-12", -12),
    ])
    def test_forms_on_and_off_the_direct_path(self, text, value):
        # "p" and "p/q" in ASCII digits take the direct path; the others Fraction's own
        assert rat(text) == value and type(rat(text)) is Fraction

    @pytest.mark.parametrize("text, message", [
        ("2/0", "Fraction(2, 0)"),
        ("3/-4", "Invalid literal for Fraction: '3/-4'"),
        ("1e5", "exponent notation is not accepted"),
    ])
    def test_refusals_on_and_off_the_direct_path(self, text, message):
        with pytest.raises(BadParams) as info:
            rat(text)
        assert str(info.value) == f"bad rational {text!r}: {message}"


class TestExactGates:
    """exact and exact_int, the one rule each for exact rational and integer inputs."""

    def test_exact(self):
        half = Fraction(1, 2)
        assert exact(half, "x") is half
        assert exact(-3, "x") == -3 and type(exact(-3, "x")) is Fraction
        for value in (True, 0.5, "1/2", None, QuadNum(1)):
            with pytest.raises(BadParams) as info:
                exact(value, "x")
            assert str(info.value) == f"x must be int or Fraction, got {value!r}"

    def test_exact_int(self):
        assert exact_int(-7, "n") == -7
        for value in (False, 2.0, "2", Fraction(2), None):
            with pytest.raises(BadParams) as info:
                exact_int(value, "n")
            assert type(info.value) is BadParams  # parse_document rewords it as BadDocument
            assert str(info.value) == f"n must be an integer, got {value!r}"

    @pytest.mark.parametrize("value, line", [
        (1, "count must be between 2 and 5, got 1"),
        (2, None), (5, None),
        (6, "count must be between 2 and 5, got 6"),
        (True, "count must be an integer, got True"),
        (3.0, "count must be an integer, got 3.0"),
        ("3", "count must be an integer, got '3'"),
    ])
    def test_int_between(self, value, line):
        # the one range gate: digits, samples, rank and JTHRESH_DECIMAL_DIGITS
        if line is None:
            assert exactnum.int_between(value, "count", 2, 5) == value
            return
        with pytest.raises(BadParams) as info:
            exactnum.int_between(value, "count", 2, 5)
        assert f"{info.value.code}: {info.value}" == f"BadParams: {line}"

    def test_a_count_past_the_int_string_limit_is_worded_by_its_size(self):
        # str() of an int past 4300 digits raises ValueError, which each caller of
        # int_between once raised while it wrote the BadParams line
        entry = blowup_path_entry()
        theta, a = entry.classes["theta"], entry.classes["a"]
        for call, what, hi in (
                (lambda n: decimal_str(Fraction(1, 3), n), "digits", MAX_DECIMAL_DIGITS),
                (lambda n: sample_path(entry.lattice, entry.cone, theta, a, n), "samples",
                 MAX_SAMPLES),
                (perfect_lightcone_entry, "rank", MAX_RANK)):
            for n, got in ((10**5000, "an integer of 16610 bits"),
                           (-10**5000, "a negative integer of 16610 bits"),
                           (10**4300 - 1, str(10**4300 - 1))):  # 4300 digits, written out
                with pytest.raises(BadParams) as info:
                    call(n)
                assert str(info.value) == f"{what} must be between 1 and {hi}, got {got}"

    @pytest.mark.parametrize("call, line", [
        (lambda: QuadNum(0, 1, -HUGE),
         "radicand must be non-negative, got a negative integer of 16610 bits"),
        (lambda: exact_int(Fraction(HUGE + 1, 2), "n"),
         "n must be an integer, got a rational of 16610 bits over 2 bits"),
        (lambda: exact_int([HUGE], "n"),
         "n must be an integer, got a list holding an integer too long to print"),
        (lambda: exact([HUGE], "x"),
         "x must be int or Fraction, got a list holding an integer too long to print"),
        (lambda: perfect_lightcone_entry(Fraction(HUGE + 1, 2)),
         "rank must be an integer, got a rational of 16610 bits over 2 bits"),
        (lambda: build("ross", {"g": -HUGE, "s_C": 2}),
         "g = a negative integer of 16610 bits < 2"),
        (lambda: build("ross", {"g": HUGE, "s_C": 2}),
         "s_C^2 = 4 < g = an integer of 16610 bits: no such ample threshold"),
        (lambda: build("ross", {"g": 3, "s_C": -HUGE}),
         "s_C = a negative integer of 16610 bits must be positive"),
        (lambda: build("ross", {"g": 3, "s_C": Fraction(-HUGE, 3)}),
         "s_C = a negative rational of 16610 bits over 2 bits must be positive"),
        (lambda: build("hirzebruch", {"a": -HUGE}), "a = a negative integer of 16610 bits < 0"),
    ])
    def test_a_huge_integer_is_worded_by_its_size(self, call, line):
        # past Python's 4300-digit int-string limit each of these lines once raised
        # ValueError while it was written; exactnum.shown words the value by its size
        with pytest.raises(BadParams) as info:
            call()
        assert f"{info.value.code}: {info.value}" == f"BadParams: {line}"

    def test_a_huge_t_is_worded_by_its_size(self):
        with pytest.raises(OutOfDomain) as info:
            ross_gamma_closed_form(3, 2, -HUGE)
        assert str(info.value) == "t = a negative integer of 16610 bits <= s_C = 2"

    def test_shown_writes_what_it_can(self):
        assert exactnum.shown(10**4300 - 1) == str(10**4300 - 1)  # 4300 digits
        assert exactnum.shown(10**4300) == "an integer of 14285 bits"
        assert exactnum.shown(Fraction(-3, 2), repr) == "Fraction(-3, 2)"
        assert exactnum.shown(Fraction(-HUGE)) == "a negative integer of 16610 bits"
        assert exactnum.shown(Fraction(1, HUGE)) == "a rational of 1 bits over 16610 bits"

    @pytest.mark.parametrize("args, line", [
        ((0.1,), "QuadNum parts must be int or Fraction, got 0.1"),  # was 3602879701896397/2^55
        ((True,), "QuadNum parts must be int or Fraction, got True"),  # was 1
        ((1, "1", 2), "QuadNum parts must be int or Fraction, got '1'"),
        ((1, 1, 2.0), "radicand must be an integer, got 2.0"),  # was a TypeError
        ((1, 1, -2), "radicand must be non-negative, got -2"),  # was a ValueError
        ((1, 0, True), "radicand must be an integer, got True"),
    ])
    def test_quadnum_parts_must_be_exact(self, args, line):
        with pytest.raises(BadParams) as info:
            QuadNum(*args)
        assert f"{info.value.code}: {info.value}" == f"BadParams: {line}"

    def test_quad_ratio_folds_as_the_constructor_does(self):
        assert repr(quad_ratio(1, 2, 3, 4)) == "1/4 + 1/2*sqrt(3)"
        rng = Random(7031)
        for _ in range(300):
            t, r, w = rng.randint(-40, 40), rng.randint(-40, 40), rng.choice([-6, -1, 1, 2, 9])
            _, d = squarefree_decompose(rng.randint(0, 40))
            got, want = quad_ratio(t, r, d, w), QuadNum(Fraction(t, w), Fraction(r, w), d)
            assert (got.a, got.b, got.d) == (want.a, want.b, want.d)
            assert got.is_rational == (d <= 1 or r == 0)

    @pytest.mark.parametrize("digits, line", [
        (12.0, "digits must be an integer, got 12.0"),  # printed 0.333333333333.0
        (3.5, "digits must be an integer, got 3.5"),  # printed 0.1054.0
        (True, "digits must be an integer, got True"),
        (0, "digits must be between 1 and 1000, got 0"),  # was a ValueError
        (-2, "digits must be between 1 and 1000, got -2"),
    ])
    def test_digits_must_be_a_positive_int(self, digits, line):
        for render in (lambda: decimal_str(Fraction(1, 3), digits),
                       lambda: decimal_str(QuadNum(0, 1, 3), digits),
                       lambda: decimal_str(0, digits)):
            with pytest.raises(BadParams) as info:
                render()
            assert f"{info.value.code}: {info.value}" == f"BadParams: {line}"


class TestRendering:
    def test_format_rat(self):
        assert format_rat(Fraction(6, 5)) == "6/5"
        assert format_rat(Fraction(-27)) == "-27"
        assert format_rat(Fraction(0)) == "0"
        assert rat("16/3") == Fraction(16, 3)

    def test_decimal_fixed_significant_digits(self):
        assert decimal_str(Fraction(-1, 4), 12) == "-0.250000000000"
        assert decimal_str(Fraction(6, 5), 12) == "1.20000000000"
        assert decimal_str(Fraction(-27), 12) == "-27.0000000000"
        assert decimal_str(QuadNum(0, 1, 3), 12) == "1.73205080757"
        assert decimal_str(Fraction(0), 12) == "0"
        assert decimal_str(Fraction(6, 5), 5) == "1.2000"

    def test_decimal_is_correctly_rounded(self):
        # each printed string is read back and its error bounded exactly
        rng = Random(7011)
        values = [Fraction(0), 0, 1, -7, 123456789, -10 ** 25, Fraction(1, 3),
                  Fraction(-1, 3), Fraction(2, 3), QuadNum(Fraction(-5, 7)), QuadNum(0),
                  QuadNum(Fraction(1, 2), -2, 3), QuadNum(0, Fraction(1, 3), 7)]
        values += [Fraction(10) ** e * sign for e in range(-20, 21) for sign in (1, -1)]
        for _ in range(60):
            num = rng.randint(-10 ** rng.randint(1, 40), 10 ** 40)
            values.append(Fraction(num, rng.randint(1, 10 ** rng.randint(1, 40))))
        for digits in (1, 2, 12, 30, 1000):
            # exact ties at this many digits: a digits-long integer, then a 5
            for _ in range(8):
                head = rng.randint(10 ** (digits - 1), 10 ** digits - 1)
                tie = (10 * head + 5) / Fraction(10) ** (digits + 1 + rng.randint(-15, 15))
                values += [tie, -tie]
        for digits in (1, 2, 12, 30, 1000):
            for x in values:
                check_decimal(x, digits, decimal_str(x, digits))
        tie_even, tie_odd = (Fraction(m, 10 ** 12) + Fraction(5, 10 ** 13)
                             for m in (123456789012, 123456789011))
        assert decimal_str(tie_even, 12) == decimal_str(tie_odd, 12) == "0.123456789012"
        assert decimal_str(Fraction(25, 10), 1) == "2"
        assert decimal_str(Fraction(35, 10), 1) == "4"
        assert decimal_str(Fraction(-1, 3), 2) == "-0.33"
        assert decimal_str(Fraction(1, 3), 30) == "0." + "3" * 30
        assert decimal_str(12345, 2) == "1.2E+4"
        assert decimal_str(Fraction(-1, 10 ** 9), 3) == "-1.00E-9"
        assert decimal_str(0, 1000) == "0"

    @pytest.mark.parametrize("x, digits, text", [
        (Fraction(96 * 10 ** 13), 1, "1E+15"),
        (Fraction(95, 10), 1, "1E+1"),
        (Fraction(-96, 100), 1, "-1"),
        (QuadNum(0, 1, 99), 1, "1E+1"),  # sqrt(99) = 9.949...
        (Fraction(-999, 1000), 2, "-1.0"),
        (Fraction(995, 10), 2, "1.0E+2"),  # the tie 99.5 goes to the even 100
        (Fraction(1497001, 1497501), 3, "1.00"),  # a blowup_path row's gamma
        (Fraction(9999, 10), 3, "1.00E+3"),
        (Fraction(999996, 10 ** 8), 3, "0.0100"),
        (Fraction(999999999999999, 10 ** 14), 12, "10.0000000000"),
        (-Fraction(999999999999999, 10 ** 14), 12, "-10.0000000000"),
        (QuadNum(0, 1, 10 ** 14 - 1), 12, "10000000.0000"),  # 9999999.99999995...
        (QuadNum(Fraction(999999999999999, 10 ** 15)), 12, "1.00000000000"),
    ])
    def test_carry_into_a_new_leading_digit_keeps_the_digit_count(self, x, digits, text):
        # rounding up to a power of ten must not print digits + 1 significant digits
        assert decimal_str(x, digits) == text

    def test_interleaved_digit_counts(self):
        # decimal_str caches powers of ten across calls; no count may see another's
        rng = Random(7013)
        values = [Fraction(1, 3), Fraction(-2, 7), Fraction(10 ** 30 + 1, 3), 123456789,
                  QuadNum(0, 1, 3), QuadNum(Fraction(-1, 2), Fraction(5, 3), 7)]
        values += [Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 20))
                   for _ in range(10)]
        values += [QuadNum(x, Fraction(rng.randint(1, 99), rng.randint(1, 99)), 2)
                   for x in values[6:]]
        for digits in (5, 30, 1000, 5, 1, 1000, 30, 12, 5):
            for x in values:
                check_decimal(x, digits, decimal_str(x, digits))

    @staticmethod
    def pell_family(limit: int):
        """x - y*sqrt(2) for x^2 - 2y^2 = 1, x up to limit: 1/(x + y*sqrt(2)), so near 0."""
        x, y = 3, 2
        while x <= limit:
            yield x, y
            x, y = 3 * x + 4 * y, 2 * x + 3 * y

    def test_cancelling_values_keep_their_digits(self):
        # a + b*sqrt(d) with a close to -b*sqrt(d): the value lies far below its terms
        pell = list(self.pell_family(10 ** 30))
        assert len(pell) == 39 and pell[-1][0] > 10 ** 29
        for digits in (1, 2, 3, 12, 30, 1000):
            for x, y in pell:
                for q in (QuadNum(x, -y, 2), QuadNum(-x, y, 2)):
                    check_decimal(q, digits, decimal_str(q, digits))
        assert decimal_str(QuadNum(131836323, -93222358, 2)) == "3.79258150275E-9"
        x, y = 1572584048032918633353217, 1111984844349868137938112
        assert decimal_str(QuadNum(x, -y, 2)) == "3.17948029948E-25"
        assert decimal_str(QuadNum(-x, y, 2)) == "-3.17948029948E-25"

    def test_values_just_past_a_tie(self):
        tie = Fraction(1234567890125, 10 ** 13)
        assert decimal_str(tie + Fraction(1, 10 ** 40), 12) == "0.123456789013"
        assert decimal_str(tie - Fraction(1, 10 ** 40), 12) == "0.123456789012"
        assert decimal_str(tie, 12) == "0.123456789012"
        assert decimal_str(-tie - Fraction(1, 10 ** 40), 12) == "-0.123456789013"

    @pytest.mark.parametrize("digits", [1, 2, 3, 12, 30, 1000])
    def test_carries_at_every_digit_count(self, digits):
        # values that round up to a power of ten print it with exactly digits digits
        def power(exponent: int, sign: int = 0) -> str:
            return str(Decimal((sign, (1,) + (0,) * (digits - 1), exponent - digits + 1)))

        below = 1 - Fraction(4, 10 ** (digits + 1))  # four tenths of a unit below 1
        for e in (-9, -1, 0, 1, 15):
            x = below * Fraction(10) ** e
            assert decimal_str(x, digits) == power(e)
            assert decimal_str(-x, digits) == power(e, 1)
        tie = 1 - Fraction(5, 10 ** (digits + 1))  # halfway from 0.99..9 to 1: even is 1
        assert decimal_str(tie, digits) == power(0)
        root = QuadNum(10 ** digits + Fraction(1, 10), Fraction(-1, 10), 2)  # 10^digits - 0.04..
        assert decimal_str(root, digits) == power(digits)
        assert decimal_str(-root, digits) == power(digits, 1)
        for x in (below, tie, root, -root):
            check_decimal(x, digits, decimal_str(x, digits))

    @pytest.mark.parametrize("x, digits, text", [
        (QuadNum(131836323, -93222358, 2), 12, "3.79260000000E-9"),  # cancelled digits
        (QuadNum(1572584048032918633353217, -1111984844349868137938112, 2), 12, "0E-8"),
        (Fraction(1234567890125, 10 ** 13) + Fraction(1, 10 ** 40), 12, "0.123456789012"),
        (Fraction(999999999999999, 10 ** 14), 12, "10.00000000000"),  # 13 digits
        (Fraction(96, 10), 2, "10"),  # 9.6 prints 9.6: the power of ten is too far
        (Fraction(-96, 10), 2, "-10"),
        (Fraction(125, 100), 2, "1.3"),  # the tie goes to the even 1.2
        (Fraction(5, 4), 2, "+1.2"),  # not Decimal's form
        (Fraction(1, 4), 2, "0.25E0"),
        (Fraction(1, 3), 2, "-0.33"),
        (Fraction(1, 3), 2, "0"),
        (Fraction(0), 2, "0.0"),
    ])
    def test_the_check_refuses_wrong_strings(self, x, digits, text):
        # each string is a fault decimal_str once had, or one a fault would print
        with pytest.raises(AssertionError):
            check_decimal(x, digits, text)

    def test_digits_are_capped(self):
        root3 = QuadNum(0, 1, 3)
        text = decimal_str(root3, MAX_DECIMAL_DIGITS)
        assert len(text.replace(".", "")) == MAX_DECIMAL_DIGITS
        assert Decimal(text) == Context(prec=MAX_DECIMAL_DIGITS).sqrt(Decimal(3))
        for digits in (MAX_DECIMAL_DIGITS + 1, 3_000_000):
            start = time.perf_counter()
            with pytest.raises(BadParams) as info:
                decimal_str(root3, digits)
            assert time.perf_counter() - start < 0.1
            assert str(info.value) == (f"digits must be between 1 and {MAX_DECIMAL_DIGITS}, "
                                       f"got {digits}")

    def test_repr_is_readable(self):
        assert repr(QuadNum(Fraction(-1, 2), Fraction(1, 2), 3)) == "-1/2 + 1/2*sqrt(3)"
        assert repr(QuadNum(Fraction(3, 2))) == "3/2"

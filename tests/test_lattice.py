"""Lattice pairing, signature validation and hyperbolic-geometry properties."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from conftest import (fraction_signature, random_class, random_instance, random_kahler,
                      random_symmetric)
from jthresh import DivClass, IntersectionLattice, QuadNum, diagonal_lattice
from jthresh.lattice import validate_signature
from jthresh.errors import BadParams, BadSignature, DimensionMismatch


def naive_pair(matrix, x, y):
    """Direct double-loop oracle for x^T M y."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += xi * matrix[i][j] * yj
    return total


class TestPair:
    def test_product_of_curves_canonical_against_polarization(self):
        # diag(2, -2g), K = (2g-2, 0), L_t = (t, -1): K.L_t = 2t(2g-2)
        g, t = 4, 3
        lat = diagonal_lattice([2, -2 * g])
        k = DivClass([2 * g - 2, 0])
        lt = DivClass([t, -1])
        assert lat.pair(k, lt) == 2 * t * (2 * g - 2) == 36

    def test_blowup_basis_example(self):
        lat = diagonal_lattice([1, -1])
        assert lat.pair(DivClass([2, -1]), DivClass([5, -1])) == 9

    def test_zero_vector(self):
        rng = Random(8101)
        for _ in range(20):
            inst = random_instance(rng)
            zero = DivClass([0] * inst.lattice.rank)
            assert inst.lattice.pair(zero, random_class(rng, inst)) == 0

    def test_matches_naive_oracle(self):
        rng = Random(8102)
        for _ in range(100):
            inst = random_instance(rng)
            x, y = random_class(rng, inst), random_class(rng, inst)
            assert inst.lattice.pair(x, y) == naive_pair(inst.lattice.matrix,
                                                         x.coords, y.coords)

    def test_symmetry_and_bilinearity(self):
        rng = Random(8103)
        for _ in range(100):
            inst = random_instance(rng)
            lat = inst.lattice
            x, y, z = (random_class(rng, inst) for _ in range(3))
            a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5))
            assert lat.pair(x, y) == lat.pair(y, x)
            assert lat.pair(x.scale(a) + y.scale(b), z) == \
                a * lat.pair(x, z) + b * lat.pair(y, z)

    def test_dimension_mismatch(self):
        lat = diagonal_lattice([1, -1])
        with pytest.raises(DimensionMismatch):
            lat.pair(DivClass([1, 2, 3]), DivClass([1, 0]))


class TestSignature:
    def test_visible_examples(self):
        validate_signature(diagonal_lattice([1, -1]))
        with pytest.raises(BadSignature):
            validate_signature(diagonal_lattice([1, 1]))
        for g in range(1, 7):
            validate_signature(diagonal_lattice([2, -2 * g]))

    def test_hyperbolic_plane_needs_off_diagonal_pivot(self):
        lat = IntersectionLattice([[0, 1], [1, 0]])
        assert lat.signature() == (1, 1, 0)
        validate_signature(lat)

    def test_degenerate_rejected(self):
        with pytest.raises(BadSignature):
            validate_signature(diagonal_lattice([1, 0, -1]))
        with pytest.raises(BadSignature):
            validate_signature(diagonal_lattice([-1, -1]))

    def test_asymmetric_rejected_at_construction(self):
        with pytest.raises(BadSignature):
            IntersectionLattice([[1, 2], [3, 1]])

    @pytest.mark.parametrize("matrix, line", [
        ([[1, 2, 3], [2, 1, 0], [3, 1, 1]], "matrix not symmetric at (2,1)"),
        ([[1, 0, 5], [0, 1, 0], [4, 7, 1]], "matrix not symmetric at (2,0)"),
        ([[1, Fraction(1, 3)], [Fraction(1, 2), Fraction(1, 6)]], "matrix not symmetric at (1,0)"),
    ])
    def test_first_asymmetric_pair_is_named(self, matrix, line):
        # compared on the integer Gram matrix, row by row below the diagonal
        with pytest.raises(BadSignature) as info:
            IntersectionLattice(matrix)
        assert str(info.value) == line

    def test_signature_invariant_under_congruence(self):
        # instances are built as P^T diag(1, -d...) P, so this is an oracle
        rng = Random(8104)
        for _ in range(60):
            inst = random_instance(rng, sheared=True)
            assert inst.lattice.signature() == (1, inst.lattice.rank - 1, 0)

    def test_against_sympy_charpoly(self):
        # a real symmetric matrix has only real eigenvalues, so Descartes' rule
        # on its characteristic polynomial counts them exactly
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def sign_changes(coeffs):
            signs = [c > 0 for c in coeffs if c != 0]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        rng = Random(8106)
        singular = 0
        for _ in range(150):
            n = rng.randint(1, 5)
            k = rng.randint(1, n + 1)  # k < n rows make B^T D B singular
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            d = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
            gram = [[sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n)]
                    for i in range(n)]
            p = sympy.Matrix(gram).applyfunc(sympy.Rational).charpoly(x)
            coeffs = p.all_coeffs()  # highest degree first
            zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
            pos = sign_changes(coeffs)
            neg = sign_changes(p.as_expr().subs(x, -x).as_poly(x).all_coeffs())
            assert IntersectionLattice(gram).signature() == (pos, neg, zero), gram
            singular += zero > 0
        assert singular >= 30

    @pytest.mark.parametrize("kind", ["dense", "singular", "zero-diagonal", "block-diagonal"])
    def test_matches_fraction_oracle(self, kind):
        # integer Bareiss against Fraction congruence diagonalization, ranks 1-12
        rng = Random(8107)
        zero = 0
        for n in range(1, 13):
            for _ in range(8):
                matrix = random_symmetric(rng, n, kind)
                expected = fraction_signature(matrix)
                assert IntersectionLattice(matrix).signature() == expected, matrix
                zero += expected[2] > 0
        assert zero >= (96 if kind == "singular" else 0)

    def test_zero_diagonal_pivots_after_a_nonzero_one(self):
        # diag(-2) then a hyperbolic plane: the zero pivot comes after a negative d
        matrix = [[-2, 1, 0], [1, 0, 3], [0, 3, 0]]
        assert IntersectionLattice(matrix).signature() == fraction_signature(matrix) == (1, 2, 0)

    def test_split_pivot_keeps_the_divisor(self):
        # after the first step d = 2, and the pivot 3 splits off with d kept; the next
        # update divides 6*6 - 2*2 by that d = 2, exactly
        matrix = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 1], [0, 0, 1, 3]]
        assert IntersectionLattice(matrix).signature() == fraction_signature(matrix) == (4, 0, 0)
        # every pivot of a diagonal matrix splits off: rank 500 needs no products
        assert diagonal_lattice([1] + [-1] * 499).signature() == (1, 499, 0)

    def test_rank_50(self):
        # without the exact division by the previous pivot, entries would double in
        # bit length at every step
        matrix = random_symmetric(Random(8108), 50, "dense")
        assert IntersectionLattice(matrix).signature() == fraction_signature(matrix)

    def test_hirzebruch_style_gram(self):
        # section/fiber basis [[-a, 1], [1, 0]] is hyperbolic for every a
        for a in range(0, 5):
            validate_signature(IntersectionLattice([[-a, 1], [1, 0]]))


class TestImmutability:
    @pytest.mark.parametrize("name", ["rank", "matrix", "labels", "extra"])
    def test_lattice_attributes_cannot_be_assigned(self, name):
        lat = diagonal_lattice([1, -1])
        with pytest.raises(AttributeError):
            setattr(lat, name, 5)
        assert lat.rank == 2 and lat == diagonal_lattice([1, -1])

    def test_equal_lattices_hash_equal(self):
        ints = IntersectionLattice([[2, 1], [1, -3]])
        fractions = IntersectionLattice([[Fraction(4, 2), Fraction(3, 3)], [1, Fraction(-6, 2)]])
        assert ints == fractions and hash(ints) == hash(fractions)
        assert len({ints, fractions, diagonal_lattice([1, -1])}) == 2

    def test_labels_take_part_in_equality(self):
        assert diagonal_lattice([1, -1], ["H", "E"]) != diagonal_lattice([1, -1])
        assert diagonal_lattice([1, -1], ["b0", "b1"]) == diagonal_lattice([1, -1])

    def test_copy_and_pickle(self):
        lat = IntersectionLattice([[0, 1], [1, 0]], labels=["s", "f"])
        for clone in (copy.copy(lat), copy.deepcopy(lat), pickle.loads(pickle.dumps(lat))):
            assert clone == lat and clone.rank == 2


class TestHodgeIndex:
    def test_reversed_cauchy_schwarz(self):
        # on a (1, r-1) lattice, y^2 > 0 forces (x.y)^2 >= x^2 y^2
        rng = Random(8105)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng)
            lat = inst.lattice
            y = random_kahler(rng, inst)
            if lat.self_int(y) <= 0:
                continue
            x = random_class(rng, inst)
            assert lat.pair(x, y) ** 2 >= lat.self_int(x) * lat.self_int(y)
            checked += 1
        assert checked >= 150


class TestDivClass:
    def test_vector_ops(self):
        x, y = DivClass([1, 2]), DivClass([3, -1])
        assert (x + y).coords == (Fraction(4), Fraction(1))
        assert (x - y).coords == (Fraction(-2), Fraction(3))
        assert x.scale(Fraction(1, 2)).coords == (Fraction(1, 2), Fraction(1))
        assert (-x).coords == (Fraction(-1), Fraction(-2))

    def test_reprs(self):
        assert repr(DivClass([1, Fraction(-1, 2)])) == "(1, -1/2)"
        assert repr(diagonal_lattice([1, -1], ["H", "E"])) == (
            "IntersectionLattice(rank=2, labels=['H', 'E'])")

    def test_rational_times_class(self):
        assert Fraction(1, 2) * DivClass([2, 4]) == DivClass([1, 2])  # DivClass.__rmul__
        assert 3 * DivClass([1, Fraction(1, 3)]) == DivClass([3, 1])

    def test_integer_form(self):
        x = DivClass([Fraction(1, 6), -2, Fraction(3, 4), 0])
        assert x.integers == (12, (2, -24, 9, 0))
        assert x.integers is x.integers  # computed once
        assert DivClass([0, 0]).integers == (1, (0, 0))

    def test_mismatched_addition(self):
        with pytest.raises(DimensionMismatch):
            DivClass([1]) + DivClass([1, 2])

    def test_coordinates_and_pairings_are_fractions(self):
        x, y = DivClass([1, Fraction(1, 2)]), DivClass([3, -1])
        lat = IntersectionLattice([[1, Fraction(1, 3)], [Fraction(1, 3), -1]])
        values = (*x.coords, *(x + y).coords, *x.scale(2).coords, lat.pair(x, y), lat.self_int(y))
        assert {type(v) for v in values} == {Fraction}


@pytest.mark.parametrize("build, line", [
    (lambda: DivClass([0.1, 0]), "class coordinates must be int or Fraction, got 0.1"),
    (lambda: DivClass(["1/2", True]), "class coordinates must be int or Fraction, got '1/2'"),
    (lambda: DivClass([Fraction(1, 2), True]),
     "class coordinates must be int or Fraction, got True"),
    (lambda: DivClass("12"), "class coordinates must be int or Fraction, got '1'"),
    (lambda: DivClass([QuadNum(0, 1, 2), 0]),
     "class coordinates must be int or Fraction, got sqrt(2)"),
    (lambda: DivClass([2, -1]).scale(QuadNum(0, 1, 3)),
     "class coordinates must be int or Fraction, got 2*sqrt(3)"),
    (lambda: IntersectionLattice([["1", 0], [0, -1.0]]),
     "lattice entries must be int or Fraction, got '1'"),
    (lambda: IntersectionLattice([[1, 0], [0, -1.0]]),
     "lattice entries must be int or Fraction, got -1.0"),
    (lambda: diagonal_lattice([True, -1]), "lattice entries must be int or Fraction, got True"),
    (lambda: diagonal_lattice([1, QuadNum(0, 1, 2)]),
     "lattice entries must be int or Fraction, got sqrt(2)"),
], ids=["float", "string", "bool", "string-class", "quadnum", "scale-by-quadnum",
        "lattice-string", "lattice-float", "diagonal-bool", "diagonal-quadnum"])
def test_non_exact_entries_are_refused_with_one_line(build, line):
    with pytest.raises(BadParams) as info:
        build()
    assert f"{info.value.code}: {info.value}" == f"BadParams: {line}"


@pytest.mark.parametrize("labels", [[1, None], "HE", ["H", b"E"], {"H": 0, "E": 1}, 5])
def test_labels_must_be_a_list_or_tuple_of_strings(labels):
    # [1, None] was once kept as is, and "HE" taken as ("H", "E")
    with pytest.raises(BadParams) as info:
        IntersectionLattice([[1, 0], [0, -1]], labels)
    assert type(info.value) is BadParams and str(info.value) == "lattice labels must be strings"
    assert IntersectionLattice([[1, 0], [0, -1]], ("H", "E")).labels == ("H", "E")

"""One timing per kernel, with pytest-benchmark's ``benchmark`` fixture.

The kernels: ``IntersectionLattice.pair`` on rank 9, ``signature`` at ranks
8 and 50, ``validate_fan`` and ``toric_gamma`` (the localization table and
its 3^6 - 1 orbit scores) on (P^1)^6, ``toric_gamma`` on P^6 (2^7 - 2 orbit
scores, all equal), and ``surface_gamma`` on the del Pezzo surface of
degree 1 (k = 8, 240 facets).  The test suite runs each kernel
once and checks its result (``tests/conftest.py`` passes
``--benchmark-disable``); print the timings with

    PYTHONPATH=src python -m pytest -q tests/test_kernel_timings.py --benchmark-enable

The module is skipped when pytest-benchmark is not installed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from conftest import del_pezzo, fraction_signature, random_symmetric
from jthresh import DivClass, Fan, IntersectionLattice, Status, surface_gamma, toric_gamma
from jthresh.toric import validate_fan

pytest.importorskip("pytest_benchmark")


def test_pair(benchmark):
    lattice, cone, minus_k = del_pezzo(8)
    omega = DivClass([7] + [-2] * 8)
    assert benchmark(lattice.pair, minus_k, omega) == 5


@pytest.mark.parametrize("rank", [8, 50])
def test_signature(benchmark, rank):
    matrix = random_symmetric(Random(8700 + rank), rank, "dense")
    lattice = IntersectionLattice(matrix)
    assert benchmark(lattice.signature) == fraction_signature(matrix)


def p1_power(n: int) -> Fan:
    """(P^1)^n: rays 2i and 2i+1 are +e_i and -e_i."""
    rays = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
    return Fan(n, rays, [[2 * i + s for i, s in enumerate(signs)]
                         for signs in product((0, 1), repeat=n)])


def test_validate_fan(benchmark):
    bases, weights = benchmark(validate_fan, p1_power(6))
    assert len(bases) == len(weights) == 64


def test_toric_gamma(benchmark):
    # degrees a_i of omega and b_i of theta on the i-th P^1 factor, split over its two rays
    a = [1, 2, 3, Fraction(1, 2), 5, Fraction(7, 3)]
    b = [2, -1, Fraction(1, 2), 0, Fraction(-5, 7), 3]
    omega = DivClass([x for ai in a for x in (Fraction(1, 5), ai - Fraction(1, 5))])
    theta = DivClass([x for bi in b for x in (bi, 0)])
    ratios = [Fraction(bi) / ai for ai, bi in zip(a, b)]
    res = benchmark(toric_gamma, p1_power(6), theta, omega)
    assert res.C == sum(ratios) and len(res.scores) == 3 ** 6 - 1
    assert res.value == min(ratios)  # an orbit's score is the mean ratio over its fixed factors


def projective_space(n: int) -> Fan:
    """P^n: rays e_1..e_n and -(e_1 + ... + e_n); every ray divisor is a hyperplane."""
    rays = [[int(j == i) for j in range(n)] for i in range(n)] + [[-1] * n]
    return Fan(n, rays, [[i for i in range(n + 1) if i != k] for k in range(n + 1)])


def test_toric_gamma_projective_space(benchmark):
    # a class is its coefficient sum times H: omega = alpha H and theta = beta H
    omega = DivClass([Fraction(1, 5), 2, Fraction(3, 7), 1, Fraction(1, 2), 3, Fraction(2, 9)])
    theta = DivClass([-1, Fraction(2, 3), 0, Fraction(5, 11), 2, -3, Fraction(1, 4)])
    n, alpha, beta = 6, sum(omega.coords), sum(theta.coords)
    res = benchmark(toric_gamma, projective_space(n), theta, omega)
    assert res.C == n * beta / alpha and len(res.scores) == 2 ** (n + 1) - 2
    assert all(s.value == beta / alpha for s in res.scores)


def test_surface_gamma(benchmark):
    lattice, cone, minus_k = del_pezzo(8)
    res = benchmark(surface_gamma, lattice, cone, minus_k, DivClass([7] + [-2] * 8))
    assert res.status is Status.SOLVABLE and res.value == res.audit.C - res.audit.sigma

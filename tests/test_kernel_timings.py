"""One timing per kernel, with pytest-benchmark's ``benchmark`` fixture.

The kernels: ``IntersectionLattice.pair`` on rank 9, ``signature`` at ranks
8 and 50, ``validate_fan``, the ``validate`` command on its document and
``toric_gamma`` (the localization table and its 3^6 - 1 orbit scores) on
(P^1)^6, ``parse_document`` on a rank-8 sheared lattice document with its
facets, ``toric_gamma`` on P^6 (2^7 - 2 orbit scores, all equal), and
``surface_gamma`` on the del Pezzo surface of degree 1 (k = 8, 240 facets),
``decimal_str`` on a rational and on a cancelling QuadNum at 12 and 1000
digits, and the ``path`` command's handler on the ``blowup_path`` export at
1000 samples (its rows, both decimal columns included).  The test suite runs
each kernel once and checks its result (``tests/conftest.py`` passes
``--benchmark-disable``); print the timings with

    PYTHONPATH=src python -m pytest -q tests/test_kernel_timings.py --benchmark-enable

The module is skipped when pytest-benchmark is not installed.
"""

from __future__ import annotations

import json
from decimal import Context, Decimal
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from conftest import (check_decimal, del_pezzo, fraction_signature, random_instance,
                      random_symmetric)
from jthresh import (DivClass, Fan, IntersectionLattice, QuadNum, Status, sample_path,
                     surface_gamma, toric_gamma)
from jthresh.cli import _cmd_path, run
from jthresh.documents import InputDocument, document_to_json, parse_document
from jthresh.exactnum import decimal_str, format_rat
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
    weights = benchmark(validate_fan, p1_power(6))
    assert len(weights) == 64


def test_validate_command(benchmark):
    # the whole query: JSON, the document's integer gate, validate_fan and the orbit count
    fan = p1_power(6)
    doc = json.dumps({"fan": {"dim": 6, "rays": fan.rays, "max_cones": fan.max_cones}}).encode()
    code, out = benchmark(run, ["validate", "--format", "json"], doc)
    assert code == 0 and json.loads(out)["fan"]["orbits"] == 3 ** 6 - 1


def test_parse_lattice_document(benchmark):
    # 64 matrix entries and the facets as 'p/q' strings, and the signature check
    inst = random_instance(Random(8708), rank=8, light_cone=False, sheared=True)
    data = document_to_json(InputDocument(lattice=inst.lattice, cone=inst.cone))
    doc = benchmark(parse_document, data)
    assert doc.lattice.rank == 8 and doc.lattice.signature() == (1, 7, 0)
    assert doc.lattice == inst.lattice and doc.cone.facets == inst.cone.facets


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


def pell_text(digits: int) -> str:
    """131836323 - 93222358*sqrt(2) = 1/(131836323 + 93222358*sqrt(2)), by Decimal."""
    wide = Context(prec=digits + 100)
    conjugate = wide.add(Decimal(131836323), wide.multiply(Decimal(93222358),
                                                           wide.sqrt(Decimal(2))))
    return str(Context(prec=digits).divide(Decimal(1), conjugate))


@pytest.mark.parametrize("x, digits, text", [
    (Fraction(1, 7), 12, "0.142857142857"),
    (Fraction(1, 7), 1000, "0." + "142857" * 166 + "1429"),
    (QuadNum(131836323, -93222358, 2), 12, "3.79258150275E-9"),
    (QuadNum(131836323, -93222358, 2), 1000, pell_text(1000)),
], ids=["rational-12", "rational-1000", "cancelling-12", "cancelling-1000"])
def test_decimal_str(benchmark, x, digits, text):
    assert benchmark(decimal_str, x, digits) == text
    check_decimal(x, digits, text)


def test_path_command(benchmark):
    doc = parse_document(json.loads(run(["catalog", "blowup_path", "--export"])[1]))
    theta, a = doc.classes["theta"], doc.classes["a"]
    payload = benchmark(_cmd_path, doc.lattice, doc.cone, theta, a, 1000, 12)
    samples = sample_path(doc.lattice, doc.cone, theta, a, 1000)
    assert [(row["gamma_value"], row["decimal_approx"]) for row in payload["rows"]] == [
        (format_rat(s.gamma), decimal_str(s.gamma, 12)) for s in samples]

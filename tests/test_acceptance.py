"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one `criterion N: PASS` line when it succeeds; a failing
criterion shows up as a failing test.  Every comparison in this module is
exact rational or quadratic-irrational equality; no floating-point
tolerances appear anywhere.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path
from random import Random

from conftest import (quad_coords, quad_pair, random_class, random_instance, random_kahler,
                      segment)
from jthresh import (DivClass, Fan, LightConeFacet, NefConeModel, QuadNum,
                     Status, build, csck_criterion,
                     diagonal_lattice, intersection_number, is_solvable,
                     ross_gamma_closed_form, ross_polarization, subvariety_score,
                     surface_gamma, toric_gamma)
from jthresh.catalog import hirzebruch_fan
from jthresh.cones import seshadri_T, sigma_inf
from jthresh.surface import path_R
from jthresh.toric import enumerate_orbits, is_ample

_SUITE_START = time.perf_counter()


def _report(number: int, started: float, summary: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS ({elapsed:.3f}s) {summary}")


def test_criterion_1_ross_g4_closed_form():
    started = time.perf_counter()
    entry = build("ross", {"g": 4, "s_C": 2})
    expected = {3: Fraction(6, 5), 4: Fraction(1), 10: Fraction(1, 2)}
    for t, value in expected.items():
        res = surface_gamma(entry.lattice, entry.cone, entry.classes["K"],
                            ross_polarization(t))
        assert res.value == value == Fraction(6, t + 2)
        assert res.value == ross_gamma_closed_form(4, 2, t)
        assert res.status is Status.SOLVABLE
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, started, "pipeline equals 6/(t+2) at t in {3,4,10}, exactly")


def test_criterion_2_ross_g16_divergence():
    started = time.perf_counter()
    entry = build("ross", {"g": 16, "s_C": Fraction(16, 3)})
    k_cls = entry.classes["K"]
    res = surface_gamma(entry.lattice, entry.cone, k_cls, ross_polarization(6))
    assert res.value == -27 and res.status is Status.EXACT_UNSTABLE
    values = []
    for k in range(2, 21):
        t = Fraction(16, 3) + Fraction(1, k)
        r = surface_gamma(entry.lattice, entry.cone, k_cls, ross_polarization(t))
        assert r.value == ross_gamma_closed_form(16, Fraction(16, 3), t)
        values.append(r.value)
    assert all(b < a for a, b in zip(values, values[1:]))  # strictly decreasing
    assert all(v < -50 for v in values[8:])                # k >= 10
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, started, "value -27 at t=6; strictly decreasing below -50 by k=10")


def test_criterion_3_blowup_cross_validation():
    started = time.perf_counter()
    lattice = diagonal_lattice([1, -1], labels=["H", "E"])
    cone = NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                        facet_labels=["E", "F"])
    surf = surface_gamma(lattice, cone, DivClass([2, -1]), DivClass([5, -1]))
    fan = hirzebruch_fan(1)
    h, e = DivClass([0, 0, 0, 1]), DivClass([0, 1, 0, 0])
    tor = toric_gamma(fan, h.scale(2) - e, h.scale(5) - e)
    assert surf.value == Fraction(-1, 4) and tor.value == Fraction(-1, 4)
    assert tor.minimizer == (1,)                       # the exceptional ray
    assert surf.audit.binding_facet_sigma == "E"       # same divisor binds sigma
    assert surf.status is tor.status is Status.EXACT_UNSTABLE
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, started, "lattice and fan routes agree at -1/4 on the exceptional curve")


def test_criterion_4_affine_law():
    started = time.perf_counter()
    rng = Random(990401)
    checked = 0
    while checked < 200:
        inst = random_instance(rng)
        theta = random_class(rng, inst)
        omega = random_kahler(rng, inst)
        a = Fraction(rng.randint(0, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        base = surface_gamma(inst.lattice, inst.cone, theta, omega).value
        mixed = surface_gamma(inst.lattice, inst.cone,
                              theta.scale(a) + omega.scale(b), omega).value
        assert mixed == a * base + QuadNum(b)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(4, started, f"value(a*theta + b*omega) affine in the twist on {checked} instances")


def test_criterion_5_reciprocity_and_path_identity():
    started = time.perf_counter()
    rng = Random(990502)
    checked = 0
    while checked < 200:
        inst = random_instance(rng)
        theta = random_kahler(rng, inst)
        omega = random_kahler(rng, inst)
        s, _ = sigma_inf(inst.lattice, inst.cone, theta, omega)
        t_a, _ = seshadri_T(inst.lattice, inst.cone, omega, theta)
        assert s * t_a == 1
        for k in range(1, 21):  # 20-point path identity on every instance
            tt = Fraction(k, 20)
            omega_t = segment(omega, theta, tt)
            t_path, _ = seshadri_T(inst.lattice, inst.cone, omega_t, theta)
            assert t_path == (1 - tt) * t_a + QuadNum(tt)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(5, started, f"sigma(theta,omega)*T(omega,theta) == 1 on {checked} pairs"
                        " with 20-point path identity")


def test_criterion_6_perfect_lightcone_models():
    started = time.perf_counter()
    rng = Random(990603)
    lattices = 0
    while lattices < 50:
        rank = rng.randint(2, 4)
        inst = random_instance(rng, rank=rank, light_cone=True)
        if inst.cone.facets:
            inst.cone = NefConeModel(facets=[], light_cone=inst.cone.light_cone)
        for _ in range(3):
            theta = random_kahler(rng, inst)
            omega = random_kahler(rng, inst)
            res = surface_gamma(inst.lattice, inst.cone, theta, omega)
            t, t_facet = seshadri_T(inst.lattice, inst.cone, theta, omega)
            assert t_facet == "light-cone"
            assert res.value == t  # value == smaller root == T
            null = quad_coords((1, theta), (-t, omega))
            assert quad_pair(inst.lattice, null, null) == 0
            assert is_solvable(inst.lattice, inst.cone, theta, omega)
            assert res.status is Status.SOLVABLE
        lattices += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(6, started, f"light-cone-only: value == smaller root == T, always solvable "
                        f"({lattices} lattices)")


def test_criterion_7_path_numerator_and_half_threshold():
    started = time.perf_counter()
    lattice = diagonal_lattice([1, -1], labels=["H", "E"])
    cone = NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                        facet_labels=["E", "F"])
    theta = DivClass([2, -1])
    # normalized segment: theta^2 = a^2 forces numerator a^2 (2t - 1)
    lat3 = diagonal_lattice([1, -1, -1])
    theta3 = DivClass([3, -1, -1])
    cone3 = NefConeModel(facets=[DivClass([3, 4, 0])],
                         light_cone=LightConeFacet(theta3))
    analysis = path_R(lat3, cone3, theta3, DivClass([4, 3, 0]))
    assert analysis.numerator == (Fraction(-7), Fraction(14))
    assert analysis.solvable_from == Fraction(1, 2)
    # zero-square boundary: solvable on all of (0, 1]
    zero_sq = path_R(lattice, cone, theta, DivClass([1, -1]))
    assert zero_sq.solvable_from == 0
    # blowup path: boundary point (sqrt(3)-1)/2 with 4x^2 + 4x - 2 == 0
    blowup = path_R(lattice, cone, theta, DivClass([1, 0]))
    x = blowup.solvable_from
    assert x == QuadNum(Fraction(-1, 2), Fraction(1, 2), 3)
    assert 4 * x * x + 4 * x - 2 == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(7, started, "numerator a^2(2t-1) under normalization; boundary (sqrt(3)-1)/2")


def test_criterion_8_toric_ground_truth():
    started = time.perf_counter()
    for a in (1, 2, 3):
        fan = hirzebruch_fan(a)
        section = DivClass([0, 1, 0, 0])
        assert intersection_number(fan, [section, section]) == -a
    p2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    line = DivClass([1, 0, 0])
    assert intersection_number(p2, [line, line]) == 1
    quadric = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                  [(0, 1), (1, 2), (2, 3), (3, 0)])
    h1, h2 = DivClass([1, 0, 0, 0]), DivClass([0, 1, 0, 0])
    products = (intersection_number(quadric, [h1, h1]),
                intersection_number(quadric, [h1, h2]),
                intersection_number(quadric, [h2, h2]))
    assert products == (0, 1, 0)
    # per-orbit affinity in the twist with value 1 at s = 1
    rng = Random(990804)
    for fan in (p2, hirzebruch_fan(1), quadric):
        for _ in range(10):
            omega = None
            while omega is None:
                cand = DivClass([Fraction(rng.randint(1, 6)) for _ in fan.rays])
                omega = cand if is_ample(fan, cand) else None
            theta = DivClass([Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                              for _ in fan.rays])
            for sigma in enumerate_orbits(fan):
                v_theta = subvariety_score(fan, theta, omega, sigma).value
                v_half = subvariety_score(
                    fan, theta.scale(Fraction(1, 2)) + omega.scale(Fraction(1, 2)),
                    omega, sigma).value
                v_one = subvariety_score(fan, omega, omega, sigma).value
                assert v_one == 1
                assert v_theta == 2 * v_half - 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(8, started, "section^2 = -a, line^2 = 1, ruling products (0,1,0), affine scores")


def test_criterion_9_csck_alpha_criterion():
    started = time.perf_counter()
    entry = build("ross", {"g": 16, "s_C": Fraction(16, 3)})
    l6 = ross_polarization(6)
    for alpha, expected in ((Fraction(18), False),
                            (Fraction(18) + Fraction(1, 1000), True),
                            (Fraction(100), True),
                            (Fraction(35, 2), False)):
        rep = csck_criterion(entry.lattice, entry.cone, entry.classes["K"],
                             l6, alpha)
        assert rep.holds == expected
        assert rep.lhs == -27
        assert rep.caveat == "requires discrete automorphism group"
    lattice = diagonal_lattice([1, -1], labels=["H", "E"])
    cone = NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                        facet_labels=["E", "F"])
    zero = DivClass([0, 0])
    for alpha in (Fraction(1, 1000), Fraction(1), Fraction(999)):
        rep = csck_criterion(lattice, cone, zero, DivClass([5, -1]), alpha)
        assert rep.holds and rep.lhs == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(9, started, "holds iff alpha > 18 on the g=16 instance; always for zero twist")


def test_criterion_10_suite_budget_and_exactness():
    started = time.perf_counter()
    total = time.perf_counter() - _SUITE_START
    assert total < 30.0
    # tolerance machinery must not appear anywhere in the acceptance source;
    # tokens are split so this check does not trip over itself
    source = Path(__file__).read_text()
    for banned in ("app" + "rox", "is" + "close", "rel_" + "tol", "abs_" + "tol"):
        assert banned not in source
    _report(10, started, f"acceptance wall clock {total:.2f}s < 30s, no float tolerances")

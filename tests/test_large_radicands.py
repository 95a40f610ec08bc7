"""Light-cone answers whose radicand trial division cannot fully reduce.

Trial division stops at ``exactnum.MAX_TRIAL_DIVISOR``, and a radicand keeps
what is still undecided there.  On the model diag(1, -1, -1) with light cone
H = (1, 0, 0) and coordinates of 6 to 12 digits, most discriminants reach that
cap.  Each query must answer in under 0.5 s, and each printed irrational
rat + coef*sqrt(rad) must solve its defining quadratic.  The check uses
Fractions over the document's own integers, never jthresh's arithmetic.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import isqrt
from random import Random

import pytest

from jthresh.cli import run

FORM = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]


def pair(x: list[int], y: list[int]) -> int:
    return sum(FORM[i][j] * x[i] * y[j] for i in range(3) for j in range(3))


def is_root(value, c0: Fraction, c1: Fraction, c2: Fraction) -> bool:
    """Whether a printed value solves c0 + c1*x + c2*x^2 = 0, its radicand not a square."""
    if isinstance(value, str):
        x = Fraction(value)
        return c0 + c1 * x + c2 * x * x == 0
    r, c, d = Fraction(value["rat"]), Fraction(value["coef"]), value["rad"]
    # (r + c sqrt(d))^2 = r^2 + c^2 d + 2rc sqrt(d); sqrt(d) is irrational, so both parts vanish
    return (isqrt(d) ** 2 != d and c != 0 and c0 + c1 * r + c2 * (r * r + c * c * d) == 0
            and (c1 + 2 * c2 * r) * c == 0)


def answer(argv: list[str], classes: dict[str, list[int]], matrix=FORM,
           cone=None) -> dict:
    """The query's JSON output, after checking it exits 0 in under 0.5 s."""
    doc = json.dumps({"lattice": {"matrix": [[str(v) for v in row] for row in matrix]},
                      "cone": cone or {"light_cone": {"H": ["1", "0", "0"]}},
                      "classes": {k: [str(v) for v in x] for k, x in classes.items()}})
    start = time.perf_counter()
    code, out = run([*argv, "--format", "json"], doc.encode())
    assert time.perf_counter() - start < 0.5, argv
    assert code == 0, out
    return json.loads(out)


def light_cone_class(rng: Random, digits: int) -> list[int]:
    """(x0, x1, x2) with x0 of the given digits and |x1|, |x2| < 0.7 x0: inside the cone."""
    x0 = rng.randint(5 * 10 ** (digits - 1), 10 ** digits - 1)
    bound = x0 * 7 // 10
    return [x0, rng.randint(-bound, bound), rng.randint(-bound, bound)]


@pytest.mark.parametrize("digits", [6, 8, 12])
def test_gamma_roots_solve_the_light_cone_quadratic(digits):
    rng = Random(3700 + digits)
    radicands = []
    for _ in range(3):
        theta, omega = light_cone_class(rng, digits), light_cone_class(rng, digits)
        out = answer(["gamma", "--theta", "theta", "--omega", "omega"],
                     {"theta": theta, "omega": omega})
        tt, tw, ww = pair(theta, theta), pair(theta, omega), pair(omega, omega)
        audit, value = out["audit"], out["exact"]["value"]
        # sigma and T: omega^2 delta^2 - 2(theta.omega) delta + theta^2 = 0
        for root in (audit["sigma"], audit["T"]):
            assert is_root(root, Fraction(tt), Fraction(-2 * tw), Fraction(ww)), out
        assert Fraction(audit["C"]) == Fraction(2 * tw, ww)
        if isinstance(value, dict):  # the value is C - sigma
            sigma = audit["sigma"]
            assert (Fraction(value["rat"]), Fraction(value["coef"]), value["rad"]) == (
                Fraction(2 * tw, ww) - Fraction(sigma["rat"]), -Fraction(sigma["coef"]),
                sigma["rad"])
            radicands.append(value["rad"])
    if digits == 12:  # some radicand keeps a part trial division left undecided
        assert any(d > 10 ** 18 for d in radicands)


# theta^2 = p^3 and a^2 = 1 for a prime p past the cap: the radicand is p^3 itself
P = 10000019
P3_MATRIX = [[1, 0], [0, -1]]
P3_CONE = {"facets": [["0", "1"]], "facet_labels": ["E"], "light_cone": {"H": ["2", "-1"]}}
P3_CLASSES = {"theta": [(P**3 + 1) // 2, -(P**3 - 1) // 2], "a": [1, 0]}


def p3_squares() -> tuple[Fraction, Fraction]:
    """theta^2 and a^2 on diag(1, -1)."""
    return tuple(Fraction(x * x - y * y) for x, y in (P3_CLASSES["theta"], P3_CLASSES["a"]))


def test_path_bound_solves_its_equation_past_the_cap():
    # the bound t0 of the solvable set: theta^2 t0^2 = a^2 (1 - t0)^2
    out = answer(["path", "--theta", "theta", "--a", "a"], P3_CLASSES, P3_MATRIX, P3_CONE)
    tt, aa = p3_squares()
    t0 = out["solvable_set"][0]["lo"]
    assert t0["rad"] == P**3 and is_root(t0, -aa, 2 * aa, tt - aa)


def test_stable_cone_normalization_solves_its_equation_past_the_cap():
    # lambda^2 a^2 = theta^2
    out = answer(["stable-cone", "--theta", "theta", "--a", "a"], P3_CLASSES, P3_MATRIX, P3_CONE)
    tt, aa = p3_squares()
    lam = out["exact"]["normalization"]
    assert lam["rad"] == P**3 and is_root(lam, -tt, Fraction(0), aa)


def test_the_root_check_refuses_a_wrong_root():
    # sqrt(2) solves x^2 - 2 = 0; sqrt(8), 1 + sqrt(2) and a square radicand do not
    two = (Fraction(-2), Fraction(0), Fraction(1))
    assert is_root({"rat": "0", "coef": "1", "rad": 2}, *two)
    assert not is_root({"rat": "0", "coef": "1", "rad": 8}, *two)
    assert not is_root({"rat": "1", "coef": "1", "rad": 2}, *two)
    assert not is_root({"rat": "0", "coef": "1", "rad": 4}, *(Fraction(-4), Fraction(0),
                                                             Fraction(1)))

"""Catalog families: construction, closed forms, pipeline agreement."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from jthresh import (Status, build, intersection_number, ross_gamma_closed_form,
                     ross_polarization, stable_subcone, surface_gamma)
from jthresh.catalog import MAX_RANK
from jthresh.cli import run
from jthresh.cones import is_kahler, is_nef
from jthresh.surface import PerfectCone
from jthresh.errors import BadParams, OutOfDomain, UnknownName


class TestBuild:
    def test_ross_shape(self):
        entry = build("ross", {"g": 4, "s_C": 2})
        assert entry.lattice.matrix == ((Fraction(2), Fraction(0)),
                                        (Fraction(0), Fraction(-8)))
        assert entry.classes["K"].coords == (Fraction(6), Fraction(0))
        assert entry.cone.facet_labels == ("w_low", "w_up")
        assert entry.notes  # the model-facet caveat travels with the entry

    def test_ross_facets_act_as_covectors(self):
        entry = build("ross", {"g": 4, "s_C": 2})
        lat = entry.lattice
        w_low, w_up = entry.cone.facets
        probe = ross_polarization(Fraction(7, 2))
        # pair(w_low, (x,y)) = x + s_C y, pair(w_up, (x,y)) = x - g y
        assert lat.pair(w_low, probe) == Fraction(7, 2) - 2
        assert lat.pair(w_up, probe) == Fraction(7, 2) + 4

    def test_ross_bad_params(self):
        with pytest.raises(BadParams):
            build("ross", {"g": 3, "s_C": 1})      # s_C^2 < g
        with pytest.raises(BadParams):
            build("ross", {"g": 1, "s_C": 5})      # genus too small
        with pytest.raises(BadParams):
            build("ross", {"g": 4, "s_C": -3})
        with pytest.raises(BadParams):
            build("ross", {"g": Fraction(7, 2), "s_C": 2})
        with pytest.raises(BadParams):
            build("ross", {"g": 4})

    def test_unknown_family(self):
        with pytest.raises(UnknownName):
            build("dolgachev", {})
        with pytest.raises(BadParams):
            build("ross", {"g": 4, "s_C": 2, "x": 1})

    def test_hirzebruch_matches_toric_engine(self):
        for a in (0, 1, 2, 3):
            entry = build("hirzebruch", {"a": a})
            fan = entry.fan
            for la in ("H", "E", "F"):
                for lb in ("H", "E", "F"):
                    toric_val = intersection_number(
                        fan, [entry.toric_classes[la],
                              entry.toric_classes[lb]])
                    lattice_val = entry.lattice.pair(entry.classes[la],
                                                     entry.classes[lb])
                    assert toric_val == lattice_val, (a, la, lb)

    def test_hirzebruch_one_is_the_blowup_model(self):
        entry = build("hirzebruch", {"a": 1})
        assert entry.classes["H"].coords == (Fraction(1), Fraction(0))
        assert entry.classes["E"].coords == (Fraction(0), Fraction(1))
        assert entry.classes["F"].coords == (Fraction(1), Fraction(-1))

    def test_perfect_lightcone(self):
        entry = build("perfect_lightcone", {"rank": 3})
        assert entry.lattice.rank == 3
        assert entry.cone.light_cone is not None and not entry.cone.facets
        with pytest.raises(BadParams):
            build("perfect_lightcone", {"rank": 0})

    def test_perfect_lightcone_rank_is_capped(self):
        assert build("perfect_lightcone", {"rank": MAX_RANK}).lattice.rank == MAX_RANK
        assert run(["catalog", "perfect_lightcone", "--rank", str(MAX_RANK + 1)]) == (
            2, f"BadParams: rank must be between 1 and {MAX_RANK}, got {MAX_RANK + 1}\n".encode())

    def test_blowup_path_entry(self):
        entry = build("blowup_path", {})
        a = entry.classes["a"]
        theta = entry.classes["theta"]
        assert is_nef(entry.lattice, entry.cone, a)
        assert not is_kahler(entry.lattice, entry.cone, a)
        assert is_kahler(entry.lattice, entry.cone, theta)
        res = stable_subcone(entry.lattice, entry.cone, theta, a)
        assert not isinstance(res, PerfectCone)
        assert res.normalization * res.normalization == 3


class TestClosedForm:
    def test_known_values(self):
        assert ross_gamma_closed_form(4, 2, 3) == Fraction(6, 5)
        assert ross_gamma_closed_form(4, 2, 4) == 1
        assert ross_gamma_closed_form(16, Fraction(16, 3), 6) == -27

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            ross_gamma_closed_form(4, 2, 1)
        with pytest.raises(OutOfDomain):
            ross_gamma_closed_form(4, 2, 2)
        with pytest.raises(BadParams):
            ross_gamma_closed_form(3, 1, 5)

    def test_pipeline_agreement_random(self):
        rng = Random(8501)
        for _ in range(40):
            g = rng.randint(2, 12)
            s_c = Fraction(rng.randint(0, 6), rng.randint(1, 3))
            s_c += Fraction(1 + int(g ** 0.5))  # push above sqrt(g)
            if s_c * s_c < g:
                continue
            entry = build("ross", {"g": g, "s_C": s_c})
            t = s_c + Fraction(rng.randint(1, 30), rng.randint(1, 7))
            res = surface_gamma(entry.lattice, entry.cone,
                                entry.classes["K"], ross_polarization(t))
            assert res.value == ross_gamma_closed_form(g, s_c, t)
            assert res.audit.binding_facet_sigma == "w_low"

    def test_divergence_at_the_ample_threshold(self):
        # s_C^2 > g: values fall without bound as t walks down to s_C
        g, s_c = 16, Fraction(16, 3)
        values = [ross_gamma_closed_form(g, s_c, s_c + Fraction(1, k))
                  for k in range(2, 21)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[8] < -50  # k = 10
        k = 40
        assert ross_gamma_closed_form(g, s_c, s_c + Fraction(1, k)) < -k * (2 * g - 2) // 2

    def test_bounded_branch_at_square_genus(self):
        # s_C = sqrt(g) rational: the closed form is (2g-2)/(t + sqrt(g)),
        # positive and increasing as t decreases to the threshold
        g, s_c = 4, Fraction(2)
        values = [ross_gamma_closed_form(g, s_c, s_c + Fraction(1, k))
                  for k in range(2, 20)]
        assert all(v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        for k in range(2, 20):
            t = s_c + Fraction(1, k)
            assert ross_gamma_closed_form(g, s_c, t) == Fraction(2 * g - 2) / (t + 2)


class TestRossPipelineStatuses:
    def test_g4_is_always_solvable(self):
        entry = build("ross", {"g": 4, "s_C": 2})
        for t in (Fraction(5, 2), 3, 7, 40):
            res = surface_gamma(entry.lattice, entry.cone,
                                entry.classes["K"], ross_polarization(t))
            assert res.status is Status.SOLVABLE

    def test_g16_unstable_near_threshold(self):
        entry = build("ross", {"g": 16, "s_C": Fraction(16, 3)})
        res = surface_gamma(entry.lattice, entry.cone,
                            entry.classes["K"], ross_polarization(6))
        assert res.status is Status.EXACT_UNSTABLE and res.value == -27

"""Threshold formula, status taxonomy, path analysis, subcone, cscK criterion."""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction
from random import Random

import pytest

from conftest import (ample_difference_solvable, constants_outcome, del_pezzo,
                      fraction_cone_constants, poly_at, positive_set, quad_coords, quad_pair,
                      random_class, random_instance, random_kahler, rnd_fraction, segment)
from jthresh import cli, cones, exactnum, surface
from jthresh import (DivClass, IntersectionLattice, LightConeFacet,
                     NefConeModel, QuadNum, Status, build,
                     csck_criterion, diagonal_lattice,
                     is_solvable, sample_path,
                     stable_subcone, surface_gamma)
from jthresh.cli import run
from jthresh.documents import parse_document
from jthresh.cones import LIGHT_CONE, cone_constants, is_kahler, seshadri_T
from jthresh.errors import (ANotOnBoundary, BadConeModel, BadParams, BadSignature, JThreshError,
                            NegativeSelfIntersection, OmegaNotKahler, ThetaNotKahler, ZeroVolume)
from jthresh.exactnum import decimal_str, format_rat, rat_sqrt
from jthresh.surface import CSCK_CAVEAT, MAX_SAMPLES, PerfectCone, c_constant, path_R

F1_LATTICE = diagonal_lattice([1, -1], labels=["H", "E"])
F1_CONE = NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                       facet_labels=["E", "F"])
F1_THETA = DivClass([2, -1])
F1_OMEGA = DivClass([5, -1])


def ross_model(g: int, s_c: Fraction):
    lat = diagonal_lattice([2, -2 * g])
    cone = NefConeModel(
        facets=[DivClass([Fraction(1, 2), -s_c / (2 * g)]),
                DivClass([Fraction(1, 2), Fraction(1, 2)])],
        facet_labels=["w_low", "w_up"])
    return lat, cone, DivClass([2 * g - 2, 0])


def _normalized_numerator(lattice, theta, a, lam, t):
    """The path numerator at t along omega_t = (1-t)*lam*a + t*theta, lam possibly irrational.

    By definition R(t) = t*omega_t^2*gamma(t), with gamma = C - 1/t and
    C = 2 theta.omega_t / omega_t^2, so R(t) = 2t theta.omega_t - omega_t^2.
    """
    omega_t = quad_coords(((1 - t) * lam, a), (t, theta))
    return 2 * t * quad_pair(lattice, theta.coords, omega_t) - quad_pair(lattice, omega_t, omega_t)


class TestCConstant:
    def test_known_values(self):
        lat, _, k = ross_model(4, Fraction(2))
        # 2 K.L_3 / L_3^2 = 2*36/10; the closed form's first term at t = 3
        assert c_constant(lat, k, DivClass([3, -1])) == Fraction(36, 5)
        assert c_constant(F1_LATTICE, F1_THETA, F1_OMEGA) == Fraction(3, 4)

    def test_normalization_at_theta_equals_omega(self):
        rng = Random(8301)
        for _ in range(40):
            inst = random_instance(rng)
            omega = random_kahler(rng, inst)
            assert c_constant(inst.lattice, omega, omega) == 2

    def test_zero_volume(self):
        with pytest.raises(ZeroVolume):
            c_constant(F1_LATTICE, F1_THETA, DivClass([1, 1]))


class TestSurfaceGamma:
    def test_blowup_example(self):
        res = surface_gamma(F1_LATTICE, F1_CONE, F1_THETA, F1_OMEGA)
        assert res.value == Fraction(-1, 4)
        assert res.status is Status.EXACT_UNSTABLE
        assert res.audit.C == Fraction(3, 4)
        assert res.audit.sigma == 1 and res.audit.T == Fraction(1, 4)
        assert res.audit.theta_kahler

    def test_product_of_curves_values(self):
        lat, cone, k = ross_model(4, Fraction(2))
        res = surface_gamma(lat, cone, k, DivClass([3, -1]))
        assert res.value == Fraction(6, 5) and res.status is Status.SOLVABLE
        lat16, cone16, k16 = ross_model(16, Fraction(16, 3))
        res16 = surface_gamma(lat16, cone16, k16, DivClass([6, -1]))
        assert res16.value == -27 and res16.status is Status.EXACT_UNSTABLE
        assert res16.audit.C == 18 and res16.audit.sigma == 45

    def test_status_for_non_interior_twist(self):
        # theta nef but not interior with value above T: nothing certified
        res = surface_gamma(F1_LATTICE, F1_CONE, DivClass([1, 0]), F1_OMEGA)
        assert not res.audit.theta_kahler
        assert res.value == Fraction(1, 6) and res.audit.T == 0
        assert res.status is Status.INDETERMINATE
        # theta far from the cone with value below T: consistent, conditional
        res2 = surface_gamma(F1_LATTICE, F1_CONE, DivClass([0, -1]), F1_OMEGA)
        assert not res2.audit.theta_kahler
        assert res2.value == Fraction(-13, 12) and res2.audit.T == Fraction(-1, 4)
        assert res2.status is Status.CONDITIONAL_EXACT

    def test_results_copy_and_pickle(self):
        lat = diagonal_lattice([1, -1, -1])
        cone = NefConeModel(facets=[], light_cone=LightConeFacet(DivClass([1, 0, 0])))
        for res in (surface_gamma(F1_LATTICE, F1_CONE, F1_THETA, F1_OMEGA),
                    surface_gamma(lat, cone, DivClass([2, 1, 0]), DivClass([3, 0, 1]))):
            for clone in (copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
                assert clone == res
                assert _exact(clone.value) == _exact(res.value)
        assert not res.value.is_rational  # 3/4 - sqrt(3)/4

    def test_one_pairing_table_per_query(self, monkeypatch):
        # theta and omega each pair once with every facet, plus theta^2,
        # theta.omega and omega^2, plus theta.H and omega.H for a light cone
        calls = []
        original = IntersectionLattice.pair

        def counting_pair(lattice, x, y):
            calls.append(1)
            return original(lattice, x, y)

        monkeypatch.setattr(IntersectionLattice, "pair", counting_pair)
        rng = Random(8309)
        for _ in range(40):
            inst = random_instance(rng)
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            calls.clear()
            surface_gamma(inst.lattice, inst.cone, theta, omega)
            k = len(inst.cone.facets)
            assert len(calls) == 2 * k + (5 if inst.cone.light_cone else 3)

    def test_affine_law_in_the_twist(self):
        rng = Random(8302)
        for _ in range(120):
            inst = random_instance(rng)
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            a = Fraction(rng.randint(0, 8), rng.randint(1, 3))  # a >= 0 required
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            base = surface_gamma(inst.lattice, inst.cone, theta, omega).value
            mixed = surface_gamma(inst.lattice, inst.cone,
                                  theta.scale(a) + omega.scale(b), omega).value
            assert mixed == a * base + QuadNum(b)

    def test_linear_along_twist_segment_with_value_one_at_end(self):
        rng = Random(8303)
        for _ in range(60):
            inst = random_instance(rng)
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            v0 = surface_gamma(inst.lattice, inst.cone, theta, omega).value
            assert surface_gamma(inst.lattice, inst.cone, omega, omega).value == 1
            for s in (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
                vs = surface_gamma(inst.lattice, inst.cone,
                                   segment(theta, omega, s), omega).value
                assert vs == (1 - s) * v0 + QuadNum(s)

    def test_solvability_matches_value_sign(self):
        rng = Random(8304)
        for _ in range(120):
            inst = random_instance(rng)
            theta = random_kahler(rng, inst)
            omega = random_kahler(rng, inst)
            res = surface_gamma(inst.lattice, inst.cone, theta, omega)
            assert res.audit.theta_kahler
            solvable = ample_difference_solvable(inst.lattice, inst.cone, theta, omega)
            assert solvable == (res.value > 0)
            assert is_solvable(inst.lattice, inst.cone, theta, omega) == solvable
            assert res.status in (Status.SOLVABLE, Status.EXACT_UNSTABLE)

    def test_is_solvable_examples_and_errors(self):
        assert not is_solvable(F1_LATTICE, F1_CONE, F1_THETA, F1_OMEGA)
        assert is_solvable(F1_LATTICE, F1_CONE, F1_OMEGA, F1_OMEGA)
        lat, cone, k = ross_model(4, Fraction(2))
        assert is_solvable(lat, cone, k, DivClass([3, -1]))
        with pytest.raises(ThetaNotKahler):
            is_solvable(F1_LATTICE, F1_CONE, DivClass([1, 0]), F1_OMEGA)
        with pytest.raises(OmegaNotKahler):
            is_solvable(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]))


class TestPerfectModels:
    def test_value_equals_smaller_root_and_T(self):
        rng = Random(8305)
        count = 0
        for _ in range(80):
            inst = random_instance(rng, light_cone=True)
            if inst.cone.facets:
                continue
            theta = random_kahler(rng, inst)
            omega = random_kahler(rng, inst)
            res = surface_gamma(inst.lattice, inst.cone, theta, omega)
            t, facet = seshadri_T(inst.lattice, inst.cone, theta, omega)
            assert facet == "light-cone"
            assert res.value == t
            assert is_solvable(inst.lattice, inst.cone, theta, omega)
            assert res.status is Status.SOLVABLE
            count += 1
        assert count >= 20


class TestDelPezzo:
    """P^2 blown up at k = 2..8 general points; the (-1)-curves are the facets."""

    def test_curve_counts(self):
        assert [len(del_pezzo(k)[1].facets) for k in range(2, 9)] == [3, 6, 10, 16, 27, 56, 240]

    @pytest.mark.parametrize("k", range(2, 9))
    def test_every_facet_is_a_minus_one_curve(self, k):
        lattice, cone, minus_k = del_pezzo(k)
        assert all(lattice.self_int(f) == -1 and lattice.pair(minus_k, f) == 1
                   for f in cone.facets)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_anticanonical_gamma_is_one(self, k):
        # theta = omega: C = 2 and every facet bounds delta at 1
        lattice, cone, minus_k = del_pezzo(k)
        res = surface_gamma(lattice, cone, minus_k, minus_k)
        assert (res.value, res.audit.C, res.audit.sigma) == (1, 2, 1)
        assert res.status is Status.SOLVABLE

    def test_minus_k_against_7l_minus_2e(self):
        # omega = 7L - 2(E1 + ... + E8) has omega^2 = 17 and omega.(-K) = 5, so C = 10/17;
        # -K.C / omega.C = 1 / (7d - 2 sum m) is largest, 1/2, at the E_i
        lattice, cone, minus_k = del_pezzo(8)
        omega = DivClass([7] + [-2] * 8)
        res = surface_gamma(lattice, cone, minus_k, omega)
        assert (res.audit.C, res.audit.sigma, res.value) == (Fraction(10, 17), Fraction(1, 2),
                                                             Fraction(3, 34))
        assert res.audit.binding_facet_sigma == "(0; -1,0,0,0,0,0,0,0)"
        assert constants_outcome(lambda: res.audit) == constants_outcome(
            lambda: fraction_cone_constants(lattice, cone, minus_k, omega))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_pair_matches_quad_pair(self, k):
        rng = Random(8310 + k)
        lattice, cone, minus_k = del_pezzo(k)
        others = [minus_k] + [DivClass([rnd_fraction(rng) for _ in range(k + 1)])
                              for _ in range(2)]
        for x in (*cone.facets, *others):
            y = rng.choice(others)
            assert lattice.pair(x, y) == quad_pair(lattice, x.coords, y.coords)


class TestPathAnalysis:
    def test_zero_square_boundary_solvable_everywhere(self):
        # fiber direction of the blowup model has square zero
        analysis = path_R(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, -1]))
        assert analysis.a_selfint == 0
        assert analysis.numerator == (Fraction(0), Fraction(0), Fraction(3))
        assert analysis.solvable_from == 0

    def test_equal_squares_give_half_threshold(self):
        # normalized boundary class lambda*a with (lambda*a)^2 = theta^2 = 3: the
        # numerator collapses to a^2 (2t - 1) and the solvable set to (1/2, 1]
        res = stable_subcone(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]))
        scaled_a = quad_coords((res.normalization, DivClass([1, 0])))
        assert quad_pair(F1_LATTICE, scaled_a, scaled_a) == 3
        numerator = (-3, 6)
        for k in range(11):
            t = Fraction(k, 10)
            assert _normalized_numerator(F1_LATTICE, F1_THETA, DivClass([1, 0]),
                                         res.normalization, t) == poly_at(numerator, t)
        assert positive_set(numerator) == [(Fraction(1, 2), 1, True)]

    def test_equal_squares_rational_instance(self):
        # rank 3: theta = (3,-1,-1) and a = (4,3,0) both have square 7
        lat = diagonal_lattice([1, -1, -1])
        theta = DivClass([3, -1, -1])
        a = DivClass([4, 3, 0])
        cone = NefConeModel(facets=[DivClass([3, 4, 0])],
                            light_cone=LightConeFacet(theta))
        assert lat.self_int(theta) == lat.self_int(a) == 7
        analysis = path_R(lat, cone, theta, a)
        assert analysis.numerator == (Fraction(-7), Fraction(14))
        assert analysis.solvable_from == Fraction(1, 2)

    def test_blowup_numerator_and_root(self):
        analysis = path_R(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]))
        assert analysis.numerator == (Fraction(-1), Fraction(2), Fraction(2))
        x = analysis.solvable_from
        assert x == QuadNum(Fraction(-1, 2), Fraction(1, 2), 3)  # (sqrt(3)-1)/2
        # the endpoint satisfies 4x^2 + 4x - 2 = 0 exactly
        assert 4 * x * x + 4 * x - 2 == 0

    def test_numerator_drops_trailing_zeros(self):
        # R's coefficients (-a^2, 2a^2, theta^2 - a^2), lowest degree first, end at
        # the last nonzero one; theta^2 <= 0 leaves nothing solvable
        half_plane = NefConeModel(facets=[DivClass([0, -1]), DivClass([1, 0])])
        for theta, a, numerator in (([1, 1], [1, 0], (-1, 2, -1)), ([1, 1], [0, 0], ()),
                                    ([1, 2], [0, 0], (0, 0, -3))):
            analysis = path_R(TIE_LATTICE, half_plane, DivClass(theta), DivClass(a))
            assert analysis.numerator == numerator and analysis.solvable_from is None

    def test_preconditions(self):
        with pytest.raises(ANotOnBoundary):
            path_R(F1_LATTICE, F1_CONE, F1_THETA, DivClass([2, -1]))  # interior
        with pytest.raises(ANotOnBoundary):
            path_R(F1_LATTICE, F1_CONE, F1_THETA, DivClass([0, 1]))   # not nef
        with pytest.raises(ThetaNotKahler):
            path_R(F1_LATTICE, F1_CONE, DivClass([1, 0]), DivClass([1, 0]))

    def test_negative_square_boundary_rejected(self):
        # a half-plane model admits boundary classes of negative square
        from jthresh.errors import NegativeSelfIntersection
        lat = diagonal_lattice([1, -2])
        half_plane = NefConeModel(facets=[DivClass([1, 0])])
        theta = DivClass([1, 0])
        bad_a = DivClass([0, 1])  # on the facet, square -2
        with pytest.raises(NegativeSelfIntersection):
            path_R(lat, half_plane, theta, bad_a)
        with pytest.raises(NegativeSelfIntersection):
            stable_subcone(lat, half_plane, theta, bad_a)

    def test_sign_coherence_with_solvability_along_path(self):
        analysis = path_R(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]))
        for k in range(1, 101):
            t = Fraction(k, 100)
            omega_t = segment(DivClass([1, 0]), F1_THETA, t)
            solvable = is_solvable(F1_LATTICE, F1_CONE, F1_THETA, omega_t)
            assert (analysis.solvable_from < t) == solvable

    def test_boundary_divergence(self):
        # value(t) + 1/t = C(t) exactly, and values diverge monotonically
        # to -infinity below the smallest numerator root
        a = DivClass([1, 0])
        analysis = path_R(F1_LATTICE, F1_CONE, F1_THETA, a)
        root = analysis.solvable_from
        values = []
        for k in range(1, 41):
            t = Fraction(k, 40)
            omega_t = segment(a, F1_THETA, t)
            res = surface_gamma(F1_LATTICE, F1_CONE, F1_THETA, omega_t)
            c_t = c_constant(F1_LATTICE, F1_THETA, omega_t)
            assert res.value + QuadNum(Fraction(1, 1) / t) == QuadNum(c_t)
            values.append((t, res.value))
        below = [v for t, v in values if QuadNum(t) < root]
        assert all(below[i] < below[i + 1] for i in range(len(below) - 1))
        assert below[0] < -10  # t = 1/40 is already far down

    def test_sample_path_rows(self):
        rows = sample_path(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]), 20)
        assert [r.t for r in rows] == [Fraction(k, 20) for k in range(1, 21)]
        assert rows[-1].gamma == 1  # omega_1 = theta
        for r in rows:
            assert r.solvable == (r.r_numerator > 0)
        with pytest.raises(BadParams):
            sample_path(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]), 0)
        with pytest.raises(BadParams, match=f"between 1 and {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"):
            sample_path(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]), MAX_SAMPLES + 1)

    def test_light_cone_omega_of_zero_square_is_refused(self):
        # diag(1, 1, -1) is not hyperbolic, so only the library reaches this: a document
        # is refused as BadSignature.  omega_{1/2} = (1, 0, 1)/2 has square 0.
        lat = IntersectionLattice([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        cone = NefConeModel(facets=[], light_cone=LightConeFacet(DivClass([1, 0, 0])))
        with pytest.raises(OmegaNotKahler, match="^omega is not interior to the cone model$"):
            sample_path(lat, cone, DivClass([1, -1, 0]), DivClass([0, 1, 1]), 2)

    @pytest.mark.parametrize("samples", [True, 2.0, "2", Fraction(2)])
    def test_sample_count_must_be_an_int(self, samples):
        # True once gave one row, and 2.0 a TypeError
        with pytest.raises(BadParams) as info:
            sample_path(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]), samples)
        assert f"{info.value.code}: {info.value}" == (
            f"BadParams: samples must be an integer, got {samples!r}")


# a light-cone path document along which every omega_t has an irrational T
IRRATIONAL_T_PATH = {"lattice": {"matrix": [["1", "0"], ["0", "-3"]]},
                     "cone": {"facets": [["0", "-1"]], "light_cone": {"H": ["2", "1/3"]}},
                     "classes": {"theta": ["2", "1/3"], "a": ["1", "0"]}}


def _exact(q: QuadNum) -> tuple:
    return q.a, q.b, q.d


def _audit(cc) -> tuple:
    return (cc.C, _exact(cc.sigma), _exact(cc.T), cc.theta_kahler,
            cc.binding_facet_sigma, cc.binding_facet_T)


def _outcome(compute) -> tuple:
    try:
        return _audit(compute())
    except JThreshError as exc:
        return type(exc), str(exc)


# rank 2, light cone plus the facet D.(1,1) >= 0, which touches the light cone
# along the null ray (1,1): wherever theta - delta*omega leaves the cone
# through that ray, the facet and the light cone bind T together
TIE_LATTICE = diagonal_lattice([1, -1])
TIE_CONE = NefConeModel(facets=[DivClass([1, 1])],
                        light_cone=LightConeFacet(DivClass([1, 0])))


class TestPathOracle:
    """sample_path against the per-row route: build omega_t, then surface_gamma."""

    def _boundary_paths(self, rng: Random, count: int):
        """(lattice, cone, theta, a) with a rational, on the boundary, a^2 and a.theta >= 0.

        The last two make omega_t^2 > 0 for t in (0, 1], so every row has a
        value.  Half come from random instances as a = theta - T*omega; there
        a light cone binds T only at a null a, and then both roots of every
        row are rational.  The other half put a inside the light cone on a
        facet through it (a^2 > 0), where the roots are irrational.  gamma
        itself stays rational (sigma = 1/t from a's facet), so the irrational
        values are the rows' T.
        """
        found = []
        while len(found) < count:
            inst = random_instance(rng, light_cone=len(found) % 2 == 0)
            theta, omega = random_kahler(rng, inst), random_kahler(rng, inst)
            t_val, _ = seshadri_T(inst.lattice, inst.cone, theta, omega)
            if not t_val.is_rational:
                continue
            a = theta - omega.scale(t_val.a)
            if inst.lattice.self_int(a) >= 0 and inst.lattice.pair(a, theta) >= 0:
                found.append((inst.lattice, inst.cone, theta, a))
        while len(found) < 2 * count:
            p, q = rng.randint(1, 5), rng.randint(1, 5)
            lattice = diagonal_lattice([1, -p, -q])
            a = DivClass([1, rnd_fraction(rng, -3, 3, 4), rnd_fraction(rng, -3, 3, 4)])
            if a.coords[1] == 0 or not lattice.self_int(a) > 0:
                continue
            facet = DivClass([1, 1 / (p * a.coords[1]), 0])  # facet.a = 0, facet.H = 1
            h = DivClass([1, 0, 0])
            cone = NefConeModel(facets=[facet], light_cone=LightConeFacet(h))
            theta = a + h.scale(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            if is_kahler(lattice, cone, theta):
                found.append((lattice, cone, theta, a))
        found.append((TIE_LATTICE, TIE_CONE, DivClass([3, 1]), DivClass([1, 1])))
        return found

    def _faulty_paths(self, rng: Random, count: int):
        """(kind, lattice, cone, theta, a, samples) for paths whose rows raise somewhere.

        "volume": a facet model with theta^2 < 0 and a null a, so omega_t^2 is
        0 at t0 = 2a.theta/(2a.theta - theta^2) and negative after it; most
        grids hold t0.  "signature": a light cone on a lattice not of signature
        (1, r-1), with (a.theta)^2 < a^2 theta^2, and one null a with
        a.theta < 0, where omega_t^2 < 0 at the first row.  Each a lies on a
        facet through it, and each input passes path_R's checks.
        """
        def path(diag, theta, a, light):
            # the Euclidean projection of theta off a, read as a covector: f.a = 0 < f.theta
            aa, ta = (sum(x * y for x, y in zip(a.coords, v.coords)) for v in (a, theta))
            f = DivClass([(x * aa - ta * y) / m for x, y, m in zip(theta.coords, a.coords, diag)])
            h = LightConeFacet(DivClass([1] + [0] * (len(diag) - 1))) if light else None
            return diagonal_lattice(diag), NefConeModel(facets=[f], light_cone=h), theta, a

        found = [("signature", *path([1, 1, -1], DivClass([2, -1, Fraction(1, 2)]),
                                     DivClass([0, 1, 1]), True), 4)]
        while len(found) < count:
            if len(found) % 2:
                diag = [1, -1, -rng.randint(1, 4)]
                a = DivClass([1, 1, 0])
            else:
                diag = [1] + [rng.choice([1, 2, 3, -1, -2]) for _ in range(rng.randint(1, 2))]
                a = DivClass([1] + [rnd_fraction(rng, -2, 2, 3) for _ in diag[1:]])
            theta = DivClass([rnd_fraction(rng, -4, 4, 3) for _ in diag])
            lattice, cone, _, _ = args = path(diag, theta, a, light=len(found) % 2 == 0)
            tt, at = lattice.self_int(theta), lattice.pair(a, theta)
            if cone.light_cone is None:
                if not tt < 0 < at:
                    continue
                t0 = 2 * at / (2 * at - tt)
                kind, samples = "volume", t0.denominator * rng.randint(1, 3) + rng.choice([0, 1])
            elif at * at < lattice.self_int(a) * tt:
                kind, samples = "signature", rng.randint(1, 4)
            else:
                continue
            if samples <= 200 and isinstance(_first_fault(lambda: path_R(*args)),
                                             surface.PathAnalysis):
                found.append((kind, *args, samples))
        return found

    def test_rows_match_the_per_row_pipeline(self):
        # sample_path's rows, or its first (class, message), against the per-row
        # route: build omega_t and ask surface_gamma, stopping at the first t
        # that raises; the numerator column is path_R's polynomial
        irrational_T = []

        def rows(lattice, cone, theta, a, samples):
            out = sample_path(lattice, cone, theta, a, samples)
            assert all(type(r.gamma) is Fraction for r in out)
            return [(r.t, r.r_numerator, (r.gamma, Fraction(0), 0), r.solvable) for r in out]

        def per_row(lattice, cone, theta, a, samples):
            numerator, out = path_R(lattice, cone, theta, a).numerator, []
            for k in range(1, samples + 1):
                t = Fraction(k, samples)
                res = surface_gamma(lattice, cone, theta, segment(a, theta, t))
                irrational_T.append(not res.audit.T.is_rational)
                r = poly_at(numerator, t)
                out.append((t, r, _exact(res.value), r > 0))
            return out

        rng = Random(8313)
        inputs = [("boundary", *path, rng.choice([1, 2, 3, 5, 8, 13]))
                  for path in self._boundary_paths(rng, 40)]
        assert sum(path[2].light_cone is not None for path in inputs) >= 40
        seen = set()
        for kind, *args in inputs + self._faulty_paths(rng, 80):
            got = _first_fault(lambda: rows(*args))
            assert got == _first_fault(lambda: per_row(*args)), (kind, args)
            seen.add((kind, got[0] if isinstance(got[0], type) else "ok"))
            if got[0] is OmegaNotKahler:
                seen.add((kind, got[1]))
        assert {("boundary", "ok"), ("volume", ZeroVolume), ("volume", "omega^2 <= 0"),
                ("signature", BadSignature), ("signature", "ok"),
                ("signature", "omega is not interior to the cone model")} <= seen
        assert sum(irrational_T) >= 40

    def test_one_factorization_per_path_query(self, monkeypatch):
        # path_R factors theta^2/a^2 once for its endpoint; the rows factor
        # nothing, even where every omega_t has an irrational T
        calls, original = [], exactnum.squarefree_decompose

        def counting(n):
            calls.append(n)
            return original(n)

        for module in (exactnum, cones):
            monkeypatch.setattr(module, "squarefree_decompose", counting)
        blowup = run(["catalog", "blowup_path", "--export"])[1]
        doc = parse_document(IRRATIONAL_T_PATH)
        irrational_t = json.dumps(IRRATIONAL_T_PATH).encode()
        theta, a = doc.classes["theta"], doc.classes["a"]
        omega = segment(a, theta, Fraction(1, 2))
        assert not seshadri_T(doc.lattice, doc.cone, theta, omega)[0].is_rational
        counts = []
        for document, samples in ((blowup, 100), (irrational_t, 1), (irrational_t, 10),
                                  (irrational_t, 1000)):
            calls.clear()
            argv = ["path", "--theta", "theta", "--a", "a", "--samples", str(samples)]
            assert run(argv, document)[0] == 0
            counts.append(len(calls))
        assert counts == [1, 1, 1, 1]

    def test_the_facet_keeps_a_tie_with_the_light_cone(self):
        # omega_t = (1+2t, 1): facet bound 1/t, light-cone roots 2/(1+t) <= 1/t,
        # so sigma ties at every t and T at t = 1
        theta, a = DivClass([3, 1]), DivClass([1, 1])
        for row in sample_path(TIE_LATTICE, TIE_CONE, theta, a, 4):
            t = row.t
            audit = cone_constants(TIE_LATTICE, TIE_CONE, theta, segment(a, theta, t))
            assert (audit.sigma, audit.binding_facet_sigma) == (1 / t, "f0")
            assert audit.T == 2 / (1 + t)
            assert audit.binding_facet_T == ("f0" if t == 1 else LIGHT_CONE)
            assert row.gamma == audit.C - 1 / t

    def test_constants_along_segments_match_the_fraction_oracle(self):
        # cone_constants at omega_t = (1-t)a + t*theta for t with denominators
        # up to 10^9, t <= 0, t > 1 and the TIE_CONE ties, against the Fraction
        # route on the same class.  Along a segment the light-cone discriminant
        # is (1-t)^2 times that of a and theta; when it is not a square both
        # routes factor it by trial division up to the denominators' prime
        # factors, so those segments are compared at denominators up to 10^4
        rng = Random(8317)
        cases = [(TIE_LATTICE, TIE_CONE, DivClass([3, 1]), DivClass([1, 1])),
                 (TIE_LATTICE, NefConeModel(facets=[DivClass([1, 0])]), DivClass([2, 0]),
                  DivClass([1, 1]))]  # omega_0^2 = 0
        for i in range(90):
            inst = random_instance(rng, light_cone=i % 3 != 0)
            theta = random_kahler(rng, inst) if i % 4 else random_class(rng, inst)
            a = random_kahler(rng, inst) if i % 5 else random_class(rng, inst)
            cases.append((inst.lattice, inst.cone, theta, a))
        seen, errors = set(), set()
        for lattice, cone, theta, a in cases:
            disc = lattice.pair(a, theta) ** 2 - lattice.self_int(a) * lattice.self_int(theta)
            irrational = (cone.light_cone is not None and disc > 0
                          and not rat_sqrt(disc).is_rational)
            ts = [Fraction(k, 4) for k in range(-4, 9)] + [Fraction(-7, 3), Fraction(10, 3)]
            for exponent in range(4 if irrational else 9):
                den = rng.randint(10 ** exponent, 10 ** (exponent + 1))
                ts += [Fraction(rng.randint(-den, 2 * den), den) for _ in range(2)]
            for t in ts:
                omega_t = segment(a, theta, t)
                got = _outcome(lambda: cone_constants(lattice, cone, theta, omega_t))
                want = _outcome(lambda: fraction_cone_constants(lattice, cone, theta, omega_t))
                assert got == want
                if isinstance(got[0], type):
                    errors.add(got[0])
                    continue
                seen.add("t <= 0" if t <= 0 else "t > 1" if t > 1 else "0 < t <= 1")
                seen.add(f"denominator 10^{min(len(str(t.denominator)) - 1, 8)}+")
                seen.add(got[5] if got[5] == LIGHT_CONE else "facet")
                seen.add("irrational" if got[2][1] else "rational")
        assert {"t <= 0", "t > 1", "0 < t <= 1", "denominator 10^8+", LIGHT_CONE, "facet",
                "irrational"} <= seen
        assert errors == {OmegaNotKahler, ZeroVolume}

    def test_numerator_column_is_the_polynomial(self):
        # the rows evaluate path_R's numerator in integers; it must agree with
        # the polynomial at every t, and solvable with its sign
        rng = Random(8319)
        distinct = 0
        for lattice, cone, theta, a in self._boundary_paths(rng, 10):
            analysis = path_R(lattice, cone, theta, a)
            coeffs = analysis.numerator
            distinct += len(set(coeffs)) == len(coeffs) == 3
            for row in sample_path(lattice, cone, theta, a, rng.choice([7, 12, 1000])):
                assert row.r_numerator == poly_at(coeffs, row.t)
                assert row.solvable == (row.r_numerator > 0)
        assert distinct >= 10

    def test_solvable_set_matches_the_root_search(self):
        # path_R's closed form against positive_set, the generic search over
        # the numerator's roots and midpoints, endpoint by exact form; omega at
        # the endpoint 1/(1+lambda) is stable_subcone's ray times 2/(1+lambda),
        # and stable_subcone refuses theta^2 <= 0 where the set is empty
        def exact(intervals):
            return [(_exact(lo), _exact(hi), closed) for lo, hi, closed in intervals]

        rng = Random(8320)
        paths = self._boundary_paths(rng, 20)
        # the volume paths have theta^2 < 0
        paths += [args for _, *args, _ in self._faulty_paths(rng, 40)]
        facets = NefConeModel(facets=[DivClass([0, -1]), DivClass([1, 0])])
        equal = NefConeModel(facets=[DivClass([3, 4, 0])],
                             light_cone=LightConeFacet(DivClass([3, -1, -1])))
        paths += [(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, -1])),  # a^2 = 0
                  (diagonal_lattice([1, -1, -1]), equal, DivClass([3, -1, -1]),
                   DivClass([4, 3, 0]))]  # theta^2 = a^2 = 7
        paths += [(TIE_LATTICE, facets, DivClass(theta), DivClass(a))  # theta^2 = 0 or < 0
                  for theta in ([1, 1], [1, 2]) for a in ([1, 0], [0, 0])]
        seen = set()
        for lattice, cone, theta, a in paths:
            analysis = path_R(lattice, cone, theta, a)
            t2, a2 = analysis.theta_selfint, analysis.a_selfint
            lo = analysis.solvable_from
            closed_form = [] if lo is None else [(lo, QuadNum(1), True)]
            assert exact(closed_form) == exact(positive_set(analysis.numerator))
            subcone = _first_fault(lambda: stable_subcone(lattice, cone, theta, a))
            if t2 <= 0:
                seen.add("theta^2 = 0" if t2 == 0 else "theta^2 < 0")
                assert subcone == (BadConeModel, f"theta^2 = {t2} <= 0 although theta is"
                                                 " interior to the cone model")
            elif a2 == 0:
                seen.add("a^2 = 0")
                assert subcone == PerfectCone()
            else:
                lam = subcone.normalization
                seen.add("theta^2 = a^2" if t2 == a2 else f"rational lambda: {lam.is_rational}")
                assert quad_coords((1 - lo, a), (lo, theta)) \
                    == tuple(2 / (1 + lam) * x for x in subcone.boundary_ray)
        assert seen == {"theta^2 = 0", "theta^2 < 0", "a^2 = 0", "theta^2 = a^2",
                        "rational lambda: True", "rational lambda: False"}

    def test_light_cone_roots_at_large_denominators_are_null(self):
        # segments whose roots are irrational, at t with denominators near
        # 10^9: T and sigma from the light cone are null directions, and
        # C = 2 theta.omega_t / omega_t^2
        rng = Random(8318)
        checked = 0
        for lattice, cone, theta, a in self._boundary_paths(rng, 6):
            for _ in range(6):
                den = rng.randint(10 ** 8, 10 ** 9)
                t = Fraction(rng.randint(1, den), den)
                omega_t = segment(a, theta, t)
                audit = cone_constants(lattice, cone, theta, omega_t)
                assert audit.C == 2 * lattice.pair(theta, omega_t) / lattice.self_int(omega_t)
                for value, facet in ((audit.T, audit.binding_facet_T),
                                     (audit.sigma, audit.binding_facet_sigma)):
                    if facet == LIGHT_CONE:
                        null = quad_coords((1, theta), (-value, omega_t))
                        assert quad_pair(lattice, null, null) == 0
                        checked += not value.is_rational
        assert checked >= 20

    def test_rows_pair_nothing(self, monkeypatch):
        calls = []
        original = IntersectionLattice.pair

        def counting_pair(lattice, x, y):
            calls.append(1)
            return original(lattice, x, y)

        monkeypatch.setattr(IntersectionLattice, "pair", counting_pair)
        rng = Random(8315)
        for lattice, cone, theta, a in self._boundary_paths(rng, 2):
            counts = []
            for samples in (1, 1000):
                calls.clear()
                sample_path(lattice, cone, theta, a, samples)
                counts.append(len(calls))
            assert counts[0] == counts[1]

    def test_rows_build_no_quadnum(self, monkeypatch):
        # a path run builds as many QuadNums at --samples 1000 as at 1: each
        # row's gamma is a Fraction from the table's integers to its rendering
        calls = []
        init, of = QuadNum.__init__, QuadNum._of.__func__

        def counting_init(q, *args):
            calls.append("__init__")
            init(q, *args)

        def counting_of(cls, *args):
            calls.append("_of")
            return of(cls, *args)

        monkeypatch.setattr(QuadNum, "__init__", counting_init)
        monkeypatch.setattr(QuadNum, "_of", classmethod(counting_of))
        blowup = run(["catalog", "blowup_path", "--export"])[1]
        for document in (blowup, json.dumps(IRRATIONAL_T_PATH).encode()):
            counts = []
            for samples in (1, 1000):
                calls.clear()
                argv = ["path", "--theta", "theta", "--a", "a", "--samples", str(samples)]
                assert run(argv, document)[0] == 0
                counts.append(sorted(calls))
            assert counts[0] == counts[1]

    def test_command_rows_build_no_fraction(self, monkeypatch):
        # the path command reads the row kernel's integer rows, not sample_path's:
        # --samples 1000 builds exactly as many Fractions as --samples 1, and no
        # PathSample
        fractions, path_samples = [], []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            fractions.append(1)
            return new(cls, *args, **kwargs)

        def counting_init(row, *args, **kwargs):
            path_samples.append(1)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        monkeypatch.setattr(surface.PathSample, "__init__", counting_init)
        blowup = run(["catalog", "blowup_path", "--export"])[1]
        for document in (blowup, json.dumps(IRRATIONAL_T_PATH).encode()):
            counts = []
            for samples in (1, 1000):
                fractions.clear()
                argv = ["path", "--theta", "theta", "--a", "a", "--samples", str(samples)]
                assert run(argv, document)[0] == 0
                counts.append(len(fractions))
            assert counts[0] > 0 and counts[1] == counts[0]
        assert path_samples == []

    def test_command_rows_render_sample_path(self):
        # the path command's rows, or its first (class, message), against
        # format_rat and decimal_str of sample_path's rows, column order included
        def library(lattice, cone, theta, a, samples, digits):
            return [[("t", format_rat(r.t)), ("R_numerator", format_rat(r.r_numerator)),
                     ("gamma_value", format_rat(r.gamma)), ("solvable", r.solvable),
                     ("decimal_approx", decimal_str(r.gamma, digits))]
                    for r in sample_path(lattice, cone, theta, a, samples)]

        def command(lattice, cone, theta, a, samples, digits):
            payload = cli._cmd_path(lattice, cone, theta, a, samples, digits)
            return [list(row.items()) for row in payload["rows"]]

        rng = Random(8321)
        inputs = [(*path, rng.choice([1, 2, 3, 5, 8, 13, 100]))
                  for path in self._boundary_paths(rng, 20)]
        inputs += [args for _, *args in self._faulty_paths(rng, 40)]
        equal = NefConeModel(facets=[DivClass([3, 4, 0])],
                             light_cone=LightConeFacet(DivClass([3, -1, -1])))
        inputs += [(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, -1]), 6),  # a^2 = 0
                   (diagonal_lattice([1, -1, -1]), equal, DivClass([3, -1, -1]),
                    DivClass([4, 3, 0]), 4)]  # theta^2 = a^2: R(1/2) = 0
        seen = set()
        for args in inputs:
            digits = rng.choice([1, 12, 40])
            got = _first_fault(lambda: command(*args, digits))
            assert got == _first_fault(lambda: library(*args, digits)), args
            seen.add(got[0] if isinstance(got, tuple) else "ok")
            for row in got if isinstance(got, list) else ():
                r = dict(row)["R_numerator"]
                seen.add("R < 0" if r.startswith("-") else "R = 0" if r == "0" else "R > 0")
        assert {"ok", ZeroVolume, OmegaNotKahler, BadSignature,
                "R < 0", "R = 0", "R > 0"} <= seen

    def test_one_path_pairs_each_class_once(self, monkeypatch):
        # path_R pairs theta and a into one table (each with every facet, its
        # square and the light cone's reference class, then a.theta), and the
        # rows read that table: 2k + 5 pairs with k facets and a light cone
        calls, original = [], IntersectionLattice.pair

        def counting_pair(lattice, x, y):
            calls.append(1)
            return original(lattice, x, y)

        entry = build("blowup_path", {})
        named = entry.classes
        paths = [(entry.lattice, entry.cone, named["theta"], named["a"])]
        paths += [path for path in self._boundary_paths(Random(8316), 4)
                  if path[1].light_cone is not None]
        monkeypatch.setattr(IntersectionLattice, "pair", counting_pair)
        counts = []
        for lattice, cone, theta, a in paths:
            calls.clear()
            sample_path(lattice, cone, theta, a, 7)
            counts.append((len(cone.facets), len(calls)))
        assert counts[0] == (1, 7)
        assert len(counts) > 4 and all(pairs == 2 * k + 5 for k, pairs in counts)


class TestStableSubcone:
    def test_blowup_normalization(self):
        res = stable_subcone(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, 0]))
        assert res.normalization == QuadNum(0, 1, 3)
        assert res.boundary_t == Fraction(1, 2)
        assert res.boundary_ray == (QuadNum(1, Fraction(1, 2), 3), Fraction(-1, 2))
        # self-pairing of the ray equals the segment value at t = 1/2
        lam, half = res.normalization, Fraction(1, 2)
        omega_half = quad_coords((half * lam, DivClass([1, 0])), (half, F1_THETA))
        assert quad_pair(F1_LATTICE, res.boundary_ray, res.boundary_ray) \
            == quad_pair(F1_LATTICE, omega_half, omega_half)
        # path numerator on the normalized segment vanishes exactly at 1/2
        assert _normalized_numerator(F1_LATTICE, F1_THETA, DivClass([1, 0]), lam, half) == 0

    def test_already_normalized(self):
        # theta and a share self-intersection 7: lambda = 1, ray = (a+theta)/2
        lat = diagonal_lattice([1, -1, -1])
        theta = DivClass([3, -1, -1])
        a = DivClass([4, 3, 0])
        cone = NefConeModel(facets=[DivClass([3, 4, 0])],
                            light_cone=LightConeFacet(theta))
        assert is_kahler(lat, cone, theta)
        res = stable_subcone(lat, cone, theta, a)
        assert res.normalization == 1
        assert res.boundary_ray == (a + theta).scale(Fraction(1, 2)).coords

    def test_zero_square_gives_perfect(self):
        res = stable_subcone(F1_LATTICE, F1_CONE, F1_THETA, DivClass([1, -1]))
        assert isinstance(res, PerfectCone)

    def test_boundary_precondition(self):
        with pytest.raises(ANotOnBoundary):
            stable_subcone(F1_LATTICE, F1_CONE, F1_THETA, DivClass([3, -1]))


class TestCsck:
    def test_zero_twist_always_holds(self):
        zero = DivClass([0, 0])
        for alpha in (Fraction(1, 100), Fraction(1), Fraction(50)):
            rep = csck_criterion(F1_LATTICE, F1_CONE, zero, F1_OMEGA, alpha)
            assert rep.holds and rep.lhs == 0 and rep.rhs == -Fraction(3, 2) * alpha

    def test_blowup_canonical_class(self):
        minus_c1 = DivClass([-3, 1])
        rep = csck_criterion(F1_LATTICE, F1_CONE, minus_c1, F1_OMEGA, Fraction(2, 3))
        assert rep.lhs == -1 and not rep.holds  # -1 > -1 fails
        rep2 = csck_criterion(F1_LATTICE, F1_CONE, minus_c1, F1_OMEGA,
                              Fraction(2, 3) + Fraction(1, 100))
        assert rep2.holds

    def test_product_of_curves_threshold(self):
        lat, cone, k = ross_model(16, Fraction(16, 3))
        l6 = DivClass([6, -1])
        for alpha, expected in ((Fraction(18), False), (Fraction(1801, 100), True),
                                (Fraction(54), True), (Fraction(17), False)):
            rep = csck_criterion(lat, cone, k, l6, alpha)
            assert rep.holds == expected
            assert rep.lhs == -27
            assert rep.caveat == CSCK_CAVEAT

    def test_alpha_validation(self):
        with pytest.raises(BadParams):
            csck_criterion(F1_LATTICE, F1_CONE, F1_THETA, F1_OMEGA, Fraction(0))

    @pytest.mark.parametrize("alpha, line", [
        (0.5, "alpha must be int or Fraction, got 0.5"),  # was a TypeError
        (True, "alpha must be int or Fraction, got True"),  # ran as alpha = 1
        ("1/2", "alpha must be int or Fraction, got '1/2'"),
        (QuadNum(1), "alpha must be int or Fraction, got 1"),
    ])
    def test_alpha_must_be_exact(self, alpha, line):
        with pytest.raises(BadParams) as info:
            csck_criterion(F1_LATTICE, F1_CONE, F1_THETA, F1_OMEGA, alpha)
        assert f"{info.value.code}: {info.value}" == f"BadParams: {line}"
        assert csck_criterion(F1_LATTICE, F1_CONE, F1_THETA, F1_OMEGA, 1).rhs == Fraction(-3, 2)


# the blowup model with a light cone: facet E, reference class 2H - E
BLOWUP = build("blowup_path", {})
HALF_PLANE = NefConeModel(facets=[DivClass([1, 0])])


class TestDiagnosticOrder:
    """Inputs with two faults: the first check in the documented order reports.

    theta interior, then a nef but not interior, then a^2 >= 0, then omega's
    checks; sample_path, like the path command, checks its count after them.  After a^2's checks
    stable_subcone refuses theta^2 <= 0, then answers PerfectCone for a^2 = 0.
    """

    @pytest.mark.parametrize("lattice, cone", [(F1_LATTICE, F1_CONE),
                                               (BLOWUP.lattice, BLOWUP.cone)])
    @pytest.mark.parametrize("function, theta, a, outcome", [
        # theta not interior, a interior
        (path_R, DivClass([1, 0]), DivClass([3, -1]),
         (ThetaNotKahler, "theta must be interior to the cone model")),
        (stable_subcone, DivClass([1, 0]), DivClass([3, -1]),
         (ThetaNotKahler, "theta must be interior to the cone model")),
        # a not nef, a^2 < 0
        (path_R, F1_THETA, DivClass([0, 1]),
         (ANotOnBoundary, "class must be nef but not interior")),
        (stable_subcone, F1_THETA, DivClass([0, 1]),
         (ANotOnBoundary, "class must be nef but not interior")),
        # theta not interior, a not nef
        (path_R, DivClass([1, 0]), DivClass([0, 1]),
         (ThetaNotKahler, "theta must be interior to the cone model")),
        (stable_subcone, DivClass([1, 0]), DivClass([0, 1]),
         (ThetaNotKahler, "theta must be interior to the cone model")),
        # theta not interior, a^2 = 0 on the boundary
        (path_R, DivClass([1, 0]), DivClass([1, -1]),
         (ThetaNotKahler, "theta must be interior to the cone model")),
        (stable_subcone, DivClass([1, 0]), DivClass([1, -1]),
         (ThetaNotKahler, "theta must be interior to the cone model")),
    ])
    def test_path_checks(self, lattice, cone, function, theta, a, outcome):
        assert _first_fault(lambda: function(lattice, cone, theta, a)) == outcome

    @pytest.mark.parametrize("lattice, cone", [(F1_LATTICE, F1_CONE),
                                               (BLOWUP.lattice, BLOWUP.cone)])
    def test_theta_before_omega(self, lattice, cone):
        # theta on the boundary and omega outside the cone, or omega null
        for omega in (DivClass([1, 0]), DivClass([0, 1]), DivClass([1, -1])):
            assert _first_fault(lambda: is_solvable(lattice, cone, DivClass([1, 0]), omega)) \
                == (ThetaNotKahler, "theta is not interior to the cone model")

    def test_sample_path_and_the_cli_report_one_first_fault(self):
        # theta on the boundary and a bad count: both report theta; a good theta
        # and a bad count: both report the count
        document = run(["catalog", "blowup_path", "--export"])[1]
        parsed = parse_document(json.loads(document))
        lattice, cone = parsed.lattice, parsed.cone
        for theta, samples, outcome in (
                ("H", 0, (ThetaNotKahler, "theta must be interior to the cone model")),
                ("theta", 0, (BadParams, "samples must be between 1 and 100000, got 0")),
                ("theta", 100001, (BadParams, "samples must be between 1 and 100000, got 100001"))):
            classes = parsed.classes
            assert _first_fault(lambda: sample_path(lattice, cone, classes[theta], classes["a"],
                                                    samples)) == outcome
            argv = ["path", "--theta", theta, "--a", "a", "--samples", str(samples)]
            assert run(argv, document) == (2, f"{outcome[0].__name__}: {outcome[1]}\n".encode())

    @pytest.mark.parametrize("other", [DivClass([3]), DivClass([3, -1, 0])])
    def test_theta_before_the_other_class_is_paired(self, other):
        # a class of the wrong length cannot be paired; theta on the boundary
        # is reported before it is
        for lattice, cone, theta in ((BLOWUP.lattice, BLOWUP.cone, DivClass([1, 0])),
                                     (diagonal_lattice([1, -1]), HALF_PLANE, DivClass([0, 1]))):
            for function, line in ((is_solvable, "theta is not interior to the cone model"),
                                   (path_R, "theta must be interior to the cone model"),
                                   (stable_subcone, "theta must be interior to the cone model")):
                assert _first_fault(lambda: function(lattice, cone, theta, other)) \
                    == (ThetaNotKahler, line)

    def test_negative_square_before_irrational_theta_square(self):
        # a class holds no irrational coordinate, so the theta^2 that a^2 < 0
        # is reported before is one stable_subcone refuses: theta^2 = -3
        lattice, theta = diagonal_lattice([1, -1]), DivClass([1, 2])
        for function in (path_R, stable_subcone):
            assert _first_fault(lambda: function(lattice, HALF_PLANE, theta, DivClass([0, 1]))) \
                == (NegativeSelfIntersection, "a^2 = -1 < 0")

    def test_a_before_theta_square_without_a_light_cone(self):
        # theta on the half plane has theta^2 = -3; a's checks come first, and
        # stable_subcone refuses theta^2 <= 0 only after them
        lattice, theta = diagonal_lattice([1, -1]), DivClass([1, 2])
        not_nef = (ANotOnBoundary, "class must be nef but not interior")
        for function, a, outcome in (
                (path_R, DivClass([3, 1]), not_nef), (stable_subcone, DivClass([3, 1]), not_nef),
                (stable_subcone, DivClass([0, 0]), (BadConeModel, "theta^2 = -3 <= 0 although"
                                                    " theta is interior to the cone model"))):
            assert _first_fault(lambda: function(lattice, HALF_PLANE, theta, a)) == outcome


def _first_fault(compute):
    try:
        result = compute()
    except JThreshError as exc:
        return type(exc), str(exc)
    return result

"""Cone membership and the boundary constants T and sigma.

The supremum/infimum character is checked by an independent boundary
oracle: the critical class must satisfy the closed (resp. fail the open)
membership test, and any rational step past the bound must flip it.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from conftest import (constants_outcome, fraction_cone_constants, light_cone_roots,
                      quad_coords, quad_pair, quad_sides, random_class, random_instance,
                      random_kahler, rnd_fraction, segment)
from jthresh import (DivClass, LightConeFacet, NefConeModel, QuadNum, Status,
                     cone_constants, diagonal_lattice, is_solvable, surface_gamma)
from jthresh.cones import LIGHT_CONE, is_kahler, is_nef, seshadri_T, sigma_inf, validate_cone
from jthresh.errors import BadConeModel, BadSignature, OmegaNotKahler, ZeroVolume

F1_LATTICE = diagonal_lattice([1, -1], labels=["H", "E"])
F1_CONE = NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                       facet_labels=["E", "F"])
ROSS_G, ROSS_SC = 4, Fraction(2)
ROSS_LATTICE = diagonal_lattice([2, -2 * ROSS_G])
ROSS_CONE = NefConeModel(
    facets=[DivClass([Fraction(1, 2), -ROSS_SC / (2 * ROSS_G)]),
            DivClass([Fraction(1, 2), Fraction(1, 2)])],
    facet_labels=["w_low", "w_up"])


def light_cone_model(rank: int = 2) -> tuple:
    lat = diagonal_lattice([1] + [-1] * (rank - 1))
    h = DivClass([1] + [0] * (rank - 1))
    return lat, NefConeModel(facets=[], light_cone=LightConeFacet(h))


class TestModelValue:
    def test_default_labels_equal_given_ones(self):
        facets = [DivClass([0, 1]), DivClass([1, -1])]
        default = NefConeModel(facets=facets)
        given = NefConeModel(facets, None, ["f0", "f1"])
        assert default == given and hash(default) == hash(given)
        assert default.facet_labels == ("f0", "f1")
        assert type(given.facets) is tuple and type(given.facet_labels) is tuple
        assert given != F1_CONE

    @pytest.mark.parametrize("name", ["facets", "light_cone", "facet_labels", "extra"])
    def test_model_attributes_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(F1_CONE, name, ())
        assert F1_CONE.facet_labels == ("E", "F") and len(F1_CONE.facets) == 2


class TestMembership:
    def test_blowup_model_examples(self):
        assert is_nef(F1_LATTICE, F1_CONE, DivClass([1, 0]))
        assert not is_nef(F1_LATTICE, F1_CONE, DivClass([0, 1]))
        assert is_nef(F1_LATTICE, F1_CONE, DivClass([0, 0]))
        assert is_kahler(F1_LATTICE, F1_CONE, DivClass([2, -1]))
        assert not is_kahler(F1_LATTICE, F1_CONE, DivClass([1, 0]))

    def test_light_cone_membership(self):
        lat, cone = light_cone_model()
        assert is_kahler(lat, cone, DivClass([1, 0]))
        assert is_nef(lat, cone, DivClass([1, 1]))       # boundary null class
        assert not is_kahler(lat, cone, DivClass([1, 1]))
        assert not is_nef(lat, cone, DivClass([1, 2]))   # negative square
        assert not is_nef(lat, cone, DivClass([-1, 0]))  # backward component

    def test_validate_cone(self):
        with pytest.raises(BadConeModel):
            validate_cone(F1_LATTICE, NefConeModel(facets=[]))
        with pytest.raises(BadConeModel):
            # reference class on a facet instead of strictly inside
            validate_cone(F1_LATTICE, NefConeModel(
                facets=[DivClass([0, 1])],
                light_cone=LightConeFacet(DivClass([1, 0]))))
        with pytest.raises(BadConeModel):
            # reference class with non-positive square
            lat, _ = light_cone_model()
            validate_cone(lat, NefConeModel(
                facets=[], light_cone=LightConeFacet(DivClass([1, 1]))))


class TestModelShape:
    """NefConeModel refuses, when built, a shape that no lattice can mend."""

    def test_one_label_per_facet(self):
        # zip(facets, labels) once dropped E from this model: gamma of
        # (2H - E, 5H - E) read 1/2 Solvable instead of -1/4 ExactUnstable
        for labels in (["F"], [], ["F", "E", "G"]):
            with pytest.raises(BadConeModel) as info:
                NefConeModel(facets=[DivClass([1, -1]), DivClass([0, 1])], facet_labels=labels)
            assert f"{info.value.code}: {info.value}" == "BadConeModel: one label per facet required"
        cone = NefConeModel(facets=[DivClass([1, -1]), DivClass([0, 1])], facet_labels=["F", "E"])
        res = surface_gamma(F1_LATTICE, cone, DivClass([2, -1]), DivClass([5, -1]))
        assert (res.value, res.status) == (QuadNum(Fraction(-1, 4)), Status.EXACT_UNSTABLE)
        assert not is_solvable(F1_LATTICE, cone, DivClass([2, -1]), DivClass([5, -1]))

    def test_no_facets_and_no_light_cone(self):
        for labels in (None, []):
            with pytest.raises(BadConeModel) as info:
                NefConeModel(facets=[], facet_labels=labels)
            assert str(info.value) == "no facets and no light-cone facet"
        lone = NefConeModel(facets=(), light_cone=LightConeFacet(DivClass([1, 0])))
        assert lone.facets == lone.facet_labels == ()

    def test_empty_check_comes_first(self):
        with pytest.raises(BadConeModel, match="no facets and no light-cone facet"):
            NefConeModel(facets=[], facet_labels=["E"])

    @pytest.mark.parametrize("make, message", [
        # each part was once accepted: surface_gamma then raised AttributeError on
        # [[0, 1]] and [2, -1], and reported the int 7 as the binding facet
        (lambda: NefConeModel(facets=[[0, 1]]), "cone facets must be DivClasses, got [0, 1]"),
        (lambda: NefConeModel(facets=[DivClass([0, 1]), (1, -1)]),
         "cone facets must be DivClasses, got (1, -1)"),
        (lambda: LightConeFacet([2, -1]),
         "light-cone reference class must be a DivClass, got [2, -1]"),
        (lambda: NefConeModel(facets=[DivClass([0, 1])], facet_labels=[7]),
         "facet labels must be strings, got 7"),
        (lambda: NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                              facet_labels=["E", None]), "facet labels must be strings, got None"),
        # a str was once split into one label per character
        (lambda: NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])], facet_labels="EF"),
         "facet labels must be a list of strings, got 'EF'"),
    ])
    def test_part_that_is_not_a_class_or_label(self, make, message):
        with pytest.raises(BadConeModel) as info:
            make()
        assert f"{info.value.code}: {info.value}" == f"BadConeModel: {message}"


class TestConstantsOnKnownSurfaces:
    def test_blowup_model(self):
        theta, omega = DivClass([2, -1]), DivClass([5, -1])
        t, facet_t = seshadri_T(F1_LATTICE, F1_CONE, theta, omega)
        assert (t, facet_t) == (QuadNum(Fraction(1, 4)), "F")
        s, facet_s = sigma_inf(F1_LATTICE, F1_CONE, theta, omega)
        assert (s, facet_s) == (QuadNum(1), "E")

    def test_theta_equals_omega(self):
        rng = Random(8201)
        for _ in range(30):
            inst = random_instance(rng)
            omega = random_kahler(rng, inst)
            t, _ = seshadri_T(inst.lattice, inst.cone, omega, omega)
            s, _ = sigma_inf(inst.lattice, inst.cone, omega, omega)
            assert t == 1 and s == 1

    def test_product_of_curves_bounds(self):
        k = DivClass([2 * ROSS_G - 2, 0])
        l3 = DivClass([3, -1])
        t, facet_t = seshadri_T(ROSS_LATTICE, ROSS_CONE, k, l3)
        assert (t, facet_t) == (QuadNum(Fraction(6, 7)), "w_up")
        s, facet_s = sigma_inf(ROSS_LATTICE, ROSS_CONE, k, l3)
        assert (s, facet_s) == (QuadNum(6), "w_low")

    def test_omega_must_be_interior(self):
        with pytest.raises(OmegaNotKahler):
            seshadri_T(F1_LATTICE, F1_CONE, DivClass([2, -1]), DivClass([1, 0]))
        with pytest.raises(OmegaNotKahler):
            sigma_inf(F1_LATTICE, F1_CONE, DivClass([2, -1]), DivClass([0, 1]))

    def test_omega_with_nonpositive_square_rejected(self):
        # interior of a facet-only model but of negative square: refused
        lat = diagonal_lattice([1, -2])
        half_plane = NefConeModel(facets=[DivClass([1, 0])])
        omega = DivClass([1, 1])
        assert lat.self_int(omega) < 0
        with pytest.raises(OmegaNotKahler):
            seshadri_T(lat, half_plane, DivClass([2, 0]), omega)

    def test_tie_break_prefers_first_facet_then_linear(self):
        lat = diagonal_lattice([1, -1])
        # two copies of the same facet: the first label must win
        cone = NefConeModel(facets=[DivClass([1, -1]), DivClass([1, -1])],
                            facet_labels=["first", "second"])
        theta, omega = DivClass([2, -1]), DivClass([3, -1])
        assert seshadri_T(lat, cone, theta, omega)[1] == "first"
        assert sigma_inf(lat, cone, theta, omega)[1] == "first"
        # light-cone bound ties a linear facet: facet wins
        h = DivClass([1, 0])
        cone2 = NefConeModel(facets=[h], light_cone=LightConeFacet(h))
        t_val, t_facet = seshadri_T(lat, cone2, h + DivClass([0, 0]), DivClass([2, -1]))
        # theta = H: facet bound 1/2; light-cone smaller root: delta with
        # (H - d*omega)^2 = 0 -> 3d^2 - 4d + 1 = 0 -> d in {1/3, 1}
        assert (t_val, t_facet) == (QuadNum(Fraction(1, 3)), "light-cone")


class TestBoundaryOracle:
    """Independent sup/inf verification by stepping across the bound."""

    def test_seshadri_boundary_optimality(self):
        rng = Random(8202)
        for _ in range(120):
            inst = random_instance(rng)
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            t, _ = seshadri_T(inst.lattice, inst.cone, theta, omega)
            critical = quad_coords((1, theta), (-t, omega))
            assert all(v >= 0 for v in quad_sides(inst.lattice, inst.cone, critical))
            for eps in (Fraction(1, 1000), Fraction(1, 7)):
                stepped = quad_coords((1, theta), (-(t + eps), omega))
                assert not all(v >= 0 for v in quad_sides(inst.lattice, inst.cone, stepped))

    def test_sigma_boundary_optimality(self):
        rng = Random(8203)
        for _ in range(120):
            inst = random_instance(rng)
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            s, _ = sigma_inf(inst.lattice, inst.cone, theta, omega)
            critical = quad_coords((s, omega), (-1, theta))
            assert not all(v > 0 for v in quad_sides(inst.lattice, inst.cone, critical))
            for eps in (Fraction(1, 1000), Fraction(2, 5)):
                stepped = quad_coords((s + eps, omega), (-1, theta))
                assert all(v > 0 for v in quad_sides(inst.lattice, inst.cone, stepped))

    def test_light_cone_root_is_null(self):
        rng = Random(8204)
        for _ in range(60):
            inst = random_instance(rng, light_cone=True)
            if inst.cone.facets:
                continue
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            t, facet = seshadri_T(inst.lattice, inst.cone, theta, omega)
            assert facet == "light-cone"
            critical = quad_coords((1, theta), (-t, omega))
            assert quad_pair(inst.lattice, critical, critical) == 0


class TestReciprocityAndPathIdentities:
    def test_reciprocity(self):
        rng = Random(8205)
        for _ in range(150):
            inst = random_instance(rng)
            theta = random_kahler(rng, inst)
            omega = random_kahler(rng, inst)
            s, _ = sigma_inf(inst.lattice, inst.cone, theta, omega)
            t, _ = seshadri_T(inst.lattice, inst.cone, omega, theta)
            assert s > 0 and t > 0  # interior twists keep both constants positive
            assert s * t == 1

    def test_path_formula(self):
        rng = Random(8206)
        for _ in range(60):
            inst = random_instance(rng)
            theta = random_kahler(rng, inst)
            a = random_kahler(rng, inst)  # any nef class works; interior is nef
            t_a, _ = seshadri_T(inst.lattice, inst.cone, a, theta)
            for k in range(1, 21):
                t = Fraction(k, 20)
                omega_t = segment(a, theta, t)
                t_path, _ = seshadri_T(inst.lattice, inst.cone, omega_t, theta)
                assert t_path == (1 - t) * t_a + QuadNum(t)

    def test_vieta_identity(self):
        rng = Random(8207)
        for _ in range(80):
            inst = random_instance(rng, light_cone=True)
            theta = random_class(rng, inst)
            omega = random_kahler(rng, inst)
            lo, hi = light_cone_roots(inst.lattice.pair(theta, omega),
                                      inst.lattice.self_int(theta),
                                      inst.lattice.self_int(omega))
            expected = 2 * inst.lattice.pair(theta, omega) / inst.lattice.self_int(omega)
            assert lo + hi == QuadNum(expected)
            # both roots are genuine null directions
            for root in (lo, hi):
                null = quad_coords((1, theta), (-root, omega))
                assert quad_pair(inst.lattice, null, null) == 0

    def test_superadditivity(self):
        # T(theta + nu, omega) >= T(theta, omega) for nef nu.  Stated via
        # feasibility of the old bound, which keeps one radicand in play.
        rng = Random(8208)
        for _ in range(100):
            inst = random_instance(rng)
            theta = random_class(rng, inst)
            nu = random_kahler(rng, inst)
            omega = random_kahler(rng, inst)
            base, _ = seshadri_T(inst.lattice, inst.cone, theta, omega)
            moved = quad_coords((1, theta + nu), (-base, omega))
            assert all(v >= 0 for v in quad_sides(inst.lattice, inst.cone, moved))
            if inst.cone.light_cone is None:  # rational bounds: compare directly
                bumped, _ = seshadri_T(inst.lattice, inst.cone, theta + nu, omega)
                assert bumped >= base

    def test_empty_model_is_refused(self):
        # validate_cone refuses it too; an unvalidated one must not reach min/max
        with pytest.raises(BadConeModel, match="no facets and no light-cone facet"):
            cone_constants(F1_LATTICE, NefConeModel(facets=[]), DivClass([2, -1]),
                           DivClass([5, -1]))

    def test_constants_bundle(self):
        theta, omega = DivClass([2, -1]), DivClass([5, -1])
        cc = cone_constants(F1_LATTICE, F1_CONE, theta, omega)
        assert cc.T == Fraction(1, 4) and cc.sigma == 1
        assert cc.binding_facet_T == "F" and cc.binding_facet_sigma == "E"


class TestFractionOracle:
    """cone_constants' integer derivation against the Fraction route of conftest."""

    def _cases(self, rng: Random):
        cases = []
        for i in range(240):
            inst = random_instance(rng, light_cone=i % 3 != 0)
            theta = random_class(rng, inst) if i % 2 else random_kahler(rng, inst)
            omega = random_class(rng, inst) if i % 5 == 0 else random_kahler(rng, inst)
            cases.append((inst.lattice, inst.cone, theta, omega))
        # rank 2 with one facet that may cut into the light cone
        for _ in range(60):
            lattice = diagonal_lattice([1, -rng.randint(1, 4)])
            cone = NefConeModel(facets=[DivClass([1, rnd_fraction(rng, -2, 2, 3)])],
                                light_cone=LightConeFacet(DivClass([1, 0])))
            theta = DivClass([rnd_fraction(rng), rnd_fraction(rng)])
            omega = DivClass([rng.randint(2, 6), rnd_fraction(rng, -1, 1, 2)])
            cases.append((lattice, cone, theta, omega))
        # an unvalidated positive-definite lattice: negative discriminants
        definite = diagonal_lattice([1, 2])
        cone = NefConeModel(facets=[], light_cone=LightConeFacet(DivClass([1, 0])))
        cases += [(definite, cone, DivClass([1, y]), DivClass([2, 1])) for y in (-3, 0, 2)]
        # ties: two copies of one facet, and a facet through the light cone's null ray
        lat = diagonal_lattice([1, -1])
        twins = NefConeModel(facets=[DivClass([1, -1]), DivClass([1, -1])],
                             facet_labels=["first", "second"])
        touching = NefConeModel(facets=[DivClass([1, 1])],
                                light_cone=LightConeFacet(DivClass([1, 0])))
        cases += [(lat, twins, DivClass([2, -1]), DivClass([3, -1])),
                  (lat, touching, DivClass([3, 1]), DivClass([2, 1])),
                  (lat, touching, DivClass([3, 1]), DivClass([3, 1])),
                  (lat, NefConeModel(facets=[DivClass([1, 0])]), DivClass([2, 0]),
                   DivClass([1, 1]))]  # omega^2 = 0
        return cases

    def test_cone_constants_match_the_oracle(self):
        rng = Random(8209)
        seen = {"facet-only": 0, "irrational": 0, "light-cone binds": 0,
                "facet beats light cone": 0}
        errors = set()
        for lattice, cone, theta, omega in self._cases(rng):
            got = constants_outcome(lambda: cone_constants(lattice, cone, theta, omega))
            want = constants_outcome(lambda: fraction_cone_constants(lattice, cone, theta, omega))
            assert got == want
            if isinstance(got[0], type):
                errors.add(got[0])
                continue
            seen["facet-only"] += cone.light_cone is None
            seen["irrational"] += got[1][1] != 0 or got[2][1] != 0
            seen["light-cone binds"] += LIGHT_CONE in got[4:]
            seen["facet beats light cone"] += (cone.light_cone is not None
                                               and got[4:] != (LIGHT_CONE, LIGHT_CONE))
        assert min(seen.values()) >= 10, seen
        assert errors == {OmegaNotKahler, ZeroVolume, BadSignature}

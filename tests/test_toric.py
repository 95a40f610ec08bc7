"""Fan validation, the intersection engine, orbit scores and the toric minimum.

Ground truth comes from two independent routes: hand-checkable classical
intersection numbers, and the rank-2 lattice models of the same surfaces.
"""

from __future__ import annotations

import copy
import itertools
import json
import pickle
from fractions import Fraction
from math import factorial, prod
from random import Random

import pytest

from conftest import (RecursionOracle, blowup_fan, canonicalize, classes_equivalent,
                      fraction_table, fraction_toric_gamma, is_nef_toric, per_cone_validation,
                      toric_surface_model, unimodular_shear)
from jthresh import toric
from jthresh import (DivClass, Fan, NefConeModel, QuadNum, Status,
                     diagonal_lattice, intersection_number, subvariety_score,
                     surface_gamma, toric_gamma)
from jthresh.cli import run
from jthresh.exactnum import decimal_str, format_rat
from jthresh.toric import (ToricGammaResult, enumerate_orbits, invariant_curves, is_ample,
                           toric_seshadri_T, validate_fan)
from jthresh.errors import (BadFace, BadParams, DimensionMismatch, FanInvalid, JThreshError,
                            NonPrimitiveRay, NotComplete, NotSmooth, OmegaNotAmpleOnOrbit,
                            OmegaNotKahler, WrongArity)

eliminate = toric._eliminate

P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
P1P1 = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
P1CUBE = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
             [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)])


def projective_space(n: int) -> Fan:
    rays = [tuple(int(j == i) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return Fan(n, rays, [[i for i in range(n + 1) if i != k] for k in range(n + 1)])


def p1_power(n: int) -> Fan:
    """(P^1)^n; rays 2i and 2i+1 are +e_i and -e_i."""
    rays = [tuple(s * int(j == i) for j in range(n)) for i in range(n) for s in (1, -1)]
    return Fan(n, rays, [[2 * i + s for i, s in enumerate(signs)]
                         for signs in itertools.product((0, 1), repeat=n)])


def hirzebruch(a: int) -> Fan:
    return Fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


F1 = hirzebruch(1)
P1 = Fan(1, [(1,), (-1,)], [(0,), (1,)])
# P^3 blown up at a point: rays 3 and 4 are -(1,1,1) and the exceptional (1,1,1)
P3_BLOWUP = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
                [(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

F1_H = DivClass([0, 0, 0, 1])
F1_E = DivClass([0, 1, 0, 0])
F1_F = DivClass([1, 0, 0, 0])

P2_RAYS, P2_CONES = [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]
# eight unimodular cones winding twice around the origin: every ridge has
# two owners on opposite sides, so only the generic-point count catches it
TWICE = [(1, 0), (-2, 1), (-1, 0), (-1, -1), (-1, -2), (0, -1), (1, 1), (-2, -1)]
# fifteen unimodular cones winding three times around the origin
THRICE = [(1, 0), (-3, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2), (-1, -1), (-2, -3),
          (-1, -2), (1, 1), (0, 1), (-1, 1), (1, -2), (-1, 3), (0, -1)]
BAD_FANS = {
    "non_positive_dimension": (0, [], [], FanInvalid, "dimension must be positive"),
    "duplicate_rays": (2, [(1, 0), (0, 1), (1, 0)], P2_CONES, FanInvalid, "duplicate rays"),
    "wrong_ray_length": (2, [(1, 0), (0, 1, 0), (-1, -1)], P2_CONES, FanInvalid,
                         "ray (0, 1, 0) has wrong length"),
    "zero_ray": (2, [(1, 0), (0, 0), (-1, -1)], P2_CONES, NonPrimitiveRay, "zero ray"),
    "ray_content": (2, [(2, 0), (0, 1), (-1, -1)], P2_CONES, NonPrimitiveRay,
                    "ray (2, 0) has content 2"),
    "non_distinct_cone": (2, P2_RAYS, [(0, 0), (1, 2), (0, 2)], NotSmooth,
                          "maximal cone (0, 0) does not have 2 distinct rays"),
    "missing_rays": (2, P2_RAYS, [(0, 1), (1, 5), (0, 2)], FanInvalid,
                     "cone (1, 5) references missing rays"),
    "negative_ray_index": (2, P2_RAYS, [(0, 1), (2, -1), (0, 2)], FanInvalid,
                           "cone (-1, 2) references missing rays"),
    "ray_index_is_ray_count": (2, P2_RAYS, [(0, 1), (1, 3), (0, 2)], FanInvalid,
                               "cone (1, 3) references missing rays"),
    "not_unimodular": (2, [(1, 0), (1, 2), (-1, -1)], P2_CONES, NotSmooth,
                       "maximal cone (0, 1) is not unimodular"),
    "singular_cone": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 2), (1, 2), (2, 3), (3, 0)],
                      NotSmooth, "maximal cone (0, 2) is not unimodular"),
    "duplicate_max_cones": (2, P2_RAYS, P2_CONES + [(1, 0)], FanInvalid,
                            "duplicate maximal cones"),
    "unused_rays": (2, P2_RAYS + [(1, 1)], P2_CONES, FanInvalid, "unused rays"),
    "boundary_ridge": (2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)], NotComplete,
                       "ridge (0,) lies on the boundary of the support"),
    "ridge_three_owners": (2, P2_RAYS + [(1, 1)], P2_CONES + [(0, 3)], BadFace,
                           "ridge (0,) shared by 3 maximal cones"),
    "same_side_walls": (2, [(1, 0), (0, 1), (1, 1)], P2_CONES, BadFace,
                        "maximal cones at ridge (1,) are on the same side"),
    "interior_overlap": (2, TWICE, [(i, (i + 1) % 8) for i in range(8)], BadFace,
                         "maximal cones overlap in their interiors"),
    "winding_three_times": (2, THRICE, [(i, (i + 1) % 15) for i in range(15)], BadFace,
                            "maximal cones overlap in their interiors"),
    "empty_fan": (2, [], [], NotComplete, "generic point not covered by any maximal cone"),
    # refused before the generic point c, whose dim entries would hold the CLI
    "empty_fan_huge_dim": (10**9, [], [], NotComplete,
                           "generic point not covered by any maximal cone"),
}


# Fans with two faults each, and the first diagnostic line of `validate`: the
# checks meet their faults per cone in cone order (arity, then indices, then
# unimodularity), then duplicate cones, unused rays, walls in ridge order and
# the cone count at the generic point, however the cones are reached while
# they are certified.
RAYS_P1P1 = [(1, 0), (0, 1), (-1, 0), (0, -1)]
RAYS_BENT = [(1, 0), (1, 2), (-1, 0), (0, -1)]  # cones (0, 1) and (1, 2) have det 2
TWO_FAULT_FANS = {
    "not_unimodular_before_arity": (
        2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1,), (0, 2)],
        "NotSmooth: maximal cone (0, 1) is not unimodular"),
    "arity_before_not_unimodular": (
        2, [(1, 0), (1, 2), (-1, -1)], [(1,), (0, 1), (0, 2)],
        "NotSmooth: maximal cone (1,) does not have 2 distinct rays"),
    "indices_before_not_unimodular": (
        2, [(1, 0), (1, 2), (-1, -1)], [(0, 2), (1, 7), (0, 1)],
        "FanInvalid: cone (1, 7) references missing rays"),
    # the wall (0,) leads from the first cone to (0, 1) before (1, 2)'s turn
    "adjacent_not_unimodular_after_its_turn": (
        2, RAYS_BENT, [(0, 3), (1, 2), (2, 3), (0, 1)],
        "NotSmooth: maximal cone (1, 2) is not unimodular"),
    "wall_reaches_later_cone_first": (
        2, RAYS_BENT, [(2, 3), (0, 1), (1, 2), (0, 3)],
        "NotSmooth: maximal cone (0, 1) is not unimodular"),
    "arity_behind_a_reached_cone": (
        2, RAYS_BENT, [(2, 3), (1,), (1, 2), (0, 3), (0, 1)],
        "NotSmooth: maximal cone (1,) does not have 2 distinct rays"),
    "first_cone_not_unimodular": (
        3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (1, 0, -2)],
        [(a, b, c) for a in (3, 0) for b in (4, 1) for c in (5, 2)],
        "NotSmooth: maximal cone (3, 4, 5) is not unimodular"),
    "same_side_before_boundary": (
        2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2)],
        "BadFace: maximal cones at ridge (1,) are on the same side"),
    "boundary_before_same_side": (
        2, [(1, 0), (0, 1), (1, 1)], [(1, 2), (0, 1)],
        "NotComplete: ridge (2,) lies on the boundary of the support"),
    "duplicate_and_unused": (
        2, P2_RAYS + [(1, 1)], P2_CONES + [(0, 1)], "FanInvalid: duplicate maximal cones"),
    "duplicate_and_boundary": (
        2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2), (0, 1)],
        "FanInvalid: duplicate maximal cones"),
    "duplicate_before_not_unimodular": (
        2, P2_RAYS + [(1, 2)], [(0, 1), (0, 1), (1, 2), (0, 2), (0, 3)],
        "NotSmooth: maximal cone (0, 3) is not unimodular"),
    "two_components_second_not_unimodular": (
        2, [(1, 0), (0, 1), (-1, 0), (1, -2)], [(0, 1), (2, 3)],
        "NotSmooth: maximal cone (2, 3) is not unimodular"),
    "two_components_with_boundaries": (
        2, RAYS_P1P1, [(0, 1), (2, 3)],
        "NotComplete: ridge (1,) lies on the boundary of the support"),
    "two_closed_components": (
        2, P2_RAYS + [(-1, 0), (0, -1), (1, 1)], P2_CONES + [(3, 4), (4, 5), (3, 5)],
        "BadFace: maximal cones overlap in their interiors"),
}


SEEDED_FANS = {**{f"P{n}": lambda n=n: projective_space(n) for n in range(1, 9)},
               **{f"P1^{n}": lambda n=n: p1_power(n) for n in range(1, 7)},
               **{f"F{a}": lambda a=a: hirzebruch(a) for a in range(4)}}


def _sheared_images(name: str, purpose: str) -> list[Fan]:
    """SEEDED_FANS[name] and its images under three random GL_n(Z) shears."""
    fan = SEEDED_FANS[name]()
    n, rng = fan.dim, Random(f"{purpose} {name}")
    return [fan] + [Fan(n, [tuple(sum(a * x for a, x in zip(row, ray)) for row in shear)
                            for ray in fan.rays], fan.max_cones)
                    for shear in [unimodular_shear(rng, n) for _ in range(3)]]


def _validation_outcome(dim, rays, cones, validate):
    try:
        return validate(dim, rays, cones)
    except JThreshError as exc:
        return type(exc), str(exc)


def _built_duals(dim, rays, cones):
    """The dual bases validation walks to, once ``Fan`` has accepted the fan."""
    Fan(dim, rays, cones)
    return tuple(toric._wall_walk(rays, [tuple(sorted(cone)) for cone in cones])[0])


def _mutations(rng: Random, rays: list, cones: list):
    """The fan itself, then one flipped ray sign, swapped rays, dropped and duplicated cones."""
    yield rays, cones
    i, j = rng.sample(range(len(rays)), 2)
    yield [tuple(-x for x in ray) if k == i else ray for k, ray in enumerate(rays)], cones
    yield [rays[j] if k == i else rays[i] if k == j else ray for k, ray in enumerate(rays)], cones
    k = rng.randrange(len(cones))
    yield rays, cones[:k] + cones[k + 1:]
    yield rays, cones[:k] + [cones[rng.randrange(len(cones))]] + cones[k:]


def _validated_orbits(fan: Fan) -> int:
    """The orbit count that the validate command reports for the fan's document."""
    doc = {"fan": {"dim": fan.dim, "rays": fan.rays, "max_cones": fan.max_cones}}
    code, out = run(["validate", "--format", "json"], json.dumps(doc).encode())
    assert code == 0
    return json.loads(out)["fan"]["orbits"]


def _check_h_vector(fan: Fan) -> None:
    """h_k, the number of maximal cones with k weights < 0 at c, is the fan's h-vector:
    Dehn-Sommerville symmetry, one entry per maximal cone, and the orbit count agrees
    with the listed orbits.  The count uses none of these facts."""
    h = [0] * (fan.dim + 1)
    for weights in fan._weights:
        h[sum(w < 0 for w in weights)] += 1
    assert h == h[::-1]
    assert sum(h) == len(fan.max_cones)
    assert _validated_orbits(fan) == len(enumerate_orbits(fan))


def _check_duals_against_the_oracle(fan: Fan, rng: Random) -> None:
    """The fan, its images under random GL_n(Z) maps and their mutations: the wall walk
    and the per-cone oracle find the same bases, or the same first fault."""
    n = fan.dim
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for shear in [identity] + [unimodular_shear(rng, n) for _ in range(3)]:
        rays = [tuple(sum(a * x for a, x in zip(row, ray)) for row in shear) for ray in fan.rays]
        for case in _mutations(rng, rays, list(fan.max_cones)):
            built = _validation_outcome(n, *case, _built_duals)
            assert built == _validation_outcome(n, *case, per_cone_validation)


def _direct_weights(fan: Fan) -> tuple:
    """Each cone's dual rows, found cone by cone, dotted with c = (1, N, ..., N^(n-1)),
    N = 1 + the largest |entry| over all cones."""
    duals = per_cone_validation(fan.dim, fan.rays, fan.max_cones)
    base = 1 + max(abs(x) for dual in duals for m in dual for x in m)
    return tuple(tuple(sum(x * base ** i for i, x in enumerate(m)) for m in dual)
                 for dual in duals)


class TestValidateFan:
    @pytest.mark.parametrize("name", list(SEEDED_FANS))
    def test_duals_match_the_per_cone_oracle(self, name):
        _check_duals_against_the_oracle(SEEDED_FANS[name](), Random(f"per-cone {name}"))

    def test_duals_of_blowups_match_the_per_cone_oracle(self):
        # blowup rays mix one-entry rays, paired by lookup, with dense ones
        rng = Random(8912)
        for _ in range(40):
            _check_duals_against_the_oracle(blowup_fan(rng)[0], rng)

    @pytest.mark.parametrize("name", list(SEEDED_FANS))
    def test_weights_follow_the_direct_formula(self, name):
        # validation weighs each distinct dual row once; the formula weighs every row
        for built in _sheared_images(name, "weights"):
            assert built._weights == _direct_weights(built)

    def test_weights_of_blowups_follow_the_direct_formula(self):
        rng = Random(8913)
        for _ in range(100):
            fan = blowup_fan(rng)[0]
            assert fan._weights == _direct_weights(fan)

    @pytest.mark.parametrize("name", list(SEEDED_FANS))
    def test_generic_point_lies_inside_exactly_one_cone(self, name):
        # c is off every cone's walls, in the fan and its images under GL_n(Z)
        for built in _sheared_images(name, "generic point"):
            assert all(w != 0 for weights in built._weights for w in weights)
            assert sum(min(weights) > 0 for weights in built._weights) == 1

    @pytest.mark.parametrize("name", list(SEEDED_FANS))
    def test_validate_counts_every_orbit(self, name):
        # count_orbits sums 2^(weights > 0) over the maximal cones, which the validate
        # command reports; enumerate_orbits lists the cones themselves
        for built in _sheared_images(name, "orbit count"):
            assert _validated_orbits(built) == len(enumerate_orbits(built))

    @pytest.mark.parametrize("name", list(SEEDED_FANS))
    def test_h_vector_of_sheared_fans(self, name):
        for built in _sheared_images(name, "h-vector"):
            _check_h_vector(built)

    def test_h_vector_of_blowups(self):
        rng = Random(8910)
        for fan in [P3_BLOWUP] + [blowup_fan(rng)[0] for _ in range(220)]:
            _check_h_vector(fan)

    @pytest.mark.parametrize("name", sorted(TWO_FAULT_FANS) + sorted(BAD_FANS))
    def test_first_diagnostic_line(self, name):
        if name in TWO_FAULT_FANS:
            dim, rays, cones, line = TWO_FAULT_FANS[name]
        else:
            dim, rays, cones, error, message = BAD_FANS[name]
            line = f"{error.__name__}: {message}"
        doc = {"fan": {"dim": dim, "rays": rays, "max_cones": cones}}
        assert run(["validate"], json.dumps(doc).encode()) == (2, (line + "\n").encode())

    def test_classic_fans_pass(self):
        for fan in (P2, P1P1, P1CUBE, F1, hirzebruch(2), hirzebruch(3)):
            validate_fan(fan)

    def test_not_smooth(self):
        with pytest.raises(NotSmooth):
            validate_fan(Fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]))

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(Fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]))

    def test_not_complete(self):
        with pytest.raises(NotComplete):
            validate_fan(Fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]))

    def test_bad_face_overlap(self):
        # ray 3 = (1,1) sits inside cone(0,1): the extra cone overlaps
        with pytest.raises((BadFace, NotComplete)):
            validate_fan(Fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                             [(0, 1), (1, 2), (0, 2), (0, 3)]))

    def test_one_dimensional_projective_line(self):
        validate_fan(P1)

    @pytest.mark.parametrize("name", sorted(BAD_FANS))
    def test_diagnostic(self, name):
        dim, rays, cones, error, message = BAD_FANS[name]
        with pytest.raises(error) as info:
            Fan(dim, rays, cones)  # the constructor validates
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("dim, rays, cones, message", [
        (2.7, P2_RAYS, P2_CONES, "fan dim must be an integer, got 2.7"),
        (2, [(1.9, 0), (0, 1), (-1, -1)], P2_CONES, "fan rays entry must be an integer, got 1.9"),
        (2, P2_RAYS, [(0, 1), (1, 2), (0, 2.5)],
         "fan max_cones entry must be an integer, got 2.5"),
        (2, [("1", 0), (0, 1), (-1, -1)], P2_CONES, "fan rays entry must be an integer, got '1'"),
        (2, P2_RAYS, [(0, True), (1, 2), (0, 2)],
         "fan max_cones entry must be an integer, got True"),
    ])
    def test_non_integer_data_is_refused(self, dim, rays, cones, message):
        # int() would truncate each of these into a valid P^2; the gates' BadParams
        # lines name the document fields, the words a document prints
        with pytest.raises(BadParams) as info:
            Fan(dim, rays, cones)
        assert type(info.value) is BadParams and str(info.value) == message

    @pytest.mark.parametrize("rays, cones, message", [
        ([5, [0, 1]], [[0, 1]], "fan rays must be a list of integer lists, got [5, [0, 1]]"),
        (P2_RAYS, [0, 1], "fan max_cones must be a list of integer lists, got [0, 1]"),
        (None, P2_CONES, "fan rays must be a list of integer lists, got None"),
        (P2_RAYS, [(0, 1), None, (0, 2)],
         "fan max_cones must be a list of integer lists, got [(0, 1), None, (0, 2)]"),
    ])
    def test_rows_that_are_not_lists_are_refused(self, rays, cones, message):
        # each once raised TypeError while the constructor iterated it
        with pytest.raises(BadParams) as info:
            Fan(2, rays, cones)
        assert type(info.value) is BadParams and str(info.value) == message

    @pytest.mark.parametrize("name", ["dim", "rays", "max_cones", "_max_cone_sets", "extra"])
    def test_fan_is_immutable(self, name):
        fan = hirzebruch(1)
        with pytest.raises(AttributeError):
            setattr(fan, name, getattr(P2, name, None))
        assert fan == F1

    def test_copy_and_pickle_rebuild_the_fan(self):
        for clone in (copy.copy(F1), copy.deepcopy(F1), pickle.loads(pickle.dumps(F1))):
            assert type(clone) is Fan and clone == F1 and hash(clone) == hash(F1)

    def test_equal_fans_hash_equal(self):
        assert hash(hirzebruch(1)) == hash(F1)
        assert len({hirzebruch(1), F1, P2, hirzebruch(2)}) == 3


class TestToricClasses:
    def test_classes_of_different_lengths_do_not_combine(self):
        shorter = DivClass([1, 0, 0])
        with pytest.raises(DimensionMismatch):
            F1_H + shorter
        with pytest.raises(DimensionMismatch):
            F1_H - shorter


class TestArity:
    """A class one coefficient short or long is refused by every toric query, never truncated."""

    QUERIES = {"toric_gamma": lambda a, b: toric_gamma(P2, a, b),
               "subvariety_score": lambda a, b: subvariety_score(P2, a, b, (0,)),
               "intersection_number": lambda a, b: intersection_number(P2, [a, b])}

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("coords", [[1, 1], [1, 1, 1, 1]], ids=["short", "long"])
    def test_wrong_length_class_is_refused(self, query, position, coords):
        classes = [DivClass([2, 1, 1])] * 2
        self.QUERIES[query](*classes)  # the right length is answered
        classes[position] = DivClass(coords)
        with pytest.raises(WrongArity):
            self.QUERIES[query](*classes)


class TestIntersectionNumbers:
    def test_projective_plane_line(self):
        h = DivClass([1, 0, 0])
        assert intersection_number(P2, [h, h]) == 1

    def test_blowup_exceptional_square(self):
        assert intersection_number(F1, [F1_E, F1_E]) == -1
        assert intersection_number(F1, [F1_H, F1_H]) == 1
        assert intersection_number(F1, [F1_H, F1_E]) == 0
        assert intersection_number(F1, [F1_F, F1_E]) == 1

    def test_quadric_rulings(self):
        h1 = DivClass([1, 0, 0, 0])
        h2 = DivClass([0, 1, 0, 0])
        assert intersection_number(P1P1, [h1, h1]) == 0
        assert intersection_number(P1P1, [h1, h2]) == 1
        assert intersection_number(P1P1, [h2, h2]) == 0

    def test_negative_section_squares(self):
        for a in (1, 2, 3):
            fan = hirzebruch(a)
            section = DivClass([0, 1, 0, 0])
            assert intersection_number(fan, [section, section]) == -a

    def test_triple_product_on_threefold(self):
        h1 = DivClass([1, 0, 0, 0, 0, 0])
        h2 = DivClass([0, 1, 0, 0, 0, 0])
        h3 = DivClass([0, 0, 1, 0, 0, 0])
        assert intersection_number(P1CUBE, [h1, h2, h3]) == 1
        assert intersection_number(P1CUBE, [h1, h1, h2]) == 0
        big = h1 + h2 + h3
        assert intersection_number(P1CUBE, [big, big, big]) == 6

    def test_point_blowup_of_threefold(self):
        # classical values: pullback hyperplane H and exceptional divisor E
        # satisfy H^3 = 1, E^3 = 1, mixed products 0, (H - E)^3 = 0
        fan = P3_BLOWUP
        h = DivClass([0, 0, 0, 1, 0])
        e = DivClass([0, 0, 0, 0, 1])
        assert intersection_number(fan, [h, h, h]) == 1
        assert intersection_number(fan, [e, e, e]) == 1
        assert intersection_number(fan, [h, h, e]) == 0
        assert intersection_number(fan, [h, e, e]) == 0
        assert intersection_number(fan, [h - e] * 3) == 0
        # the exceptional orbit caps the minimum: score C - 2 on V(e)
        res = toric_gamma(fan, h.scale(2) - e, h.scale(5) - e)
        assert res.value == Fraction(-101, 124)
        assert res.minimizer == (4,)
        assert res.scores[4].cone == (4,) and res.scores[4].p == 2

    def test_symmetry_and_multilinearity(self):
        rng = Random(8401)
        for fan in (P2, F1, P1P1):
            for _ in range(30):
                x = DivClass([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in fan.rays])
                y = DivClass([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in fan.rays])
                z = DivClass([Fraction(rng.randint(-4, 4)) for _ in fan.rays])
                a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
                assert intersection_number(fan, [x, y]) == intersection_number(fan, [y, x])
                assert intersection_number(fan, [x.scale(a) + y.scale(b), z]) == \
                    a * intersection_number(fan, [x, z]) + b * intersection_number(fan, [y, z])

    def test_linear_equivalence_invariance(self):
        rng = Random(8402)
        for fan in (P2, F1, P1CUBE):
            n = fan.dim
            for _ in range(20):
                classes = [DivClass([Fraction(rng.randint(-3, 3)) for _ in fan.rays])
                           for _ in range(n)]
                base = intersection_number(fan, classes)
                m = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                shift = DivClass([sum(mi * ui for mi, ui in zip(m, ray))
                                  for ray in fan.rays])
                bumped = [classes[0] + shift] + classes[1:]
                assert intersection_number(fan, bumped) == base

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            intersection_number(P2, [DivClass([1, 0, 0])])


class TestAgainstLatticeModel:
    """Dual-route oracle: same surfaces as rank-2 lattice computations."""

    def test_hirzebruch_dictionary(self):
        for a in (0, 1, 2, 3):
            fan = hirzebruch(a)
            lat = diagonal_lattice([1, -1])
            named = {
                "E": (DivClass([0, 1, 0, 0]),
                      DivClass([Fraction(1 - a, 2), Fraction(1 + a, 2)])),
                "F": (DivClass([1, 0, 0, 0]), DivClass([1, -1])),
                "H": (DivClass([0, 0, 0, 1]),
                      DivClass([Fraction(1 + a, 2), Fraction(1 - a, 2)])),
            }
            for la, (ta, da) in named.items():
                for lb, (tb, db) in named.items():
                    assert intersection_number(fan, [ta, tb]) == lat.pair(da, db), (a, la, lb)

    def test_random_ample_pairs_whole_toric_surface_set(self):
        # ruled surfaces and the quadric: ample = alpha*E + beta*F with
        # alpha > 0, beta > a*alpha; both routes must agree exactly
        rng = Random(8406)
        from jthresh import build
        for a in (0, 1, 2, 3):
            entry = build("hirzebruch", {"a": a})
            e_t, f_t = entry.toric_classes["E"], entry.toric_classes["F"]
            e_l, f_l = entry.classes["E"], entry.classes["F"]
            for _ in range(12):
                a1, b1 = rng.randint(1, 5), 0
                b1 = a * a1 + rng.randint(1, 6)
                a2 = rng.randint(1, 5)
                b2 = a * a2 + rng.randint(1, 6)
                theta_t = e_t.scale(a1) + f_t.scale(b1)
                omega_t = e_t.scale(a2) + f_t.scale(b2)
                theta_l = e_l.scale(a1) + f_l.scale(b1)
                omega_l = e_l.scale(a2) + f_l.scale(b2)
                tor = toric_gamma(entry.fan, theta_t, omega_t)
                surf = surface_gamma(entry.lattice, entry.cone, theta_l, omega_l)
                assert tor.status is surf.status
                assert QuadNum(tor.value) == surf.value, (a, a1, b1, a2, b2)

    def test_random_ample_pairs_projective_plane(self):
        # rank-1 model: single facet, classes are multiples of the line
        rng = Random(8407)
        lat = diagonal_lattice([1])
        cone = NefConeModel(facets=[DivClass([1])], facet_labels=["H"])
        for _ in range(20):
            x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            y = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            tor = toric_gamma(P2, DivClass([x, 0, 0]), DivClass([y, 0, 0]))
            surf = surface_gamma(lat, cone, DivClass([x]), DivClass([y]))
            assert QuadNum(tor.value) == surf.value == x / y
            assert tor.status is surf.status


class TestOrbits:
    def test_counts(self):
        assert len(enumerate_orbits(P2)) == 6
        assert len(enumerate_orbits(F1)) == 8
        assert len(enumerate_orbits(P1CUBE)) == 26

    def test_ordering(self):
        assert enumerate_orbits(F1) == [(0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3)]

    def test_invariant_curves_of_threefold(self):
        assert len(invariant_curves(P1CUBE)) == 12

    def test_repr(self):
        assert repr(F1) == "Fan(dim=2, rays=4, max_cones=4)"

    def test_rewrite_terms_needs_a_cone_of_the_fan(self):
        assert F1.rewrite_terms(frozenset({0, 1}), 0) == ((2, 1),)  # D0 = D2 on F_1
        with pytest.raises(BadFace) as info:
            F1.rewrite_terms(frozenset({0, 2}), 0)  # D0 and D2 are both fibres: disjoint
        assert str(info.value) == "rays [0, 2] do not span a cone of the fan"


class TestAmpleness:
    def test_blowup_classes(self):
        assert is_ample(F1, F1_H.scale(2) - F1_E)
        assert not is_ample(F1, F1_H)          # nef but trivial on E
        assert is_nef_toric(F1, F1_H)
        assert not is_nef_toric(F1, F1_E)

    def test_projective_line(self):
        # V(()) = P^1 is the only invariant curve; every D_i has degree 1 on it
        d0 = DivClass([1, 0])
        assert invariant_curves(P1) == [()]
        assert not is_ample(P1, d0.scale(-1)) and not is_nef_toric(P1, d0.scale(-1))
        assert is_ample(P1, d0) and is_nef_toric(P1, DivClass([1, -1]))
        assert toric_seshadri_T(P1, d0.scale(-1), d0) == -1
        with pytest.raises(OmegaNotKahler):
            toric_seshadri_T(P1, d0, d0.scale(-1))

    def test_toric_seshadri_bound(self):
        theta = F1_H.scale(2) - F1_E
        omega = F1_H.scale(5) - F1_E
        assert toric_seshadri_T(F1, theta, omega) == Fraction(1, 4)
        assert toric_seshadri_T(F1, F1_H, omega) == 0


class TestScores:
    def test_exceptional_orbit(self):
        theta = F1_H.scale(2) - F1_E
        omega = F1_H.scale(5) - F1_E
        score = subvariety_score(F1, theta, omega, (1,))
        assert score.value == Fraction(-1, 4)
        assert score.numerator == Fraction(-1, 4) and score.denominator == 1

    def test_identity_twist_scores_one(self):
        rng = Random(8403)
        for fan in (P2, F1, P1P1, P1CUBE):
            omega = _random_ample(rng, fan)
            for sigma in enumerate_orbits(fan):
                assert subvariety_score(fan, omega, omega, sigma).value == 1

    def test_point_orbit_gives_c_over_n(self):
        theta = F1_H.scale(2) - F1_E
        omega = F1_H.scale(5) - F1_E
        score = subvariety_score(F1, theta, omega, (0, 1))
        assert score.value == Fraction(3, 8)

    @pytest.mark.parametrize("sigma", [(0.0,), (True,), ("1",), (0, 1.0)])
    def test_cone_indices_must_be_ints(self, sigma):
        # (0.0,) once returned a score whose cone was (0.0,)
        bad = next(i for i in sigma if type(i) is not int)
        with pytest.raises(BadParams) as info:
            subvariety_score(F1, F1_H.scale(2) - F1_E, F1_H.scale(5) - F1_E, sigma)
        assert f"{info.value.code}: {info.value}" == (
            f"BadParams: cone index must be an integer, got {bad!r}")

    def test_omega_with_non_positive_volume_is_refused_after_the_orbit(self):
        # omega.D0 = 2 > 0 passes the orbit's check; omega^2 = -2
        omega = DivClass([Fraction(1, 2), 2, 0, 0])
        with pytest.raises(OmegaNotKahler) as info:
            subvariety_score(hirzebruch(1), DivClass([0, 0, 0, 1]), omega, (0,))
        assert str(info.value) == "omega^n = -2 <= 0"

    def test_omega_with_zero_volume_is_refused(self):
        # on (P^1)^2, omega = D0 pulls back one factor's point: positive on the orbit
        # V(2), a fiber, yet omega^2 = 0, which a C = .../omega^n must never divide by
        fan = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (2, 1), (1, 3), (3, 0)])
        with pytest.raises(OmegaNotKahler) as info:
            subvariety_score(fan, DivClass([1, 0, 1, 0]), DivClass([1, 0, 0, 0]), [2])
        assert str(info.value) == "omega^n = 0 <= 0"

    def test_omega_positive_on_orbit_required(self):
        with pytest.raises(OmegaNotAmpleOnOrbit):
            subvariety_score(F1, F1_E, F1_H, (1,))  # H.E = 0 on the section
        with pytest.raises(BadFace):
            subvariety_score(F1, F1_E, F1_H.scale(2) - F1_E, (0, 2))


def _random_ample(rng: Random, fan: Fan) -> DivClass:
    for _ in range(60):
        cand = DivClass([Fraction(rng.randint(1, 6)) for _ in fan.rays])
        if is_ample(fan, cand):
            return cand
    raise AssertionError("no ample class found")


class TestToricGamma:
    def test_blowup_full_example(self):
        theta = F1_H.scale(2) - F1_E
        omega = F1_H.scale(5) - F1_E
        res = toric_gamma(F1, theta, omega)
        assert res.value == Fraction(-1, 4)
        assert res.minimizer == (1,)
        assert res.status is Status.EXACT_UNSTABLE
        by_cone = {s.cone: s.value for s in res.scores}
        assert by_cone == {
            (0,): Fraction(1, 2), (1,): Fraction(-1, 4), (2,): Fraction(1, 2),
            (3,): Fraction(7, 20),
            (0, 1): Fraction(3, 8), (0, 3): Fraction(3, 8),
            (1, 2): Fraction(3, 8), (2, 3): Fraction(3, 8),
        }

    def test_matches_lattice_route(self):
        # same computation through the rank-2 model of the blowup surface
        lat = diagonal_lattice([1, -1])
        cone = NefConeModel(facets=[DivClass([0, 1]), DivClass([1, -1])],
                            facet_labels=["E", "F"])
        res_lattice = surface_gamma(lat, cone, DivClass([2, -1]), DivClass([5, -1]))
        res_toric = toric_gamma(F1, F1_H.scale(2) - F1_E, F1_H.scale(5) - F1_E)
        assert res_toric.value == res_lattice.value == Fraction(-1, 4)
        assert res_toric.status is res_lattice.status

    def test_plane_with_scaled_line(self):
        h = DivClass([1, 0, 0])
        for a in (Fraction(1, 2), Fraction(1), Fraction(7, 3)):
            res = toric_gamma(P2, h.scale(a), h)
            assert res.value == a
            assert res.status is Status.SOLVABLE

    def test_identity_twist(self):
        res = toric_gamma(F1, F1_H.scale(3) - F1_E, F1_H.scale(3) - F1_E)
        assert res.value == 1 and res.minimizer == (0,)

    def test_non_ample_twist_statuses(self):
        omega = F1_H.scale(5) - F1_E
        res = toric_gamma(F1, F1_H, omega)  # value 1/6 >= T = 0
        assert res.status is Status.INDETERMINATE and res.T == 0
        assert res.value == Fraction(1, 6)
        res2 = toric_gamma(F1, F1_E.scale(-1), omega)
        assert res2.status is Status.CONDITIONAL_EXACT
        assert res2.value < res2.T

    def test_projective_line(self):
        d0 = DivClass([1, 0])
        res = toric_gamma(P1, d0.scale(-1), d0)
        assert (res.value, res.T, res.C) == (-1, -1, -1)
        assert res.status is Status.INDETERMINATE
        res = toric_gamma(P1, d0, d0)
        assert (res.value, res.T, res.C, res.minimizer) == (1, None, 1, (0,))
        assert res.status is Status.SOLVABLE
        assert [(s.cone, s.p, s.value) for s in res.scores] == [((0,), 0, 1), ((1,), 0, 1)]

    def test_omega_must_be_ample(self):
        with pytest.raises(OmegaNotKahler):
            toric_gamma(F1, F1_H, F1_H)

    def test_per_orbit_affinity_and_doubling(self):
        rng = Random(8404)
        for fan in (P2, F1, P1P1, P1CUBE):
            for _ in range(8):
                omega = _random_ample(rng, fan)
                theta = DivClass([Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                                  for _ in fan.rays])
                half = theta.scale(Fraction(1, 2)) + omega.scale(Fraction(1, 2))
                for sigma in enumerate_orbits(fan):
                    v0 = subvariety_score(fan, theta, omega, sigma).value
                    vh = subvariety_score(fan, half, omega, sigma).value
                    assert v0 == 2 * vh - 1  # affine with value 1 at s = 1
                # the min inherits the same affine law, so values stay finite
                g0 = toric_gamma(fan, theta, omega).value
                gh = toric_gamma(fan, half, omega).value
                assert g0 == 2 * gh - 1

    def test_scores_match_subvariety_score(self):
        # the query's one table gives every orbit the score a lone call computes
        rng = Random(8406)
        cases = [(fan, _random_ample(rng, fan)) for fan in (projective_space(3), p1_power(3))]
        cases += [blowup_fan(rng) for _ in range(6)]
        for fan, omega in cases:
            theta = _small_class(rng, fan)
            res = toric_gamma(fan, theta, omega)
            assert [s.cone for s in res.scores] == enumerate_orbits(fan)
            for score in res.scores:
                assert score == subvariety_score(fan, theta, omega, score.cone)


class TestBindingCurve:
    """toric_gamma names the invariant curve V(tau) that attains T: the first in
    invariant_curves order, whose bound theta.C / omega.C comes here from
    intersection_number with the divisors of tau's rays."""

    @staticmethod
    def _bound(fan: Fan, theta: DivClass, omega: DivClass, tau) -> Fraction:
        rays = [DivClass([int(i == j) for i in range(len(fan.rays))]) for j in tau]
        return intersection_number(fan, [theta, *rays]) / intersection_number(fan, [omega, *rays])

    def test_binding_curve_attains_t_first(self):
        rng, named = Random(9100), 0
        cases = [(fan, _random_ample(rng, fan)) for fan in (P1, P2, F1, P1P1, P1CUBE, P3_BLOWUP)]
        cases += [blowup_fan(rng) for _ in range(30)]
        for fan, omega in cases:
            for theta in (_small_class(rng, fan), DivClass([0] * len(fan.rays)), omega):
                res = toric_gamma(fan, theta, omega)
                if res.T is None:
                    assert res.binding_curve is None and is_ample(fan, theta)
                    continue
                curves = invariant_curves(fan)
                assert self._bound(fan, theta, omega, res.binding_curve) == res.T
                earlier = curves[:curves.index(res.binding_curve)]
                assert all(self._bound(fan, theta, omega, tau) > res.T for tau in earlier)
                named += 1
        assert named >= len(cases)  # the zero theta always has a T

    def test_tie_names_the_lex_first_curve(self):
        # theta = 0 puts every curve of P^2 at bound 0.  On (P^1)^3, -D_1 has degree -1
        # on the four curves that leave the second factor free, (0, 2), (0, 5), (2, 3)
        # and (3, 5), and 0 on the others, the lex-first curve (0, 1) among them.
        assert toric_gamma(P2, DivClass([0, 0, 0]), DivClass([1, 0, 0])).binding_curve == (0,)
        res = toric_gamma(P1CUBE, DivClass([0, -1, 0, 0, 0, 0]), DivClass([1] * 6))
        assert (res.T, res.binding_curve) == (Fraction(-1, 2), (0, 2))
        assert toric_gamma(P1, DivClass([-1, 0]), DivClass([1, 0])).binding_curve == ()


class TestCanonicalForm:
    def test_canonical_zeroes_first_basis(self):
        cls = canonicalize(F1, DivClass([3, -2, 5, 7]))
        assert cls.coords[0] == 0 and cls.coords[1] == 0

    def test_basis_that_is_not_a_cone(self):
        # F_2 with rays reordered: the first two rays (1,0), (-1,2) have det 2
        fan = Fan(2, [(1, 0), (-1, 2), (0, 1), (0, -1)], [(0, 2), (1, 2), (1, 3), (0, 3)])
        cls = canonicalize(fan, DivClass([1, 0, 0, 0]))
        assert cls.coords == (0, 0, Fraction(-1, 2), Fraction(1, 2))
        assert classes_equivalent(fan, cls, DivClass([1, 0, 0, 0]))

    def test_equivalence_detects_relations(self):
        # D3 ~ D1 + a*D0 on the a-th ruled surface
        for a in (1, 2, 3):
            fan = hirzebruch(a)
            d3 = DivClass([0, 0, 0, 1])
            combo = DivClass([a, 1, 0, 0])
            assert classes_equivalent(fan, d3, combo)
            assert not classes_equivalent(fan, d3, DivClass([0, 1, 0, 0]))

    def test_invariance_of_engine_under_canonicalization(self):
        rng = Random(8405)
        for _ in range(20):
            x = DivClass([Fraction(rng.randint(-4, 4)) for _ in F1.rays])
            y = DivClass([Fraction(rng.randint(-4, 4)) for _ in F1.rays])
            assert intersection_number(F1, [x, y]) == \
                intersection_number(F1, [canonicalize(F1, x), canonicalize(F1, y)])


def _factor_degrees(cls: DivClass) -> list[Fraction]:
    """Degree on each P^1 factor of (P^1)^n: the sum of the two opposite rays."""
    return [cls.coords[2 * i] + cls.coords[2 * i + 1] for i in range(len(cls.coords) // 2)]


def _draw(rng: Random, fan: Fan, ample) -> DivClass:
    while True:
        cls = DivClass([Fraction(rng.randint(-2, 4), rng.randint(1, 3)) for _ in fan.rays])
        if ample(cls):
            return cls


class TestClosedForms:
    """Exact oracles on P^n and (P^1)^n, independent of the engine.

    On P^n every ray divisor is a hyperplane, so a class is its coefficient
    sum times H.  On (P^1)^n a class is the sum over factors of its factor
    degree times that factor's point class, and V(sigma) is the product of
    the factors sigma leaves free.
    """

    @pytest.mark.parametrize("n", range(1, 8))
    def test_projective_space(self, n):
        rng, fan = Random(8600 + n), projective_space(n)
        for _ in range(2):
            omega = _draw(rng, fan, lambda c: sum(c.coords) > 0)
            theta = _draw(rng, fan, lambda c: True)
            alpha, beta = sum(omega.coords), sum(theta.coords)
            assert intersection_number(fan, [omega] * n) == alpha ** n
            res = toric_gamma(fan, theta, omega)
            assert res.C == n * beta / alpha
            assert len(res.scores) == 2 ** (n + 1) - 2
            assert all(s.value == beta / alpha for s in res.scores)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_p1_power(self, n):
        rng, fan = Random(8700 + n), p1_power(n)
        for _ in range(2):
            omega = _draw(rng, fan, lambda c: all(x > 0 for x in _factor_degrees(c)))
            theta = _draw(rng, fan, lambda c: True)
            a, b = _factor_degrees(omega), _factor_degrees(theta)
            ratio = [bi / ai for ai, bi in zip(a, b)]
            assert intersection_number(fan, [omega] * n) == factorial(n) * prod(a)
            res = toric_gamma(fan, theta, omega)
            assert res.C == sum(ratio)
            assert len(res.scores) == 3 ** n - 1
            for s in res.scores:
                fixed = {j // 2 for j in s.cone}
                assert s.value == sum(ratio[i] for i in fixed) / len(fixed), s.cone


def _small_class(rng: Random, fan: Fan) -> DivClass:
    return DivClass([Fraction(rng.randint(-3, 4), rng.randint(1, 3)) for _ in fan.rays])


def _class_over(rng: Random, fan: Fan, dens, low: int = -3, high: int = 4) -> DivClass:
    """Numerators in [low, high], denominators drawn from dens."""
    return DivClass([Fraction(rng.randint(low, high), rng.choice(dens)) for _ in fan.rays])


class TestFixedPointOracle:
    """The fixed-point engine against the rewrite recursion of conftest.RecursionOracle.

    Every orbit's int_V omega^p and int_V theta omega^(p-1), and top
    intersection numbers of random classes, on P^1-P^6, (P^1)^1-(P^1)^5,
    F_0-F_3, the point blowup of P^3 and seeded blowups of F_a and P^2; on
    the P^n, (P^1)^n and blowups also with denominators that differ between
    theta and omega, a zero theta and an omega with negative coordinates.
    """

    LADDER = [projective_space(n) for n in range(1, 7)] + [p1_power(n) for n in range(1, 6)]
    LADDER_NAMES = [f"P{n}" for n in range(1, 7)] + [f"P1^{n}" for n in range(1, 6)]
    FANS = LADDER + [hirzebruch(a) for a in range(4)] + [P3_BLOWUP]
    NAMES = LADDER_NAMES + [f"F{a}" for a in range(4)] + ["P3_blowup"]

    @staticmethod
    def _check(rng: Random, fan: Fan):
        n, theta, omega = fan.dim, _small_class(rng, fan), _small_class(rng, fan)
        TestFixedPointOracle._compare(fan, theta, omega, [_small_class(rng, fan) for _ in range(n)])

    @staticmethod
    def _compare(fan: Fan, theta: DivClass, omega: DivClass, classes: list[DivClass]):
        """Every table entry of (theta, omega), and the top product of classes."""
        n = fan.dim
        table = fraction_table(fan, theta, omega)
        assert set(table) == {()} | set(enumerate_orbits(fan))
        oracle = RecursionOracle(fan, [theta, omega])
        for tau, (vol, mixed) in table.items():
            p, cone = n - len(tau), frozenset(tau)
            assert vol == oracle.integral(cone, (1,) * p), tau
            assert mixed == (oracle.integral(cone, (0,) + (1,) * (p - 1)) if p else 0), tau
        top = RecursionOracle(fan, classes).integral(frozenset(), tuple(range(n)))
        assert intersection_number(fan, classes) == top

    @staticmethod
    def _check_scales(rng: Random, fan: Fan):
        """Classes whose common denominators differ, a zero theta and a negative omega.

        5, 7, 9 and 11 are pairwise coprime: theta's denominators are 1 and
        two of them, omega's 1 and the other two, so a wrong power of either
        class's denominator in the common denominator changes the value.
        """
        dens = [5, 7, 9, 11]
        rng.shuffle(dens)
        theta, omega = (_class_over(rng, fan, (1, *half)) for half in (dens[:2], dens[2:]))
        negative = _class_over(rng, fan, (1, *dens[2:]), -5, -1)
        zero = DivClass([0] * len(fan.rays))
        for pair in ((theta, omega), (zero, omega), (theta, negative)):
            TestFixedPointOracle._compare(fan, *pair, [pair[i % 2] for i in range(fan.dim)])

    @pytest.mark.parametrize("fan", FANS, ids=NAMES)
    def test_named_fans(self, fan):
        rng = Random(8900 + len(fan.rays) * 10 + fan.dim)
        for _ in range(2):
            self._check(rng, fan)

    def test_random_blowups(self):
        rng = Random(8901)
        for _ in range(120):
            self._check(rng, blowup_fan(rng)[0])

    @pytest.mark.parametrize("fan", LADDER, ids=LADDER_NAMES)
    def test_named_fans_with_coprime_scales(self, fan):
        self._check_scales(Random(8910 + len(fan.rays) * 10 + fan.dim), fan)

    def test_random_blowups_with_coprime_scales(self):
        rng = Random(8911)
        for _ in range(40):
            self._check_scales(rng, blowup_fan(rng)[0])


def _outcome(query, fan: Fan, theta: DivClass, omega: DivClass):
    """query's result, or its JThreshError's class and message."""
    try:
        return query(fan, theta, omega)
    except JThreshError as exc:
        return type(exc), str(exc)


class TestScoreOracle:
    """toric_gamma against conftest.fraction_toric_gamma, field by field.

    The oracle is the Fraction route on the same integer table: C, T and
    every score by Fraction arithmetic on the table's Fractions.  Fans are
    TestFixedPointOracle's, 120 seeded blowups and, with theta and omega over
    the pairwise coprime denominators 5, 7, 9 and 11, its ladder and 40
    blowups; omega is ample unless drawn at random.
    """

    @staticmethod
    def _compare(fan: Fan, theta: DivClass, omega: DivClass) -> bool:
        """Both routes agree; True if they gave a result, not an error."""
        got = _outcome(toric_gamma, fan, theta, omega)
        expected = _outcome(fraction_toric_gamma, fan, theta, omega)
        if not isinstance(expected, ToricGammaResult):
            assert got == expected
            return False
        assert isinstance(got, ToricGammaResult), got
        for name in ToricGammaResult.__dataclass_fields__:
            assert getattr(got, name) == getattr(expected, name), name
        return True

    @pytest.mark.parametrize("fan", TestFixedPointOracle.FANS, ids=TestFixedPointOracle.NAMES)
    def test_named_fans(self, fan):
        rng = Random(9000 + len(fan.rays) * 10 + fan.dim)
        zero = DivClass([0] * len(fan.rays))
        for _ in range(2):
            omega, theta = _random_ample(rng, fan), _small_class(rng, fan)
            for pair in ((theta, omega), (omega, omega), (zero, omega)):
                assert self._compare(fan, *pair)
            self._compare(fan, theta, _small_class(rng, fan))  # omega at random

    def test_random_blowups(self):
        rng, results = Random(9001), 0
        for _ in range(120):
            fan, ample = blowup_fan(rng)
            omega = ample.scale(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            assert self._compare(fan, _small_class(rng, fan), omega)
            results += self._compare(fan, ample, _small_class(rng, fan))
        assert 0 < results < 120  # a random omega is sometimes ample, sometimes refused

    @staticmethod
    def _check_scales(rng: Random, fan: Fan, ample: DivClass) -> None:
        """theta over 1 and two of 5, 7, 9, 11, omega over 1 and the other two."""
        dens = [5, 7, 9, 11]
        rng.shuffle(dens)
        theta = _class_over(rng, fan, (1, *dens[:2]))
        omega = ample.scale(Fraction(rng.randint(1, 4), dens[2]))
        bumped = omega + _class_over(rng, fan, (dens[3],), 0, 1).scale(Fraction(1, 4))
        omega = bumped if is_ample(fan, bumped) else omega
        assert TestScoreOracle._compare(fan, theta, omega)

    @pytest.mark.parametrize("fan", TestFixedPointOracle.LADDER,
                             ids=TestFixedPointOracle.LADDER_NAMES)
    def test_ladder_with_coprime_scales(self, fan):
        rng = Random(9010 + len(fan.rays) * 10 + fan.dim)
        for _ in range(2):
            self._check_scales(rng, fan, DivClass([1] * len(fan.rays)))

    def test_random_blowups_with_coprime_scales(self):
        rng = Random(9011)
        for _ in range(40):
            self._check_scales(rng, *blowup_fan(rng))


class TestCliScoreOracle:
    """``toric-gamma --format json`` against conftest.fraction_toric_gamma, whole payload.

    The CLI writes every score from integer pairs and never reads toric_gamma's
    Fractions, so each reported rational is checked here against format_rat of
    the oracle's, and the decimal against decimal_str, at 1, 12 and 1000 digits.
    """

    @staticmethod
    def _payload(monkeypatch, fan: Fan, theta: DivClass, omega: DivClass, digits: int) -> dict:
        doc = {"fan": {"dim": fan.dim, "rays": fan.rays, "max_cones": fan.max_cones},
               "toric_classes": {name: [format_rat(x) for x in cls.coords]
                                 for name, cls in (("theta", theta), ("omega", omega))}}
        monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", str(digits))
        code, out = run(["toric-gamma", "--theta", "theta", "--omega", "omega",
                         "--format", "json"], json.dumps(doc).encode())
        assert code == 0, out
        return json.loads(out)

    @staticmethod
    def _expected(res: ToricGammaResult, digits: int) -> dict:
        return {
            "command": "toric-gamma", "theta": "theta", "omega": "omega",
            "exact": {"value": format_rat(res.value)},
            "decimal": {"value": decimal_str(res.value, digits), "digits": digits},
            "status": res.status.value,
            "minimizer": list(res.minimizer),
            "audit": {"C": format_rat(res.C), "T": None if res.T is None else format_rat(res.T),
                      "binding_curve": None if res.binding_curve is None
                      else list(res.binding_curve), "orbits": len(res.scores)},
            "scores": [{"cone": list(s.cone), "p": s.p, "numerator": format_rat(s.numerator),
                        "denominator": format_rat(s.denominator), "value": format_rat(s.value)}
                       for s in res.scores],
            "caveats": [toric.AUTOMORPHISM_CAVEAT],
        }

    def _check(self, monkeypatch, fan: Fan, theta: DivClass, omega: DivClass) -> Status:
        res = fraction_toric_gamma(fan, theta, omega)
        for digits in (1, 12, 1000):
            got = self._payload(monkeypatch, fan, theta, omega, digits)
            assert got == self._expected(res, digits)
        return res.status

    def test_named_fans_and_blowups(self, monkeypatch):
        rng = Random(9020)
        # (fan, an ample class for omega, an ample theta): a blowup's theta is omega's class
        cases = [(fan, _random_ample(rng, fan), _random_ample(rng, fan))
                 for fan in (projective_space(2), projective_space(3), p1_power(3), F1)]
        cases += [(fan, ample, ample) for fan, ample in (blowup_fan(rng) for _ in range(12))]
        cases.append((F1, F1_H.scale(5) - F1_E, F1_H.scale(2) - F1_E))  # ExactUnstable
        statuses = set()
        for fan, omega, ample in cases:
            omega = omega.scale(Fraction(rng.randint(1, 3), rng.randint(1, 4)))
            for theta in (ample, omega, DivClass([0] * len(fan.rays)), ample.scale(-1),
                          _small_class(rng, fan), _small_class(rng, fan)):
                statuses.add(self._check(monkeypatch, fan, theta, omega))
        assert statuses == set(Status)  # ample and non-ample twists, values of both signs

    def test_equal_scores_name_the_first_orbit(self, monkeypatch):
        # theta = omega on P^2 scores every orbit 1: the first in orbit order is the minimizer
        h = DivClass([1, 0, 0])
        payload = self._payload(monkeypatch, P2, h, h, 12)
        assert {s["value"] for s in payload["scores"]} == {"1"}
        assert payload["minimizer"] == [0] and len(payload["scores"]) == 6
        assert self._check(monkeypatch, P2, h, h) == Status.SOLVABLE


class TestSurfaceModels:
    """Lattice route against toric route on smooth complete toric surfaces.

    conftest.toric_surface_model makes the lattice model of a 2-d fan.  On a
    surface the orbit points score C/2, which never beats C - sigma, so both
    routes must agree on value, status, C and T, and the minimum is a curve
    D_i whose facet binds sigma.
    """

    def test_blowups_agree(self):
        rng = Random(8910)
        statuses = set()
        for _ in range(220):
            fan, ample = blowup_fan(rng)
            assert is_ample(fan, ample)
            lattice, cone, to_lattice = toric_surface_model(fan)
            omega = ample.scale(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            bumped = omega + _small_class(rng, fan).scale(Fraction(1, 4))
            omega = bumped if is_ample(fan, bumped) else omega
            theta = _small_class(rng, fan)
            if rng.random() < 0.5:
                theta = theta.scale(Fraction(1, 4)) + ample.scale(rng.randint(0, 2))
            tor = toric_gamma(fan, theta, omega)
            theta_l, omega_l = to_lattice(theta), to_lattice(omega)
            surf = surface_gamma(lattice, cone, theta_l, omega_l)
            assert (surf.value, surf.status, surf.audit.C) == (tor.value, tor.status, tor.C)
            assert surf.audit.theta_kahler is (tor.T is None)
            assert tor.T is None or surf.audit.T == tor.T
            (i,) = tor.minimizer
            facet = cone.facets[i]
            assert lattice.pair(facet, theta_l) / lattice.pair(facet, omega_l) == surf.audit.sigma
            scores = {s.cone: s.value for s in tor.scores}
            assert scores[(int(surf.audit.binding_facet_sigma[1:]),)] == tor.value
            statuses.add(tor.status)
        assert statuses == set(Status)


class TestWorkCounts:
    """Exact work of one toric_gamma; counters need no tolerance."""

    QUERIES = [
        (projective_space(3), [1, -2, 0, -1], [1, 2, 3, 1], 14),
        (p1_power(3), [1, -1, 0, 2, -3, 1], [1, 1, 2, 1, 1, 2], 26),
    ]

    @pytest.mark.parametrize("fan, theta, omega, orbits", QUERIES)
    def test_one_query(self, monkeypatch, fan, theta, omega, orbits):
        # a built fan's query eliminates nothing, builds one table, derives C
        # once and scores every orbit from the table without asking is_face
        calls = dict.fromkeys(["_eliminate", "_orbit_integrals", "_c_constant_toric",
                               "rewrite_terms", "is_face"], 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("_eliminate", "_orbit_integrals", "_c_constant_toric"):
            monkeypatch.setattr(toric, name, counted(name, getattr(toric, name)))
        for name in ("rewrite_terms", "is_face"):
            monkeypatch.setattr(Fan, name, counted(name, getattr(Fan, name)))
        res = toric_gamma(fan, DivClass(theta), DivClass(omega))
        assert len(res.scores) == orbits
        assert calls == {"_eliminate": 0, "_orbit_integrals": 1, "_c_constant_toric": 1,
                         "rewrite_terms": 0, "is_face": 0}

    @pytest.mark.parametrize("fan, theta, omega, orbits", QUERIES)
    def test_one_fraction_per_reported_rational(self, monkeypatch, fan, theta, omega, orbits):
        # each score's numerator, denominator and value, C and T: one Fraction of two ints each
        built = []

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        monkeypatch.setattr(toric, "Fraction", Counted)
        res = toric_gamma(fan, DivClass(theta), DivClass(omega))
        assert len(res.scores) == orbits and res.T is not None
        assert len(built) == 3 * orbits + 2
        assert all(len(args) == 2 and type(args[0]) is type(args[1]) is int for args in built)

    @pytest.mark.parametrize("fan", [projective_space(3), p1_power(3)])
    def test_validation_eliminates_once_per_component(self, monkeypatch, fan):
        # one elimination starts the walk; every other basis is a wall update
        calls = []

        def counted(rows):
            calls.append(rows)
            return eliminate(rows)

        monkeypatch.setattr(toric, "_eliminate", counted)
        validate_fan(fan)
        assert len(calls) == 1

    def test_each_component_starts_with_one_elimination(self, monkeypatch):
        dim, rays, cones, line = TWO_FAULT_FANS["two_closed_components"]
        calls = []

        def counted(rows):
            calls.append(rows)
            return eliminate(rows)

        monkeypatch.setattr(toric, "_eliminate", counted)
        with pytest.raises(BadFace):
            Fan(dim, rays, cones)
        assert len(calls) == 2


    def test_query_on_a_built_fan_does_not_revalidate(self, monkeypatch):
        fan, calls = projective_space(3), []

        def counted(fan):
            calls.append(fan)
            return validate_fan(fan)

        monkeypatch.setattr(toric, "validate_fan", counted)
        toric_gamma(fan, DivClass([1, -2, 0, -1]), DivClass([1, 2, 3, 1]))
        assert calls == []
        projective_space(3)  # the constructor calls the module's validate_fan
        assert len(calls) == 1


def _sparse_matrix(rng: Random, n: int) -> list[list[int]]:
    """A row-permuted identity, its diagonal scaled by 1, -1 or 2 and a few entries set."""
    a = [[rng.choice([1, 1, -1, 2]) if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, n)):
        a[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, 2)
    rng.shuffle(a)
    return a


class TestElimination:
    """``_eliminate`` against sympy's exact determinant, inverse and rref."""

    @staticmethod
    def _check_inverse(sympy, a):
        n = len(a)
        pivots, d, rows = eliminate([row + [int(i == j) for j in range(n)]
                                     for i, row in enumerate(a)])
        if pivots == list(range(n)):
            assert abs(d) == abs(sympy.Matrix(a).det())
            inverse = sympy.Matrix([row[n:] for row in rows])  # d * A^-1
            assert sympy.Matrix(a) * inverse == d * sympy.eye(n)
        else:
            assert sympy.Matrix(a).det() == 0

    @staticmethod
    def _check_rref(sympy, m):
        pivots, d, rows = eliminate(m)
        rref, sympy_pivots = sympy.Matrix(m).rref()
        assert pivots == list(sympy_pivots)
        assert sympy.Matrix(rows) == d * rref  # every pivot entry is d

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = Random(8800)
        for _ in range(300):
            n = rng.randint(1, 4)
            self._check_inverse(sympy, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            m = [[rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]]
            m += [[rng.randint(-2, 2) for _ in m[0]] for _ in range(rng.randint(0, 3))]
            self._check_rref(sympy, m)

    def test_rows_with_zero_in_the_pivot_column(self):
        # such a row is new/d times itself, and kept as it is when new == d
        assert eliminate([[1, 0, 1, 0], [0, 1, 0, 1]]) == ([0, 1], 1, [[1, 0, 1, 0], [0, 1, 0, 1]])
        # column 0: new = 2 != d = 1 rescales row 1; column 1: new = 6 != d = 2 rescales row 0
        assert eliminate([[2, 0, 1, 0], [0, 3, 0, 1]]) == ([0, 1], 6, [[6, 0, 3, 0], [0, 6, 0, 2]])
        # column 0 keeps rows 1 and 2 (new == d == 1), column 1 rescales rows 0 and 2
        # (new = 2 != d = 1), column 2 keeps rows 0 and 1 (new == d == 2)
        assert eliminate([[1, 0, 0], [0, 2, 0], [0, 0, 1]]) == (
            [0, 1, 2], 2, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        sympy = pytest.importorskip("sympy")
        rng = Random(8801)
        for _ in range(300):
            a = _sparse_matrix(rng, rng.randint(1, 6))
            self._check_inverse(sympy, a)
            self._check_rref(sympy, a)

"""Document schema: parsing, validation, serialization round-trips."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from fractions import Fraction
from random import Random

import pytest

from conftest import random_instance
from jthresh import DivClass, IntersectionLattice, QuadNum
from jthresh.cli import run
from jthresh.documents import (InputDocument, document_to_json, parse_document,
                               quad_from_json, quad_to_json)
from jthresh.errors import BadDocument, BadParams, BadSignature, DimensionMismatch
from jthresh.exactnum import exact_int, rat
from jthresh.toric import MAX_FIXED_POINT_TERMS, _rows

F1_DOC = {
    "lattice": {"rank": 2, "matrix": [["1", "0"], ["0", "-1"]], "labels": ["H", "E"]},
    "cone": {"facets": [["0", "1"], ["1", "-1"]], "facet_labels": ["E", "F"],
             "light_cone": None},
    "classes": {"theta": ["2", "-1"], "omega": ["5", "-1"]},
}

FAN_DOC = {
    "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    "toric_classes": {"theta": ["0", "-1", "0", "2"], "omega": ["0", "-1", "0", "5"]},
}


class TestParse:
    def test_surface_document(self):
        doc = parse_document(F1_DOC)
        assert doc.lattice is not None and doc.lattice.rank == 2
        assert doc.cone is not None and doc.cone.facet_labels == ("E", "F")
        assert doc.classes["theta"].coords == (Fraction(2), Fraction(-1))

    def test_fan_document(self):
        doc = parse_document(FAN_DOC)
        assert doc.fan is not None and doc.fan.dim == 2
        assert doc.toric_classes["omega"].coords[3] == 5

    def test_bad_signature_surfaces_by_name(self):
        bad = {"lattice": {"rank": 2, "matrix": [["1", "0"], ["0", "1"]]}}
        with pytest.raises(BadSignature):
            parse_document(bad)

    def test_malformed_rationals(self):
        bad = {"lattice": {"matrix": [["1", "0"], ["0", "x"]]}}
        with pytest.raises(BadDocument):
            parse_document(bad)
        with pytest.raises(BadDocument):
            parse_document({"lattice": {"matrix": [[1.5, 0], [0, -1]]}})

    LIGHT_DOC = {**F1_DOC, "cone": {**F1_DOC["cone"], "light_cone": {"H": ["2", "-1"]}}}

    @pytest.mark.parametrize("doc, path", [
        (F1_DOC, ("lattice", "matrix", 1, 0)), (F1_DOC, ("cone", "facets", 0, 1)),
        (F1_DOC, ("classes", "theta", 0)), (FAN_DOC, ("toric_classes", "omega", 3)),
        (LIGHT_DOC, ("cone", "light_cone", "H", 0)),
        (None, ("rat",)), (None, ("coef",)),  # quad_from_json's two rationals
    ])
    @pytest.mark.parametrize("value, line", [
        ("x", "bad rational 'x': Invalid literal for Fraction: 'x'"),
        ("1/0", "bad rational '1/0': Fraction(1, 0)"),
        ("1e5", "bad rational '1e5': exponent notation is not accepted"),
        (0.5, "expected an exact rational (int, Fraction or 'p/q' string), got 0.5"),
        (True, "expected an exact rational (int, Fraction or 'p/q' string), got True"),
    ])
    def test_each_rational_field_refuses_in_rats_words(self, doc, path, value, line):
        data = copy.deepcopy(doc) if doc else {"rat": "1", "coef": "1", "rad": 2}
        *head, last = path
        node = data
        for key in head:
            node = node[key]
        node[last] = value
        with pytest.raises(BadDocument) as info:
            parse_document(data) if doc else quad_from_json(data)
        assert f"{info.value.code}: {info.value}" == f"BadDocument: {line}"

    def test_missing_geometry(self):
        with pytest.raises(BadDocument):
            parse_document({"classes": {"x": ["1"]}})

    def test_class_length_checked(self):
        bad = dict(F1_DOC, classes={"theta": ["1", "2", "3"]})
        with pytest.raises(DimensionMismatch):
            parse_document(bad)

    def test_toric_classes_need_fan(self):
        bad = dict(F1_DOC)
        bad = {**bad, "toric_classes": {"x": ["1", "0", "0", "0"]}}
        with pytest.raises(BadDocument):
            parse_document(bad)

    def test_rank_mismatch(self):
        bad = {"lattice": {"rank": 3, "matrix": [["1", "0"], ["0", "-1"]]}}
        with pytest.raises(BadDocument):
            parse_document(bad)

    def test_cone_needs_lattice(self):
        with pytest.raises(BadDocument):
            parse_document({"fan": FAN_DOC["fan"], "cone": F1_DOC["cone"]})


def _with(doc: dict, part: str, **fields) -> dict:
    return {**doc, part: {**doc[part], **fields}}


class TestGateBoundary:
    """A gate (rat, exact_int, toric._rows, IntersectionLattice's labels, QuadNum's
    radicand) raises BadParams; a document prints the same line as a BadDocument."""

    @pytest.mark.parametrize("doc, gate", [
        (_with(F1_DOC, "lattice", matrix=[["1", "0"], ["0", "1e5"]]), lambda: rat("1e5")),
        (_with(F1_DOC, "lattice", matrix=[["1", "0"], ["0", 0.5]]), lambda: rat(0.5)),
        (_with(F1_DOC, "lattice", rank=2.0), lambda: exact_int(2.0, "lattice rank")),
        (_with(F1_DOC, "lattice", labels=[1, None]),
         lambda: IntersectionLattice([[1, 0], [0, -1]], [1, None])),
        (_with(F1_DOC, "lattice", labels="HE"),
         lambda: IntersectionLattice([[1, 0], [0, -1]], "HE")),
        (_with(FAN_DOC, "fan", dim="2"), lambda: exact_int("2", "fan dim")),
        (_with(FAN_DOC, "fan", rays=[[1, 0], 5]), lambda: _rows([[1, 0], 5], "rays")),
        (_with(FAN_DOC, "fan", max_cones={"0": [0, 1]}),
         lambda: _rows({"0": [0, 1]}, "max_cones")),
        (_with(FAN_DOC, "fan", rays=[[1, 0], [0, 1], [-1, 1], [0, -1.0]]),
         lambda: _rows([[0, -1.0]], "rays")),
        (_with(FAN_DOC, "fan", max_cones=[[0, 1], [1, 2], [2, 3], [3, True]]),
         lambda: _rows([[True]], "max_cones")),
    ], ids=["rat_exponent", "rat_float", "rank_float", "labels_not_strings", "labels_str",
            "dim_string", "row_not_a_list", "rows_an_object", "ray_entry_float",
            "cone_entry_bool"])
    def test_parse_document_prints_the_gates_line(self, doc, gate):
        with pytest.raises(BadParams) as info:
            gate()
        assert type(info.value) is BadParams
        with pytest.raises(BadDocument) as parsed:
            parse_document(doc)
        assert type(parsed.value) is BadDocument and str(parsed.value) == str(info.value)
        assert run(["validate"], json.dumps(doc).encode()) == (
            2, f"BadDocument: {info.value}\n".encode())

    @pytest.mark.parametrize("payload, gate", [
        ({"rat": "1", "coef": "1", "rad": -3}, lambda: QuadNum(1, 1, -3)),
        ({"rat": "1", "coef": "1", "rad": "2"}, lambda: QuadNum(1, 1, "2")),
        ({"rat": "1", "coef": "x", "rad": 2}, lambda: rat("x")),
        ("1/0", lambda: rat("1/0")),
    ])
    def test_quad_from_json_raises_the_gates_line(self, payload, gate):
        with pytest.raises(BadParams) as info:
            gate()
        with pytest.raises(BadDocument) as parsed:
            quad_from_json(payload)
        assert type(parsed.value) is BadDocument and str(parsed.value) == str(info.value)

    def test_labels_are_reported_after_the_entries_before_the_shape(self):
        # after the entries' rationals, before the matrix shape and the label count
        for lattice, line in (
                ({"matrix": [["1", "x"], ["0", "-1"]], "labels": "HE"},
                 "bad rational 'x': Invalid literal for Fraction: 'x'"),
                ({"matrix": [["1", "0"]], "labels": "HE"}, "lattice labels must be strings"),
                ({"matrix": [["1", "0"], ["0", "-1"]], "labels": {"H": 0, "E": 1}},
                 "lattice labels must be strings")):
            assert run(["validate"], json.dumps({"lattice": lattice}).encode()) == (
                2, f"BadDocument: {line}\n".encode())

    def test_an_oversized_fan_reports_the_cap_before_its_entries(self):
        # three cones in dimension 17 are over the cap; a float ray entry and a
        # cone that is not a list are never read
        fan = {"dim": 17, "rays": [[1.5]], "max_cones": [[0], 7, [0]]}
        assert len(fan["max_cones"]) << fan["dim"] > MAX_FIXED_POINT_TERMS
        assert run(["validate"], json.dumps({"fan": fan}).encode()) == (
            2, b"BadDocument: fan has len(max_cones) * 2^dim = 3 * 2^17 fixed-point terms, "
               b"over MAX_FIXED_POINT_TERMS = 262144\n")


class TestRoundTrip:
    def test_handcrafted_documents(self):
        for raw in (F1_DOC, FAN_DOC):
            doc = parse_document(raw)
            again = parse_document(json.loads(json.dumps(document_to_json(doc))))
            assert again == doc

    def test_random_documents(self):
        rng = Random(8601)
        for _ in range(40):
            inst = random_instance(rng)
            doc = InputDocument(lattice=inst.lattice, cone=inst.cone,
                                classes={"w": inst.center})
            again = parse_document(json.loads(json.dumps(document_to_json(doc))))
            assert again == doc

    @pytest.mark.parametrize("name", ["lattice", "cone", "fan", "classes", "toric_classes",
                                      "query"])
    def test_document_is_immutable(self, name):
        doc = parse_document(F1_DOC)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(doc, name, None)
        assert doc == parse_document(F1_DOC)

    @pytest.mark.parametrize("name", ["classes", "toric_classes", "query"])
    def test_document_maps_are_read_only(self, name):
        raw = {**F1_DOC, "query": {"theta": "theta"}}
        doc = parse_document(raw)
        with pytest.raises(TypeError):
            getattr(doc, name)["x"] = DivClass([1, 0])
        assert doc == parse_document(raw)

    def test_given_maps_are_copied(self):
        classes, query = {"w": DivClass([1, 0])}, {"theta": "w"}
        doc = InputDocument(lattice=parse_document(F1_DOC).lattice, classes=classes, query=query)
        classes["x"], query["omega"] = DivClass([0, 1]), "x"
        assert dict(doc.classes) == {"w": DivClass([1, 0])} and dict(doc.query) == {"theta": "w"}
        assert type(document_to_json(doc)["query"]) is dict

    def test_hash_copy_and_pickle(self):
        for raw in (F1_DOC, {**FAN_DOC, "query": {"theta": "theta", "samples": [1]}}):
            doc = parse_document(raw)
            assert hash(doc) == hash(parse_document(raw))
            for clone in (copy.copy(doc), copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
                assert clone == doc and hash(clone) == hash(doc)

    def test_quadnum_serialization(self):
        val = QuadNum(Fraction(-1, 2), Fraction(1, 2), 3)
        payload = quad_to_json(val)
        assert payload == {"rat": "-1/2", "coef": "1/2", "rad": 3}
        assert quad_from_json(payload) == val
        assert quad_to_json(QuadNum(Fraction(6, 5))) == "6/5"
        assert quad_from_json("6/5") == QuadNum(Fraction(6, 5))

    @pytest.mark.parametrize("rad, line", [
        (-3, "radicand must be non-negative, got -3"),  # QuadNum's words, as a BadDocument
        (2.0, "radicand must be an integer, got 2.0"),
    ])
    def test_radicand_refusals(self, rad, line):
        with pytest.raises(BadDocument) as info:
            quad_from_json({"rat": "1", "coef": "1", "rad": rad})
        assert str(info.value) == line

    def test_quadnum_bad_payloads(self):
        with pytest.raises(BadDocument):
            quad_from_json({"rat": "1", "coef": "2"})
        with pytest.raises(BadDocument):
            quad_from_json({"rat": "1", "coef": "2", "rad": -3})
        # True is an int to isinstance, and once decoded as radicand 1
        with pytest.raises(BadDocument, match=r"^radicand must be an integer, got True$"):
            quad_from_json({"rat": "1", "coef": "1", "rad": True})
        # the boundary: radicand 0 is allowed, and a zero coef makes the number rational
        assert quad_from_json({"rat": "1", "coef": "0", "rad": 0}) == QuadNum(1)

"""CLI dispatch: exact output, exit codes, determinism, formats."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import time
from fractions import Fraction
from itertools import product
from math import isqrt
from pathlib import Path
from random import Random

import pytest

from jthresh.cli import DOC_COMMANDS, MAX_DECIMAL_DIGITS, _build_parser, _path_csv, run
from jthresh.documents import parse_document
from jthresh.exactnum import decimal_str, rat
from jthresh.toric import MAX_FIXED_POINT_TERMS
from jthresh.lattice import IntersectionLattice

F1_DOC = json.dumps({
    "lattice": {"rank": 2, "matrix": [["1", "0"], ["0", "-1"]], "labels": ["H", "E"]},
    "cone": {"facets": [["0", "1"], ["1", "-1"]], "facet_labels": ["E", "F"],
             "light_cone": None},
    "classes": {"theta": ["2", "-1"], "omega": ["5", "-1"],
                "H": ["1", "0"], "F": ["1", "-1"], "mc1": ["-3", "1"]},
}).encode()

FAN_DOC = json.dumps({
    "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    "toric_classes": {"theta": ["0", "-1", "0", "2"], "omega": ["0", "-1", "0", "5"]},
}).encode()

BAD_LATTICE_DOC = json.dumps({
    "lattice": {"rank": 2, "matrix": [["1", "0"], ["0", "1"]]},
}).encode()


def run_json(argv, stdin=b""):
    code, out = run(argv + ["--format", "json"], stdin)
    assert code == 0, out.decode()
    return json.loads(out.decode())


class TestCatalogCommand:
    def test_ross_worked_example(self):
        payload = run_json(["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"])
        assert payload["exact"]["value"] == "6/5"
        assert payload["exact"]["closed_form"] == "6/5"
        assert payload["status"] == "Solvable"
        assert payload["decimal"]["value"] == "1.20000000000"

    def test_ross_unstable_instance(self):
        payload = run_json(["catalog", "ross", "--g", "16", "--sC", "16/3", "--t", "6"])
        assert payload["exact"]["value"] == "-27"
        assert payload["status"] == "ExactUnstable"
        assert payload["audit"]["sigma"] == "45"
        assert payload["audit"]["T"] == "15/11"

    def test_bad_params_exit_code(self):
        code, out = run(["catalog", "ross", "--g", "3", "--sC", "1", "--t", "2"])
        assert code == 2
        assert out.decode().startswith("BadParams")

    def test_export_round_trips(self):
        code, out = run(["catalog", "hirzebruch", "--a", "1", "--export",
                         "--format", "json"])
        assert code == 0
        doc = parse_document(json.loads(out.decode()))
        assert doc.fan is not None and doc.lattice is not None
        assert set(doc.classes) == {"H", "E", "F"}
        assert set(doc.toric_classes) == {"H", "E", "F"}

    def test_export_is_json_without_format(self):
        code, out = run(["catalog", "hirzebruch", "--a", "2", "--export"])
        assert code == 0
        doc = parse_document(json.loads(out.decode()))
        assert doc.fan is not None and set(doc.toric_classes) == {"H", "E", "F"}
        code, out = run(["catalog", "hirzebruch", "--a", "2", "--export", "--format", "csv"])
        assert code == 2 and out.decode().startswith("BadParams")

    def test_ross_t_agrees_with_gamma_on_its_export(self):
        # catalog --t reports what gamma reports on the entry's exported document
        rng = Random(2323)
        for _ in range(12):
            g = rng.randint(2, 20)
            s_c = isqrt(g) + 1 + Fraction(rng.randint(0, 5), rng.randint(1, 3))
            t = s_c + Fraction(rng.randint(1, 40), rng.randint(1, 9))
            argv = ["catalog", "ross", "--g", str(g), "--sC", str(s_c), "--t", str(t)]
            code, doc = run(argv + ["--export"])
            assert code == 0, doc
            catalog = run_json(argv)
            gamma = run_json(["gamma", "--theta", "K", "--omega", "L_t"], doc)
            assert catalog["exact"]["value"] == gamma["exact"]["value"], argv
            for key in ("decimal", "status", "audit"):
                assert catalog[key] == gamma[key], (argv, key)

    def test_ross_t_text_output(self):
        code, out = run(["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"])
        assert code == 0
        assert out.decode().split("\n") == [
            "command: catalog", "name: ross", "params.g: 4", "params.s_C: 2",
            "lattice.rank: 2", 'lattice.labels: ["f", "dp"]',
            'cone.facets: ["w_low", "w_up"]', "cone.light_cone: false",
            'classes: ["K", "dp", "f"]',
            'caveats: ["facet w_up (x - g*y >= 0, from the diagonal class) is an inner '
            "model of the true nef cone; it never binds sigma on t > s_C but does bound "
            'T on the opposite side"]',
            "t: 3", "exact.value: 6/5", "exact.closed_form: 6/5",
            "decimal.value: 1.20000000000", "decimal.digits: 12", "status: Solvable",
            "audit.C: 36/5", "audit.sigma: 6", "audit.T: 6/7", "audit.theta_kahler: true",
            "audit.binding_facet_sigma: w_low", "audit.binding_facet_T: w_up", ""]

    def test_summary_without_t(self):
        payload = run_json(["catalog", "perfect_lightcone", "--rank", "3"])
        assert payload["name"] == "perfect_lightcone"
        assert payload["cone"]["light_cone"] is True


class TestSurfaceCommands:
    def test_gamma_from_stdin(self):
        payload = run_json(["gamma", "--theta", "theta", "--omega", "omega"], F1_DOC)
        assert payload["exact"]["value"] == "-1/4"
        assert payload["status"] == "ExactUnstable"
        assert payload["audit"]["binding_facet_sigma"] == "E"
        assert payload["decimal"]["value"] == "-0.250000000000"

    def test_gamma_exactly_zero(self):
        # C = sigma on the boundary: the value is 0, not positive, and not solvable
        doc = json.loads(F1_DOC)
        doc["classes"].update(theta=["5", "-3"], omega=["3", "-1"])
        doc = json.dumps(doc).encode()
        payload = run_json(["gamma", "--theta", "theta", "--omega", "omega"], doc)
        assert payload["exact"]["value"] == payload["decimal"]["value"] == "0"
        assert payload["status"] == "ExactUnstable"
        assert run_json(["solvable", "--theta", "theta", "--omega", "omega"], doc) == {
            "command": "solvable", "theta": "theta", "omega": "omega", "solvable": False,
            "caveats": []}

    def test_gamma_text_format(self):
        code, out = run(["gamma", "--theta", "theta", "--omega", "omega"], F1_DOC)
        assert code == 0
        text = out.decode()
        assert "exact.value: -1/4" in text
        assert "status: ExactUnstable" in text

    def test_text_keeps_each_leaf_on_one_line(self):
        # a string leaf that is not printable is written as its JSON string
        doc = json.loads(F1_DOC)
        doc["cone"]["facet_labels"] = ["E\nx", "F\u2028"]
        doc["classes"]["th\nx"] = doc["classes"].pop("theta")
        doc = json.dumps(doc).encode()
        argv = ["gamma", "--theta", "th\nx", "--omega", "omega"]
        code, out = run(argv, doc)
        lines = out.decode().splitlines()
        assert code == 0 and len(lines) == 14  # one per leaf
        assert {'theta: "th\\nx"', 'audit.binding_facet_sigma: "E\\nx"',
                'audit.binding_facet_T: "F\\u2028"', "omega: omega"} <= set(lines)
        expected = run_json(["gamma", "--theta", "theta", "--omega", "omega"], F1_DOC)
        expected["theta"] = "th\nx"
        expected["audit"].update(binding_facet_sigma="E\nx", binding_facet_T="F\u2028")
        assert run_json(argv, doc) == expected

    def test_seshadri_and_sigma(self):
        t = run_json(["seshadri", "--theta", "theta", "--omega", "omega"], F1_DOC)
        assert t["exact"]["value"] == "1/4" and t["binding_facet"] == "F"
        s = run_json(["sigma", "--theta", "theta", "--omega", "omega"], F1_DOC)
        assert s["exact"]["value"] == "1" and s["binding_facet"] == "E"

    def test_solvable(self):
        payload = run_json(["solvable", "--theta", "theta", "--omega", "omega"], F1_DOC)
        assert payload["solvable"] is False
        payload = run_json(["solvable", "--theta", "omega", "--omega", "omega"], F1_DOC)
        assert payload["solvable"] is True

    def test_stable_cone(self):
        payload = run_json(["stable-cone", "--theta", "theta", "--a", "H"], F1_DOC)
        assert payload["perfect"] is False
        assert payload["exact"]["boundary_t"] == "1/2"
        assert payload["exact"]["normalization"] == {"rat": "0", "coef": "1", "rad": 3}
        perfect = run_json(["stable-cone", "--theta", "theta", "--a", "F"], F1_DOC)
        assert perfect["perfect"] is True

    def test_csck(self):
        payload = run_json(["csck", "--minus-c1", "mc1", "--omega", "omega",
                            "--alpha", "1"], F1_DOC)
        assert payload["exact"]["lhs"] == "-1"
        assert payload["holds"] is True  # -1 > -3/2
        assert payload["caveats"] == ["requires discrete automorphism group"]

    def test_unknown_label(self):
        code, out = run(["gamma", "--theta", "nope", "--omega", "omega"], F1_DOC)
        assert code == 2 and out.decode().startswith("BadDocument")


class TestPathCommand:
    def test_csv_schema(self):
        code, out = run(["path", "--theta", "theta", "--a", "H",
                         "--samples", "10", "--format", "csv"], F1_DOC)
        assert code == 0
        lines = out.decode().splitlines()
        assert lines[0] == "t,R_numerator,gamma_value,solvable,decimal_approx"
        assert len(lines) == 11
        last = lines[-1].split(",")
        assert last[0] == "1" and last[2] == "1" and last[3] == "1"
        # t = 1/10 lies below the solvable boundary (sqrt(3)-1)/2
        first = lines[1].split(",")
        assert first[0] == "1/10" and first[3] == "0"

    def test_json_rows_and_intervals(self):
        payload = run_json(["path", "--theta", "theta", "--a", "H",
                            "--samples", "4"], F1_DOC)
        assert payload["numerator_coeffs"] == ["-1", "2", "2"]
        assert len(payload["rows"]) == 4
        iv = payload["solvable_set"][0]
        assert iv["lo"] == {"rat": "-1/2", "coef": "1/2", "rad": 3}
        assert iv["hi"] == "1" and iv["hi_closed"] is True

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "21d315a74d8f641b98c0396220d7f2f8776835530a6c429fc5f6400ff502bbdc"),
        ("json", "bd88183d2e8c352ea9a3553e3b897d1fd18fb4e1a98ccf7cda066a5b5735e799"),
        ("text", "0d8aaaf3b22cfce095da6da7c86961cd0a146c37e3f20344a4ff7c5e539d4cc3"),
    ])
    def test_blowup_sweep_is_pinned(self, monkeypatch, fmt, digest):
        # sha256 of the 1000-row sweep on the blowup_path export as the Fraction
        # derivation of the rows printed it; the integer derivation prints the same bytes
        monkeypatch.delenv("JTHRESH_DECIMAL_DIGITS", raising=False)
        code, doc = run(["catalog", "blowup_path", "--export"])
        assert code == 0
        code, out = run(["path", "--theta", "theta", "--a", "a", "--samples", "1000",
                         "--format", fmt], doc)
        assert code == 0 and len(out.splitlines()) > 1000
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("digits", [1, 3, 1000])
    def test_row_decimals_at_each_digit_count(self, monkeypatch, digits):
        # each row's decimal comes from the reduced gamma through the unchecked core
        code, doc = run(["catalog", "blowup_path", "--export"])
        assert code == 0
        monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", str(digits))
        payload = run_json(["path", "--theta", "theta", "--a", "a", "--samples", "50"], doc)
        assert payload["decimal_digits"] == digits and len(payload["rows"]) == 50
        for row in payload["rows"]:
            assert row["decimal_approx"] == decimal_str(rat(row["gamma_value"]), digits)

    def test_csv_reads_columns_by_name(self):
        # rows whose keys come in another order than the CSV's columns give the same CSV
        argv = ["path", "--theta", "theta", "--a", "H", "--samples", "10"]
        code, csv = run(argv + ["--format", "csv"], F1_DOC)
        payload = run_json(argv, F1_DOC)
        for rows in (payload["rows"], [dict(reversed(row.items())) for row in payload["rows"]]):
            assert code == 0 and _path_csv({**payload, "rows": rows}).encode() == csv

    def test_csv_only_for_path(self):
        code, out = run(["gamma", "--theta", "theta", "--omega", "omega",
                         "--format", "csv"], F1_DOC)
        assert code == 2 and out.decode().startswith("BadParams")

    def test_bad_samples(self):
        code, out = run(["path", "--theta", "theta", "--a", "H",
                         "--samples", "x"], F1_DOC)
        assert code == 2 and out.decode().startswith("BadParams")

    def test_sample_count_from_document(self):
        for samples, rows in ((3, 3), (None, 100)):
            doc = json.loads(F1_DOC)
            doc["query"] = {"theta": "theta", "a": "H", "samples": samples}
            payload = run_json(["path"], json.dumps(doc).encode())
            assert (payload["samples"], len(payload["rows"])) == (rows, rows)

    def test_one_path_analysis_per_command(self, monkeypatch):
        from jthresh import cli, surface
        calls, original = [], surface.path_R

        def counting_path_r(*args):
            calls.append(1)
            return original(*args)

        for module in (cli, surface):
            monkeypatch.setattr(module, "path_R", counting_path_r)
        run_json(["path", "--theta", "theta", "--a", "H", "--samples", "5"], F1_DOC)
        assert len(calls) == 1

    def test_samples_cap(self):
        argv = ["path", "--theta", "theta", "--a", "H", "--samples", "100001"]
        assert run(argv, F1_DOC) == (
            2, b"BadParams: samples must be between 1 and 100000, got 100001\n")

    def test_samples_at_the_cap(self):
        code, doc = run(["catalog", "blowup_path", "--export"])
        assert code == 0
        code, out = run(["path", "--theta", "theta", "--a", "a", "--samples", "100000",
                         "--format", "csv"], doc)
        assert code == 0 and out.count(b"\n") == 100001


class TestToricCommand:
    def test_toric_gamma(self):
        payload = run_json(["toric-gamma", "--theta", "theta", "--omega", "omega"],
                           FAN_DOC)
        assert payload["exact"]["value"] == "-1/4"
        assert payload["minimizer"] == [1]
        assert payload["status"] == "ExactUnstable"
        assert len(payload["scores"]) == 8
        assert payload["caveats"]  # automorphism caveat present

    def test_projective_line(self):
        # the only invariant curve of P^1 is P^1 itself: -D_0 has degree -1
        line = {"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
        doc = json.dumps({"fan": line, "toric_classes": {
            "minus": ["-1", "0"], "point": ["1", "0"]}}).encode()
        payload = run_json(["toric-gamma", "--theta", "minus", "--omega", "point"], doc)
        assert payload["status"] == "Indeterminate"
        assert payload["audit"] == {"C": "-1", "T": "-1", "binding_curve": [], "orbits": 2}
        payload = run_json(["toric-gamma", "--theta", "point", "--omega", "point"], doc)
        assert (payload["status"], payload["exact"]["value"]) == ("Solvable", "1")
        assert payload["audit"] == {"C": "1", "T": None, "binding_curve": None, "orbits": 2}

    def test_binding_curve(self):
        # on F_1 (H = D_3, E = D_1), H - E is the fibre class, trivial on the fibres D_0
        # and D_2: T = 0 and the lex-first fibre (0,) binds; an ample theta names no curve
        doc = _with(FAN_DOC, toric_classes={"omega": ["0", "-1", "0", "5"],
                                            "h": ["0", "-1", "0", "1"],
                                            "ample": ["0", "-1", "0", "3"]})
        audit = run_json(["toric-gamma", "--theta", "h", "--omega", "omega"], doc)["audit"]
        assert (audit["T"], audit["binding_curve"]) == ("0", [0])
        code, out = run(["toric-gamma", "--theta", "h", "--omega", "omega"], doc)
        assert code == 0 and "audit.binding_curve: [0]\n" in out.decode()
        audit = run_json(["toric-gamma", "--theta", "ample", "--omega", "omega"], doc)["audit"]
        assert audit["T"] is audit["binding_curve"] is None

    def test_needs_fan(self):
        code, out = run(["toric-gamma", "--theta", "theta", "--omega", "omega"],
                        F1_DOC)
        assert code == 2 and out.decode().startswith("BadDocument")


def _p1_power_fan(n: int) -> dict:
    """(P^1)^n as a document fan: rays 2i and 2i+1 are +e_i and -e_i."""
    rays = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
    cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=n)]
    return {"dim": n, "rays": rays, "max_cones": cones}


class TestFixedPointTermCap:
    """A document fan with len(max_cones) * 2^dim > MAX_FIXED_POINT_TERMS is refused before
    validation, with one BadDocument line that names the cap."""

    def test_fan_at_the_cap_is_accepted(self):
        fan = _p1_power_fan(9)  # 2^9 cones * 2^9 = 2^18 terms
        assert len(fan["max_cones"]) << fan["dim"] == MAX_FIXED_POINT_TERMS
        assert run_json(["validate"], json.dumps({"fan": fan}).encode())["ok"] is True

    @pytest.mark.parametrize("fan", [
        # each cone of (P^1)^9 twice; validation would report duplicate cones
        {**_p1_power_fan(9), "max_cones": _p1_power_fan(9)["max_cones"] * 2},
        # as many cones as P^15; validation would report duplicate rays
        {"dim": 15, "rays": [[1]] * 16, "max_cones": [list(range(15))] * 16},
        # 2^dim is never formed: 1 << 10**12 would not fit in memory
        {"dim": 10 ** 12, "rays": [[1]], "max_cones": [[0]]},
    ], ids=["p1_power_9_doubled", "dim_15", "dim_10_12"])
    def test_fan_over_the_cap_is_refused_before_validation(self, fan):
        code, out = run(["validate"], json.dumps({"fan": fan}).encode())
        line = out.decode()
        assert code == 2 and line.count("\n") == 1
        assert line.startswith("BadDocument: fan has len(max_cones) * 2^dim = ")
        assert line.endswith(f"over MAX_FIXED_POINT_TERMS = {MAX_FIXED_POINT_TERMS}\n")


class TestValidateCommand:
    def test_valid_document(self):
        payload = run_json(["validate"], F1_DOC)
        assert payload["ok"] is True
        assert payload["lattice"]["signature"] == [1, 1]

    def test_bad_signature_diagnostic(self):
        code, out = run(["validate"], BAD_LATTICE_DOC)
        assert code == 2
        line = out.decode()
        assert line.startswith("BadSignature") and line.count("\n") == 1

    def test_fan_document(self):
        payload = run_json(["validate"], FAN_DOC)
        assert payload["fan"]["orbits"] == 8


class TestDeterminismAndErrors:
    def test_byte_identical_runs(self):
        for argv, stdin in (
                (["gamma", "--theta", "theta", "--omega", "omega", "--format", "json"], F1_DOC),
                (["path", "--theta", "theta", "--a", "H", "--samples", "25",
                  "--format", "csv"], F1_DOC),
                (["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"], b""),
                (["toric-gamma", "--theta", "theta", "--omega", "omega",
                  "--format", "json"], FAN_DOC)):
            first = run(list(argv), stdin)
            second = run(list(argv), stdin)
            assert first == second and first[0] == 0

    def test_document_path_reads_as_stdin(self, tmp_path):
        # README's examples pass the document as a path; it must print what stdin prints
        for argv, doc in (
                (["gamma", "--theta", "theta", "--omega", "omega"], F1_DOC),
                (["path", "--theta", "theta", "--a", "H", "--samples", "7",
                  "--format", "csv"], F1_DOC),
                (["toric-gamma", "--theta", "theta", "--omega", "omega",
                  "--format", "json"], FAN_DOC),
                (["validate"], b"[]")):
            path = tmp_path / "doc.json"
            path.write_bytes(doc)
            from_file = run([argv[0], str(path), *argv[1:]])
            assert from_file == run(argv, doc) == run([argv[0], "-", *argv[1:]], doc), argv
        assert from_file[0] == 2

    def test_missing_document(self):
        code, out = run(["gamma", "--theta", "x", "--omega", "y"], b"")
        assert code == 2 and out.decode().startswith("BadDocument")

    @pytest.mark.parametrize("path", [[], ["-"]])
    def test_empty_stdin_is_no_document(self, path):
        assert run(["validate", *path], b"") == (
            2, b"BadDocument: no input document: pass a path or pipe JSON on stdin\n")

    @pytest.mark.parametrize("doc", [b"{}", b'{"classes": null}'])
    def test_document_without_lattice_or_fan(self, doc):
        assert run(["validate"], doc) == (
            2, b"BadDocument: document must contain a lattice or a fan\n")

    def test_invalid_json(self):
        code, out = run(["validate"], b"{nope")
        assert code == 2 and out.decode().startswith("BadDocument")

    def test_missing_option(self):
        code, out = run(["gamma", "--theta", "theta"], F1_DOC)
        assert code == 2 and out.decode().startswith("BadParams")

    def test_query_defaults_from_document(self):
        doc = json.loads(F1_DOC)
        doc["query"] = {"theta": "theta", "omega": "omega"}
        payload = run_json(["gamma"], json.dumps(doc).encode())
        assert payload["exact"]["value"] == "-1/4"

    def test_env_digits(self, monkeypatch):
        monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", "5")
        payload = run_json(["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"])
        assert payload["decimal"]["value"] == "1.2000"
        assert payload["decimal"]["digits"] == 5
        monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", "zero")
        code, out = run(["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"])
        assert code == 2 and out.decode().startswith("BadParams")

    def test_env_digits_cap(self, monkeypatch):
        argv = ["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"]
        monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", str(MAX_DECIMAL_DIGITS))
        payload = run_json(argv)
        assert payload["decimal"] == {"value": "1.2" + "0" * (MAX_DECIMAL_DIGITS - 2),
                                      "digits": MAX_DECIMAL_DIGITS}
        for digits in (MAX_DECIMAL_DIGITS + 1, 3_000_000):
            monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", str(digits))
            start = time.perf_counter()
            result = run(argv)
            assert time.perf_counter() - start < 1.0
            assert result == (2, f"BadParams: JTHRESH_DECIMAL_DIGITS must be between 1 and "
                                 f"{MAX_DECIMAL_DIGITS}, got {digits}\n".encode())


class TestSharedParser:
    """run parses every argv that is not plain with one parser, built on first use; a
    plain document-command argv never builds it."""

    SURFACE = ["--theta", "theta", "--omega", "omega"]
    QUERIES = [
        (["gamma", *SURFACE], F1_DOC), (["seshadri", *SURFACE], F1_DOC),
        (["sigma", *SURFACE], F1_DOC), (["solvable", *SURFACE], F1_DOC),
        (["path", "--theta", "theta", "--a", "H", "--samples", "3"], F1_DOC),
        (["stable-cone", "--theta", "theta", "--a", "H"], F1_DOC),
        (["toric-gamma", *SURFACE], FAN_DOC),
        (["csck", "--minus-c1", "mc1", "--omega", "omega", "--alpha", "1"], F1_DOC),
        (["validate"], F1_DOC),
        (["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"], b""),
    ]

    def test_built_once(self, monkeypatch):
        _build_parser()
        inits, original = [], argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            inits.append(1)
            original(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert {argv[0] for argv, _ in self.QUERIES} == {*DOC_COMMANDS, "catalog"}
        for argv, stdin in self.QUERIES:
            assert run(argv, stdin)[0] == 0, argv
        assert inits == []

    def test_plain_argv_never_builds_the_parser(self):
        _build_parser.cache_clear()
        for argv, stdin in self.QUERIES[:-1]:
            assert run(argv, stdin)[0] == 0, argv
        assert _build_parser.cache_info().currsize == 0
        assert run(*self.QUERIES[-1])[0] == 0
        info = _build_parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    @staticmethod
    def fresh(argv, stdin=b""):
        _build_parser.cache_clear()
        return run(argv, stdin)

    def test_nothing_carries_over(self):
        query_doc = _with(F1_DOC, query={"theta": "theta", "a": "H", "samples": 3})
        path = ["path", "--theta", "theta", "--a", "H", "--samples", "4"]
        ross = ["catalog", "ross", "--g", "4", "--sC", "2"]
        hirzebruch = ["catalog", "hirzebruch", "--a", "1"]
        gamma = ["gamma", "--theta", "theta", "--omega", "omega"]
        sequences = [
            ((["path", "--samples", "5", "--format", "json"], query_doc),
             (["path", "--format", "json"], query_doc)),
            ((ross + ["--t", "3"], b""), (ross, b"")),
            ((hirzebruch + ["--export"], b""), (hirzebruch, b"")),
            ((path + ["--format", "csv"], F1_DOC), (path, F1_DOC)),
            ((["gamma", "--format", "xml"], F1_DOC), (gamma, F1_DOC)),
        ]
        for first, second in sequences:
            self.fresh(*first)
            shared = run(*second)
            assert shared == self.fresh(*second), second
            assert shared[0] == 0, second
        # the flags of each first call are gone from its second
        assert len(json.loads(run(["path", "--format", "json"], query_doc)[1])["rows"]) == 3
        assert b"exact.value" not in run(ross)[1]
        assert run(hirzebruch)[1].startswith(b"command: catalog\n")
        assert run(path, F1_DOC)[1].startswith(b"command: path\n")

    def test_environment_is_read_per_run(self, monkeypatch):
        argv = ["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3", "--format", "json"]
        values = []
        for digits in ("5", "8"):
            monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", digits)
            shared = run(argv)
            assert shared == self.fresh(argv)
            values.append(json.loads(shared[1])["decimal"]["value"])
        assert values == ["1.2000", "1.2000000"]

    def test_threads_share_the_parser(self):
        import sys
        import threading
        queries = [
            (["path", "--theta", "theta", "--a", "H", "--samples", str(k)], F1_DOC)
            for k in (2, 3)]
        queries += [(["catalog", "ross", "--g", "4", "--sC", "2", "--t", "3"], b""),
                    (["catalog", "ross", "--g", "4", "--sC", "2", "--format", "json"], b""),
                    (["gamma", "--format", "xml"], F1_DOC)]
        expected = [self.fresh(*query) for query in queries]
        results = {i: [] for i in range(len(queries))}

        def worker(i):
            for _ in range(40):
                results[i].append(run(*queries[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, outputs in results.items():
            assert outputs == [expected[i]] * 40, queries[i][0]


class TestProcessEntryPoints:
    def test_module_invocation(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "jthresh.cli", "catalog", "ross",
             "--g", "4", "--sC", "2", "--t", "3", "--format", "json"],
            capture_output=True, stdin=subprocess.DEVNULL, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.decode())["exact"]["value"] == "6/5"

    def test_module_invocation_stdin_and_exit_code(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "jthresh.cli", "validate"],
            input=BAD_LATTICE_DOC, capture_output=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout.decode().startswith("BadSignature")

    def test_module_invocation_argv_error(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "jthresh.cli", "gamma", "--format", "xml"],
            capture_output=True, stdin=subprocess.DEVNULL, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == (b"BadParams: argument --format: invalid choice: 'xml' "
                               b"(choose from 'text', 'json', 'csv')\n")
        assert proc.stderr == b""


# facet-only half-plane x > 0 over diag(1, -1): interior classes of every square
HALF_PLANE_DOC = json.dumps({
    "lattice": {"matrix": [["1", "0"], ["0", "-1"]]},
    "cone": {"facets": [["1", "0"]], "facet_labels": ["P"]},
    "classes": {"theta": ["2", "0"], "outside": ["-1", "0"],
                "null": ["1", "1"], "negative": ["1", "2"]},
}).encode()


def _with(doc: bytes, **fields) -> bytes:
    return json.dumps({**json.loads(doc), **fields}).encode()


# fan fields that must be JSON integers: each once truncated or coerced by int()
FAN_FIELDS = {
    "fan_ray_float": {"rays": [[1.9, 0], [0, 1], [-1, 1], [0, -1]]},
    "fan_dim_float": {"dim": 2.7},
    "fan_cone_index_float": {"max_cones": [[0, 1], [1, 2.5], [2, 3], [3, 0]]},
    "fan_ray_string": {"rays": [["1", 0], [0, 1], [-1, 1], [0, -1]]},
    "fan_cone_index_bool": {"max_cones": [[0, True], [1, 2], [2, 3], [3, 0]]},
    "fan_rays_as_string": {"rays": "1011"},
}

MALFORMED = {
    "alpha_zero_den": (["csck", "--minus-c1", "mc1", "--omega", "omega",
                        "--alpha", "1/0"], F1_DOC, "BadParams"),
    "alpha_text": (["csck", "--minus-c1", "mc1", "--omega", "omega",
                    "--alpha", "zz"], F1_DOC, "BadParams"),
    "ross_g_text": (["catalog", "ross", "--g", "x", "--sC", "2"], b"", "BadParams"),
    "ross_t_text": (["catalog", "ross", "--g", "4", "--sC", "2", "--t", "abc"], b"",
                    "BadParams"),
    # exponent notation: Fraction would expand each into a million-digit integer
    "alpha_exponent": (["csck", "--minus-c1", "mc1", "--omega", "omega",
                        "--alpha", "1e2000000"], F1_DOC, "BadParams"),
    "ross_t_exponent": (["catalog", "ross", "--g", "4", "--sC", "2", "--t", "1e3000000"],
                        b"", "BadParams"),
    # --t evaluates ross only; other families once ignored it, even as text
    "hirzebruch_t": (["catalog", "hirzebruch", "--a", "2", "--t", "abc"], b"", "BadParams"),
    "blowup_path_t_export": (["catalog", "blowup_path", "--t", "3", "--export"], b"",
                             "BadParams"),
    "class_exponent": (["gamma", "--theta", "theta", "--omega", "omega"], _with(
        F1_DOC, classes={"theta": ["2", "-1"], "omega": ["1e3000000", "-1"]}), "BadDocument"),
    "toric_class_scalar": (["validate"], _with(FAN_DOC, toric_classes={"x": 5}),
                           "BadDocument"),
    "huge_json_int": (["validate"], F1_DOC.replace(b'"-1"', b"9" * 5000, 1), "BadDocument"),
    "deep_json": (["validate"], b"[" * 100000 + b"]" * 100000, "BadDocument"),
    "class_as_string": (["validate"], _with(F1_DOC, classes={"x": "12"}), "BadDocument"),
    "classes_as_list": (["validate"], _with(F1_DOC, classes=["x"]), "BadDocument"),
    "facets_as_number": (["validate"], _with(F1_DOC, cone={"facets": 5}), "BadDocument"),
    "light_cone_reference_as_string": (
        ["validate"], _with(F1_DOC, cone={"facets": [], "light_cone": {"H": "10"}}),
        "BadDocument"),
    "facet_labels_as_string": (["validate"], _with(F1_DOC, cone={
        "facets": [["0", "1"], ["1", "-1"]], "facet_labels": "EF"}), "BadDocument"),
    "facet_labels_as_integers": (["validate"], _with(F1_DOC, cone={
        "facets": [["0", "1"], ["1", "-1"]], "facet_labels": [1, 2]}), "BadDocument"),
    "rank_as_string": (["validate"], _with(F1_DOC, lattice={
        "rank": "2", "matrix": [["1", "0"], ["0", "-1"]]}), "BadDocument"),
    "rank_as_bool": (["validate"], json.dumps({"lattice": {
        "rank": True, "matrix": [["1"]]}}).encode(), "BadDocument"),
    **{name: (["validate"], _with(FAN_DOC, fan={**json.loads(FAN_DOC)["fan"], **fan}),
              "BadDocument") for name, fan in FAN_FIELDS.items()},
    # falsy sample counts in the document once fell back to 100 rows
    "query_samples_zero": (["path"], _with(F1_DOC, query={
        "theta": "theta", "a": "H", "samples": 0}), "BadParams"),
    "query_samples_bool": (["path"], _with(F1_DOC, query={
        "theta": "theta", "a": "H", "samples": False}), "BadParams"),
    # alpha is an exact rational: a JSON float was once read through str() and rounded
    **{f"query_alpha_{kind}": (["csck", "--minus-c1", "mc1", "--omega", "omega"], _with(
        F1_DOC, query={"alpha": value}), "BadParams")
       for kind, value in (("float", 0.1), ("bool", True), ("list", ["1"]))},
    # argv errors: one diagnostic line from run, like any other invalid input
    "unknown_command": (["gamma-ray"], F1_DOC, "BadParams"),
    "unknown_flag": (["gamma", "--theta", "theta", "--bogus"], F1_DOC, "BadParams"),
    "bad_format_choice": (["gamma", "--format", "xml"], F1_DOC, "BadParams"),
    "no_command": ([], F1_DOC, "BadParams"),
    # falsy non-objects once passed as empty; only an absent field or null does
    **{f"{key}_as_{kind}": (["validate"], _with(doc, **{key: value}), "BadDocument")
       for key, doc in (("classes", F1_DOC), ("toric_classes", FAN_DOC), ("query", F1_DOC))
       for kind, value in (("empty_list", []), ("zero", 0), ("empty_string", ""),
                           ("false", False))},
}


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_one_diagnostic_line_and_exit_2(self, name):
        argv, stdin, code_name = MALFORMED[name]
        code, out = run(argv, stdin)
        line = out.decode()
        assert code == 2, line
        assert line.count("\n") == 1 and line.endswith("\n")
        assert line.startswith(code_name + ": ")

    def test_field_type_diagnostics(self):
        expected = {
            "facet_labels_as_string": "cone facet_labels must be a list of strings, got 'EF'",
            "facet_labels_as_integers": "cone facet_labels must be a list of strings, got [1, 2]",
            "rank_as_string": "lattice rank must be an integer, got '2'",
            "rank_as_bool": "lattice rank must be an integer, got True",
            "fan_ray_float": "fan rays entry must be an integer, got 1.9",
            "fan_dim_float": "fan dim must be an integer, got 2.7",
            "fan_cone_index_float": "fan max_cones entry must be an integer, got 2.5",
            "fan_ray_string": "fan rays entry must be an integer, got '1'",
            "fan_cone_index_bool": "fan max_cones entry must be an integer, got True",
            "fan_rays_as_string": "fan rays must be a list of integer lists, got '1011'",
            **{f"{key}_as_{kind}": message for key, message in (
                ("classes", "classes must be an object mapping labels to classes"),
                ("toric_classes", "toric_classes must be an object mapping labels to classes"),
                ("query", "query must be an object"))
               for kind in ("empty_list", "zero", "empty_string", "false")},
        }
        for name, message in expected.items():
            argv, stdin, _ = MALFORMED[name]
            assert run(argv, stdin) == (2, f"BadDocument: {message}\n".encode()), name
        for key in ("classes", "toric_classes", "query"):  # null is an empty object
            for doc in (F1_DOC, FAN_DOC):
                assert run(["validate"], _with(doc, **{key: None}))[0] == 0, key

    @pytest.mark.parametrize("argv, stdin, line", [
        (["validate"], _with(F1_DOC, lattice=5),
         "BadDocument: lattice must be an object with a 'matrix' field"),
        (["validate"], _with(F1_DOC, lattice={"matrix": 5}),
         "BadDocument: lattice matrix must be a list of rows"),
        (["validate"], _with(F1_DOC, lattice={"matrix": [["1", "0"], ["0", "-1"]],
                                              "labels": [1, 2]}),
         "BadDocument: lattice labels must be strings"),
        (["validate"], json.dumps({"lattice": {"matrix": [["1", "0"]]}}).encode(),
         "BadDocument: pairing matrix must be square and non-empty"),
        (["validate"], _with(F1_DOC, lattice={"matrix": [["1", "0"], ["0", "-1"]],
                                              "labels": ["H"]}),
         "BadDocument: one basis label per row required"),
        (["validate"], _with(F1_DOC, cone=5), "BadDocument: cone must be an object"),
        (["validate"], _with(F1_DOC, cone={"facets": [], "light_cone": {}}),
         "BadDocument: light_cone must be an object with reference class 'H'"),
        (["validate"], _with(F1_DOC, cone={"facets": [["0", "1"], ["1", "-1"]],
                                           "facet_labels": ["E"]}),
         "BadConeModel: one label per facet required"),
        (["validate"], _with(FAN_DOC, fan=5), "BadDocument: fan must be an object"),
        (["validate"], _with(FAN_DOC, fan={"dim": 2, "rays": [[1, 0], [0, 1]]}),
         "BadDocument: fan missing field 'max_cones'"),
        (["validate"], b"[]", "BadDocument: document must be a JSON object"),
        (["validate"], _with(FAN_DOC, classes={"x": ["1", "0"]}),
         "BadDocument: 'classes' requires a lattice; use 'toric_classes' with a fan"),
        (["validate"], _with(FAN_DOC, toric_classes={"x": ["1", "0", "0"]}),
         "BadDocument: toric class 'x' needs one coefficient per ray"),
        (["catalog", "hirzebruch", "--a", "-1"], b"", "BadParams: a = -1 < 0"),
    ])
    def test_document_and_parameter_diagnostics(self, argv, stdin, line):
        assert run(argv, stdin) == (2, f"{line}\n".encode())

    def test_unreadable_document_path(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(OSError) as info:
            open(missing, "rb")
        assert run(["validate", str(missing)]) == (
            2, f"BadDocument: cannot read {missing}: {info.value}\n".encode())

    def test_decimal_digits_below_one(self, monkeypatch):
        monkeypatch.setenv("JTHRESH_DECIMAL_DIGITS", "0")
        assert run(["gamma", "--theta", "theta", "--omega", "omega"], F1_DOC) == (
            2, b"BadParams: JTHRESH_DECIMAL_DIGITS must be between 1 and 1000, got 0\n")

    def test_query_sample_count_diagnostics(self):
        expected = {
            "query_samples_zero": "BadParams: samples must be between 1 and 100000, got 0",
            "query_samples_bool": "BadParams: --samples must be an integer, got False",
        }
        for name, line in expected.items():
            argv, stdin, _ = MALFORMED[name]
            assert run(argv, stdin) == (2, f"{line}\n".encode()), name

    def test_query_alpha_diagnostics(self):
        for name, shown in (("query_alpha_float", "0.1"), ("query_alpha_bool", "True"),
                            ("query_alpha_list", "['1']")):
            argv, stdin, _ = MALFORMED[name]
            line = ("BadParams: expected an exact rational (int, Fraction or 'p/q' string), "
                    f"got {shown}\n")
            assert run(argv, stdin) == (2, line.encode()), name
        # 1e-1 and 0.10000000000000000001 both parse as the float 0.1 and are refused
        for raw in (b"1e-1", b"0.10000000000000000001"):
            doc = _with(F1_DOC, query={"alpha": "@"}).replace(b'"@"', raw)
            assert run(["csck", "--minus-c1", "mc1", "--omega", "omega"], doc)[0] == 2, raw
        for value, shown in ((2, "2"), ("2/3", "2/3")):
            payload = run_json(["csck", "--minus-c1", "mc1", "--omega", "omega"],
                               _with(F1_DOC, query={"alpha": value}))
            assert payload["alpha"] == shown

    @pytest.mark.parametrize("bad", [1.5, True, None, [1]])
    def test_one_rational_gate(self, bad):
        # every rational field of a document refuses a non-exact JSON value in rat's words
        line = f"expected an exact rational (int, Fraction or 'p/q' string), got {bad!r}\n"
        for doc in (_with(F1_DOC, classes={"theta": ["2", bad]}),
                    _with(F1_DOC, cone={"facets": [[bad, "1"]]}),
                    _with(F1_DOC, cone={"facets": [], "light_cone": {"H": ["1", bad]}}),
                    _with(F1_DOC, lattice={"matrix": [["1", bad], ["0", "-1"]]}),
                    _with(FAN_DOC, toric_classes={"omega": ["0", "-1", "0", bad]})):
            assert run(["validate"], doc) == (2, ("BadDocument: " + line).encode()), doc
        alpha = _with(F1_DOC, query={"alpha": bad})
        if bad is not None:  # a null alpha is an absent one
            assert run(["csck", "--minus-c1", "mc1", "--omega", "omega"], alpha) == (
                2, ("BadParams: " + line).encode())

    def test_catalog_t_diagnostics(self):
        # build() accepts the family first, then --t is refused in build()'s words
        for name, family in (("hirzebruch_t", "hirzebruch"),
                             ("blowup_path_t_export", "blowup_path")):
            argv, stdin, _ = MALFORMED[name]
            line = f"BadParams: unexpected parameters ['t'] for {family}\n"
            assert run(argv, stdin) == (2, line.encode()), name
        assert run(["catalog", "hirzebruch", "--rank", "3", "--t", "1"]) == (
            2, b"BadParams: unexpected parameters ['rank'] for hirzebruch\n")

    def test_argv_diagnostics(self):
        commands = ("'gamma', 'seshadri', 'sigma', 'solvable', 'path', 'stable-cone', "
                    "'toric-gamma', 'csck', 'validate', 'catalog'")
        expected = {
            "unknown_command": f"argument command: invalid choice: 'gamma-ray' "
                               f"(choose from {commands})",
            "unknown_flag": "unrecognized arguments: --bogus",
            "bad_format_choice": "argument --format: invalid choice: 'xml' "
                                 "(choose from 'text', 'json', 'csv')",
            "no_command": "the following arguments are required: command",
        }
        for name, message in expected.items():
            argv, stdin, _ = MALFORMED[name]
            assert run(argv, stdin) == (2, f"BadParams: {message}\n".encode()), name

    # two faults per input: the document part is checked first, then that every
    # label is given, then the other options, and last that each label is known
    @pytest.mark.parametrize("argv, stdin, line", [
        (["gamma"], FAN_DOC, "BadDocument: this command needs a document with lattice and cone"),
        (["seshadri", "--omega", "nope"], F1_DOC, "BadParams: missing required option --theta"),
        (["sigma", "--theta", "nope"], F1_DOC, "BadParams: missing required option --omega"),
        (["solvable", "--theta", "nope", "--omega", "nada"], F1_DOC,
         "BadDocument: unknown class label 'nope'"),
        (["path", "--theta", "nope", "--a", "H", "--samples", "x"], F1_DOC,
         "BadParams: --samples must be an integer, got 'x'"),
        (["path", "--a", "H"], _with(F1_DOC, query={"theta": "nope", "samples": True}),
         "BadParams: --samples must be an integer, got True"),
        (["stable-cone", "--theta", "theta"], _with(F1_DOC, cone=None),
         "BadDocument: this command needs a document with lattice and cone"),
        (["toric-gamma", "--theta", "nope"], F1_DOC,
         "BadDocument: this command needs a document with a fan"),
        (["toric-gamma", "--theta", "nope", "--omega", "nada"], FAN_DOC,
         "BadDocument: unknown toric class label 'nope'"),
        (["csck", "--minus-c1", "nope", "--omega", "omega", "--alpha", "zz"], F1_DOC,
         "BadParams: bad rational 'zz': Invalid literal for Fraction: 'zz'"),
        (["csck", "--minus-c1", "nope", "--omega", "omega"], F1_DOC,
         "BadParams: missing required option --alpha"),
        (["csck", "--omega", "omega", "--alpha", "zz"], F1_DOC,
         "BadParams: missing required option --minus-c1"),
        (["path", "--theta", "theta", "--samples", "0"], F1_DOC,
         "BadParams: missing required option --a"),
        (["validate", "--format", "csv"], b"",
         "BadParams: csv output is only defined for the 'path' command"),
    ])
    def test_first_of_two_faults_is_reported(self, argv, stdin, line):
        assert run(argv, stdin) == (2, f"{line}\n".encode())

    def test_help_still_exits_0(self, capsys):
        for argv in (["-h"], ["gamma", "--help"], ["catalog", "-h"]):
            code, out = run(argv)
            assert code == 0 and out.startswith(b"usage: jthresh")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name, line", [
        ("alpha_exponent", "BadParams: bad rational '1e2000000'"),
        ("ross_t_exponent", "BadParams: bad rational '1e3000000'"),
        ("class_exponent", "BadDocument: bad rational '1e3000000'"),
    ])
    def test_exponent_notation_is_refused_at_once(self, name, line):
        argv, stdin, _ = MALFORMED[name]
        start = time.perf_counter()
        result = run(argv, stdin)
        assert time.perf_counter() - start < 1.0
        assert result == (2, f"{line}: exponent notation is not accepted\n".encode())

    @pytest.mark.parametrize("command", ["gamma", "seshadri", "sigma", "csck"])
    def test_omega_diagnostics_in_order(self, command):
        expected = {
            "outside": "OmegaNotKahler: omega is not interior to the cone model\n",
            "null": "ZeroVolume: omega^2 = 0\n",
            "negative": "OmegaNotKahler: omega^2 <= 0\n",
        }
        for omega, line in expected.items():
            if command == "csck":
                argv = ["csck", "--minus-c1", "theta", "--omega", omega, "--alpha", "1"]
            else:
                argv = [command, "--theta", "theta", "--omega", omega]
            assert run(argv, HALF_PLANE_DOC) == (2, line.encode())

    def test_solvable_checks_omega_like_gamma(self):
        # omega = (1, 2) on the half-plane has omega^2 = -3; solvable once answered false
        for omega, line in (("outside", "OmegaNotKahler: omega is not interior to the cone model"),
                            ("null", "ZeroVolume: omega^2 = 0"),
                            ("negative", "OmegaNotKahler: omega^2 <= 0")):
            argv = ["solvable", "--theta", "theta", "--omega", omega]
            assert run(argv, HALF_PLANE_DOC) == (2, f"{line}\n".encode())

    def test_stable_cone_refuses_an_interior_theta_without_positive_square(self):
        # a facet model admits an interior theta with theta^2 <= 0; then no
        # t is solvable, and stable-cone once exited 1 (a square root of -3),
        # printed normalization 0 or answered perfect for a null a
        doc = json.dumps({"lattice": {"matrix": [["1", "0"], ["0", "-1"]]},
                          "cone": {"facets": [["0", "-1"], ["1", "0"]], "facet_labels": ["E", "F"]},
                          "classes": {"theta": ["1", "2"], "null_theta": ["1", "1"],
                                      "a": ["1", "0"], "zero": ["0", "0"]}}).encode()
        line = "BadConeModel: theta^2 = {} <= 0 although theta is interior to the cone model\n"
        for theta, a, square in (("theta", "a", "-3"), ("null_theta", "a", "0"),
                                 ("theta", "zero", "-3")):
            argv = ["stable-cone", "--theta", theta, "--a", a]
            assert run(argv, doc) == (2, line.format(square).encode())


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    line = re.search(r"^Subcommands: (.*?)\.$", readme, re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", line) == [*DOC_COMMANDS, "catalog"]


def test_large_prime_denominator_is_quick():
    # theta = (2, 1/p) puts p^2 into the light-cone discriminant; factoring it
    # by trial division to its square root once took about a second per query
    p = 10000019
    doc = json.dumps({"lattice": {"matrix": [["1", "0"], ["0", "-2"]]},
                      "cone": {"facets": [], "light_cone": {"H": ["1", "0"]}},
                      "classes": {"theta": ["2", f"1/{p}"], "omega": ["3", "1"]}}).encode()
    start = time.perf_counter()
    code, out = run(["gamma", "--theta", "theta", "--omega", "omega"], doc)
    assert time.perf_counter() - start < 0.5
    assert (code, out.decode().splitlines()) == (0, [
        "command: gamma", "theta: theta", "omega: omega",
        "exact.value.rat: 60000112/70000133", "exact.value.coef: -20000035/70000133",
        "exact.value.rad: 2", "decimal.value: 0.453081871360", "decimal.digits: 12",
        "status: Solvable", "audit.C: 120000224/70000133",
        "audit.sigma.rat: 60000112/70000133", "audit.sigma.coef: 20000035/70000133",
        "audit.sigma.rad: 2", "audit.T.rat: 60000112/70000133",
        "audit.T.coef: -20000035/70000133", "audit.T.rad: 2", "audit.theta_kahler: true",
        "audit.binding_facet_sigma: light-cone", "audit.binding_facet_T: light-cone",
        "caveats: []"])


def test_radicand_past_the_trial_division_cap_is_answered_quickly():
    # theta^2 = p^3 and a^2 = 1, so path and stable-cone take the square root of
    # p^3; trial division stops at its cap and keeps p^3 as the radicand
    p = 10000019
    doc = json.dumps({"lattice": {"matrix": [["1", "0"], ["0", "-1"]]},
                      "cone": {"facets": [["0", "1"]], "facet_labels": ["E"],
                               "light_cone": {"H": ["2", "-1"]}},
                      "classes": {"theta": [str((p**3 + 1) // 2), str(-(p**3 - 1) // 2)],
                                  "a": ["1", "0"]}}).encode()
    # path's t0 = 1/(1 + sqrt(p^3)) = (sqrt(p^3) - 1)/(p^3 - 1); stable-cone's lambda = sqrt(p^3)
    for command, lines in (
            ("path", [f"solvable_set.0.lo.rat: -1/{p**3 - 1}",
                      f"solvable_set.0.lo.coef: 1/{p**3 - 1}", f"solvable_set.0.lo.rad: {p**3}"]),
            ("stable-cone", ["exact.normalization.rat: 0", "exact.normalization.coef: 1",
                             f"exact.normalization.rad: {p**3}",
                             "decimal.normalization: 31622866726.6"])):
        start = time.perf_counter()
        code, out = run([command, "--theta", "theta", "--a", "a"], doc)
        assert time.perf_counter() - start < 0.5, command
        assert code == 0 and set(lines) <= set(out.decode().splitlines()), command


# rank 3 with a light cone and two facets: a is on f0 with a^2 = 3, null on the light cone
LIGHT_DOC = json.dumps({
    "lattice": {"matrix": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]},
    "cone": {"facets": [["1", "2", "0"], ["1", "0", "2"]], "light_cone": {"H": ["1", "0", "0"]}},
    "classes": {"theta": ["3", "0", "0"], "omega": ["4", "1", "1"], "a": ["2", "1", "0"],
                "null": ["1", "0", "-1"]},
}).encode()


@pytest.mark.parametrize("doc, a, null", [
    (F1_DOC, "H", "F"),
    (_with(run(["catalog", "blowup_path", "--export"])[1], classes={
        "theta": ["2", "-1"], "omega": ["3", "-1"], "a": ["1", "0"], "null": ["1", "-1"]}),
     "a", "null"),
    (LIGHT_DOC, "a", "null"),
])
def test_every_surface_query_pairs_its_classes_once(monkeypatch, doc, a, null):
    # beyond the document's own validation, each surface query pairs its two
    # classes into one table: each with every facet (k of them), then a.theta
    # and the two squares, and with a light cone each class with its reference
    # class: 2k + 5 pairs with a light cone, 2k + 3 without, whatever the rows.
    # stable-cone never reads a.theta, and with a light cone it reads both
    # squares from the classes' sides: 2k + 4, or 2k + 2 without (theta^2's
    # sign is read before a^2 = 0 answers PerfectCone)
    calls, original = [], IntersectionLattice.pair

    def counting_pair(lattice, x, y):
        calls.append(1)
        return original(lattice, x, y)

    monkeypatch.setattr(IntersectionLattice, "pair", counting_pair)
    parsed = parse_document(json.loads(doc))
    validation = len(calls)
    k, light = len(parsed.cone.facets), parsed.cone.light_cone is not None
    queries = [([command, "--theta", "theta", "--omega", "omega"], 2 * k + (5 if light else 3))
               for command in ("gamma", "seshadri", "sigma", "solvable")]
    queries += [(argv, 2 * k + (5 if light else 3)) for argv in (
        ["csck", "--minus-c1", "theta", "--omega", "omega", "--alpha", "1"],
        ["path", "--theta", "theta", "--a", a, "--samples", "1"],
        ["path", "--theta", "theta", "--a", a, "--samples", "1000"])]
    queries += [(["stable-cone", "--theta", "theta", "--a", a], 2 * k + (4 if light else 2)),
                (["stable-cone", "--theta", "theta", "--a", null], 2 * k + (4 if light else 2))]
    for argv, expected in queries:
        calls.clear()
        code, out = run(argv, doc)
        assert code == 0, out
        assert len(calls) - validation == expected, argv
    assert b"perfect: true" in run(queries[-1][0], doc)[1]

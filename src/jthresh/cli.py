"""Command-line interface.

One JSON document in (file argument or stdin), one deterministic rendering
out.  Exit codes: 0 on success (unstable/indeterminate results included),
2 on invalid input with a single diagnostic line naming the failed
validation, 1 on internal errors.  A document command reports the first
fault in this order: the document part it computes on, each class label
given (in argv or the document's query), each other option, each label
defined in the document.

A plain argv (a document command, maybe a path, then full '--flag value' pairs)
is read straight from DOC_COMMANDS; argparse reads every other argv.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Any, Callable, NoReturn

from . import catalog as catalog_mod
from .cones import ConeConstants, seshadri_T, sigma_inf
from .documents import (InputDocument, document_to_json, parse_document,
                        quad_to_json)
from .errors import BadDocument, BadParams, JThreshError
from .exactnum import (DEFAULT_DIGITS, MAX_DECIMAL_DIGITS, QuadNum, _decimal_ratio, decimal_str,
                       format_rat, int_between, rat)
from .surface import (PerfectCone, Status, _path_rows, csck_criterion, is_solvable, path_R,
                      stable_subcone, surface_gamma)
from .toric import AUTOMORPHISM_CAVEAT, _gamma_rows, count_orbits


def _display_digits() -> int:
    raw = os.environ.get("JTHRESH_DECIMAL_DIGITS")
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise BadParams(f"JTHRESH_DECIMAL_DIGITS = {raw!r} is not an integer") from None
    return int_between(digits, "JTHRESH_DECIMAL_DIGITS", 1, MAX_DECIMAL_DIGITS)


class _HelpRequested(Exception):
    """-h/--help: carries the help text back to run instead of printing it."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose argv errors are diagnostics, not usage text on stderr.

    Help is returned through run as well, so the shared parser never writes
    to the process's streams and keeps no state between calls.
    """

    def error(self, message: str) -> NoReturn:
        raise BadParams(message)

    def print_help(self, file=None) -> NoReturn:
        raise _HelpRequested(self.format_help())


# --- rendering ------------------------------------------------------------


_JSON_SCALARS = {True: "true", False: "false", None: "null"}
# a list or a record column whose items all have one of these types goes to text in one map
_COLUMN_TEXT = {frozenset([str]): encode_basestring_ascii, frozenset([int]): int.__repr__,
                frozenset([bool]): _JSON_SCALARS.__getitem__}


def _json_text(value: Any, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), one join per container.

    With an indent the json module encodes in pure Python; here strings go
    through its C escaper.  Only what payloads hold is encoded: str keys, and
    str, int, bool, None, dict, list and tuple values; anything else (a float,
    or an int key, which the escaper refuses) is a TypeError.  A list of records,
    non-empty dicts with one key set, fills one '"key": %s' template per record.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_SCALARS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(sub, inner)
            for key, sub in sorted(value.items())]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if text := _COLUMN_TEXT.get(types := frozenset(map(type, value))):
            return "[" + inner + ("," + inner).join(map(text, value)) + newline + "]"
        if types == {dict} and (first := value[0]) and all(
                map(first.keys().__eq__, map(dict.keys, value))):
            keys, field, cols = sorted(first), inner + "  ", []
            for key in keys:
                column = list(map(itemgetter(key), value))
                kinds = frozenset(map(type, column))
                if text := _COLUMN_TEXT.get(kinds):
                    cols.append(map(text, column))
                elif kinds == {list} and (text := _COLUMN_TEXT.get(
                        frozenset(map(type, chain.from_iterable(column))))):
                    cell, sep = field + "  ", "," + field + "  "  # scalar lists: one join each
                    cols.append(["[" + cell + sep.join(map(text, v)) + field + "]" if v
                                 else "[]" for v in column])
                else:
                    cols.append([_json_text(v, field) for v in column])
            form = "{" + ",".join([field + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                                   for key in keys]) + inner + "}"
            return "[" + inner + ("," + inner).join(map(form.__mod__, zip(*cols))) + newline + "]"
        return "[" + inner + ("," + inner).join([
            _json_text(sub, inner) for sub in value]) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _text_lines(value: Any, prefix: str) -> list[str]:
    """One 'path.to.key: value' line per leaf, a list of scalars being one leaf: each leaf
    as JSON but a printable str as it is, so a label holding a newline stays on one line."""
    if isinstance(value, dict) and value:  # an empty object is one leaf, as [] is
        items = value.items()
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        items = enumerate(value)
    else:
        if isinstance(value, list):
            value = "[" + ", ".join(map(_json_text, value)) + "]"
        elif not (isinstance(value, str) and value.isprintable()):
            value = _json_text(value)
        return [f"{prefix}: {value}"]
    return [line for key, sub in items
            for line in _text_lines(sub, f"{prefix}.{key}" if prefix else str(key))]


def _render(payload: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _json_text(payload) + "\n"
    return "\n".join(_text_lines(payload, "")) + "\n"


# --- document / option plumbing --------------------------------------------


def _load_document(args: argparse.Namespace, stdin_bytes: bytes,
                   stdin_reader: Callable[[], bytes] | None) -> InputDocument:
    path = args.doc
    if path in (None, "-"):
        data = stdin_bytes or (stdin_reader() if stdin_reader is not None else b"")
        if not data:
            raise BadDocument("no input document: pass a path or pipe JSON on stdin")
    else:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise BadDocument(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the int-string limit
        raise BadDocument(f"invalid JSON: {exc}") from None
    return parse_document(data)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _option(args: argparse.Namespace, doc: InputDocument, name: str,
            default: Any = None) -> Any:
    """An option from argv, else from the document's query, else default; else an error."""
    for value in (getattr(args, name), doc.query.get(name), default):
        if value is not None:
            return value
    raise BadParams(f"missing required option {_flag(name)}")


def _samples(raw: Any) -> int:
    """A grid size from argv or the document's query; a JSON bool is refused."""
    if not isinstance(raw, bool):
        try:
            return int(str(raw))
        except ValueError:
            pass
    raise BadParams(f"--samples must be an integer, got {raw!r}")


@dataclass(frozen=True)
class _Part:
    """A document part a command computes on: its InputDocument fields, the diagnostic
    when one is absent, the field holding its labelled classes and the unknown-label one."""

    fields: tuple[str, ...]
    missing: str
    classes: str
    unknown: str


_SURFACE = _Part(("lattice", "cone"), "this command needs a document with lattice and cone",
                 "classes", "unknown class label")
_FAN = _Part(("fan",), "this command needs a document with a fan",
             "toric_classes", "unknown toric class label")

_LABEL_HELP = {
    "theta": "twist class label",
    "omega": "polarization label",
    "a": "boundary class label",
    "minus_c1": "label of the minus-first-Chern class",
}


@dataclass(frozen=True)
class _Option:
    """A non-label option: help, parser, and the raw value used when absent (None: required)."""

    help: str
    parse: Callable[[Any], Any]
    default: Any = None


@dataclass(frozen=True)
class _DocCommand:
    """One document command.  Its handler gets the part's fields (the document when
    part is None), each label's class, each option's value and digits as keywords,
    and returns its own payload fields."""

    handler: Callable[..., dict[str, Any]]
    part: _Part | None
    labels: tuple[str, ...] = ()
    options: dict[str, _Option] = field(default_factory=dict)


# --- command handlers -------------------------------------------------------


def _decimal(digits: int, **values) -> dict[str, Any]:
    """A payload's decimal block: each value to digits significant digits."""
    return {**{key: decimal_str(x, digits) for key, x in values.items()}, "digits": digits}


def _value(x: QuadNum, digits: int) -> dict[str, Any]:
    """The exact and decimal blocks of a payload that reports one value."""
    return {"exact": {"value": quad_to_json(x)}, "decimal": _decimal(digits, value=x)}


def _audit_json(audit: ConeConstants) -> dict[str, Any]:
    return {"C": format_rat(audit.C), "sigma": quad_to_json(audit.sigma),
            "T": quad_to_json(audit.T), "theta_kahler": audit.theta_kahler,
            "binding_facet_sigma": audit.binding_facet_sigma,
            "binding_facet_T": audit.binding_facet_T}


def _cmd_gamma(lattice, cone, theta, omega, digits) -> dict[str, Any]:
    res = surface_gamma(lattice, cone, theta, omega)
    return {**_value(res.value, digits), "status": res.status.value,
            "audit": _audit_json(res.audit), "caveats": []}


def _cmd_seshadri(lattice, cone, theta, omega, digits) -> dict[str, Any]:
    value, facet = seshadri_T(lattice, cone, theta, omega)
    return {**_value(value, digits), "binding_facet": facet, "caveats": []}


def _cmd_sigma(lattice, cone, theta, omega, digits) -> dict[str, Any]:
    value, facet = sigma_inf(lattice, cone, theta, omega)
    return {**_value(value, digits), "binding_facet": facet, "caveats": []}


def _cmd_solvable(lattice, cone, theta, omega, digits) -> dict[str, Any]:
    return {"solvable": is_solvable(lattice, cone, theta, omega), "caveats": []}


_PATH_COLUMNS = ("t", "R_numerator", "gamma_value", "solvable", "decimal_approx")


def _ratio(p: int, q: int) -> str:
    """format_rat of p/q for q > 0, by one gcd and no Fraction."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _cmd_path(lattice, cone, theta, a, samples, digits) -> dict[str, Any]:
    analysis = path_R(lattice, cone, theta, a)
    scale, gammas = _path_rows(analysis, samples)
    rows = []
    for k, num, gp, gq in gammas:
        g = gcd(gp, gq)  # one gcd for gamma's text and decimal; _display_digits checked digits
        gp, gq = gp // g, gq // g
        rows.append({"t": _ratio(k, samples), "R_numerator": _ratio(num, scale),
                     "gamma_value": f"{gp}/{gq}" if gq > 1 else str(gp), "solvable": num > 0,
                     "decimal_approx": _decimal_ratio(gp, gq, digits)})
    lo = analysis.solvable_from
    return {
        "samples": samples,
        "numerator_coeffs": [format_rat(c) for c in analysis.numerator],
        "a_selfint": format_rat(analysis.a_selfint),
        "theta_selfint": format_rat(analysis.theta_selfint),
        "solvable_set": [] if lo is None else [
            {"lo": quad_to_json(lo), "hi": "1", "hi_closed": True}],
        "rows": rows,
        "decimal_digits": digits,
        "caveats": [],
    }


def _path_csv(payload: dict[str, Any]) -> str:
    """The sweep's rows as CSV, solvable as 0/1; no field can hold a comma, quote or newline."""
    return "".join([",".join(_PATH_COLUMNS) + "\n"] + [
        f"{t},{r},{value},{int(solvable)},{approx}\n"
        for t, r, value, solvable, approx in map(itemgetter(*_PATH_COLUMNS), payload["rows"])])


def _cmd_stable_cone(lattice, cone, theta, a, digits) -> dict[str, Any]:
    res = stable_subcone(lattice, cone, theta, a)
    if isinstance(res, PerfectCone):
        return {"caveats": [], "perfect": True, "note": res.note}
    ray = [quad_to_json(c) for c in res.boundary_ray]
    return {"caveats": [], "perfect": False,
            "exact": {"boundary_t": format_rat(res.boundary_t),
                      "normalization": quad_to_json(res.normalization), "boundary_ray": ray},
            "decimal": _decimal(digits, normalization=res.normalization)}


def _cmd_toric_gamma(fan, theta, omega, digits) -> dict[str, Any]:
    rows, best, c, t, curve = _gamma_rows(fan, theta, omega)
    minimizer, _, top, _, _, _, val_den = rows[best]
    value = Fraction(top, val_den)  # the one Fraction of a score, for Status.of
    return {**_value(QuadNum(value), digits), "status": Status.of(value, t).value,
            "minimizer": list(minimizer),
            "audit": {"C": format_rat(c), "T": None if t is None else format_rat(t),
                      "binding_curve": None if curve is None else list(curve),
                      "orbits": len(rows)},
            "scores": [{"cone": list(tau), "p": p, "numerator": _ratio(top, num_den),
                        "denominator": _ratio(sv, scale), "value": _ratio(top, val_den)}
                       for tau, p, top, num_den, sv, scale, val_den in rows],
            "caveats": [AUTOMORPHISM_CAVEAT]}


def _cmd_csck(lattice, cone, minus_c1, omega, alpha, digits) -> dict[str, Any]:
    report = csck_criterion(lattice, cone, minus_c1, omega, alpha)
    return {"alpha": format_rat(alpha), "holds": report.holds,
            "exact": {"lhs": quad_to_json(report.lhs), "rhs": format_rat(report.rhs)},
            "decimal": _decimal(digits, lhs=report.lhs), "caveats": [report.caveat]}


def _cmd_validate(doc: InputDocument, digits: int) -> dict[str, Any]:
    # parse_document already validated everything; report what was checked
    payload: dict[str, Any] = {"ok": True}
    if doc.lattice is not None:  # validated to have signature (1, rank - 1)
        payload["lattice"] = {"rank": doc.lattice.rank, "signature": [1, doc.lattice.rank - 1]}
    if doc.cone is not None:
        payload["cone"] = {"facets": len(doc.cone.facets),
                           "light_cone": doc.cone.light_cone is not None}
    if doc.fan is not None:
        payload["fan"] = {"dim": doc.fan.dim, "rays": len(doc.fan.rays),
                          "max_cones": len(doc.fan.max_cones),
                          "orbits": count_orbits(doc.fan)}
    payload["classes"] = sorted(doc.classes)
    payload["toric_classes"] = sorted(doc.toric_classes)
    return payload


def _cmd_catalog(args: argparse.Namespace, digits: int) -> dict[str, Any]:
    params = {key: value for _, required, optional in catalog_mod._BUILDERS.values()
              for key in required + optional if (value := getattr(args, key)) is not None}
    entry = catalog_mod.build(args.name, params)
    if args.t is not None and args.name != "ross":
        raise BadParams(f"unexpected parameters ['t'] for {args.name}")
    t = rat(args.t) if args.t is not None else None
    classes = dict(entry.classes)
    if t is not None:
        classes["L_t"] = catalog_mod.ross_polarization(t)
    if args.export:
        return document_to_json(replace(entry, classes=classes))
    payload: dict[str, Any] = {
        "command": "catalog", "name": entry.name,
        "params": {k: format_rat(v) for k, v in sorted(entry.params.items())},
        "lattice": {"rank": entry.lattice.rank, "labels": list(entry.lattice.labels)},
        "cone": {"facets": list(entry.cone.facet_labels),
                 "light_cone": entry.cone.light_cone is not None},
        "classes": sorted(entry.classes), "caveats": list(entry.notes)}
    if entry.fan is not None:
        payload["fan"] = {"rays": len(entry.fan.rays), "max_cones": len(entry.fan.max_cones)}
    if t is not None:
        gamma = _cmd_gamma(entry.lattice, entry.cone, classes["K"], classes["L_t"], digits)
        closed = catalog_mod.ross_gamma_closed_form(entry.params["g"], entry.params["s_C"], t)
        gamma["exact"]["closed_form"] = format_rat(closed)
        payload["t"] = format_rat(t)  # before the merge: text lists keys in this order
        payload.update(gamma, caveats=payload["caveats"])
    return payload


# Every command that reads a document, declared once: the argv grammar, the
# document checks and the label lookup are all read from this table.
DOC_COMMANDS: dict[str, _DocCommand] = {
    "gamma": _DocCommand(_cmd_gamma, _SURFACE, ("theta", "omega")),
    "seshadri": _DocCommand(_cmd_seshadri, _SURFACE, ("theta", "omega")),
    "sigma": _DocCommand(_cmd_sigma, _SURFACE, ("theta", "omega")),
    "solvable": _DocCommand(_cmd_solvable, _SURFACE, ("theta", "omega")),
    "path": _DocCommand(_cmd_path, _SURFACE, ("theta", "a"), {
        "samples": _Option("grid size N; rows at t=k/N", _samples, default=100)}),
    "stable-cone": _DocCommand(_cmd_stable_cone, _SURFACE, ("theta", "a")),
    "toric-gamma": _DocCommand(_cmd_toric_gamma, _FAN, ("theta", "omega")),
    "csck": _DocCommand(_cmd_csck, _SURFACE, ("minus_c1", "omega"), {
        "alpha": _Option("integrability exponent (exact rational)", rat)}),
    "validate": _DocCommand(_cmd_validate, None),
}
_FORMATS = ("text", "json", "csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argv grammar, built on first use and shared by every later run."""
    parser = _Parser(prog="jthresh", description=__doc__.rsplit("\n\n", 1)[0])  # not the routes
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in DOC_COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("doc", nargs="?", default=None,
                       help="input document path ('-' or absent: stdin)")
        for label in command.labels:
            p.add_argument(_flag(label), default=None, help=_LABEL_HELP[label])
        for option, spec in command.options.items():
            p.add_argument(_flag(option), default=None, help=spec.help)
        p.add_argument("--format", default="text", choices=_FORMATS)
    cat = sub.add_parser("catalog")
    cat.add_argument("name", help=" | ".join(catalog_mod._BUILDERS))
    families: dict[str, list[str]] = {}  # each family's parameter: its flag drops '_'
    for name, (_, required, optional) in catalog_mod._BUILDERS.items():
        for key in required + optional:
            families.setdefault(key, []).append(name)
    for key, names in families.items():
        cat.add_argument("--" + key.replace("_", ""), dest=key, default=None,
                         help="parameter of " + ", ".join(names))
    cat.add_argument("--t", default=None, help="evaluate ross at polarization L_t")
    cat.add_argument("--export", action="store_true",
                     help="print the entry as an input document (always JSON)")
    cat.add_argument("--format", default="text", choices=_FORMATS)
    return parser


@functools.cache
def _plain_flags() -> dict[str, dict[str, str]]:
    """Each document command's full flags, named as _build_parser names them, to fields."""
    return {name: {_flag(key): key for key in (*command.labels, *command.options, "format")}
            for name, command in DOC_COMMANDS.items()}


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """argparse's Namespace for a plain argv: a document command, maybe a document path
    that is '-' or does not start with '-', then distinct full '--flag value' pairs with
    no value starting with '-' and a known format.  None leaves argv to argparse."""
    flags = _plain_flags().get(argv[0] if argv else None)
    if flags is None:
        return None
    doc, pairs = (argv[1], argv[2:]) if len(argv) % 2 == 0 else (None, argv[1:])
    given = dict(zip(pairs[::2], pairs[1::2]))
    if (2 * len(given) < len(pairs) or not given.keys() <= flags.keys()
            or given.setdefault("--format", "text") not in _FORMATS
            or doc is not None and doc[:1] == "-" != doc
            or any(value[:1] == "-" for value in given.values())):
        return None
    return argparse.Namespace(command=argv[0], doc=doc,
                              **{name: given.get(flag) for flag, name in flags.items()})


def _resolve(command: _DocCommand, args: argparse.Namespace, doc: InputDocument,
             digits: int) -> dict[str, Any]:
    """Check a command's inputs in one order (document part, each label given, each
    other option parsed, each label known), then run its handler and head its payload."""
    part = command.part
    if part is None:
        inputs: dict[str, Any] = {"doc": doc}
    else:
        inputs = {key: getattr(doc, key) for key in part.fields}
        if any(value is None for value in inputs.values()):
            raise BadDocument(part.missing)
    labels = {key: str(_option(args, doc, key)) for key in command.labels}
    for key, option in command.options.items():
        inputs[key] = option.parse(_option(args, doc, key, option.default))
    for key, label in labels.items():
        known = getattr(doc, part.classes)
        if label not in known:
            raise BadDocument(f"{part.unknown} {label!r}")
        inputs[key] = known[label]
    return {"command": args.command, **labels, **command.handler(**inputs, digits=digits)}


# --- entry points ------------------------------------------------------------


def _dispatch(args: argparse.Namespace, stdin_bytes: bytes,
              stdin_reader: Callable[[], bytes] | None) -> str:
    digits = _display_digits()
    if args.format == "csv" and args.command != "path":
        raise BadParams("csv output is only defined for the 'path' command")
    command = DOC_COMMANDS.get(args.command)
    if command is None:  # catalog
        return _render(_cmd_catalog(args, digits), "json" if args.export else args.format)
    doc = _load_document(args, stdin_bytes, stdin_reader)
    payload = _resolve(command, args, doc, digits)
    return _path_csv(payload) if args.format == "csv" else _render(payload, args.format)


def run(argv: list[str], stdin_bytes: bytes = b"",
        stdin_reader: Callable[[], bytes] | None = None) -> tuple[int, bytes]:
    """Execute one CLI invocation; returns (exit_code, stdout bytes)."""
    try:
        args = _plain_args(argv) or _build_parser().parse_args(argv)
        return 0, _dispatch(args, stdin_bytes, stdin_reader).encode()
    except _HelpRequested as exc:  # -h/--help: exit 0 with the help text
        return 0, str(exc).encode()
    except JThreshError as exc:
        message = f"{exc.code}: {exc}".replace("\n", " ")
        return 2, (message + "\n").encode()
    except Exception as exc:  # pragma: no cover - defensive
        return 1, f"InternalError: {type(exc).__name__}: {exc}\n".encode()


def main(argv: list[str] | None = None) -> None:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    reader = None if sys.stdin.isatty() else sys.stdin.buffer.read
    code, out = run(argv, stdin_reader=reader)
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()

"""Command-line interface.

One JSON document in (file argument or stdin), one deterministic rendering
out.  Exit codes: 0 on success (unstable/indeterminate results included),
2 on invalid input with a single diagnostic line naming the failed
validation, 1 on internal errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Any, Callable, NoReturn

from . import catalog as catalog_mod
from .cones import ConeConstants, NefConeModel, seshadri_T, sigma_inf
from .documents import (InputDocument, document_to_json, parse_document,
                        quad_to_json)
from .errors import BadDocument, BadParams, JThreshError
from .exactnum import MAX_DECIMAL_DIGITS, QuadNum, decimal_str, format_rat, rat
from .lattice import DivClass, IntersectionLattice
from .surface import (PerfectCone, csck_criterion, is_solvable, path_R,
                      sample_path, stable_subcone, surface_gamma)
from .toric import Fan, enumerate_orbits, toric_gamma

DEFAULT_DIGITS = 12


def _display_digits() -> int:
    raw = os.environ.get("JTHRESH_DECIMAL_DIGITS")
    if raw is None:
        return DEFAULT_DIGITS
    try:
        digits = int(raw)
    except ValueError:
        raise BadParams(f"JTHRESH_DECIMAL_DIGITS = {raw!r} is not an integer") from None
    if digits < 1:
        raise BadParams("JTHRESH_DECIMAL_DIGITS must be >= 1")
    if digits > MAX_DECIMAL_DIGITS:
        raise BadParams(f"JTHRESH_DECIMAL_DIGITS must be <= {MAX_DECIMAL_DIGITS}, got {digits}")
    return digits


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argv grammar, built on first use and shared by every later run."""
    parser = _Parser(prog="jthresh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def doc_command(name: str, **flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("doc", nargs="?", default=None,
                       help="input document path ('-' or absent: stdin)")
        for flag, help_text in flags.items():
            p.add_argument(f"--{flag}", default=None, help=help_text)
        p.add_argument("--format", default="text", choices=["text", "json", "csv"])
        return p

    doc_command("gamma", theta="twist class label", omega="polarization label")
    doc_command("seshadri", theta="twist class label", omega="polarization label")
    doc_command("sigma", theta="twist class label", omega="polarization label")
    doc_command("solvable", theta="twist class label", omega="polarization label")
    path_p = doc_command("path", theta="twist class label", a="boundary class label")
    path_p.add_argument("--samples", default=None, help="grid size N; rows at t=k/N")
    doc_command("stable-cone", theta="twist class label", a="boundary class label")
    doc_command("toric-gamma", theta="twist class label", omega="polarization label")
    csck_p = doc_command("csck", omega="polarization label",
                         alpha="integrability exponent (exact rational)")
    csck_p.add_argument("--minus-c1", dest="minus_c1", default=None,
                        help="label of the minus-first-Chern class")
    doc_command("validate")

    cat = sub.add_parser("catalog")
    cat.add_argument("name", help="ross | hirzebruch | perfect_lightcone | blowup_path")
    cat.add_argument("--g", default=None, help="genus (ross)")
    cat.add_argument("--sC", default=None, help="ample threshold s_C (ross)")
    cat.add_argument("--t", default=None, help="evaluate ross at polarization L_t")
    cat.add_argument("--a", default=None,
                     help="negative-section self-intersection parameter (hirzebruch)")
    cat.add_argument("--rank", default=None, help="lattice rank (perfect_lightcone)")
    cat.add_argument("--export", action="store_true",
                     help="print the entry as an input document (always JSON)")
    cat.add_argument("--format", default="text", choices=["text", "json", "csv"])
    return parser


# --- rendering ------------------------------------------------------------


def _render_json(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _text_lines(value: Any, prefix: str) -> list[str]:
    if isinstance(value, dict):
        lines: list[str] = []
        for key, sub in value.items():
            lines.extend(_text_lines(sub, f"{prefix}.{key}" if prefix else str(key)))
        return lines
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{prefix}: {json.dumps(value)}"]
        lines = []
        for i, item in enumerate(value):
            lines.extend(_text_lines(item, f"{prefix}.{i}"))
        return lines
    if isinstance(value, bool):
        return [f"{prefix}: {'true' if value else 'false'}"]
    if value is None:
        return [f"{prefix}: null"]
    return [f"{prefix}: {value}"]


def _render(payload: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return _render_json(payload)
    return "\n".join(_text_lines(payload, "")) + "\n"


# --- document / option plumbing --------------------------------------------


def _load_document(args: argparse.Namespace, stdin_bytes: bytes,
                   stdin_reader: Callable[[], bytes] | None) -> InputDocument:
    path = getattr(args, "doc", None)
    if path in (None, "-"):
        data = stdin_bytes
        if not data and stdin_reader is not None:
            data = stdin_reader()
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


def _option(args: argparse.Namespace, doc: InputDocument, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        value = doc.query.get(name)
    if value is None:
        raise BadParams(f"missing required option --{name.replace('_', '-')}")
    return str(value)


def _surface_inputs(doc: InputDocument) -> tuple[IntersectionLattice, NefConeModel]:
    if doc.lattice is None or doc.cone is None:
        raise BadDocument("this command needs a document with lattice and cone")
    return doc.lattice, doc.cone


def _lattice_class(doc: InputDocument, label: str) -> DivClass:
    if label not in doc.classes:
        raise BadDocument(f"unknown class label {label!r}")
    return doc.classes[label]


def _toric_inputs(doc: InputDocument) -> Fan:
    if doc.fan is None:
        raise BadDocument("this command needs a document with a fan")
    return doc.fan


def _toric_class(doc: InputDocument, label: str) -> DivClass:
    if label not in doc.toric_classes:
        raise BadDocument(f"unknown toric class label {label!r}")
    return doc.toric_classes[label]


# --- command handlers -------------------------------------------------------


def _audit_json(audit: ConeConstants) -> dict[str, Any]:
    return {
        "C": format_rat(audit.C),
        "sigma": quad_to_json(audit.sigma),
        "T": quad_to_json(audit.T),
        "theta_kahler": audit.theta_kahler,
        "binding_facet_sigma": audit.binding_facet_sigma,
        "binding_facet_T": audit.binding_facet_T,
    }


def _cmd_gamma(doc: InputDocument, args: argparse.Namespace, digits: int) -> dict[str, Any]:
    lattice, cone = _surface_inputs(doc)
    theta_label = _option(args, doc, "theta")
    omega_label = _option(args, doc, "omega")
    res = surface_gamma(lattice, cone, _lattice_class(doc, theta_label),
                        _lattice_class(doc, omega_label))
    return {
        "command": "gamma",
        "theta": theta_label,
        "omega": omega_label,
        "exact": {"value": quad_to_json(res.value)},
        "decimal": {"value": decimal_str(res.value, digits), "digits": digits},
        "status": res.status.value,
        "audit": _audit_json(res.audit),
        "caveats": [],
    }


def _cmd_cone_constant(doc: InputDocument, args: argparse.Namespace,
                       digits: int) -> dict[str, Any]:
    """`seshadri` prints T and `sigma` prints sigma, each with its binding facet."""
    lattice, cone = _surface_inputs(doc)
    theta_label = _option(args, doc, "theta")
    omega_label = _option(args, doc, "omega")
    project = {"seshadri": seshadri_T, "sigma": sigma_inf}[args.command]
    value, facet = project(lattice, cone, _lattice_class(doc, theta_label),
                           _lattice_class(doc, omega_label))
    return {
        "command": args.command,
        "theta": theta_label,
        "omega": omega_label,
        "exact": {"value": quad_to_json(value)},
        "decimal": {"value": decimal_str(value, digits), "digits": digits},
        "binding_facet": facet,
        "caveats": [],
    }


def _cmd_solvable(doc: InputDocument, args: argparse.Namespace, digits: int) -> dict[str, Any]:
    lattice, cone = _surface_inputs(doc)
    theta_label = _option(args, doc, "theta")
    omega_label = _option(args, doc, "omega")
    ok = is_solvable(lattice, cone, _lattice_class(doc, theta_label),
                     _lattice_class(doc, omega_label))
    return {"command": "solvable", "theta": theta_label, "omega": omega_label,
            "solvable": ok, "caveats": []}


def _scalar_json(x) -> Any:
    if isinstance(x, QuadNum):
        return quad_to_json(x)
    return format_rat(Fraction(x))


def _interval_json(interval) -> dict[str, Any]:
    return {"lo": quad_to_json(interval.lo), "hi": quad_to_json(interval.hi),
            "hi_closed": interval.hi_closed}


def _samples(args: argparse.Namespace, doc: InputDocument) -> int:
    """--samples, else the document's query.samples, else 100; a JSON bool is refused."""
    raw = getattr(args, "samples", None)
    if raw is None:
        raw = doc.query.get("samples")
    if raw is None:
        return 100
    if not isinstance(raw, bool):
        try:
            return int(str(raw))
        except ValueError:
            pass
    raise BadParams(f"--samples must be an integer, got {raw!r}")


def _cmd_path(doc: InputDocument, args: argparse.Namespace,
              digits: int) -> dict[str, Any] | str:
    """The sweep as a payload, or as finished CSV text under --format csv."""
    lattice, cone = _surface_inputs(doc)
    theta_label = _option(args, doc, "theta")
    a_label = _option(args, doc, "a")
    samples = _samples(args, doc)
    theta = _lattice_class(doc, theta_label)
    a = _lattice_class(doc, a_label)
    analysis = path_R(lattice, cone, theta, a)
    rows = sample_path(lattice, cone, theta, a, samples, analysis)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "R_numerator", "gamma_value", "solvable", "decimal_approx"])
        for row in rows:
            gv = quad_to_json(row.gamma)
            writer.writerow([
                format_rat(row.t),
                format_rat(row.r_numerator),
                gv if isinstance(gv, str) else json.dumps(gv, sort_keys=True),
                1 if row.solvable else 0,
                decimal_str(row.gamma, digits),
            ])
        return buf.getvalue()
    payload = {
        "command": "path",
        "theta": theta_label,
        "a": a_label,
        "samples": samples,
        "numerator_coeffs": [format_rat(c) for c in analysis.numerator.coeffs],
        "a_selfint": format_rat(analysis.a_selfint),
        "theta_selfint": format_rat(analysis.theta_selfint),
        "solvable_set": [_interval_json(iv) for iv in analysis.solvable_set],
        "rows": [{
            "t": format_rat(row.t),
            "R_numerator": format_rat(row.r_numerator),
            "gamma_value": quad_to_json(row.gamma),
            "solvable": row.solvable,
            "decimal_approx": decimal_str(row.gamma, digits),
        } for row in rows],
        "decimal_digits": digits,
        "caveats": [],
    }
    return payload


def _cmd_stable_cone(doc: InputDocument, args: argparse.Namespace,
                     digits: int) -> dict[str, Any]:
    lattice, cone = _surface_inputs(doc)
    theta_label = _option(args, doc, "theta")
    a_label = _option(args, doc, "a")
    res = stable_subcone(lattice, cone, _lattice_class(doc, theta_label),
                         _lattice_class(doc, a_label))
    payload: dict[str, Any] = {"command": "stable-cone", "theta": theta_label,
                               "a": a_label, "caveats": []}
    if isinstance(res, PerfectCone):
        payload["perfect"] = True
        payload["note"] = res.note
        return payload
    payload["perfect"] = False
    payload["exact"] = {
        "boundary_t": format_rat(res.boundary_t),
        "normalization": quad_to_json(res.normalization),
        "boundary_ray": [_scalar_json(c) for c in res.boundary_ray.coords],
    }
    payload["decimal"] = {"normalization": decimal_str(res.normalization, digits),
                          "digits": digits}
    return payload


def _cmd_toric_gamma(doc: InputDocument, args: argparse.Namespace,
                     digits: int) -> dict[str, Any]:
    fan = _toric_inputs(doc)
    theta_label = _option(args, doc, "theta")
    omega_label = _option(args, doc, "omega")
    res = toric_gamma(fan, _toric_class(doc, theta_label),
                      _toric_class(doc, omega_label))
    return {
        "command": "toric-gamma",
        "theta": theta_label,
        "omega": omega_label,
        "exact": {"value": format_rat(res.value)},
        "decimal": {"value": decimal_str(res.value, digits), "digits": digits},
        "status": res.status.value,
        "minimizer": list(res.minimizer),
        "audit": {
            "C": format_rat(res.C),
            "T": None if res.T is None else format_rat(res.T),
            "orbits": len(res.scores),
        },
        "scores": [{
            "cone": list(s.cone),
            "p": s.p,
            "numerator": format_rat(s.numerator),
            "denominator": format_rat(s.denominator),
            "value": format_rat(s.value),
        } for s in res.scores],
        "caveats": [res.caveat],
    }


def _cmd_csck(doc: InputDocument, args: argparse.Namespace, digits: int) -> dict[str, Any]:
    lattice, cone = _surface_inputs(doc)
    mc1_label = _option(args, doc, "minus_c1")
    omega_label = _option(args, doc, "omega")
    alpha = rat(_option(args, doc, "alpha"))
    report = csck_criterion(lattice, cone, _lattice_class(doc, mc1_label),
                            _lattice_class(doc, omega_label), alpha)
    return {
        "command": "csck",
        "minus_c1": mc1_label,
        "omega": omega_label,
        "alpha": format_rat(alpha),
        "holds": report.holds,
        "exact": {"lhs": quad_to_json(report.lhs), "rhs": format_rat(report.rhs)},
        "decimal": {"lhs": decimal_str(report.lhs, digits), "digits": digits},
        "caveats": [report.caveat],
    }


def _cmd_validate(doc: InputDocument, args: argparse.Namespace,
                  digits: int) -> dict[str, Any]:
    # parse_document already validated everything; report what was checked
    payload: dict[str, Any] = {"command": "validate", "ok": True}
    if doc.lattice is not None:
        pos, neg, zero = doc.lattice.signature()
        payload["lattice"] = {"rank": doc.lattice.rank, "signature": [pos, neg]}
    if doc.cone is not None:
        payload["cone"] = {"facets": len(doc.cone.facets),
                           "light_cone": doc.cone.light_cone is not None}
    if doc.fan is not None:
        payload["fan"] = {"dim": doc.fan.dim, "rays": len(doc.fan.rays),
                          "max_cones": len(doc.fan.max_cones),
                          "orbits": len(enumerate_orbits(doc.fan))}
    payload["classes"] = sorted(doc.classes)
    payload["toric_classes"] = sorted(doc.toric_classes)
    return payload


def _entry_document(entry: catalog_mod.CatalogEntry,
                    extra_classes: dict[str, DivClass] | None = None) -> dict[str, Any]:
    doc = InputDocument(lattice=entry.lattice, cone=entry.cone, fan=entry.fan,
                        classes={**entry.named_classes, **(extra_classes or {})},
                        toric_classes=dict(entry.named_toric_classes or {}))
    return document_to_json(doc)


def _cmd_catalog(args: argparse.Namespace, digits: int) -> dict[str, Any]:
    params: dict[str, str] = {}
    for flag, key in (("g", "g"), ("sC", "s_C"), ("a", "a"), ("rank", "rank")):
        value = getattr(args, flag, None)
        if value is not None:
            params[key] = value
    entry = catalog_mod.build(args.name, params)
    extra: dict[str, DivClass] = {}
    if args.name == "ross" and args.t is not None:
        extra["L_t"] = catalog_mod.ross_polarization(args.t)
    if args.export:
        return _entry_document(entry, extra)
    payload: dict[str, Any] = {
        "command": "catalog",
        "name": entry.name,
        "params": {k: format_rat(v) for k, v in sorted(entry.params.items())},
        "lattice": {"rank": entry.lattice.rank, "labels": list(entry.lattice.labels)},
        "cone": {"facets": list(entry.cone.facet_labels),
                 "light_cone": entry.cone.light_cone is not None},
        "classes": sorted(entry.named_classes),
        "caveats": list(entry.notes),
    }
    if entry.fan is not None:
        payload["fan"] = {"rays": len(entry.fan.rays),
                          "max_cones": len(entry.fan.max_cones)}
    if args.name == "ross" and args.t is not None:
        t = rat(args.t)
        theta = entry.named_classes["K"]
        omega = extra["L_t"]
        res = surface_gamma(entry.lattice, entry.cone, theta, omega)
        closed = catalog_mod.ross_gamma_closed_form(args.g, args.sC, t)
        payload["t"] = format_rat(t)
        payload["exact"] = {"value": quad_to_json(res.value),
                            "closed_form": format_rat(closed)}
        payload["decimal"] = {"value": decimal_str(res.value, digits), "digits": digits}
        payload["status"] = res.status.value
        payload["audit"] = _audit_json(res.audit)
    return payload


# Commands that read a document.  A handler returns the payload to render,
# or finished text when its format has no payload form (path's CSV).
DOC_COMMANDS: dict[str, Callable[[InputDocument, argparse.Namespace, int],
                                 dict[str, Any] | str]] = {
    "gamma": _cmd_gamma,
    "seshadri": _cmd_cone_constant,
    "sigma": _cmd_cone_constant,
    "solvable": _cmd_solvable,
    "path": _cmd_path,
    "stable-cone": _cmd_stable_cone,
    "toric-gamma": _cmd_toric_gamma,
    "csck": _cmd_csck,
    "validate": _cmd_validate,
}


# --- entry points ------------------------------------------------------------


def _dispatch(args: argparse.Namespace, stdin_bytes: bytes,
              stdin_reader: Callable[[], bytes] | None) -> str:
    digits = _display_digits()
    fmt = getattr(args, "format", "text")
    if fmt == "csv" and args.command != "path":
        raise BadParams("csv output is only defined for the 'path' command")
    if args.command == "catalog":
        return _render(_cmd_catalog(args, digits), "json" if args.export else fmt)
    doc = _load_document(args, stdin_bytes, stdin_reader)
    out = DOC_COMMANDS[args.command](doc, args, digits)
    return out if isinstance(out, str) else _render(out, fmt)


def run(argv: list[str], stdin_bytes: bytes = b"",
        stdin_reader: Callable[[], bytes] | None = None) -> tuple[int, bytes]:
    """Execute one CLI invocation; returns (exit_code, stdout bytes)."""
    try:
        args = _build_parser().parse_args(argv)
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
    reader = None
    if not sys.stdin.isatty():
        reader = sys.stdin.buffer.read
    code, out = run(argv, stdin_reader=reader)
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()

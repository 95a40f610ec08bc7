"""Output checker for the jthresh benchmark; it does not trust the engine.

Two kinds of checks run on every query:

* closed forms computed here from the query's own document and argv:
  the ross threshold, the path numerator ``(theta^2-a^2)t^2 + 2a^2 t - a^2``
  of every row, the toric constant C on P^n and (P^1)^n and the orbit counts
  of those fans, and "exit 2 with one diagnostic line" for malformed input;
* every other field recorded in ``expected.json``, compared field by field:
  a field the engine adds is ignored, a recorded field that is missing or
  differs is an error.  Long values are compared through a digest of the
  field alone, so an added sibling field never changes it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import Query, pair

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
# payload keys that echo a class label; query_mix draws labels per query
LABEL_KEYS = frozenset({"theta", "omega", "a", "minus_c1", "classes", "toric_classes"})
INLINE_LIMIT = 80
MEMO_LIMIT = 1024  # remembered verdicts; keeps the process's heap flat


@dataclass
class Verdict:
    failed: bool = False
    errors: list[str] = field(default_factory=list)  # wrong results


def _canon(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    if len(text) <= INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def _flatten(value, path: str, out: dict[str, str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        keys = sorted({k for item in value for k in item})
        out[f"{path}[]#"] = str(len(value))
        for key in keys:  # one column per row field
            out[f"{path}[].{key}"] = _canon([item.get(key) for item in value])
    else:
        out[path] = _canon(value)


def fields(query: Query, out: bytes) -> dict[str, str]:
    """The comparable fields of a successful output."""
    flat: dict[str, str] = {}
    if "csv" in query.argv:
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        _flatten({"csv": rows}, "", flat)
        return flat
    payload = json.loads(out)
    if query.labels and isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k not in LABEL_KEYS}
    _flatten(payload, "", flat)
    return flat


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["cases"]


def _argv_value(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _ross_closed_form(g: int, s: Fraction, t: Fraction) -> Fraction:
    k = 2 * g - 2
    return 2 * t * k / (t * t - g) - Fraction(k) / (t - s)


def _closed_forms(query: Query, payload, rows, errors: list[str]) -> None:
    labels = dict(query.labels)
    if query.kind == "ross":
        argv = query.argv
        g, s, t = (int(_argv_value(argv, "--g")), Fraction(_argv_value(argv, "--sC")),
                   Fraction(_argv_value(argv, "--t")))
        want = _ross_closed_form(g, s, t)
        got = payload.get("exact", {}).get("value")
        if got != _fmt(want):
            errors.append(f"ross exact.value {got!r} != closed form {_fmt(want)}")
    elif query.kind == "path":
        doc = json.loads(query.stdin)
        matrix = [[Fraction(x) for x in row] for row in doc["lattice"]["matrix"]]
        theta = [Fraction(x) for x in doc["classes"][labels["theta"]]]
        a = [Fraction(x) for x in doc["classes"][labels["a"]]]
        t2, a2 = pair(matrix, theta, theta), pair(matrix, a, a)
        samples = int(_argv_value(query.argv, "--samples"))
        if len(rows) != samples:
            errors.append(f"path has {len(rows)} rows, expected {samples}")
        for k, row in enumerate(rows, start=1):
            t = Fraction(row["t"])
            want = (t2 - a2) * t * t + 2 * a2 * t - a2
            if t != Fraction(k, samples) or Fraction(row["R_numerator"]) != want:
                errors.append(f"path row {k}: t={row['t']} R_numerator={row['R_numerator']}, "
                              f"closed form {_fmt(want)}")
                break
    elif query.kind == "toric":
        doc = json.loads(query.stdin)
        name = query.case.split("/")[-4]
        omega = [Fraction(x) for x in doc["toric_classes"][labels["omega"]]]
        theta = [Fraction(x) for x in doc["toric_classes"][labels["theta"]]]
        n = doc["fan"]["dim"]
        if name.startswith("P1x"):
            c = sum(((theta[2 * i] + theta[2 * i + 1]) / (omega[2 * i] + omega[2 * i + 1])
                     for i in range(n)), Fraction(0))
        elif name.startswith("P"):
            c = n * sum(theta) / sum(omega)
        else:
            return
        audit = payload.get("audit", {})
        if audit.get("C") != _fmt(c):
            errors.append(f"toric audit.C {audit.get('C')!r} != closed form {_fmt(c)}")
        if audit.get("orbits") != _orbit_count(name):
            errors.append(f"toric audit.orbits {audit.get('orbits')!r} != {_orbit_count(name)}")
    elif query.case.startswith("qm/validate_fan/"):
        name = query.case.split("/")[2]
        want = _orbit_count(name)
        if want is not None and payload.get("fan", {}).get("orbits") != want:
            errors.append(f"validate fan.orbits {payload.get('fan')!r} != {want}")


def _orbit_count(name: str) -> int | None:
    """Cones of positive dimension: 3^n - 1 on (P^1)^n, 2^(n+1) - 2 on P^n."""
    if name.startswith("P1x"):
        return 3 ** int(name[3:]) - 1
    if name.startswith("P"):
        return 2 ** (int(name[1:]) + 1) - 2
    return None


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Checker:
    """Judges outputs; remembers verdicts of outputs it has already seen."""

    def __init__(self, expected: dict | None = None):
        self.expected = load_expected() if expected is None else expected
        self._seen: dict[tuple, Verdict] = {}

    def check(self, query: Query, code: int, out: bytes) -> Verdict:
        key = (query.case, query.labels, code, hashlib.sha1(out).digest())
        verdict = self._seen.get(key)
        if verdict is None:
            verdict = self._judge(query, code, out)
            if len(self._seen) >= MEMO_LIMIT:  # query_mix never repeats a query
                self._seen.clear()
            self._seen[key] = verdict
        return verdict

    def _judge(self, query: Query, code: int, out: bytes) -> Verdict:
        if query.kind == "malformed":
            if code == 0:
                return Verdict(True, [f"{query.case}: malformed input accepted (exit 0)"])
            one_line = out.endswith(b"\n") and out.count(b"\n") == 1 and out.strip() != b""
            return Verdict(failed=not (code == 2 and one_line))
        if code != 0:
            return Verdict(True, [f"{query.case}: exit {code}: {out[:200]!r}"])
        errors: list[str] = []
        try:
            if "csv" in query.argv:
                payload, rows = {}, list(csv.DictReader(io.StringIO(out.decode())))
            else:
                payload = json.loads(out)
                rows = payload.get("rows", []) if isinstance(payload, dict) else []
            _closed_forms(query, payload, rows, errors)
            got = fields(query, out)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return Verdict(True, [f"{query.case}: unreadable output: {type(exc).__name__}: {exc}"])
        want = self.expected.get(query.case)
        if want is None:
            errors.append("no recorded fields for this case")
        else:
            for path, value in want["fields"].items():
                if got.get(path) != value:
                    errors.append(f"field {path}: {got.get(path)!r} != recorded {value!r}")
        errors = [f"{query.case}: {e}" for e in errors]
        return Verdict(bool(errors), errors)

"""Seeded input generator for the jthresh benchmark.

Every query the benchmark can issue is drawn from a finite universe of
*cases*.  A case fixes the mathematical content of one query (lattice or fan,
classes, options); the run seed only chooses which variant fills each slot of
a workload's pass and, on ``query_mix``, the class labels written into the
document.  A finite universe is what lets ``expected.json`` hold the exact
fields of every case, recorded once by ``record.py``.

Lattices are built in a diagonal model ``diag(1, -d_1, ..., -d_{r-1})`` with
linear facets ``E_1``, ``E_2`` and ``e_0 - e_1 - e_2`` plus a light-cone facet,
and are then written in a sheared basis ``b = P e`` (``P`` unit upper
triangular), so the document's matrix ``P^T D P`` is dense and non-diagonal.  Every class is
checked against the cone with the generator's own exact pairing before it is
emitted; nothing here imports jthresh.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator

VARIANTS = 8          # content variants per slot; the seed picks one per slot
WORKLOADS = ("surface_path", "toric_ladder", "query_mix")


@dataclass(frozen=True)
class Query:
    """One CLI invocation plus what the checker needs to judge its output.

    ``case`` names the content (labels excluded) and keys ``expected.json``;
    ``kind`` selects the closed-form checks; ``labels`` maps a role such as
    ``"theta"`` to the label used in this document.
    """

    case: str
    kind: str
    argv: tuple[str, ...]
    stdin: bytes = b""
    labels: tuple[tuple[str, str], ...] = ()


def fmt(x: Fraction | int) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _small_rat(rng: Random, lo: int, hi: int) -> Fraction:
    while True:
        x = Fraction(rng.randint(lo * 4, hi * 4), rng.choice((1, 2, 3, 4)) * 4)
        if lo <= x <= hi and x != 0:
            return x


# --- lattices ----------------------------------------------------------------


def pair(matrix, x, y) -> Fraction:
    return sum((matrix[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y))),
               Fraction(0))


@dataclass(frozen=True)
class LatticeCase:
    """A validated hyperbolic lattice with cone model and named classes."""

    rank: int
    matrix: tuple[tuple[Fraction, ...], ...]
    facets: tuple[tuple[Fraction, ...], ...]
    facet_labels: tuple[str, ...]
    reference: tuple[Fraction, ...]
    classes: dict  # role -> coords; roles: theta, a, omega, nu

    def document(self, labels: dict[str, str]) -> dict:
        return {
            "lattice": {"rank": self.rank,
                        "matrix": [[fmt(x) for x in row] for row in self.matrix]},
            "cone": {"facets": [[fmt(x) for x in f] for f in self.facets],
                     "facet_labels": list(self.facet_labels),
                     "light_cone": {"H": [fmt(x) for x in self.reference]}},
            "classes": {labels[role]: [fmt(x) for x in coords]
                        for role, coords in sorted(self.classes.items())},
        }

    def constraints(self, x) -> list[Fraction]:
        vals = [pair(self.matrix, f, x) for f in self.facets]
        return vals + [pair(self.matrix, x, x), pair(self.matrix, x, self.reference)]


@functools.lru_cache(maxsize=None)
def lattice_case(rank: int, k: int) -> LatticeCase:
    """Variant ``k`` of the rank-``rank`` lattice family, sheared and validated."""
    # the form and the shear are fixed per rank and only the classes vary with
    # k, so that every variant of a slot costs about the same
    shape = Random(f"lattice/{rank}")
    rng = Random(f"lattice/{rank}/{k}")
    d = [Fraction(1), Fraction(1)] + [Fraction(shape.choice((1, 2))) for _ in range(rank - 2)]
    diag = [d[0]] + [-x for x in d[1:]]

    def unit(i: int) -> list[Fraction]:
        return [Fraction(int(j == i)) for j in range(rank)]

    # few linear facets, so that the light-cone facet often binds T and sigma
    facets = [unit(i) for i in range(1, min(rank, 3))]
    labels = [f"E{i}" for i in range(1, min(rank, 3))]
    if rank >= 3:
        facets.append([Fraction(1), Fraction(-1), Fraction(-1)] + [Fraction(0)] * (rank - 3))
        labels.append("L12")
    reference = [Fraction(6)] + [Fraction(-1)] * (rank - 1)

    def dpair(x, y):
        return sum((diag[i] * x[i] * y[i] for i in range(rank)), Fraction(0))

    def diag_constraints(x):
        return [dpair(f, x) for f in facets] + [dpair(x, x), dpair(x, reference)]

    def draw(zero_first: bool, negative_first: bool, interior: bool):
        while True:
            ms = [Fraction(rng.randint(1, 4), 2) for _ in range(rank - 1)]
            if zero_first:
                ms[0] = Fraction(0)
            if negative_first:
                ms[0] = -ms[0]
            x = [Fraction(rng.randint(5, 8))] + [-m for m in ms]
            vals = diag_constraints(x)
            if interior and all(v > 0 for v in vals):
                return x
            if zero_first and all(v >= 0 for v in vals) and dpair(x, x) > 0:
                return x
            if negative_first and vals[0] < 0 and dpair(x, x) > 0:
                return x

    def draw_null():
        # second intersection of the quadric with a rational line through the
        # null vector n0 = e_0 + e_1 (d_1 = 1); rank 2 has only the ray of n0
        n0 = [Fraction(1), Fraction(-1)] + [Fraction(0)] * (rank - 2)
        if rank == 2:
            c = Fraction(rng.randint(1, 6), 2)
            return [c * v for v in n0]
        while True:
            w = [Fraction(rng.randint(3, 6))] + [Fraction(-rng.randint(0, 2)) for _ in range(rank - 1)]
            if dpair(w, w) == 0:
                continue
            s = -2 * dpair(n0, w) / dpair(w, w)
            x = [p + s * q for p, q in zip(n0, w)]
            if x[0] < 0:
                x = [-v for v in x]
            vals = diag_constraints(x)
            if all(v >= 0 for v in vals) and vals[-1] > 0:
                return x

    # even ranks take a boundary class on the light cone (a^2 = 0, irrational
    # rows), odd ranks one on the facet E1 (a^2 > 0)
    boundary = draw_null() if rank % 2 == 0 else draw(True, False, False)
    classes = {"theta": draw(False, False, True), "omega": draw(False, False, True),
               "a": boundary, "nu": draw(False, True, False)}

    # shear: new basis b_j = sum_i P[i][j] e_i, P unit upper triangular
    shear = [[Fraction(int(i == j)) if i >= j else Fraction(shape.choice((-1, 0, 1, 1)))
              for j in range(rank)] for i in range(rank)]
    matrix = tuple(tuple(sum((shear[m][i] * diag[m] * shear[m][j] for m in range(rank)),
                             Fraction(0)) for j in range(rank)) for i in range(rank))

    def to_new(x):  # solve P y = x by back substitution
        y = [Fraction(0)] * rank
        for i in reversed(range(rank)):
            y[i] = x[i] - sum((shear[i][j] * y[j] for j in range(i + 1, rank)), Fraction(0))
        return tuple(y)

    case = LatticeCase(rank=rank, matrix=matrix,
                       facets=tuple(to_new(f) for f in facets), facet_labels=tuple(labels),
                       reference=to_new(reference),
                       classes={role: to_new(x) for role, x in classes.items()})
    # the sheared data must describe the same cone: re-check every class there
    for role, x in classes.items():
        if case.constraints(case.classes[role]) != diag_constraints(x):
            raise AssertionError(f"shear changed the pairing of {role} in rank {rank}")
    return case


# --- fans --------------------------------------------------------------------


def projective_fan(n: int) -> dict:
    rays = [[int(j == i) for j in range(n)] for i in range(n)] + [[-1] * n]
    return {"dim": n, "rays": rays,
            "max_cones": [[i for i in range(n + 1) if i != k] for k in range(n + 1)]}


def p1_power_fan(n: int) -> dict:
    """(P^1)^n; rays 2i and 2i+1 are +e_i and -e_i."""
    rays = []
    for i in range(n):
        rays.append([int(j == i) for j in range(n)])
        rays.append([-int(j == i) for j in range(n)])
    return {"dim": n, "rays": rays,
            "max_cones": [[2 * i + s for i, s in enumerate(signs)]
                          for signs in itertools.product((0, 1), repeat=n)]}


def hirzebruch_fan(a: int) -> dict:
    return {"dim": 2, "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}


FANS = {
    **{f"P{n}": (lambda n=n: projective_fan(n)) for n in range(2, 9)},
    **{f"P1x{n}": (lambda n=n: p1_power_fan(n)) for n in range(2, 7)},
    **{f"F{a}": (lambda a=a: hirzebruch_fan(a)) for a in range(4)},
}


def surface_curve_degrees(fan: dict, coeffs: list[Fraction]) -> list[Fraction]:
    """D . D_i for each ray of a smooth complete toric surface (rays in cyclic order)."""
    rays = fan["rays"]
    m = len(rays)
    out = []
    for i in range(m):
        prev, nxt = rays[i - 1], rays[(i + 1) % m]
        s = [prev[0] + nxt[0], prev[1] + nxt[1]]
        b = s[0] // rays[i][0] if rays[i][0] else s[1] // rays[i][1]
        out.append(coeffs[i - 1] + coeffs[(i + 1) % m] - b * coeffs[i])
    return out


def is_ample(name: str, fan: dict, coeffs: list[Fraction]) -> bool:
    """Ampleness by closed forms: degree on P^n, factor degrees on (P^1)^n, curves on F_a."""
    if name.startswith("P1x"):
        return all(coeffs[2 * i] + coeffs[2 * i + 1] > 0 for i in range(fan["dim"]))
    if name.startswith("P"):
        return sum(coeffs) > 0
    return all(v > 0 for v in surface_curve_degrees(fan, coeffs))


def toric_classes(name: str, k: int, theta_ample: bool, sparse_omega: bool):
    """Variant ``k`` of (omega, theta) on fan ``name``; omega ample, theta as asked."""
    fan = FANS[name]()
    rng = Random(f"toric/{name}/{k}/{theta_ample}/{sparse_omega}")
    nrays = len(fan["rays"])
    while True:
        if sparse_omega:  # one ray per P^1 factor
            omega = [_small_rat(rng, 1, 3) if i % 2 == 0 else Fraction(0) for i in range(nrays)]
        else:
            omega = [_small_rat(rng, -2, 3) for _ in range(nrays)]
        theta = [_small_rat(rng, -3, 3) for _ in range(nrays)]
        if is_ample(name, fan, omega) and is_ample(name, fan, theta) == theta_ample:
            return fan, omega, theta


# --- labels ------------------------------------------------------------------

CANONICAL = {"theta": "theta", "omega": "omega", "a": "a", "nu": "nu"}


def fresh_labels(rng: Random | None) -> dict[str, str]:
    if rng is None:
        return dict(CANONICAL)
    return {role: f"{role[0]}{rng.getrandbits(40):010x}" for role in CANONICAL}


def _dump(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _labels(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


# --- surface_path ------------------------------------------------------------

ROSS_PARAMS = ((2, Fraction(3, 2)), (2, Fraction(2)), (3, Fraction(2)), (3, Fraction(5, 2)),
               (4, Fraction(2)), (4, Fraction(7, 3)), (5, Fraction(3)), (6, Fraction(5, 2)))

# (source, rank, format, samples).  Row cost grows with rank squared, so high
# ranks get the shorter sweeps; two 1000-row sweeps keep p90 inside one block
# of alike queries instead of on the edge between two.
SURFACE_SLOTS = (
    ("blowup", 2, "csv", 1000), ("blowup", 2, "json", 1000),
    ("ross", 2, "json", 300), ("ross", 2, "csv", 200),
    ("lattice", 2, "json", 300), ("lattice", 2, "csv", 100),
    ("lattice", 3, "csv", 100), ("lattice", 3, "json", 50),
    ("lattice", 4, "json", 100), ("lattice", 4, "csv", 50),
    ("lattice", 5, "csv", 50), ("lattice", 6, "json", 50),
    ("lattice", 7, "csv", 50), ("lattice", 8, "json", 50),
)


class Exports:
    """Catalog exports fetched through the CLI itself; the setup cost of surface_path."""

    def __init__(self, run):
        self._run = run
        self._cache: dict[tuple[str, ...], dict] = {}

    def get(self, *argv: str) -> dict:
        if argv not in self._cache:
            code, out = self._run(list(argv) + ["--export", "--format", "json"], b"")
            if code != 0:
                raise RuntimeError(f"catalog export {argv} failed: {out!r}")
            self._cache[argv] = json.loads(out)
        return self._cache[argv]


def surface_query(slot: tuple, k: int, exports: Exports) -> Query:
    source, rank, form, samples = slot
    tail = ("--samples", str(samples), "--format", form)
    if source == "blowup":
        doc = exports.get("catalog", "blowup_path")
        return Query(f"sp/blowup/{form}/{samples}", "path",
                     ("path", "--theta", "theta", "--a", "a") + tail, _dump(doc),
                     (("a", "a"), ("theta", "theta")))
    if source == "ross":
        g, s = ROSS_PARAMS[k]
        doc = exports.get("catalog", "ross", "--g", str(g), "--sC", fmt(s), "--t", fmt(s))
        return Query(f"sp/ross/{g}/{fmt(s)}/{form}/{samples}", "path",
                     ("path", "--theta", "K", "--a", "L_t") + tail, _dump(doc),
                     (("a", "L_t"), ("theta", "K")))
    doc = lattice_case(rank, k).document(CANONICAL)
    return Query(f"sp/lattice/{rank}/{k}/{form}/{samples}", "path",
                 ("path", "--theta", "theta", "--a", "a") + tail, _dump(doc),
                 _labels(CANONICAL))


# --- toric_ladder ------------------------------------------------------------

# (fan, theta ample?, sparse omega?); sizes stop at P^4 and (P^1)^4 because
# P^5 takes about ten seconds per query and (P^1)^5 minutes on the engine the
# benchmark was written against.  The eight small fans take 2-7 ms each, the
# six P^3 queries about 20 ms and the P^4 and (P^1)^4 ones 300-500 ms, so
# p50 falls inside the P^3 block and p90 inside the top block of three, not
# on the edge between unlike queries.
TORIC_SLOTS = (
    ("P2", True, False), ("P2", False, False),
    ("P3", True, False), ("P3", False, False), ("P3", True, False), ("P3", False, False),
    ("P3", True, False), ("P3", False, False),
    ("P4", True, False), ("P4", False, False),
    ("P1x2", True, False), ("P1x2", False, False),
    ("P1x3", True, False), ("P1x3", False, False),
    ("P1x4", True, True),
    ("F0", True, False), ("F1", False, False), ("F2", True, False), ("F3", False, False),
)


def toric_query(slot: tuple, k: int, labels: dict[str, str], prefix: str) -> Query:
    name, theta_ample, sparse = slot
    fan, omega, theta = toric_classes(name, k, theta_ample, sparse)
    doc = {"fan": fan, "toric_classes": {labels["omega"]: [fmt(x) for x in omega],
                                         labels["theta"]: [fmt(x) for x in theta]}}
    return Query(f"{prefix}/{name}/{k}/{int(theta_ample)}/{int(sparse)}", "toric",
                 ("toric-gamma", "--theta", labels["theta"], "--omega", labels["omega"],
                  "--format", "json"), _dump(doc), _labels(labels))


# --- query_mix ---------------------------------------------------------------

ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
          Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4))
ROSS_T = ((2, Fraction(2), Fraction(3)), (2, Fraction(3, 2), Fraction(5, 2)),
          (3, Fraction(2), Fraction(5, 2)), (3, Fraction(7, 4), Fraction(4)),
          (4, Fraction(2), Fraction(3)), (4, Fraction(5, 2), Fraction(7, 2)),
          (5, Fraction(3), Fraction(7, 2)), (6, Fraction(5, 2), Fraction(9, 2)))
EXPORTS = (("ross", "--g", "3", "--sC", "2"), ("hirzebruch", "--a", "2"),
           ("blowup_path",), ("perfect_lightcone", "--rank", "4"))

# Malformed inputs; each should end in exit 2 with one diagnostic line.
# The first seven reach exit 1 (InternalError) on the engine the benchmark was
# written against; they count as failed queries.
MALFORMED = ("alpha_zero_den", "alpha_text", "ross_g_text", "ross_t_text",
             "toric_class_scalar", "huge_json_int", "deep_json",
             "unknown_label", "missing_option", "bad_json", "bad_signature",
             "non_primitive_ray", "omega_not_kahler", "unknown_family", "csv_not_path")

# One pass of query_mix; a pass also takes one malformed input of every kind,
# so every pass fails the same number of queries and the failed ratio of a run
# does not depend on how many passes fit into it.  The (P^1)^6 validations and
# the P^3 toric query are the slowest six of the 47 queries, so p90 falls
# inside that block instead of on the edge of two.
MIX_SLOTS = (
    ("gamma", 2), ("gamma", 5), ("gamma_nu", 3), ("gamma_nu", 7),
    ("seshadri", 4), ("seshadri", 8), ("sigma", 3), ("sigma", 6),
    ("solvable", 2), ("solvable", 7), ("stable_cone", 4), ("stable_cone", 5),
    ("csck", 3), ("csck", 8),
    ("validate_lattice", 8), ("validate_fan", "P1x5"),
    ("validate_fan", "P1x6"), ("validate_fan", "P1x6"), ("validate_fan", "P1x6"),
    ("validate_fan", "P1x6"), ("validate_fan", "P1x6"), ("validate_fan", "P8"), ("validate_fan", "P5"), ("validate_fan", "F3"),
    ("catalog_ross", None), ("catalog_ross", None),
    ("catalog_export", None), ("catalog_export", None),
    ("toric_small", "P2"), ("toric_small", "P1x2"), ("toric_small", "F1"), ("toric_small", "P3"),
)


def mix_query(slot: tuple, k: int, labels: dict[str, str]) -> Query:
    kind, arg = slot
    if kind == "catalog_ross":
        g, s, t = ROSS_T[k]
        return Query(f"qm/catalog_ross/{k}", "ross",
                     ("catalog", "ross", "--g", str(g), "--sC", fmt(s), "--t", fmt(t),
                      "--format", "json"))
    if kind == "catalog_export":
        argv = EXPORTS[k % len(EXPORTS)]
        return Query(f"qm/catalog_export/{k % len(EXPORTS)}", "ok",
                     ("catalog",) + argv + ("--export", "--format", "json"))
    if kind == "toric_small":
        return toric_query((arg, bool(k % 2), False), k, labels, "qm/toric")
    if kind == "validate_fan":
        fan = FANS[arg]()
        nrays = len(fan["rays"])
        doc = {"fan": fan, "toric_classes": {labels["omega"]: ["1"] * nrays,
                                             labels["theta"]: [str(k - i) for i in range(nrays)]}}
        return Query(f"qm/validate_fan/{arg}/{k}", "ok", ("validate", "--format", "json"),
                     _dump(doc), _labels(labels))
    case = lattice_case(arg, k)
    doc = _dump(case.document(labels))
    roles = {"gamma": ("gamma", "theta", "omega"), "gamma_nu": ("gamma", "nu", "omega"),
             "seshadri": ("seshadri", "theta", "omega"), "sigma": ("sigma", "nu", "omega"),
             "solvable": ("solvable", "theta", "omega"),
             "stable_cone": ("stable-cone", "theta", "a")}
    prefix = f"qm/{kind}/{arg}/{k}"
    if kind == "validate_lattice":
        return Query(prefix, "ok", ("validate", "--format", "json"), doc, _labels(labels))
    if kind == "csck":
        alpha = ALPHAS[k]
        return Query(prefix, "ok", ("csck", "--minus-c1", labels["nu"], "--omega", labels["omega"],
                                    "--alpha", fmt(alpha), "--format", "json"),
                     doc, _labels(labels))
    command, first, second = roles[kind]
    flag = "--a" if second == "a" else "--omega"
    return Query(prefix, "ok", (command, "--theta", labels[first], flag, labels[second],
                                "--format", "json"), doc, _labels(labels))


def malformed_query(kind: str, labels: dict[str, str]) -> Query:
    small = lattice_case(2, 0)
    doc = small.document(labels)
    good = _dump(doc)
    om, th = labels["omega"], labels["theta"]
    gamma = ("gamma", "--theta", th, "--omega", om, "--format", "json")
    table = {
        "alpha_zero_den": (("csck", "--minus-c1", th, "--omega", om, "--alpha", "1/0"), good),
        "alpha_text": (("csck", "--minus-c1", th, "--omega", om, "--alpha", "zz"), good),
        "ross_g_text": (("catalog", "ross", "--g", "x", "--sC", "2"), b""),
        "ross_t_text": (("catalog", "ross", "--g", "4", "--sC", "2", "--t", "abc"), b""),
        "toric_class_scalar": (("validate",), _dump({"fan": projective_fan(2),
                                                     "toric_classes": {th: 5}})),
        "huge_json_int": (("validate",), good.replace(b'"1"', b"9" * 5000, 1)),
        "deep_json": (("validate",), b"[" * 100000 + b"]" * 100000),
        "unknown_label": (("gamma", "--theta", "no_such_class", "--omega", om), good),
        "missing_option": (("gamma", "--theta", th), good),
        "bad_json": (gamma, good[:-7]),
        "bad_signature": (gamma, _dump({**doc, "lattice": {"matrix": [["1", "0"], ["0", "1"]]},
                                        "cone": None})),
        "non_primitive_ray": (("validate",), _dump({"fan": {"dim": 2, "rays": [[2, 0], [0, 1], [-1, -1]],
                                                            "max_cones": [[0, 1], [1, 2], [2, 0]]}})),
        "omega_not_kahler": (("gamma", "--theta", th, "--omega", labels["nu"]), good),
        "unknown_family": (("catalog", "enriques"), b""),
        "csv_not_path": (gamma[:-1] + ("csv",), good),
    }
    argv, stdin = table[kind]
    return Query(f"qm/malformed/{kind}", "malformed", argv, stdin, _labels(labels))


# --- workloads -----------------------------------------------------------------


class Workload:
    """The query list of each pass of one workload under one seed.

    On surface_path and toric_ladder the seed picks a starting variant per
    slot and pass ``p`` takes the ``p``-th next one, so a run of several
    passes visits nearly every variant whatever the seed: the work per run
    then hardly depends on the seed.  On query_mix every pass draws fresh
    variants and labels, and every pass holds each malformed kind once.
    """

    def __init__(self, name: str, seed: int, run):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name, self.seed = name, seed
        rng = Random(f"{name}/{seed}")
        if name == "surface_path":
            exports = Exports(run)
            self._slots = [functools.partial(surface_query, slot, exports=exports)
                           for slot in SURFACE_SLOTS]
        elif name == "toric_ladder":
            self._slots = [functools.partial(toric_query, slot, labels=fresh_labels(None),
                                             prefix="tl") for slot in TORIC_SLOTS]
        else:
            self._slots = []
        self._offsets = [rng.randrange(VARIANTS) for _ in self._slots]
        self._made: dict = {}
        self._last: tuple[int, list[Query]] | None = None

    def pass_queries(self, index: int) -> list[Query]:
        if self._last is not None and self._last[0] == index:
            return self._last[1]
        if self._slots:
            queries = []
            for make, offset in zip(self._slots, self._offsets):
                key = (make, (offset + index) % VARIANTS)
                if key not in self._made:
                    self._made[key] = make(k=key[1])
                queries.append(self._made[key])
        else:
            queries = self._mix_pass(index)
        self._last = (index, queries)
        return queries

    def _mix_pass(self, index: int) -> list[Query]:
        rng = Random(f"{self.name}/{self.seed}/{index}")
        queries = [mix_query(slot, rng.randrange(VARIANTS), fresh_labels(rng)) for slot in MIX_SLOTS]
        for kind in MALFORMED:
            queries.insert(rng.randrange(len(queries) + 1), malformed_query(kind, fresh_labels(rng)))
        return queries


def universe(run) -> Iterator[Query]:
    """Every case any seed can produce, with canonical labels (for record.py)."""
    exports = Exports(run)
    for slot in SURFACE_SLOTS:
        for k in range(VARIANTS if slot[0] != "blowup" else 1):
            yield surface_query(slot, k, exports)
    for slot in TORIC_SLOTS:
        for k in range(VARIANTS):
            yield toric_query(slot, k, fresh_labels(None), "tl")
    seen = set()
    for slot in MIX_SLOTS:
        for k in range(VARIANTS):
            q = mix_query(slot, k, fresh_labels(None))
            if q.case not in seen:
                seen.add(q.case)
                yield q

"""Compare the CLI's exit codes and stdout bytes at a git revision and in the working tree.

    python tools/compare_outputs.py REV [--mutants N] [--seed S]

REV is extracted with ``git archive`` into a temporary directory.  Each tree
runs the same corpus through ``jthresh.cli.run`` in its own child
interpreter, so two jthresh packages never share a process.  The corpus is
every ``workloads.universe`` case and every malformed kind of
``perfbench/workloads.py``, plus N documents (default 8000) mutated under
seed S from catalog exports, each run with an argv drawn from the document
commands, plus 300 ``catalog`` argv drawn under the same seed: a family (or
an unknown name), each parameter flag and ``--t`` about half the time with a
valid or invalid value, sometimes ``--export``, and a ``--format``.  Those
flag names are literals here, so both trees run the same catalog argv.  A
document-command argv comes in the plain spelling, which ``cli.run`` reads
without argparse, except for about a quarter of them (about 2000 of the
default 8000, drawn under S too), respelled so that only argparse reads them:
a flag abbreviated, a '--flag=value', the path '-' after the flags, a flag
given twice, or a value led by '-'.  Last come seeded fan documents, each
run under ``validate`` and ``toric-gamma``: P^1..P^5, (P^1)^1..(P^1)^4,
F_0..F_3 and 12 blowups of P^2 and F_a, whose one-entry and dense rays take
both pairing routes of the wall walk, each as given and under 2 random
unimodular shears, each with one flipped ray sign, swapped rays, a dropped and
a duplicated cone; and one fan at each fault line these never reach.
REV's child builds the corpus, from REV's exports and REV's
``cli.DOC_COMMANDS``, and the working tree's child runs that same corpus.

The script prints each side's exit-code counts and the number of cases whose
exit code or stdout bytes differ, then the first ten such cases with their
argv, and exits 1 on any difference.  It reads ``perfbench/workloads.py`` and
writes nothing in the repository.  Each side takes about 2.5 s on the default
corpus of 9539 cases (Intel Xeon, 2 vCPU, Python 3.11.7).  It is not part of tier-1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import product
from operator import mul
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
SHOWN = 10  # differing cases printed in full

# the catalog entries mutants start from: the benchmark's exports and a ross with L_t
EXTRA_EXPORTS = (("ross", "--g", "4", "--sC", "5/2", "--t", "3"),)
# what a mutation writes: exact and inexact numbers, malformed rationals and labels
LEAVES = (0, 1, -1, 2, 3, 2 ** 70, True, False, None, 0.5, -2.0, 1e300,
          "0", "1", "-1", "2", "1/2", "-3/4", "1/0", "1e5", "x", "")
KEYS = ("H", "x", "rat", "coef", "rad", "query", "rank", "facet_labels", "light_cone")
OPTIONS = {  # raw argv values per option: valid ones and ones to refuse
    "samples": ["1", "2", "7", "40", "0", "-3", "x", "2.5", "100001", ""],
    "alpha": ["1", "2/3", "50", "0", "-1", "x", "1e5", "0.5", "1/0"],
}
FORMATS = ("text", "json", "csv")
RESPELLED = 0.25  # share of the mutated-document argv respelled for argparse
RESPELLINGS = ("abbreviate", "equals", "path_last", "repeat", "dash")
CATALOG_CASES = 300
CATALOG_NAMES = ("ross", "hirzebruch", "perfect_lightcone", "blowup_path", "k3")
CATALOG_FLAGS = ("--g", "--sC", "--a", "--rank", "--t")
CATALOG_VALUES = ("2", "4", "5/2", "0", "-1", "1/0", "x", "1e5", "501")
FAN_SHEARS = 2  # sheared images of each seeded fan, besides the fan as given
FAN_BLOWUPS = 12  # seeded blowups of P^2 and F_a
FAN_FORMATS = ("text", "json")  # csv is for path alone
P2_RAYS, P2_CONES = [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]
# eight unimodular cones winding twice around the origin
TWICE = [[1, 0], [-2, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1], [1, 1], [-2, -1]]
FAN_FAULTS = (  # (dim, rays, max_cones) at the fault lines that no mutation reaches
    (0, [], []), (2, [], []), (2, [[1, 0], [0, 1], [-1]], P2_CONES),
    (2, [[2, 0], [0, 1], [-1, -1]], P2_CONES), (2, [[0, 0], [0, 1], [-1, -1]], P2_CONES),
    (2, P2_RAYS, [[0, 1], [1, 1], [0, 2]]), (2, P2_RAYS, [[0, 1], [1, 2], [0, 3]]),
    (2, P2_RAYS, [[0, 1], [1], [0, 2]]), (2, P2_RAYS + [[1, 1]], P2_CONES + [[0, 3]]),
    (2, TWICE, [[i, (i + 1) % 8] for i in range(8)]))


# --- child: one tree --------------------------------------------------------


def _value(rng: Random, labels: list[str], depth: int = 0):
    """A leaf, or now and then a short list or object of them."""
    roll = rng.random()
    if depth < 2 and roll < 0.15:
        return [_value(rng, labels, depth + 1) for _ in range(rng.randrange(4))]
    if depth < 2 and roll < 0.25:
        return {rng.choice(KEYS): _value(rng, labels, depth + 1) for _ in range(rng.randrange(3))}
    return rng.choice(LEAVES + tuple(labels)) if roll < 0.85 else rng.randint(-4, 4)


def _mutate(rng: Random, node, labels: list[str]):
    """A copy of node with one value somewhere inside it replaced, dropped, duplicated
    or added."""
    if isinstance(node, dict):
        node, keys = dict(node), list(node)
    elif isinstance(node, list):
        node, keys = list(node), list(range(len(node)))
    else:
        keys = []
    if keys and rng.random() < 0.75:  # go deeper
        key = rng.choice(keys)
        node[key] = _mutate(rng, node[key], labels)
        return node
    edit = rng.choice(["replace", "drop", "duplicate", "add"])
    if edit == "replace" or not keys:
        return _value(rng, labels)
    key = rng.choice(keys)
    new = _value(rng, labels) if edit == "add" else node[key]
    if edit == "drop":
        del node[key]
    elif isinstance(node, dict):
        node[rng.choice(KEYS + tuple(labels))] = new
    else:
        node.insert(key, new)
    return node


def _argv(rng: Random, commands: dict, doc: dict, labels: list[str]) -> list[str]:
    """A document command with, for most of its label flags, one of doc's labels (or
    another one), an option value or none per option, and a format."""
    name = rng.choice(sorted(commands))
    known = sorted({label for key in ("classes", "toric_classes")
                    if isinstance(doc.get(key), dict) for label in doc[key]})
    argv = [name]
    for label in commands[name].labels:
        if rng.random() < 0.9:
            argv += ["--" + label.replace("_", "-"), rng.choice(known or labels)]
    for option in commands[name].options:
        if rng.random() < 0.7:
            argv += ["--" + option, rng.choice(OPTIONS.get(option, ["1"]))]
    return argv + ["--format", rng.choice(FORMATS)]


def _respell(rng: Random, argv: list[str]) -> list[str]:
    """argv (a command, then '--flag value' pairs) spelled so that only argparse reads it:
    one flag abbreviated, one pair as '--flag=value', the path '-' after the flags, one
    flag given first with another value (argparse keeps the last), or one value led by '-'."""
    pairs = [argv[i:i + 2] for i in range(1, len(argv), 2)]
    way = rng.choice(RESPELLINGS)
    k = rng.choice([i for i, (flag, _) in enumerate(pairs) if way != "abbreviate" or len(flag) > 3])
    flag, value = pairs[k]
    if way == "abbreviate":
        pairs[k] = [flag[:-2], value]
    elif way == "equals":
        pairs[k] = [f"{flag}={value}"]
    elif way == "path_last":
        pairs.append(["-"])
    elif way == "repeat":
        pairs.insert(k, [flag, rng.choice(FORMATS) if flag == "--format" else "x"])
    else:
        pairs[k] = [flag, "-" + value]
    return [argv[0], *(word for pair in pairs for word in pair)]


def _catalog_argv(rng: Random) -> list[str]:
    """A catalog family or an unknown one, each flag or not, maybe --export, and a format."""
    argv = ["catalog", rng.choice(CATALOG_NAMES)]
    for flag in CATALOG_FLAGS:
        if rng.random() < 0.5:
            argv += [flag, rng.choice(CATALOG_VALUES)]
    if rng.random() < 0.25:
        argv.append("--export")
    return argv + ["--format", rng.choice(FORMATS)]


def _blowup(rng: Random) -> tuple[list, list[int]]:
    """Rays of P^2 or some F_a, a = 0..3, blown up at 0-5 torus-fixed points, and an
    ample class: blowing up the fixed point of (u_i, u_i+1) inserts the ray u_i + u_i+1,
    and D becomes 2 pi^*D - E, ample again (Fulton, 2.5)."""
    if rng.random() < 0.2:
        rays, ample = [[1, 0], [0, 1], [-1, -1]], [1, 0, 0]
    else:
        a = rng.randint(0, 3)
        rays, ample = [[1, 0], [0, 1], [-1, a], [0, -1]], [a + 1, 1, 0, 0]
    for _ in range(rng.randint(0, 5)):
        i = rng.randrange(len(rays))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        e = 2 * (ample[i] + ample[(i + 1) % len(rays)]) - 1
        rays.insert(i + 1, [u[0] + v[0], u[1] + v[1]])
        ample = [2 * x for x in ample[:i + 1]] + [e] + [2 * x for x in ample[i + 1:]]
    return rays, ample


def _seeded_fans(rng: Random) -> list[tuple[int, list, list, list[int]]]:
    """(dim, rays, max_cones, an ample class) of P^1..P^5, (P^1)^1..(P^1)^4, F_0..F_3
    and FAN_BLOWUPS blowups: one-entry rays, paired by lookup, and dense ones."""
    fans = []
    for n in range(1, 6):
        rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
        fans.append((n, rays, [[i for i in range(n + 1) if i != k] for k in range(n + 1)],
                     [1] * (n + 1)))
    for n in range(1, 5):
        rays = [[s * int(i == j) for j in range(n)] for i in range(n) for s in (1, -1)]
        cones = [[2 * i + s for i, s in enumerate(signs)] for signs in product((0, 1), repeat=n)]
        fans.append((n, rays, cones, [1] * (2 * n)))
    for a in range(4):
        fans.append((2, [[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]],
                     [a + 1, 1, 0, 0]))
    for _ in range(FAN_BLOWUPS):
        rays, ample = _blowup(rng)
        fans.append((2, rays, [[i, (i + 1) % len(rays)] for i in range(len(rays))], ample))
    return fans


def _shear(rng: Random, n: int) -> list[list[int]]:
    """A random integer matrix of determinant +-1: four elementary row operations, then
    maybe a row swap."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(n)
        m[i], m[j] = m[j], m[i]
    return m


def _fan_mutations(rng: Random, rays: list, cones: list):
    """The fan itself, then one flipped ray sign, swapped rays, dropped and duplicated cones."""
    yield rays, cones
    i, j = rng.sample(range(len(rays)), 2)
    yield [[-x for x in ray] if k == i else ray for k, ray in enumerate(rays)], cones
    yield [rays[j] if k == i else rays[i] if k == j else ray for k, ray in enumerate(rays)], cones
    k = rng.randrange(len(cones))
    yield rays, cones[:k] + cones[k + 1:]
    yield rays, cones[:k] + [cones[rng.randrange(len(cones))]] + cones[k:]


def _fan_cases(rng: Random) -> list[tuple[list[str], bytes]]:
    """Each seeded fan as given and under FAN_SHEARS random shears, each with its
    mutations, as a document with an ample omega and a random theta, run under
    validate and toric-gamma."""
    cases = []
    for n, rays, cones in FAN_FAULTS:
        doc = {"fan": {"dim": n, "rays": rays, "max_cones": cones},
               "toric_classes": {"omega": ["1"] * len(rays), "theta": ["0"] * len(rays)}}
        for argv in (["validate"], ["toric-gamma", "--theta", "theta", "--omega", "omega"]):
            cases.append((argv, json.dumps(doc).encode()))
    for n, rays, cones, ample in _seeded_fans(rng):
        for shear in [None] + [_shear(rng, n) for _ in range(FAN_SHEARS)]:
            image = rays if shear is None else [[sum(map(mul, row, ray)) for row in shear]
                                                for ray in rays]
            for new_rays, new_cones in _fan_mutations(rng, image, cones):
                theta = [str(rng.randint(-3, 3)) for _ in ample]
                doc = {"fan": {"dim": n, "rays": new_rays, "max_cones": new_cones},
                       "toric_classes": {"omega": [str(x) for x in ample], "theta": theta}}
                text = json.dumps(doc).encode()
                cases.append((["validate", "--format", rng.choice(FAN_FORMATS)], text))
                cases.append((["toric-gamma", "--theta", "theta", "--omega", "omega",
                               "--format", rng.choice(FAN_FORMATS)], text))
    return cases


def _corpus(run, commands: dict, mutants: int, seed: int) -> list[tuple[list[str], bytes]]:
    import workloads

    cases = [(list(q.argv), q.stdin) for q in workloads.universe(run)]
    cases += [(list(q.argv), q.stdin) for q in (
        workloads.malformed_query(kind, workloads.fresh_labels(None))
        for kind in workloads.MALFORMED)]
    exports = [json.loads(run(["catalog", *argv, "--export"], b"")[1])
               for argv in workloads.EXPORTS + EXTRA_EXPORTS]
    labels = sorted({label for doc in exports for key in ("classes", "toric_classes")
                     for label in doc.get(key, {})})
    rng, respell = Random(seed), Random(f"{seed}/respell")
    for _ in range(mutants):
        doc = _mutate(rng, rng.choice(exports), labels)
        text = json.dumps(doc)
        argv = _argv(rng, commands, doc if isinstance(doc, dict) else {}, labels)
        if respell.random() < RESPELLED:
            argv = _respell(respell, argv)
        cases.append((argv, text.encode()))
    cases += [(_catalog_argv(rng), b"") for _ in range(CATALOG_CASES)]
    return cases + _fan_cases(Random(f"{seed}/fans"))


def child(src: str, mutants: int, seed: int) -> None:
    """Run the corpus on stdin (or, when stdin is empty, build it) in the tree at src;
    print {"corpus": ..., "results": [[exit code, stdout sha256, stdout head]]}."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from jthresh import cli

    if Path(cli.__file__).resolve().parents[1] != Path(src).resolve():
        sys.exit(f"imported jthresh from {cli.__file__}, not from {src}")
    given = sys.stdin.read()
    if given:
        cases = [(argv, stdin.encode("latin-1")) for argv, stdin in json.loads(given)]
    else:
        cases = _corpus(cli.run, cli.DOC_COMMANDS, mutants, seed)
    results = []
    for argv, stdin in cases:
        code, out = cli.run(argv, stdin)
        results.append([code, hashlib.sha256(out).hexdigest(), out[:120].decode("latin-1")])
    corpus = None if given else [[argv, stdin.decode("latin-1")] for argv, stdin in cases]
    json.dump({"corpus": corpus, "results": results}, sys.stdout)


# --- parent -------------------------------------------------------------------


def _side(src: Path, args: argparse.Namespace, corpus: str = "") -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--mutants", str(args.mutants),
         "--seed", str(args.seed), args.rev],
        input=corpus, capture_output=True, text=True, cwd=src.parent)
    if proc.returncode != 0:
        sys.exit(f"the run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--mutants", type=int, default=8000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.mutants, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        old = _side(Path(tmp) / "src", args)
    corpus = old["corpus"]
    new = _side(ROOT / "src", args, json.dumps(corpus))
    differ = [i for i, (a, b) in enumerate(zip(old["results"], new["results"])) if a[:2] != b[:2]]
    for name, side in ((args.rev, old), ("working tree", new)):
        counts = Counter(code for code, _, _ in side["results"])
        print(f"{name}: {len(side['results'])} cases, exit codes "
              + ", ".join(f"{code}: {n}" for code, n in sorted(counts.items())))
    print(f"{len(differ)} cases differ in exit code or stdout bytes")
    for i in differ[:SHOWN]:
        (code_a, _, head_a), (code_b, _, head_b) = old["results"][i], new["results"][i]
        print(f"- argv {corpus[i][0]}\n  {args.rev}: exit {code_a}, {head_a!r}"
              f"\n  working tree: exit {code_b}, {head_b!r}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()

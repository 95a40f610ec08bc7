"""Fuzz the CLI: argv x documents mutated from catalog exports, and query defaults.

Every run must exit 0 or 2, never 1 (an internal error).  Exit 2 prints exactly
one diagnostic line, ``<ErrorClass>: message``; with ``--format json`` the stdout
of an exit 0 is one JSON document.  Examples are derandomized, so every run
draws the same inputs, and each example has a deadline.
"""

from __future__ import annotations

import json
import re
from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from jthresh.cli import DOC_COMMANDS, run  # noqa: E402

EXPORTS = [json.loads(run(["catalog", *argv, "--export"])[1]) for argv in (
    ["blowup_path"], ["hirzebruch", "--a", "1"], ["ross", "--g", "4", "--sC", "2"],
    ["perfect_lightcone", "--rank", "3"])]
LABELS = sorted({label for doc in EXPORTS for key in ("classes", "toric_classes")
                 for label in doc.get(key, {})})

# what a mutation writes: exact and inexact numbers, malformed rationals, labels
LEAVES = (st.sampled_from([0, 1, -1, 2, 3, 2 ** 70, True, False, None, 0.5, -2.0, 1e300,
                           "0", "1", "-1", "2", "1/2", "-3/4", "1/0", "1e5", "x", "", *LABELS])
          | st.integers(-4, 4) | st.text(max_size=3))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.sampled_from(["H", "x", "rat", "coef", "rad"]), inner,
                                        max_size=3), max_leaves=8)
OPTIONS = {  # raw argv values per option: valid ones and ones to refuse
    "samples": ["1", "2", "7", "40", "0", "-3", "x", "2.5", "100001", ""],
    "alpha": ["1", "2/3", "50", "0", "-1", "x", "1e5", "0.5", "1/0"],
}
FIELDS = ["query", "rank", "facet_labels", "light_cone", "x", *LABELS]  # keys a mutation adds
FORMATS = ["json", "text", "csv"]
COMMANDS = sorted(DOC_COMMANDS)
# the choices of where to mutate and what to pass, uniform from one drawn seed
SEEDS = st.integers(0, 2 ** 64).map(Random)
# about 10 s in all for both tests (Intel Xeon, 2 vCPU, Python 3.11.7)
SETTINGS = settings(max_examples=800, deadline=2000, derandomize=True, database=None)
DIAGNOSTIC = re.compile(r"[A-Za-z]+: [^\n]*\n")


def _mutate(data: st.DataObject, rng: Random, node):
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
        node[key] = _mutate(data, rng, node[key])
        return node
    edit = rng.choice(["replace", "drop", "duplicate", "add"])
    if edit == "replace" or not keys:
        return data.draw(VALUES)
    key = rng.choice(keys)
    new = data.draw(VALUES) if edit == "add" else node[key]
    if edit == "drop":
        del node[key]
    elif isinstance(node, dict):
        node[rng.choice(FIELDS)] = new
    else:
        node.insert(key, new)
    return node


def _argv(rng: Random, command: str, doc: dict, labels: bool) -> list[str]:
    """command, with (when labels) one of doc's classes for most label flags, an option
    value or none per option, now and then a stray argument, and a format."""
    spec = DOC_COMMANDS[command]
    known = sorted(doc.get("toric_classes" if command == "toric-gamma" else "classes", {}))
    argv = [command]
    for label in spec.labels if labels else ():
        if rng.random() < 0.9:
            argv += ["--" + label.replace("_", "-"), rng.choice(known or ["nope"])]
    for option, values in OPTIONS.items():
        if option in spec.options and rng.random() < 0.9:
            argv += ["--" + option, rng.choice(values)]
    if rng.random() < 0.05:
        argv.append(rng.choice(["--bogus", "--format=xml", "extra.json", "-"]))
    formats = FORMATS if command == "path" or rng.random() < 0.05 else FORMATS[:2]
    return argv + ["--format", rng.choice(formats)]


def _check(argv: list[str], stdin: bytes) -> None:
    code, out = run(argv, stdin)
    event(f"exit {code}")  # the share of each exit shows under --hypothesis-show-statistics
    assert code in (0, 2), (argv, stdin, out)
    if code == 2:
        assert DIAGNOSTIC.fullmatch(out.decode()), (argv, stdin, out)
    elif argv[-2:] == ["--format", "json"]:
        json.loads(out)


@SETTINGS
@given(st.data(), SEEDS)
def test_mutated_documents_exit_0_or_2_with_one_line(data, rng):
    export = doc = rng.choice(EXPORTS)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        doc = _mutate(data, rng, doc)
    stdin = json.dumps(doc).encode()
    if rng.random() < 0.1:  # cut the JSON text short
        stdin = stdin[:rng.randrange(len(stdin))]
    _check(_argv(rng, rng.choice(COMMANDS), export, True), stdin)


@SETTINGS
@given(st.data(), SEEDS)
def test_query_defaults_exit_0_or_2_with_one_line(data, rng):
    doc = dict(rng.choice(EXPORTS))
    command = rng.choice(COMMANDS)
    spec = DOC_COMMANDS[command]
    known = [*doc.get("classes", {}), *doc.get("toric_classes", {})]
    query = {}
    for key in [*spec.labels, *spec.options, "format", "x"]:
        if rng.random() < 0.7:
            query[key] = rng.choice([*known, *OPTIONS.get(key, ())]) if rng.random() < 0.8 \
                else data.draw(VALUES)
    doc["query"] = query
    _check(_argv(rng, command, doc, rng.random() < 0.3), json.dumps(doc).encode())

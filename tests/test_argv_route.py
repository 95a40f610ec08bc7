"""``cli.run``'s plain-argv route against argparse.

A plain argv (a document command, an optional document path that is '-' or
does not start with '-', then distinct full '--flag value' pairs, no value
starting with '-', a known format) is read by ``cli._plain_args`` without the
parser; every other argv goes to ``_build_parser().parse_args``.  So for every
argv the route accepts, its Namespace must equal argparse's, and every argv must
give the same exit code and bytes as a run that only uses the parser.  Examples
are derandomized, so every run checks the same argv.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from jthresh import cli
from jthresh.cli import DOC_COMMANDS, _build_parser, _plain_args, run

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

F1_DOC = json.dumps({
    "lattice": {"rank": 2, "matrix": [["1", "0"], ["0", "-1"]], "labels": ["H", "E"]},
    "cone": {"facets": [["0", "1"], ["1", "-1"]], "facet_labels": ["E", "F"],
             "light_cone": None},
    "classes": {"theta": ["2", "-1"], "omega": ["5", "-1"],
                "H": ["1", "0"], "F": ["1", "-1"], "mc1": ["-3", "1"]},
    "query": {"samples": 2},
}).encode()

FLAGS = sorted({"--format", "--bogus", "--t", "--g", "--export", *(
    cli._flag(key) for command in DOC_COMMANDS.values()
    for key in (*command.labels, *command.options))})
PREFIXES = sorted({flag[:n] for flag in FLAGS for n in range(1, len(flag))})
VALUES = ["theta", "omega", "H", "F", "mc1", "nope", "2", "1/2", "json", "text", "csv",
          "xml", "-", "", "-3", "-h", "--help", "--bogus", "--theta", "no-such.json"]
PLAIN = [value for value in VALUES if not value.startswith("-")]
FORMATS = ["json", "text", "csv", "xml", "-h"]
PATHS = ["-", "", "no-such.json", "-x", "--", "theta"]

flags = st.sampled_from(FLAGS)
values = st.sampled_from(VALUES)
odd = st.one_of(  # one argv part that is not a distinct full flag of the command's own
    st.tuples(flags, values).map(list),  # another command's flag, or any value
    st.tuples(st.sampled_from(PREFIXES), values).map(list),  # an abbreviation
    st.tuples(flags, values).map(lambda fv: ["=".join(fv)]),  # --flag=value
    flags.map(lambda f: [f]),  # a flag missing its value
    st.sampled_from(PATHS + ["-h", "--help"]).map(lambda p: [p]),  # a path between flags
)


def plain_pair(flag):
    return st.sampled_from(FORMATS if flag == "--format" else PLAIN).map(lambda v: [flag, v])


@st.composite
def argvs(draw):
    """A command (or not), maybe a path, then either distinct own '--flag value' pairs with
    at most one odd part put among them, or up to four parts drawn from everything."""
    command = draw(st.sampled_from([*DOC_COMMANDS, "catalog", "gamma-ray", "-h", "--theta"]))
    spec = DOC_COMMANDS.get(command)
    own = ["--format", *map(cli._flag, (*spec.labels, *spec.options) if spec else ["theta"])]
    path = [draw(st.sampled_from(PATHS))] if draw(st.booleans()) else []
    if draw(st.booleans()):
        distinct = draw(st.lists(st.sampled_from(own), unique=True))
        parts = [draw(plain_pair(flag)) for flag in distinct]
        if draw(st.booleans()):
            parts.insert(draw(st.integers(0, len(parts))), draw(odd))
    else:
        parts = draw(st.lists(st.sampled_from(own).flatmap(plain_pair) | odd, max_size=4))
    return [command, *path, *(word for part in parts for word in part)]


def parsed(argv):
    try:
        return vars(_build_parser().parse_args(argv))
    except Exception as exc:  # BadParams or help: the route must have declined
        return exc


def parser_only(argv, stdin):
    with mock.patch.object(cli, "_plain_args", lambda argv: None):
        return run(argv, stdin)


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_plain_route_builds_argparse_namespace(argv):
    args = _plain_args(argv)
    if args is not None:
        assert vars(args) == parsed(argv)
    assert run(argv, F1_DOC) == parser_only(argv, F1_DOC)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DOC_COMMANDS)), st.permutations(range(4)), st.integers(0, 2))
def test_every_plain_spelling_is_taken(name, order, doc_at):
    command = DOC_COMMANDS[name]
    pairs = [[cli._flag(key), "H"] for key in (*command.labels, *command.options)][:3]
    pairs.append(["--format", "json"])
    argv = [name, *(word for i in order if i < len(pairs) for word in pairs[i])]
    if doc_at:
        argv.insert(1, "-" if doc_at == 1 else "no-such.json")
    args = _plain_args(argv)
    assert args is not None and vars(args) == parsed(argv)
    assert run(argv, F1_DOC) == parser_only(argv, F1_DOC)


@pytest.mark.parametrize("argv", [
    ["gamma", "--theta=theta", "--omega", "omega"],
    ["gamma", "--th", "theta", "--omega", "omega"],
    ["gamma", "--theta", "theta", "--omega", "omega", "--format", "xml"],
    ["gamma", "--theta", "theta", "--omega", "H", "--omega", "omega"],
    ["path", "--theta", "theta", "--a", "H", "--samples", "-3"],
    ["gamma", "--theta", "theta", "--omega", "omega", "-"],
    ["gamma", "--theta", "-", "--omega", "omega"],
    ["gamma", "--theta", "theta", "-h"],
    ["gamma", "--theta"],
    ["catalog", "ross", "--g", "4", "--sC", "2"],
    [],
])
def test_left_to_argparse(argv):
    assert _plain_args(argv) is None
    assert run(argv, F1_DOC) == parser_only(argv, F1_DOC)

"""The JSON writer of the CLI against ``json.dumps(x, indent=2, sort_keys=True)``."""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jthresh.cli import _json_text, _render, _text_lines, run  # noqa: E402

# every code point, surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = (st.none() | st.booleans() | TEXT | st.integers()
           | st.integers(min_value=-10 ** 80, max_value=10 ** 80))
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)), max_leaves=30)


@st.composite
def records(draw):
    """A list of dicts sharing one key set, each in its own insertion order: path rows."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    return [{key: draw(VALUES) for key in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(min_value=1, max_value=5)))]


class Text(str):  # a subclass whose own str() or repr() the writer must not use
    def __str__(self):
        return "not this"


class Count(int):
    def __repr__(self):
        return "not this"


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_json_payload_is_one_document_and_a_newline(payload):
    assert _render(payload, "json") == _dumps(payload) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(records(), VALUES)
def test_records_match_json_dumps(rows, other):
    # at the top, as a field's value and inside a list: three indents
    for value in (rows, tuple(rows), {"rows": rows, "other": other}, [other, [rows]]):
        assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    [{"a": 1, "b": "x"}, {"a": 2}],  # a record misses a key
    [{"a": 1}, {"a": 2, "b": "x"}],  # a record has an extra key
    [{"a": 1}, {"b": 1}],  # as many keys, another name
    [{"a": 1}, ["a"], {"a": 2}],  # a list among the records
    [{"a": 1}, "a"],
    [{}, {"a": 1}], [{}, {}],  # an empty dict first
    [{"a": 1}, OrderedDict(a=2)],  # a dict subclass among the records
    [{"b": Text("x"), "a": Count(3)}, {"a": Count(-4), "b": "y"}],
    [{"b": True, "a": 1}, {"a": True, "b": 2}],  # columns of mixed scalar types
    [{"%s": "%d", "a%": 1}, {"a%": 2, "%s": "%%"}],  # keys and values holding %
    [{"b": [{"d": 1, "c": {"e": None}}, {"c": [], "d": True}], "a": [[{"x": "y"}]]}],
])
def test_record_near_misses(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    [1, True, 0], [False, 1], [True, False],  # a bool among ints, and bools alone
    [Count(3), 1], [Count(-2), Count(5)],  # an int subclass
    [Text("x"), "y"], [Text("%s")],  # a str subclass
    [], [[]], [[1, 2], [3], []], [["a"], [True], [None]],  # empty lists and lists of lists
    {"cone": [0, 2], "names": ["a", "é"], "rows": [{"cone": [1], "ok": [True]}]},
    # record columns of lists: int lists beside str lists, an empty list among int lists,
    # only empty lists, a bool among ints, a str subclass, a tuple, and lists of lists
    [{"cone": [0, 1], "p": 1}, {"cone": ["a"], "p": 2}],
    [{"cone": [0, 1]}, {"cone": []}, {"cone": [2]}], [{"cone": []}, {"cone": []}],
    [{"cone": [1, True]}, {"cone": [0]}], [{"cone": [Text("x")]}, {"cone": ["y"]}],
    [{"cone": [1]}, {"cone": (2, 3)}], [{"cone": [[1], [2]]}, {"cone": [[3], []]}],
])
def test_scalar_list_near_misses(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    [{"a": 0.5}, {"a": 1}], [{"a": [1, 0.5]}], [{1: "a"}, {1: "b"}],
    [{"a": 1, 2: "b"}, {"a": 1, 2: "c"}], [{"a": 1, None: 2}]])
def test_a_record_no_payload_holds_is_a_type_error(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("value", [
    {}, [], (), "", "\x00\x1f\x7fé \ud800\U0001f600", 10 ** 200, -0,
    {"b": [{}, [], {"a": None}], "a": (True, False), "é": {"": "x"}},
])
def test_edge_values(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    0.5, [1, 0.0], {"a": {"b": float("nan")}}, {1: "a"}, {"a": {2: []}},
    {"a": 1, None: 2}, {"a": object()}, [{1, 2}]])
def test_what_no_payload_holds_is_a_type_error(value):
    with pytest.raises(TypeError):
        _json_text(value)


def test_text_leaves_are_json_scalars():
    payload = {"a": True, "b": None, "c": [1, "x", None], "d": {"e": False, "f": "s", "g": 3}}
    assert _text_lines(payload, "") == [
        "a: true", "b: null", 'c: [1, "x", null]', "d.e: false", "d.f: s", "d.g: 3"]


def test_text_keeps_empty_objects_and_lists():
    # an empty object is one leaf, as an empty list is: JSON and text name the same keys
    payload = {"params": {}, "caveats": [], "rows": [{}, {"a": {}}]}
    assert _text_lines(payload, "") == [
        "params: {}", "caveats: []", "rows.0: {}", "rows.1.a: {}"]
    code, out = run(["catalog", "blowup_path"])
    assert code == 0 and "\nparams: {}\n" in out.decode()

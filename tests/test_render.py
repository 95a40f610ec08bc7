"""The JSON writer of the CLI against ``json.dumps(x, indent=2, sort_keys=True)``."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jthresh.cli import _json_text, _render, _text_lines  # noqa: E402

# every code point, surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = (st.none() | st.booleans() | TEXT | st.integers()
           | st.integers(min_value=-10 ** 80, max_value=10 ** 80))
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)), max_leaves=30)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_json_payload_is_one_document_and_a_newline(payload):
    assert _render(payload, "json") == _dumps(payload) + "\n"


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

"""``exactnum.rat`` on strings against the route it took before its direct path.

A string of the shape 'p' or 'p/q' (ASCII digits, q != 0) becomes a Fraction of
two ints; every other string still goes through ``_EXPONENT_FORM`` and then
``Fraction(text)``.  The accepted set and every refusal must be unchanged, so
each string gives an equal Fraction from both routes, or the same error class
and message.  Examples are derandomized, so every run checks the same strings.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from jthresh import exactnum
from jthresh.errors import BadParams
from jthresh.exactnum import rat

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# ASCII digits, signs, the slash, decimal and digit-group marks, exponents, a
# space and two Arabic-Indic digits, which int() and Fraction() read as digits
ALPHABET = "0123456789+-/._eE \u0661\u0663"
SHAPES = st.from_regex(r"[-+]?[0-9]{1,6}(/[-+]?[0-9]{0,6})?", fullmatch=True)


def through_fraction(value: str) -> Fraction:
    """The string route of ``rat`` without the direct path."""
    text = value.strip()
    if exactnum._EXPONENT_FORM.fullmatch(text):
        raise BadParams(f"bad rational {value!r}: exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParams(f"bad rational {value!r}: {exc}") from None


def outcome(parse, value: str):
    try:
        return parse(value)
    except BadParams as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(ALPHABET, max_size=10), SHAPES))
def test_rat_accepts_what_the_fraction_route_accepts(text):
    assert outcome(rat, text) == outcome(through_fraction, text)


@pytest.mark.parametrize("text", [
    "\u0661\u0662", "1_000", " 3 ", "07/08", "2/0", "3/-4", "1e5", "0/0", "-0", "1/",
    "1" * 4301, "-" + "9" * 4301, "1/" + "2" * 4301, "0" * 4301 + "/7",
])
def test_pinned_strings_take_either_route_alike(text):
    assert outcome(rat, text) == outcome(through_fraction, text)

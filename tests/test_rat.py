"""Wire format for exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monothetic.rat import format_fraction, parse_fraction


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_roundtrip(num, den):
    value = Fraction(num, den)
    assert parse_fraction(format_fraction(value)) == value


def test_explicit_denominator_always_emitted():
    assert format_fraction(Fraction(3)) == "3/1"
    assert format_fraction(Fraction(-1, 2)) == "-1/2"


def test_bare_integers_accepted():
    assert parse_fraction("7") == 7
    assert parse_fraction("-4") == -4


def test_unreduced_accepted():
    assert parse_fraction("2/4") == Fraction(1, 2)
    assert parse_fraction("-0/3") == 0


@pytest.mark.parametrize("bad", [
    "1/0", "1/-2", "a/b", "1/2/3", "", "0.5",
    # int() reads each of these; the wire format does not.
    " 1 / 2 ", "1_0/3_1", "\u0661/\u0662", "\uff11/2", "+1/2", "1/+2",
])
def test_malformed_rejected(bad):
    with pytest.raises(ValueError):
        parse_fraction(bad)


def test_non_string_rejected():
    with pytest.raises(ValueError):
        parse_fraction(0.5)


def test_digit_runs_capped_at_the_int_limit():
    # 4300 digits is as many as int() reads from a string; one more is a
    # malformed rational, not the interpreter's own conversion error.
    top = "9" * 4300
    assert parse_fraction(f"-{top}/{top}") == -1
    for bad in ("9" * 4301, f"1/{'9' * 4301}", f"{'0' * 4301}/1"):
        with pytest.raises(ValueError, match="malformed rational"):
            parse_fraction(bad)


@pytest.mark.parametrize("bad, quoted", [
    ("abc", "'abc'"),
    ("1/0", "'1/0'"),
    ("x" * 46, repr("x" * 46)),
    ("x" * 47, "'" + "x" * 31 + "... (47 characters)"),
], ids=["short", "zero-denominator", "46-letters", "47-letters"])
def test_error_quotes_a_long_input_by_its_start_and_length(bad, quoted):
    with pytest.raises(ValueError) as info:
        parse_fraction(bad)
    assert f" {quoted}" in str(info.value)

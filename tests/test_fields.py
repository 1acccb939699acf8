"""Exact rational scalar basics."""

from fractions import Fraction as F

from circuitarray.fields import (RATIONALS, as_fraction, fast_rationals,
                                 format_rational, parse_rational)


def test_parse_and_format_round_trip():
    for text in ("26/27", "-5/3", "7", "0", "1157/960"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 2/3 ") == F(2, 3)
    assert format_rational(F(4, 2)) == "2"


def test_fast_backend_matches_fraction():
    fast = fast_rationals()
    a, b = fast.parse("26/27"), fast.parse("3")
    assert as_fraction(a * b) == F(26, 9)
    assert fast.format(a) == "26/27"
    assert as_fraction(fast.one - fast.parse("1/3")) == F(2, 3)


def test_contract_constants():
    assert RATIONALS.zero == 0 and RATIONALS.one == 1
    assert RATIONALS.ordered

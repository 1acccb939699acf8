"""Exact rational scalar basics."""

import random
from fractions import Fraction as F

import pytest

from circuitarray.fields import (RATIONALS, _make_fraction, format_rational,
                                 parse_rational)


def test_parse_and_format_round_trip():
    for text in ("26/27", "-5/3", "7", "0", "1157/960"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational(" 2/3 ") == F(2, 3)
    assert format_rational(F(4, 2)) == "2"


def test_decimal_exponent_cap():
    assert parse_rational("1.5e3") == 1500
    assert format_rational(parse_rational("1e4299")) == "1" + "0" * 4299
    assert parse_rational("1E-4299") == F(1, 10 ** 4299)
    for bad in ("1e4300", "1e-4300", "2.5e999999999", "1e+999_999_999 "):
        with pytest.raises(ValueError, match="decimal exponent"):
            parse_rational(bad)


def test_format_rational_prints_integers_past_the_digit_limit():
    """CPython's str() refuses an int of more than 4300 digits; the
    rendering goes round it without lifting the limit."""
    big = 10 ** 4300 + 12345  # 4301 digits
    text = "1" + "0" * 4295 + "12345"
    assert format_rational(F(big)) == text
    assert format_rational(F(-big)) == "-" + text
    assert format_rational(F(big, 7)) == text + "/7"
    assert format_rational(F(3, 10 ** 9000)) == "3/1" + "0" * 9000
    with pytest.raises(ValueError):
        str(big)


def test_contract_constants():
    assert RATIONALS.zero == 0 and RATIONALS.one == 1
    assert RATIONALS.ordered


def test_make_builds_what_fraction_builds():
    """RATIONALS.make is the one normalising builder: one gcd and a sign
    fix, with the slots, value and hash that Fraction(n, d) gives."""
    assert RATIONALS.make is _make_fraction
    rng = random.Random(35)

    def signed(bits):  # an int of exactly ``bits`` bits, either sign
        return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))

    pairs = [(0, 1), (0, -7), (0, 3 ** 900), (5, -10), (-6, -4), (1, -1),
             (2 ** 4000 - 1, -(2 ** 3999))]
    for _ in range(300):
        shared = signed(rng.randint(1, 2000))  # ±1 when it has one bit
        pairs.append((shared * signed(rng.randint(1, 2000)),
                      shared * signed(rng.randint(1, 2000))))
    for n, d in pairs:
        got, want = RATIONALS.make(n, d), F(n, d)
        assert type(got) is F and got == want
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)
        assert hash(got) == hash(want)
    for n in (0, 5, -(3 ** 2000)):
        with pytest.raises(ZeroDivisionError):
            RATIONALS.make(n, 0)

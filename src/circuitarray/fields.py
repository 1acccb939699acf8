"""Scalar fields used throughout the package.

Everything here is exact: the rational field is ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator), and the single
other field is the field of univariate rational functions with integer
coefficients (see :mod:`circuitarray.ratfunc`).  No floating point enters any
computation; floats appear only when rendering asymptotics tables.

A :class:`FieldContract` bundles the handful of facts generic code needs
about a scalar kind (constants, parsing, formatting).  Arithmetic itself is
ordinary operator arithmetic: every scalar supports ``+ - * /`` and ``==``.

``fast_rationals()`` returns a rational contract backed by ``gmpy2.mpq``
when gmpy2 is importable.  mpq is exact and interchangeable with Fraction;
the large grid builders use it internally (roughly 6x faster) and convert
back to Fraction at their read points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from a string like ``"26/27"`` or ``"2"``."""
    return Fraction(text.strip())


def format_rational(value) -> str:
    """Render an exact rational as ``"p/q"`` (or ``"p"`` when q is 1)."""
    n, d = value.numerator, value.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def as_fraction(value) -> Fraction:
    """Convert any exact rational scalar (Fraction, mpq, int) to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(int(value.numerator), int(value.denominator)) \
        if hasattr(value, "numerator") else Fraction(value)


@dataclass(frozen=True)
class FieldContract:
    """The facts generic grid code needs about a scalar field.

    ``ordered`` is true for scalar kinds supporting ``<`` (used to enforce
    strict positivity of resistance labels; rational functions are not
    ordered and skip that check).
    """

    name: str
    zero: Any
    one: Any
    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    ordered: bool = True


RATIONALS = FieldContract(
    name="rational",
    zero=Fraction(0),
    one=Fraction(1),
    parse=parse_rational,
    format=format_rational,
)


def fast_rationals() -> FieldContract:
    """Rational contract backed by gmpy2.mpq when available.

    Falls back to the Fraction-backed contract; results are identical either
    way, only speed differs.
    """
    try:
        from gmpy2 import mpq
    except ImportError:
        return RATIONALS
    return FieldContract(
        name="rational",
        zero=mpq(0),
        one=mpq(1),
        parse=lambda s: mpq(Fraction(s.strip())),
        format=format_rational,
    )


"""Scalar fields used throughout the package.

Everything here is exact: the rational field is ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator), and the single
other field is the field of univariate rational functions with integer
coefficients (see :mod:`circuitarray.ratfunc`).  No floating point enters any
computation; floats appear only when rendering asymptotics tables.

A :class:`FieldContract` bundles the handful of facts generic code needs
about a scalar kind; arithmetic itself is ordinary operator arithmetic.  A
label names its own field: ``field_of`` reads one table from label type to
field (``int`` and ``Fraction`` to ``RATIONALS``, ``RationalFunction`` to
``RATFUNCS``), so grids, the reduction kernel and its chain take their
field from their labels and no caller passes one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable


# Fraction builds 10**exponent in full ("1e999999999" runs for minutes);
# 10**4299 has 4300 digits, the most CPython prints by default.
_MAX_DECIMAL_EXPONENT = 4299


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational such as ``"26/27"``, ``"2"`` or ``"1.5e3"``."""
    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", text, re.IGNORECASE)
    if exponent and abs(int(exponent.group(1))) > _MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent {exponent.group(1)} too large")
    return Fraction(text.strip())


def int_digit_limit() -> int:
    """CPython's bound on the digits of an int converted to or from str
    (``sys.get_int_max_str_digits``), or 0 where there is none."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


def digit_limit_error(text) -> str | None:
    """Why ``text`` could not be read, when a number in it has more digits
    than ``int_digit_limit``: one short line that names the bound and not
    the value.  None for any other text, whose own error says more."""
    limit = int_digit_limit()
    if limit and type(text) is str and re.search(
            rf"\d{{{limit + 1}}}", text.replace("_", "")):
        return (f"has an integer of more than {limit} digits, the most "
                "Python reads from a string")
    return None


def _decimal(n: int) -> str:
    """``str(n)`` for an integer of any length, also past ``int_digit_limit``.

    Within the limit this is ``str(n)``.  Past it, n is split at 10**k, k
    about half its digits, and each part is converted the same way; the
    process-wide limit is left alone.
    """
    try:
        return str(n)
    except ValueError:  # past the limit
        pass
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # log10(2) > 0.3: at most half the digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(value) -> str:
    """Render an exact rational as ``"p/q"`` (or ``"p"`` when q is 1), in
    full at any length."""
    n, d = value.numerator, value.denominator
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


def _int_cofactors(u: int, v: int) -> tuple[int, int, int]:
    """(g, u/g, v/g) for g the gcd of u and v, which are not both zero."""
    g = gcd(u, v)
    return g, u // g, v // g


def _from_coprime_ints(n: int, d: int) -> Fraction:
    """n/d for coprime n and d > 0, with no gcd: a Fraction with its slots
    set as CPython 3.12's ``_from_coprime_ints`` sets them."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _make_fraction(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints n and d: one gcd, then the sign fix;
    ZeroDivisionError when d = 0."""
    if not d:
        raise ZeroDivisionError("rational with zero denominator")
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _from_coprime_ints(n // g, d // g)


def _coprime_fraction(n: int, d: int) -> Fraction:
    """n/d for n, d that share at most a factor 2, which it takes out, with
    no gcd."""
    if not n or not d:
        return _make_fraction(n, d)
    if not (n | d) & 1:
        n, d = n // 2, d // 2
    if d < 0:
        n, d = -n, -d
    return _from_coprime_ints(n, d)


@dataclass(frozen=True, eq=False)
class FieldContract:
    """The facts generic code needs about a scalar field: its constants,
    parsing and formatting, and the three builders the reduction kernel
    forms labels with from numerators and denominators (ints, or
    polynomials): ``make(n, d)``, the normalising constructor;
    ``split(u, v)``, (g, u/g, v/g) for g the gcd of u and v, not both
    zero; and ``coprime(n, d)``, n/d for n, d that share at most a factor
    2, in lowest terms with no gcd.  Contracts compare by identity.

    ``ordered`` is true for the rationals, the one ordered field: their
    resistance labels must be strictly positive, which ``Grid`` tests on
    the numerator.  Rational functions are not ordered, so only a zero
    label is refused there.
    """

    name: str
    zero: Any
    one: Any
    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    make: Callable[[Any, Any], Any]
    split: Callable[[Any, Any], tuple]
    coprime: Callable[[Any, Any], Any]
    ordered: bool = True


RATIONALS = FieldContract(
    name="rational", zero=Fraction(0), one=Fraction(1), parse=parse_rational,
    format=format_rational, make=_make_fraction, split=_int_cofactors,
    coprime=_coprime_fraction)

# ratfunc builds RATFUNCS from FieldContract above, so it is imported here.
from .ratfunc import RATFUNCS, RationalFunction  # noqa: E402

_FIELDS = {int: RATIONALS, Fraction: RATIONALS, RationalFunction: RATFUNCS}


def field_of(label) -> FieldContract:
    """The field of a label's type (``_FIELDS``); TypeError if none."""
    try:
        return _FIELDS[type(label)]
    except KeyError:
        raise TypeError(f"no field has labels of type "
                        f"{type(label).__name__}") from None


"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Coefficients are stored lowest degree first with trailing zeros stripped, so
the zero polynomial has an empty coefficient tuple and every nonzero
polynomial has a nonzero leading coefficient.  Polynomials are immutable and
hashable; equality is structural.

The gcd is computed with a primitive pseudo-remainder sequence: contents are
factored out so every intermediate stays in integer arithmetic, which avoids
the coefficient blowup of naive Euclid over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        """Positive gcd of all coefficients (0 for the zero polynomial)."""
        return int_gcd(*self.coeffs)

    def primitive(self) -> "Polynomial":
        """Divide out the content; sign is kept on the leading coefficient."""
        g = self.content()
        if g <= 1:
            return self
        return Polynomial(c // g for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divide_exact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division in integer arithmetic.

        Raises ValueError as soon as a quotient coefficient is not an
        integer, or if the division leaves a remainder.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        n = len(dc)
        lead = dc[-1]
        qdeg = len(rem) - n
        quot = [0] * max(qdeg + 1, 0)
        for i in range(qdeg, -1, -1):
            q, r = divmod(rem[i + n - 1], lead)
            if r:
                raise ValueError(
                    "inexact polynomial division (non-integer quotient)")
            quot[i] = q
            if q:
                for j, c in enumerate(dc):
                    rem[i + j] -= q * c
        if any(rem):
            raise ValueError("inexact polynomial division")
        return Polynomial(quot)

    # -- gcd ----------------------------------------------------------------

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Primitive gcd: the gcd over the rationals, returned as a primitive
        integer polynomial with positive leading coefficient.

        Contents are not included; callers that care about integer contents
        combine this with :meth:`content`.
        """
        a, b = self.primitive(), other.primitive()
        if a.is_zero:
            g = b
        elif b.is_zero:
            g = a
        else:
            if a.degree < b.degree:
                a, b = b, a
            while not b.is_zero:
                a = a.pseudo_rem(b).primitive()
                a, b = b, a
            g = a
        if g.leading < 0:
            g = -g
        return g

    def pseudo_rem(self, divisor: "Polynomial") -> "Polynomial":
        """Pseudo-remainder of self by divisor (integer-only long division
        after scaling by a power of the divisor's leading coefficient)."""
        rem = list(self.coeffs)
        dc = divisor.coeffs
        lead = dc[-1]
        n = len(dc)
        while len(rem) >= n:
            coef = rem[-1]
            rem = [c * lead for c in rem]
            for j in range(n):
                rem[len(rem) - n + j] -= coef * dc[j]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(rem)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x0) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        acc = x0 * 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    # -- comparisons / rendering --------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        """Expanded ascending form, e.g. ``-3 + 1*x^1``."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = str(c) if k == 0 else f"{c}*x^{k}"
            if not parts:
                parts.append(term)
            elif c < 0:
                parts.append(f"- {str(-c) if k == 0 else f'{-c}*x^{k}'}")
            else:
                parts.append(f"+ {term}")
        return " ".join(parts)

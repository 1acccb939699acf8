"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Coefficients are stored lowest degree first with trailing zeros stripped, so
the zero polynomial has an empty coefficient tuple and every nonzero
polynomial has a nonzero leading coefficient.  Polynomials are immutable and
hashable; equality is structural.

The gcd is the heuristic GCDHEU of Char, Geddes & Gonnet (J. Symbolic
Comput. 7, 1989): evaluate both primitive inputs at one integer, take the
integer gcd of the two values and read it back as a polynomial.  The
candidate is accepted only if it divides both inputs exactly, which makes it
the gcd, and the two exact quotients are the cofactors.  When a few
evaluation points give no accepted candidate, a primitive pseudo-remainder
sequence (PRS) computes the gcd instead; it also serves the tests as the
reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt

# Evaluation points GCDHEU tries before the PRS takes over.
_HEU_GCD_TRIES = 6


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
        return _from_ints([c // g for c in self.coeffs])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _from_ints(out)

    def __neg__(self) -> "Polynomial":
        return _from_ints([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return _from_ints([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _from_ints([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _from_ints(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = _from_ints([1])
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
        return _from_ints(quot)

    # -- gcd ----------------------------------------------------------------

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Primitive gcd: the gcd over the rationals, returned as a primitive
        integer polynomial with positive leading coefficient.

        Contents are not included; callers that care about integer contents
        combine this with :meth:`content`, or use :meth:`cofactors`.
        """
        if self.is_zero or other.is_zero:
            g = (other if self.is_zero else self).primitive()
            return -g if g.leading < 0 else g
        return self.cofactors(other)[0].primitive()

    def cofactors(self, other: "Polynomial"
                  ) -> tuple["Polynomial", "Polynomial", "Polynomial"]:
        """(g, self / g, other / g) for the gcd g over the integers.

        Both polynomials must be nonzero.  g is the gcd of the two contents
        times :meth:`gcd`, so its leading coefficient is positive and the
        cofactors share neither a polynomial factor nor an integer content.
        """
        if self.is_zero or other.is_zero:
            raise ValueError("cofactors of the zero polynomial")
        ca, cb = self.content(), other.content()
        c = int_gcd(ca, cb)
        if self.degree == 0 or other.degree == 0:
            if c == 1:
                return _ONE, self, other
            return (_from_ints([c]), _from_ints([x // c for x in self.coeffs]),
                    _from_ints([x // c for x in other.coeffs]))
        a = _from_ints([x // ca for x in self.coeffs]) if ca > 1 else self
        b = _from_ints([x // cb for x in other.coeffs]) if cb > 1 else other
        found = _heu_gcd(a, b)
        if found is None:
            h = _prs_gcd(a, b)
            found = h, a.divide_exact(h), b.divide_exact(h)
        h, qa, qb = found
        if c > 1:
            h = h * c
        if ca > c:
            qa = qa * (ca // c)
        if cb > c:
            qb = qb * (cb // c)
        return h, qa, qb

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
        return _from_ints(rem)

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


def _from_ints(cs: list) -> Polynomial:
    """Polynomial from a list of ints, which it strips of trailing zeros.

    The constructor for Polynomial's own results, whose coefficients are
    ints by construction: it skips the public per-coefficient type check.
    """
    while cs and cs[-1] == 0:
        cs.pop()
    p = object.__new__(Polynomial)
    p.coeffs = tuple(cs)
    return p


_ONE = _from_ints([1])


def _evaluate(coeffs: tuple, xi: int) -> int:
    """The integer value at xi of the polynomial with these coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * xi + c
    return acc


def _from_digits(v: int, xi: int) -> Polynomial:
    """The polynomial whose coefficients are the symmetric base-xi digits
    of v, each in (-xi/2, xi/2]: the h with h(xi) = v and small coefficients.
    For v > 0 its leading coefficient is positive."""
    half = xi // 2
    digits = []
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        digits.append(d)
    return _from_ints(digits)


def _heu_gcd(a: Polynomial, b: Polynomial):
    """GCDHEU on primitive a, b of degree >= 1: (g, a / g, b / g) with g
    the primitive gcd (positive leading coefficient), or None.

    The first point xi is 2 min(|a|, |b|) + 2 in the max norm.  From that
    bound on, a candidate that divides both inputs is their gcd (Char,
    Geddes & Gonnet), and the division check rejects any other.  Each
    rejection moves to a larger xi; after _HEU_GCD_TRIES the caller falls
    back to the PRS.
    """
    xi = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 2
    for _ in range(_HEU_GCD_TRIES):
        va, vb = _evaluate(a.coeffs, xi), _evaluate(b.coeffs, xi)
        if va and vb:
            h = _from_digits(int_gcd(va, vb), xi).primitive()
            if h.degree == 0:
                return _ONE, a, b
            try:
                return h, a.divide_exact(h), b.divide_exact(h)
            except ValueError:
                pass
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _prs_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive PRS gcd of primitive a, b: the Euclidean remainder
    sequence with every pseudo-remainder made primitive, so it stays in
    integer arithmetic without coefficient blowup.  Positive leading
    coefficient."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, a.pseudo_rem(b).primitive()
    return -a if a.leading < 0 else a

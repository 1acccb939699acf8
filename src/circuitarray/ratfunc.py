"""Univariate rational functions in canonical form.

A RationalFunction is a ratio of two integer-coefficient polynomials with

  * a nonzero denominator,
  * no common polynomial factor (gcd over the rationals removed),
  * no common integer content, and
  * a positive leading coefficient on the denominator.

Canonical form makes equality plain structural comparison, which the
symbolic verification suites rely on.  Together with the usual operators
these objects form a field, so the grid reduction code runs over them
unchanged: relabel a boundary resistance as an expression in x, reduce, and
read off closed forms that evaluate back to the exact rational pipeline.

``parse_ratfunc`` accepts expressions like ``1 - 3/x`` or
``(x-3)*(3*x-1)/(6*(x-1)^2)``.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldContract
from .polynomial import Polynomial

_ZERO = Polynomial()
_ONE = Polynomial((1,))


class RationalFunction:
    __slots__ = ("numer", "denom")

    def __init__(self, numer: Polynomial, denom: Polynomial = _ONE):
        if denom.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if numer.is_zero:
            numer, denom = _ZERO, _ONE
        else:
            _, numer, denom = numer.cofactors(denom)
            if denom.leading < 0:
                numer, denom = -numer, -denom
        self.numer = numer
        self.denom = denom

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(k))

    @staticmethod
    def from_rational(q) -> "RationalFunction":
        q = Fraction(q)
        return RationalFunction(Polynomial.constant(q.numerator),
                                Polynomial.constant(q.denominator))

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Polynomial.x())

    # -- field arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, int):
            return RationalFunction.from_int(other)
        if isinstance(other, Fraction):
            return RationalFunction.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(self.numer * o.denom + o.numer * self.denom,
                                self.denom * o.denom)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.numer, self.denom)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(self.numer * o.denom - o.numer * self.denom,
                                self.denom * o.denom)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFunction(self.numer * o.numer, self.denom * o.denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.numer.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.numer * o.denom, self.denom * o.numer)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            if self.numer.is_zero:
                raise ZeroDivisionError("inverse of the zero rational function")
            return RationalFunction(self.denom ** (-k), self.numer ** (-k))
        return RationalFunction(self.numer ** k, self.denom ** k)

    # -- structure ----------------------------------------------------------

    @property
    def numerator(self) -> Polynomial:
        """Canonical numerator (the attribute name ``Fraction`` uses)."""
        return self.numer

    @property
    def denominator(self) -> Polynomial:
        """Canonical denominator (the attribute name ``Fraction`` uses)."""
        return self.denom

    @property
    def is_zero(self) -> bool:
        return self.numer.is_zero

    def denominator_constant(self) -> int:
        """Integer content of the canonical denominator."""
        return self.denom.content()

    def eval(self, x0) -> Fraction:
        """Exact value at a rational point; raises ZeroDivisionError on a pole."""
        x0 = Fraction(x0)
        den = self.denom.eval(x0)
        if den == 0:
            raise ZeroDivisionError(f"pole at x = {x0}")
        return self.numer.eval(x0) / den

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.numer == o.numer and self.denom == o.denom

    def __hash__(self) -> int:
        return hash((self.numer, self.denom))

    def __repr__(self) -> str:
        return f"RationalFunction({self.numer!r}, {self.denom!r})"

    def __str__(self) -> str:
        if self.denom == _ONE:
            return str(self.numer)
        return f"({self.numer}) / ({self.denom})"


# -- expression parsing ------------------------------------------------------

# The cost of building a value grows with its size: its degree plus its
# coefficient bits.  x^-999999999, 2^999999999 or (1+x)^100000 would run
# for minutes or exhaust memory, and so would a product of many powers that
# are each small enough, such as eight factors (1+x)^499.  So the parse
# spends from one budget: every operation costs the size its result can
# reach, charged before the result is built.
_MAX_PARSE_SIZE = 1000


def _size(value: RationalFunction) -> int:
    return max(p.degree + max(map(abs, p.coeffs), default=0).bit_length()
               for p in (value.numer, value.denom))


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch in "x+-*/^()":
            tokens.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, /, ^, parentheses, ints and x."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.budget = _MAX_PARSE_SIZE

    def spend(self, size: int, what: str) -> None:
        """Charge one operation's result size to the parse's budget."""
        self.budget -= size
        if self.budget < 0:
            raise ValueError(f"{what} too large: the expression exceeds "
                             f"the size budget of {_MAX_PARSE_SIZE}")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.peek()!r}")
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            self.spend(_size(value) + _size(rhs), f"operation {op!r}")
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            self.spend(_size(value) + _size(rhs), f"operation {op!r}")
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> RationalFunction:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        value = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exponent = self.take()
            if not isinstance(exponent, int):
                raise ValueError("exponent must be an integer")
            self.spend(exponent * _size(value), f"power ^{sign * exponent}")
            value = value ** (sign * exponent)
        return value

    def atom(self) -> RationalFunction:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        if tok == "x":
            return RationalFunction.x()
        if isinstance(tok, int):
            return RationalFunction.from_int(tok)
        raise ValueError(f"unexpected token {tok!r}")


def parse_ratfunc(text: str) -> RationalFunction:
    """Parse an expression in x into a canonical rational function."""
    try:
        return _Parser(_tokenize(text)).parse()
    except RecursionError:
        # the parser recurses once per parenthesis and unary minus
        raise ValueError("expression nested too deeply") from None


def _coprime_ratfunc(n: Polynomial, d: Polynomial) -> RationalFunction:
    """n/d for n, d with no common polynomial factor and at most a common
    content 2, which it takes out: the canonical form, with no gcd."""
    if not n or not d:
        return RationalFunction(n, d)
    if not any(c & 1 for c in n.coeffs + d.coeffs):
        n, d = (Polynomial(c // 2 for c in v.coeffs) for v in (n, d))
    if d.leading < 0:
        n, d = -n, -d
    f = object.__new__(RationalFunction)
    f.numer, f.denom = n, d
    return f


RATFUNCS = FieldContract(
    name="symbolic", zero=RationalFunction(_ZERO), one=RationalFunction(_ONE),
    parse=parse_ratfunc, format=str, make=RationalFunction,
    split=Polynomial.cofactors, coprime=_coprime_ratfunc, ordered=False)

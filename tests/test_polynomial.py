"""Polynomials and canonical rational functions."""

from fractions import Fraction as F

import pytest

from circuitarray.polynomial import Polynomial
from circuitarray.ratfunc import RationalFunction, parse_ratfunc

X = RationalFunction.x()


def poly(*coeffs):
    return Polynomial(coeffs)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).is_zero and poly().degree == -1

    def test_arithmetic(self):
        p, q = poly(-3, 1), poly(1, 1)
        assert (p + q).coeffs == (-2, 2)
        assert (p * q).coeffs == (-3, -2, 1)
        assert (p - p).is_zero
        assert (q ** 3).coeffs == (1, 3, 3, 1)
        assert (2 * p).coeffs == (-6, 2)

    def test_content_and_primitive(self):
        assert poly(6, -9, 12).content() == 3
        assert poly(6, -9, 12).primitive().coeffs == (2, -3, 4)

    def test_gcd_is_primitive_positive(self):
        a = poly(-1, 1) * poly(-3, 1) * 6        # 6(x-1)(x-3)
        b = poly(-1, 1) * poly(5, 2) * -4        # -4(x-1)(2x+5)
        g = a.gcd(b)
        assert g == poly(-1, 1)
        # gcd with zero is the primitive part of the other, sign positive
        assert Polynomial().gcd(b) == poly(-5, 3, 2)
        assert Polynomial().gcd(b).leading > 0

    def test_exact_division(self):
        a = poly(-1, 1) * poly(2, 0, 3)
        assert a.divide_exact(poly(-1, 1)) == poly(2, 0, 3)
        with pytest.raises(ValueError):
            poly(1, 1).divide_exact(poly(0, 1))

    def test_exact_division_by_non_monic_divisor(self):
        a = poly(-1, 3) * poly(5, 2)                 # (3x-1)(2x+5)
        assert a.divide_exact(poly(-1, 3)) == poly(5, 2)
        assert (a * -4).divide_exact(poly(5, 2)) == poly(4, -12)
        assert Polynomial().divide_exact(poly(-1, 3)).is_zero

    def test_inexact_division_raises(self):
        # x / 2x = 1/2: the quotient is not an integer polynomial
        with pytest.raises(ValueError, match="non-integer quotient"):
            poly(0, 1).divide_exact(poly(0, 2))
        # (x^2 + 1) / (x - 1) = x + 1 remainder 2
        with pytest.raises(ValueError, match=r"^inexact polynomial division$"):
            poly(1, 0, 1).divide_exact(poly(-1, 1))
        # a divisor of higher degree leaves the dividend as remainder
        with pytest.raises(ValueError, match=r"^inexact polynomial division$"):
            poly(3).divide_exact(poly(-1, 1))
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).divide_exact(Polynomial())

    def test_eval_horner(self):
        p = poly(-3, 0, 1)  # x^2 - 3
        assert p.eval(F(2)) == 1
        assert p.eval(F(1, 2)) == F(-11, 4)

    def test_ascending_str(self):
        assert str(poly(-3, 1)) == "-3 + 1*x^1"
        assert str(poly(0, 2, 0, -5)) == "2*x^1 - 5*x^3"
        assert str(Polynomial()) == "0"

    def test_integer_coefficients_required(self):
        with pytest.raises(TypeError):
            Polynomial((F(1, 2),))


class TestRationalFunction:
    def test_difference_and_sum_simplify(self):
        f = 1 - 3 / X
        assert f == RationalFunction(poly(-3, 1), poly(0, 1))
        g = f + 2
        assert g == RationalFunction(poly(-3, 3), poly(0, 1))

    def test_scalar_multiple_keeps_coprime_contents(self):
        f = F(2, 3) * ((X - 3) / (X - 1))
        assert f.numer == poly(-6, 2)
        assert f.denom == poly(-3, 3)

    def test_numerator_denominator_are_the_canonical_parts(self):
        # the names Fraction uses, so memo keys built from them work for both
        f = F(2, 3) * ((X - 3) / (X - 1))
        assert (f.numerator, f.denominator) == (poly(-6, 2), poly(-3, 3))
        assert hash(f.numerator) == hash(poly(-6, 2))
        with pytest.raises(AttributeError):
            f.numerator = poly(1)

    def test_canonical_sign(self):
        f = RationalFunction(poly(1), poly(2, -1))  # 1/(2-x) -> -1/(x-2)
        assert f.denom.leading > 0
        assert f.numer == poly(-1)

    def test_common_factors_removed(self):
        f = RationalFunction(poly(-1, 1) * poly(6, 2), poly(-1, 1) * poly(4))
        assert f == RationalFunction(poly(3, 1), poly(2))

    def test_eval_examples(self):
        f = (X - 3) * (3 * X - 1) / (6 * (X - 1) ** 2)
        assert f.eval(9) == F(13, 32)
        g = F(2, 3) * (X - 3) / (X - 1)
        assert g.eval(9) == F(1, 2)
        assert (1 - 3 / X).eval(9) == F(2, 3)

    def test_pole_raises(self):
        f = 1 / (X - 1)
        with pytest.raises(ZeroDivisionError):
            f.eval(1)

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            X / (X - X)
        with pytest.raises(ZeroDivisionError):
            RationalFunction(poly(1), Polynomial())

    def test_pow_and_inverse(self):
        f = (X - 3) / X
        assert f ** 2 == (X - 3) * (X - 3) / (X * X)
        assert f ** -1 == X / (X - 3)

    def test_denominator_constant(self):
        f = (X - 3) / (6 * (X - 1) ** 2)
        assert f.denominator_constant() == 6

    def test_str_form(self):
        assert str(1 - 3 / X) == "(-3 + 1*x^1) / (1*x^1)"
        assert str(RationalFunction(poly(5))) == "5"


class TestParser:
    def test_boundary_expression(self):
        assert parse_ratfunc("1 - 3/x") == 1 - 3 / X

    def test_nested_expression(self):
        got = parse_ratfunc("(x-3)*(3*x-1)/(6*(x-1)^2)")
        assert got == (X - 3) * (3 * X - 1) / (6 * (X - 1) ** 2)

    def test_unary_minus_and_powers(self):
        assert parse_ratfunc("-x^2 + 3") == 3 - X * X
        assert parse_ratfunc("2/3") == RationalFunction.from_rational(F(2, 3))

    def test_errors(self):
        for bad in ("x +", "(x", "x ^ y", "3 $ 4"):
            with pytest.raises(ValueError):
                parse_ratfunc(bad)

"""Polynomials and canonical rational functions."""

import random
from fractions import Fraction as F
from math import gcd as int_gcd

import pytest

from circuitarray import polynomial
from circuitarray.polynomial import Polynomial, _heu_gcd, _prs_gcd
from circuitarray.ratfunc import RationalFunction, parse_ratfunc

X = RationalFunction.x()


def poly(*coeffs):
    return Polynomial(coeffs)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).coeffs == (1, 2)
        assert poly(0, 0).is_zero and poly().degree == -1

    def test_truth_is_nonzero(self):
        assert not poly() and not poly(0, 0) and not (poly(1, 2) - poly(1, 2))
        assert poly(0, 1) and poly(-3)

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

    def test_cofactors_of_a_constant_cancel_contents_only(self):
        assert poly(-6).cofactors(poly(2, 4)) == (poly(2), poly(-3), poly(1, 2))
        assert poly(3, 6).cofactors(poly(5)) == (poly(1), poly(3, 6), poly(5))
        # a zero operand splits off the other one whole; two cannot split
        assert Polynomial().cofactors(poly(1, 1)) == \
            (poly(1, 1), Polynomial(), poly(1))
        assert poly(-2, 4).cofactors(Polynomial()) == \
            (poly(-2, 4), poly(1), Polynomial())
        with pytest.raises(ZeroDivisionError):
            Polynomial().cofactors(Polynomial())

    def test_integer_coefficients_required(self):
        with pytest.raises(TypeError):
            Polynomial((F(1, 2),))


def random_poly(rng, degree, bits):
    cs = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)]
    return Polynomial(cs + [rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)])


def planted(rng, bits=4):
    g = random_poly(rng, rng.randint(1, 4), bits)
    return (g * random_poly(rng, rng.randint(0, 4), bits),
            g * random_poly(rng, rng.randint(0, 4), bits))


def negative_leading(rng):
    a, b = planted(rng)
    return (-a if a.leading > 0 else a), (-b if b.leading > 0 else b)


def wide(rng):
    return planted(rng, bits=rng.randint(100, 130))


def coprime(rng):
    return random_poly(rng, rng.randint(1, 5), 6), random_poly(rng, rng.randint(1, 5), 6)


def one_divides_the_other(rng):
    g = random_poly(rng, rng.randint(1, 4), 8)
    return g, g * random_poly(rng, rng.randint(1, 4), 8)


PAIRS = [planted, negative_leading, wide, coprime, one_divides_the_other]


class TestGcd:
    """GCDHEU and the cofactors against the primitive PRS as the oracle."""

    @pytest.mark.parametrize("pairs", PAIRS, ids=lambda f: f.__name__)
    def test_heuristic_matches_prs(self, pairs):
        rng = random.Random(pairs.__name__)
        for _ in range(40):
            a, b = (p.primitive() for p in pairs(rng))
            found = _heu_gcd(a, b)
            assert found is not None, (a, b)
            g, qa, qb = found
            assert g == _prs_gcd(a, b), (a, b)
            assert g * qa == a and g * qb == b

    @pytest.mark.parametrize("pairs", PAIRS, ids=lambda f: f.__name__)
    def test_cofactors(self, pairs):
        rng = random.Random(pairs.__name__)
        for _ in range(40):
            a, b = pairs(rng)
            g, qa, qb = a.cofactors(b)
            assert g * qa == a and g * qb == b
            assert g.leading > 0
            assert g.content() == int_gcd(a.content(), b.content())
            assert g.primitive() == a.gcd(b) == _prs_gcd(a.primitive(), b.primitive())
            assert qa.gcd(qb) == Polynomial((1,))
            assert int_gcd(qa.content(), qb.content()) == 1

    def test_rejected_candidate_moves_to_a_larger_point(self, monkeypatch):
        # At the first point the values are scaled by xi + 1, so the read-back
        # candidate carries a spurious factor x + 1 that divides neither
        # input; the second point is evaluated honestly.
        evaluate, points = polynomial._evaluate, []

        def first_point_scaled(coeffs, xi):
            points.append(xi)
            v = evaluate(coeffs, xi)
            return v * (xi + 1) if xi == points[0] else v

        monkeypatch.setattr(polynomial, "_evaluate", first_point_scaled)
        g = poly(-1, 3) * poly(2, 0, 1)                  # (3x-1)(x^2+2)
        a, b = g * poly(5, 2), g * poly(-7, 0, 1)
        assert a.gcd(b) == g == _prs_gcd(a, b)
        assert len(set(points)) == 2 and points[0] < points[-1]

    def test_prs_fallback_after_every_point_is_rejected(self, monkeypatch):
        evaluate, points = polynomial._evaluate, set()

        def always_scaled(coeffs, xi):
            points.add(xi)
            return evaluate(coeffs, xi) * (xi + 1)

        monkeypatch.setattr(polynomial, "_evaluate", always_scaled)
        g = poly(-1, 3) * poly(2, 0, 1)
        a, b = g * poly(5, 2) * 6, g * poly(-7, 0, 1) * -4
        assert _heu_gcd(a.primitive(), b.primitive()) is None
        assert len(points) == polynomial._HEU_GCD_TRIES
        assert a.gcd(b) == g == _prs_gcd(a.primitive(), b.primitive())
        assert a.cofactors(b) == (g * 2, poly(5, 2) * 3, poly(-7, 0, 1) * -2)


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

    def test_power_size_cap(self):
        # x has degree 1 and coefficient bits 1: a size of 2 per unit
        assert parse_ratfunc("x^500") == X ** 500
        assert parse_ratfunc("x^-500") == X ** -500
        assert parse_ratfunc("1^1000") == 1
        for bad in ("x^501", "x^-501", "3^501", "((1+x)^30)^30"):
            with pytest.raises(ValueError, match="too large"):
                parse_ratfunc(bad)

    def test_size_budget_spans_the_whole_expression(self):
        # each factor fits the budget on its own, the product does not
        assert parse_ratfunc("(1+x)^300") == (1 + X) ** 300
        for bad in ("(1+x)^300*(1+x)^300", "*".join(["(1+x)^499"] * 8),
                    "+".join(["x^100"] * 10)):
            with pytest.raises(ValueError, match="size budget"):
                parse_ratfunc(bad)

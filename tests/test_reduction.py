"""Transformation functions, one-step reduction, windowed column reads."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest

from circuitarray import fields, reduction
from circuitarray.circuit_array import reduce_window
from circuitarray.cli import main
from circuitarray.fields import RATIONALS, FieldContract
from circuitarray.graphs import graph_level_reduce
from circuitarray.grid import Grid, GridError, all_one_grid
from circuitarray.polynomial import Polynomial
from circuitarray.ratfunc import RATFUNCS, RationalFunction
from circuitarray.sequences import symbolic_start_grid
from circuitarray.reduction import (_band_step, _cone_starts, delta,
                                    reduce_diagonal, reduce_k, reduce_once,
                                    triangle_legs, wye)


def test_delta_values():
    assert delta(F(1), F(1), F(1)) == F(1, 3)
    assert delta(F(1), F(1), F(2, 3)) == F(3, 8)
    # direct substitution: (26/27 * 1) / (26/27 + 1 + 1)
    assert delta(F(26, 27), F(1), F(1)) == F(13, 40)


def test_wye_values():
    assert wye(F(1, 3), F(1, 3), F(1, 3)) == 1
    assert wye(F(1), F(1), F(1)) == 3
    assert wye(delta(F(1), F(1), F(2, 3)), delta(F(1), F(1), F(1)),
               delta(F(1), F(1), F(1))) == F(26, 27)


def test_degenerate_sites_raise():
    with pytest.raises(ZeroDivisionError):
        delta(F(1), F(1), F(-2))
    # Polynomial == 0 is always False: the kernel must not test its
    # numerators and denominators that way
    x = RationalFunction.x()
    one = RATFUNCS.one
    for L, R, B in ((F(1), F(1), F(-2)), (x, one, -(x + 1))):
        with pytest.raises(ZeroDivisionError):
            triangle_legs(L, R, B)
    for y, z in ((F(1), F(1)), (x, one)):
        with pytest.raises(ZeroDivisionError):
            wye(0 * y, y, z)
    # the equal-label forms: a zero leg x = z, and R = B with
    # aβ + 2bα = 0
    for y in (F(1), x):
        with pytest.raises(ZeroDivisionError):
            wye(0 * y, y, 0 * y)
    for L, R in ((F(-2, 3), F(1, 3)), (-2 * x, x)):
        with pytest.raises(ZeroDivisionError):
            triangle_legs(L, R, R)
    # the split forms test for zero before they split, in every field:
    # a zero leg x with y = z, and R = B with a = b = 0
    for y in (F(3, 2), x):
        with pytest.raises(ZeroDivisionError, match="wye with a zero leg"):
            wye(0 * y, y, _copy(y))
    for zero in (F(0), 0, 0 * x):
        with pytest.raises(ZeroDivisionError,
                           match="triangle legs with zero edge sum"):
            triangle_legs(zero, zero, _copy(zero))


def test_zero_checks_build_no_rational_function(monkeypatch):
    # The equal-label forms test the numerators they hold for zero, in
    # every field; comparing a rational function with the int 0 would
    # first build a rational function from it.
    x = RationalFunction.x()
    L, R = x + 1, 2 / (x + 3)
    cases = [(wye, (L, R, _copy(L))), (wye, (L, R, _copy(R))),
             (triangle_legs, (L, R, _copy(R)))]
    want = [form(*labels) for form, labels in cases]

    def refuse(k):
        raise AssertionError(f"built a rational function from {k}")

    monkeypatch.setattr(RationalFunction, "from_int", staticmethod(refuse))
    assert [form(*labels) for form, labels in cases] == want


def test_triangle_legs_align_with_delta():
    L, R, B = F(1), F(2), F(3)
    apex, bl, br = triangle_legs(L, R, B)
    assert apex == delta(L, R, B)
    assert bl == delta(B, L, R)
    assert br == delta(R, B, L)


def _operator_wye(x, y, z):
    # the textbook form, one field operation at a time
    return y + z + y * z / x


def _random_fraction(rng, bits):
    return F(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1)


def _random_poly(rng, low=1):
    """A polynomial of degree ``low`` - 1 to 3 (so nonzero), with
    coefficients in [-9, 9]."""
    while True:
        p = Polynomial(rng.randint(-9, 9) for _ in range(rng.randint(low, 4)))
        if p.degree >= low - 1:
            return p


def _random_ratfunc(rng):
    return RationalFunction(_random_poly(rng), _random_poly(rng))


def _check_kernel(L, R, B):
    # the references divide with /, which makes a float of two ints
    Lf, Rf, Bf = (F(v) if type(v) is int else v for v in (L, R, B))
    assert triangle_legs(L, R, B) == (delta(Lf, Rf, Bf), delta(Bf, Lf, Rf),
                                      delta(Rf, Bf, Lf))
    assert wye(L, R, B) == _operator_wye(Lf, Rf, Bf)


def _three(draw):
    return lambda rng: (draw(rng), draw(rng), draw(rng))


def _shared_factors(ints):
    """Labels L = a/α and R = b/β with a shared 200-500-bit numerator
    factor h and a shared denominator factor g (no denominators for int
    labels), and an unrelated B.  The rational R = B legs and y = z wye
    take out h and g; a 64-bit factor of h is planted in t' = a'β' + 2b'α',
    the R = B edge sum over hg, so that k = gcd(h, t') is not 1 either."""
    def draw(rng):
        k = rng.getrandbits(64) | 1
        h = k * (rng.getrandbits(rng.randint(136, 436)) | 1)
        g = 1 if ints else rng.getrandbits(rng.randint(100, 300)) | 1
        # α' = 1 (mod k), so b' = -a'β'/2 (mod k) makes k divide t'
        al = 1 if ints else 1 + k * rng.getrandbits(200)
        be = 1 if ints else rng.getrandbits(300) + 1
        a = rng.getrandbits(300) + 1
        b = -a * be * (k + 1) // 2 % k + k * rng.getrandbits(200)
        if ints:
            L, R, B = h * a, h * b, rng.randint(1, 9)
        else:
            L, R, B = F(h * a, g * al), F(h * b, g * be), \
                _random_fraction(rng, 300)
        # the labels' own normalisation keeps the planted factors
        a, al, b, be = L.numerator, L.denominator, R.numerator, R.denominator
        h, g = gcd(a, b), gcd(al, be)
        t = a // h * (be // g) + 2 * (b // h) * (al // g)
        assert h.bit_length() >= 150 and gcd(h, t) > 1
        assert g == 1 if ints else g.bit_length() >= 50
        return L, R, B
    return draw


def _shared_factor_ratfuncs(rng):
    """The polynomial counterpart of ``_shared_factors``: L = ha/(gα) and
    R = hb/(gβ) with a shared numerator factor h and denominator factor g,
    and a factor k of h planted in t' = a'β' + 2b'α' by taking
    β = 2αe + kf and b = kw - ae, so that t' = k(af + 2αw)."""
    def poly(degree):
        return Polynomial([rng.randint(-2 ** 16, 2 ** 16)
                           for _ in range(degree)] + [rng.randint(1, 2 ** 16)])
    k, a, al, e, f, w = (poly(rng.randint(1, 2)) for _ in range(6))
    h, g = k * poly(rng.randint(0, 2)), poly(rng.randint(1, 2))
    be, b = 2 * al * e + k * f, k * w - a * e
    L = RationalFunction(h * a, g * al)
    R = RationalFunction(h * b, g * be)
    # the labels' own normalisation keeps the planted factors
    h, a, b = L.numerator.cofactors(R.numerator)
    g, al, be = L.denominator.cofactors(R.denominator)
    assert h.degree >= 1 and g.degree >= 1
    assert h.cofactors(a * be + 2 * b * al)[0].degree >= 1
    return L, R, _random_ratfunc(rng)


@pytest.mark.parametrize("draw", [
    _three(lambda rng: _random_fraction(rng, 8)),
    _three(lambda rng: _random_fraction(rng, 2000)),
    _three(_random_ratfunc),
    _three(lambda rng: rng.randint(1, 9)),
    _shared_factors(ints=False),
    _shared_factors(ints=True),
    _shared_factor_ratfuncs,
], ids=["small-fractions", "2000-bit-fractions", "ratfuncs", "int-labels",
        "shared-factor-fractions", "shared-factor-ints",
        "shared-factor-ratfuncs"])
def test_fused_kernel_matches_operator_forms(draw):
    # triangle_legs and wye build each result over one denominator; delta
    # and the operator wye normalise after every field operation
    rng = random.Random(12)
    for _ in range(40):
        L, R, B = draw(rng)
        _check_kernel(L, R, B)
        # planted equal labels, each a separate object: R = B takes
        # triangle_legs' R = B form and the wye's y = z form, and (L, R, L)
        # the wye's x = z form
        _check_kernel(L, R, _copy(R))
        _check_kernel(L, R, _copy(L))
        # zero operands of the split, which splits off the other operand
        # whole: R = B = 0, and a y = z wye whose 2x + y is 0, the zero
        # label
        _check_kernel(L, 0 * R, 0 * R)
        _check_kernel(L, -2 * L, -2 * L)


def _copy(v):
    return v if type(v) is int else type(v)(v.numerator, v.denominator)


def test_fused_kernel_takes_int_labels():
    rng = random.Random(13)
    for _ in range(20):
        labels = [_random_fraction(rng, 8) for _ in range(3)]
        i = rng.randrange(3)
        labels[i] = rng.randint(1, 9)
        L, R, B = labels
        legs = triangle_legs(L, R, B)
        assert legs == (delta(L, R, B), delta(B, L, R), delta(R, B, L))
        assert wye(L, R, B) == _operator_wye(L, R, B)
        assert all(type(v) is F for v in legs + (wye(L, R, B),))
    assert triangle_legs(1, 1, 1) == (F(1, 3),) * 3
    assert type(wye(1, 1, 1)) is F and wye(1, 1, 1) == 3


class _Residue:
    """A residue modulo the prime 65521, as a label: its numerator is its
    least non-negative representative, an int, and its denominator 1.  At
    16 bits it stays inside the label-growth envelope of every step."""

    P = 65521
    denominator = 1

    def __init__(self, n, d=1):
        if d % self.P == 0:
            raise ZeroDivisionError("residue division by zero")
        self.numerator = n * pow(d, -1, self.P) % self.P

    def __add__(self, other):
        return _Residue(self.numerator + other.numerator)

    def __truediv__(self, other):
        return _Residue(self.numerator, other.numerator)


# Every residue but 0 is a unit, so the split takes out no factor
_RESIDUES = FieldContract("residue", _Residue(0), _Residue(1), _Residue, str,
                          make=_Residue, split=lambda u, v: (1, u, v),
                          coprime=_Residue)


def test_kernel_builds_results_in_its_labels_type(monkeypatch):
    # A label type of no field is refused, by the kernel, the chain and a
    # grid alike, never converted; once its field is in the table, the
    # chain gives the exact chain's labels modulo P
    foreign = "no field has labels of type _Residue"
    with pytest.raises(TypeError, match=foreign):
        reduction._reduce_chain(20, 1, _Residue(2, 3))
    with pytest.raises(TypeError, match=foreign):
        wye(*(_Residue(k) for k in (1, 2, 3)))
    monkeypatch.setitem(fields._FIELDS, _Residue, _RESIDUES)
    for C, width in ((20, 1), (8, 8)):
        got = reduction._reduce_chain(C, width, _Residue(2, 3))
        want = reduction._reduce_chain(C, width, F(2, 3))
        assert [{d: tuple(v.numerator for v in t) for d, t in reads.items()}
                for reads in got] == \
            [{d: tuple(v.numerator * pow(v.denominator, -1, _Residue.P)
                       % _Residue.P for v in t) for d, t in reads.items()}
             for reads in want]
        assert {type(v) for reads in got for t in reads.values()
                for v in t} == {_Residue}


def _random_int(rng):
    return rng.getrandbits(rng.randint(8, 200)) + 1


def _signed(rng, n):
    return n if rng.getrandbits(1) else -n


def _cofactors(u, v):
    """(g, u/g, v/g) for the gcd g of u and v, in Z or in Z[x]."""
    if type(u) is int:
        g = gcd(u, v)
        return g, u // g, v // g
    return u.cofactors(v)


def _legs_parts(L, R):
    """a', t'', α' and g of triangle_legs(L, R, R)."""
    a, al, b, be = L.numerator, L.denominator, R.numerator, R.denominator
    h, a, b = _cofactors(a, b)
    g, al, be = _cofactors(al, be)
    return a, _cofactors(h, a * be + 2 * b * al)[2], al, g


def _wye_parts(x, y):
    """N = 2qR' + rQ', g and Q' of wye(x, y, x), with z = x = r/R."""
    r, R, q, Q = x.numerator, x.denominator, y.numerator, y.denominator
    g, Q, R = _cofactors(Q, R)
    return 2 * q * R + r * Q, g, Q


def _even(p):
    """Every coefficient of the polynomial p is even."""
    return not any(c & 1 for c in p.coeffs)


# Each drawer below plants one factor that the parts of an equal-label
# result still share after the splits, which the kernel must take out
# before it builds the result; each redraws until the factor is there.

def _apex_two(rng):
    """R = B apex: a' and t'' even, from a even and b odd."""
    while True:
        L = F(_signed(rng, 2 * _random_int(rng)), _random_int(rng))
        R = F(_signed(rng, _random_int(rng) | 1), _random_int(rng))
        a, t, _, _ = _legs_parts(L, R)
        if a % 2 == 0 and t % 2 == 0:
            return L, R


def _bottom_right_gcd(rng):
    """R = B bottom-right leg: gcd(α', g) > 1, from α = e²u and β = ev."""
    while True:
        e = rng.randrange(3, 2 ** 16, 2)
        L = F(_signed(rng, _random_int(rng)), e * e * _random_int(rng))
        R = F(_signed(rng, _random_int(rng)), e * _random_int(rng))
        if gcd(*_legs_parts(L, R)[2:]) > 1:
            return L, R


def _wye_gcd(rng):
    """x = z wye, x = L and y = R: gcd(N, g) > 1, from an odd e in both
    denominators."""
    while True:
        e = rng.choice((3, 5, 7, 9, 15))
        x = F(_signed(rng, _random_int(rng)), e * _random_int(rng))
        y = F(_signed(rng, _random_int(rng)), e * _random_int(rng))
        if gcd(*_wye_parts(x, y)[:2]) > 1:
            return x, y


def _wye_two(rng):
    """x = z wye: N' = N/gcd(N, g) and Q' even, from y's denominator even
    and x's odd."""
    while True:
        x = F(_signed(rng, _random_int(rng)), _random_int(rng) | 1)
        y = F(_signed(rng, _random_int(rng)), 2 * _random_int(rng))
        N, g, Q = _wye_parts(x, y)
        if N // gcd(N, g) % 2 == 0 and Q % 2 == 0:
            return x, y


def _ratfunc_apex_two(rng):
    """R = B apex over Z[x]: a' and t'' with even contents, from a with
    even content."""
    while True:
        L = RationalFunction(2 * _random_poly(rng), _random_poly(rng))
        R = _random_ratfunc(rng)
        a, t, _, _ = _legs_parts(L, R)
        if _even(a) and _even(t):
            return L, R


def _ratfunc_bottom_right_gcd(rng):
    """R = B bottom-right leg over Z[x]: α' and g share a polynomial
    factor, from α = e²u and β = ev with e of degree 1 or more."""
    while True:
        e = _random_poly(rng, 2)
        L = RationalFunction(_random_poly(rng), e * e * _random_poly(rng))
        R = RationalFunction(_random_poly(rng), e * _random_poly(rng))
        if _cofactors(*_legs_parts(L, R)[2:])[0].degree >= 1:
            return L, R


def _ratfunc_wye_gcd(rng):
    """x = z wye over Z[x]: N and g share a polynomial factor e, from
    x = (ew - 2qu)/(eu) and y = q/e, so that g = e, Q' = 1 and N = ew."""
    while True:
        e, q, u, w = (_random_poly(rng, 2) for _ in range(4))
        x = RationalFunction(e * w - 2 * q * u, e * u)
        y = RationalFunction(q, e)
        N, g, _ = _wye_parts(x, y)
        if _cofactors(N, g)[0].degree >= 1:
            return x, y


def _ratfunc_wye_two(rng):
    """x = z wye over Z[x]: N' = N/gcd(N, g) and Q' with even contents,
    from y's denominator with even content."""
    while True:
        x = _random_ratfunc(rng)
        y = RationalFunction(_random_poly(rng), 2 * _random_poly(rng))
        N, g, Q = _wye_parts(x, y)
        if N and _even(_cofactors(N, g)[1]) and _even(Q):
            return x, y


def _assert_lowest_terms(got, want):
    assert got == want
    for v, w in zip(got, want):
        if type(v) is RationalFunction:
            # the operator form is canonical, and canonical form is unique
            assert (v.numer, v.denom) == (w.numer, w.denom), v
        else:
            assert gcd(v.numerator, v.denominator) == 1 and \
                v.denominator > 0, v


def _check_equal_label_forms(L, R):
    B = _copy(R)
    _assert_lowest_terms(
        triangle_legs(L, R, B) + (wye(L, R, _copy(L)), wye(L, R, B)),
        (delta(L, R, B), delta(B, L, R), delta(R, B, L),
         _operator_wye(L, R, L), _operator_wye(L, R, B)))


@pytest.mark.parametrize("draw", [
    _apex_two, _bottom_right_gcd, _wye_gcd, _wye_two,
    lambda rng: (_random_fraction(rng, 8), _random_fraction(rng, 8)),
    _ratfunc_apex_two, _ratfunc_bottom_right_gcd, _ratfunc_wye_gcd,
    _ratfunc_wye_two, lambda rng: (_random_ratfunc(rng), _random_ratfunc(rng)),
], ids=["apex-two", "bottom-right-gcd", "wye-gcd", "wye-two",
        "small-fractions", "ratfunc-apex-two", "ratfunc-bottom-right-gcd",
        "ratfunc-wye-gcd", "ratfunc-wye-two", "small-ratfuncs"])
def test_equal_label_forms_are_built_in_lowest_terms(draw):
    # The R = B legs and the equal-leg wyes build their results from parts
    # proven coprime, in Z and in Z[x], with no final gcd: a factor the
    # proofs miss stays shared by the result's numerator and denominator
    rng = random.Random(15)
    for _ in range(40):
        L, R = draw(rng)
        _check_equal_label_forms(L, R)
        # zero results: R = B = 0, and 2x + y = 0 in the y = z wye
        _check_equal_label_forms(L, 0 * R)
        _check_equal_label_forms(L, -2 * L)
        # and 2y + z = 0 in the x = z wye
        _assert_lowest_terms((wye(L, -L / 2, _copy(L)),), (0 * L,))


def test_coprime_builder_is_the_fraction_it_stands_for():
    # The coprime builders set Fraction's and RationalFunction's slots; a CPython
    # that renames Fraction's, or a RationalFunction that renames its own,
    # must fail here, not build broken labels
    assert {"_numerator", "_denominator"} <= set(F.__slots__)
    assert RationalFunction.__slots__ == ("numer", "denom")
    x = RationalFunction.x()
    rng = random.Random(16)
    for _ in range(100):
        n, d = _random_int(rng), _random_int(rng)
        g = gcd(n, d)
        n, d = n // g, d // g
        for sn, sd in ((n, d), (-n, d), (n, -d), (-n, -d)):
            want = F(sn, sd)
            # the one factor the builder takes out: a shared 2
            for got in (RATIONALS.coprime(sn, sd),
                        RATIONALS.coprime(2 * sn, 2 * sd)):
                assert type(got) is F and got == want
                assert hash(got) == hash(want)
                assert (got.numerator, got.denominator) == \
                    (want.numerator, want.denominator)
                assert got + F(1, 3) == want + F(1, 3)
    for _ in range(100):
        _, n, d = _random_poly(rng).cofactors(_random_poly(rng))
        for sn, sd in ((n, d), (-n, d), (n, -d), (-n, -d)):
            want = RationalFunction(sn, sd)
            for got in (RATFUNCS.coprime(sn, sd),
                        RATFUNCS.coprime(2 * sn, 2 * sd)):
                assert type(got) is RationalFunction
                assert (got.numer, got.denom) == (want.numer, want.denom)
                assert hash(got) == hash(want)
                assert got + 1 / (x + 3) == want + 1 / (x + 3)
    for d in (1, 7, -7, -2):
        zero = RATIONALS.coprime(0, d)
        assert (zero.numerator, zero.denominator) == (0, 1)
        zero = RATFUNCS.coprime(Polynomial(), Polynomial([0, d]))
        assert (zero.numer, zero.denom) == (Polynomial(), Polynomial([1]))
    for n in (3, -3, 0):
        with pytest.raises(ZeroDivisionError):
            RATIONALS.coprime(n, 0)
        with pytest.raises(ZeroDivisionError):
            RATFUNCS.coprime(Polynomial([n, 1]), Polynomial())


def test_zero_edge_sum_on_the_symbolic_boundary_is_a_usage_error(capsys):
    code = main(["reduce", "--n", "6", "--steps", "1", "--field", "symbolic",
                 "--boundary=-2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: bad --boundary '-2': zero edge sum at triangle "
                   "(2,1)\n")


def test_delta_wye_round_trip_at_a_site():
    a, b, c = F(5, 7), F(2, 3), F(9, 4)
    legs = triangle_legs(a, b, c)
    # rebuild each edge from the star: edge opposite each leg
    assert wye(legs[2], legs[0], legs[1]) == a   # L opposite bottom-right
    assert wye(legs[1], legs[0], legs[2]) == b   # R opposite bottom-left
    assert wye(legs[0], legs[1], legs[2]) == c   # B opposite apex


def test_child_edge_examples():
    child = reduce_once(all_one_grid(6))
    assert child.label(2, 1, "L") == F(2, 3)         # boundary series
    assert child.label(3, 2, "L") == 1               # interior wye
    twice = reduce_k(all_one_grid(8), 2)
    assert twice.label(3, 2, "L") == F(26, 27)
    assert twice.label(3, 1, "R") == F(13, 12)
    assert twice.label(3, 1, "L") == F(1, 2)


def test_one_reduction_of_all_one_grids():
    # boundary uniformly 2/3, interior uniformly 1, for every size
    for n in range(3, 21):
        g = reduce_once(all_one_grid(n))
        assert g.m == n - 1 and g.reductions == 1
        for r in range(1, n):
            assert g.label(r, 1, "L") == F(2, 3)
            assert g.label(r, r, "R") == F(2, 3)
            assert g.label(n - 1, r, "B") == F(2, 3)
        interior = [v for e, v in g.items()
                    if not (e.d == 1 and e.side == "L")
                    and not (e.d == e.r and e.side == "R")
                    and not (e.r == n - 1 and e.side == "B")]
        assert all(v == 1 for v in interior)


def test_known_deep_labels():
    g = reduce_k(all_one_grid(8), 2)
    assert g.label(3, 2, "L") == F(26, 27)
    g = reduce_k(all_one_grid(12), 3)
    assert g.label(5, 3, "L") == F(242, 243)
    g = reduce_k(all_one_grid(16), 4)
    assert g.label(7, 4, "L") == F(2186, 2187)
    g = reduce_k(all_one_grid(12), 3)
    assert g.label(5, 1, "R") == F(1157, 960)


def test_reduce_k_identity_and_errors():
    g = all_one_grid(5)
    assert reduce_k(g, 0) is g
    with pytest.raises(GridError):
        reduce_k(g, 5)
    with pytest.raises(GridError):
        reduce_once(all_one_grid(1))
    with pytest.raises(GridError):
        reduce_k(g, -1)


def test_child_labels_positive_and_symmetric():
    g = reduce_k(all_one_grid(9), 3)
    assert all(v > 0 for _, v in g.items())
    assert Grid(g.m, g._tri, reductions=g.reductions).is_symmetric()


def test_reduce_over_rational_functions_commutes_with_evaluation():
    # Graph surgery checks the placement of the legs over the rationals;
    # this checks it over rational functions.  On all-one grids each
    # star's two bottom legs are equal, so a leg placed at the wrong corner
    # only shows on asymmetric labels.
    rng = random.Random(5)
    x = RationalFunction.x()
    labels = (RATFUNCS.one, x, 1 + x, 2 / (x + 1))
    # a grid takes its field from its labels
    assert Grid(1, {(1, 1): (x, x, x)}).field is RATFUNCS
    for m in range(2, 8):
        tri = {(r, d): tuple(rng.choice(labels) for _ in range(3))
               for r in range(1, m + 1) for d in range(1, r + 1)}
        child = reduce_once(Grid(m, tri))
        assert child.field is RATFUNCS
        for x0 in (F(2), F(1, 3), F(7, 2)):
            at = Grid(m, {k: tuple(v.eval(x0) for v in t)
                          for k, t in tri.items()})
            want = reduce_once(at)
            assert graph_level_reduce(at) == want
            assert {e: v.eval(x0) for e, v in child.items()} == \
                dict(want.items()), (m, x0)


def test_window_validates_inputs():
    with pytest.raises(GridError, match="column index must be >= 1"):
        reduce_window(0)


def _fresh_label(field, rng):
    """One of three labels, built anew, so that equal labels are distinct
    objects: 1, 2 and 3/2, or 1, x and (x + 1)/2."""
    n, e, d = rng.choice(((1, 0, 1), (0, 1, 1), (1, 1, 2)))
    if field is RATIONALS:
        return F(n + 2 * e, d)
    return RationalFunction(Polynomial([n, e]), Polynomial([d]))


def band_step_mismatches(field, seed, max_m):
    """Where one ``_band_step`` over a whole m-grid, m = 2..max_m, differs
    from ``reduce_once``: labels drawn from three values, each built anew,
    make runs of equal triples that start and stop irregularly along each
    diagonal, and some runs are split in two with equal values; the whole
    grid also reaches the special rows r = d and r = m-1."""
    rng = random.Random(seed)
    bad = []
    for m in range(2, max_m + 1):
        tri, band = {}, []
        for d in range(1, m + 1):
            rows, triples = [], []
            for r in range(d, m + 1):
                if r == d or rng.random() < 0.4:
                    tri[(r, d)] = tuple(_fresh_label(field, rng)
                                        for _ in range(3))
                else:
                    tri[(r, d)] = tuple(map(_copy, tri[(r - 1, d)]))
                if not triples or tri[(r, d)] != triples[-1] or \
                        rng.random() < 0.2:
                    rows.append(r)
                    triples.append(tri[(r, d)])
            band.append((rows, triples))
        want = reduce_once(Grid(m, tri))
        child = _band_step(band, m, list(range(1, m)), m - 1)
        if len(child) != m - 1:
            bad.append(f"m = {m}: {len(child)} diagonals")
        for d, (rows, triples) in enumerate(child, start=1):
            if rows[0] != d or any(a == b for a, b in zip(triples,
                                                          triples[1:])):
                bad.append(f"m = {m}, d = {d}: runs start at rows {rows}")
            for start, end, t in zip(rows, rows[1:] + [m], triples):
                bad += [f"m = {m}, (r, d) = ({r}, {d})"
                        for r in range(start, end)
                        if t != want.triangle(r, d)]
    return bad


def test_band_step_matches_reduce_once_on_arbitrary_runs():
    # CI runs band_step_mismatches on seeds 0-199 to m = 14
    for field in (RATIONALS, RATFUNCS):
        for seed in range(4):
            assert band_step_mismatches(field, seed, 12) == [], \
                (field.name, seed)


@pytest.mark.parametrize("C, width, legs, wyes", [
    (24, 24, 345, 575), (64, 1, 1088, 2047)], ids=["array-24", "diagonal-64"])
def test_chain_memos_are_keyed_by_value(monkeypatch, C, width, legs, wyes):
    # Each chain step calls triangle_legs once for each of its band's
    # distinct triples and wye at most once per input, both compared by
    # value, never by the labels' identity
    calls = {reduction.triangle_legs: [], reduction.wye: []}
    totals = dict.fromkeys(calls, 0)

    def counted(fn):
        def call(*labels):
            calls[fn].append(tuple((v.numerator, v.denominator)
                                   for v in labels))
            return fn(*labels)
        return call

    step = reduction._band_step

    def watched(band, m, starts, last):
        for made in calls.values():
            made.clear()
        child = step(band, m, starts, last)
        made_legs, made_wyes = calls.values()
        assert sorted(made_legs) == sorted(
            {tuple((v.numerator, v.denominator) for v in t)
             for _, triples in band for t in triples})
        assert len(set(made_wyes)) == len(made_wyes)
        for fn, made in calls.items():
            totals[fn] += len(made)
        return child

    for fn in calls:
        monkeypatch.setattr(reduction, fn.__name__, counted(fn))
    monkeypatch.setattr(reduction, "_band_step", watched)
    reduction._reduce_chain(C, width, F(2, 3))
    assert list(totals.values()) == [legs, wyes]


def test_label_growth_envelope_watches_the_chain():
    # tests/conftest.py wraps the chain's step for the whole session: step
    # 1 of the chain on the all-one 4-grid passes from all-one labels and
    # fails from labels already past 2c² + 16 bits
    starts, _ = _cone_starts(1, 1, 0)
    reduction._band_step([([a], [(F(1),) * 3]) for a in starts], 4,
                         *_cone_starts(1, 1, 1))
    with pytest.raises(pytest.fail.Exception,
                       match=r"label-growth envelope: step 1 .* = 18$"):
        reduction._band_step([([a], [(F(2 ** 40, 3),) * 3]) for a in starts],
                             4, *_cone_starts(1, 1, 1))


def test_lowest_terms_watch_fires(monkeypatch):
    # tests/conftest.py's watcher also fails a step that stores an exact
    # label not in lowest terms: here every built equal-label result
    # carries a shared factor 2
    def doubled(n, d):
        v = object.__new__(F)
        v._numerator, v._denominator = 2 * n, 2 * d
        return v

    monkeypatch.setitem(fields._FIELDS, F,
                        dataclasses.replace(RATIONALS, coprime=doubled))
    starts, _ = _cone_starts(1, 1, 0)
    with pytest.raises(pytest.fail.Exception,
                       match=r"lowest terms: step 1 .* rational label "
                             r"\(2\) / \(2\), which .* writes as 1$"):
        reduction._band_step([([a], [(F(1),) * 3]) for a in starts], 4,
                             *_cone_starts(1, 1, 1))


def test_canonical_form_watch_fires(monkeypatch):
    # and a step that stores a rational function not in canonical form:
    # here every built equal-label result carries a shared content 2
    def doubled(n, d):
        v = object.__new__(RationalFunction)
        v.numer, v.denom = 2 * n, 2 * d
        return v

    monkeypatch.setitem(fields._FIELDS, RationalFunction,
                        dataclasses.replace(RATFUNCS, coprime=doubled))
    starts, _ = _cone_starts(1, 1, 0)
    x = RationalFunction.x()
    with pytest.raises(pytest.fail.Exception,
                       match=r"lowest terms: step 1 .* symbolic label "
                             r"\(2\*x\^1\) / \(2\), .* writes as 1\*x\^1$"):
        reduction._band_step([([a], [(x,) * 3]) for a in starts], 4,
                             *_cone_starts(1, 1, 1))


def test_chain_holds_one_step_of_labels(diag80):
    # The chain's memos last one step.  Memos kept for the whole chain hold
    # every label it has made, a traced peak of about 1 MiB here; one
    # step's labels take under 0.1 MiB.
    tracemalloc.start()
    try:
        values = reduce_diagonal(48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == diag80[0][:48]
    assert peak < 0.4 * 2 ** 20, peak


def test_cone_starts_follow_the_row_bound():
    # diagonal d of the chain's cone starts at the first row r whose bound
    # min(r, min(width, k) + k - c), k = min(C, (r+1)//2), reaches d; the
    # cone ends at row 4C-2c-1
    for C in range(1, 9):
        for width in (1, 2, C):
            for c in range(C + 1):
                top = max(1, 2 * c - 1)
                last = 4 * C - 2 * c - 1
                want = []
                for r in range(top, last + 1):
                    k = min(C, (r + 1) // 2)
                    while len(want) < min(r, min(width, k) + k - c):
                        want.append(r)
                assert _cone_starts(C, width, c) == (want, last), \
                    (C, width, c)


def test_reduction_generic_over_symbolic_field():
    x = RationalFunction.x()
    b = 1 - 3 / x
    one = RATFUNCS.one
    tri = {}
    m = 6
    for r in range(1, m + 1):
        for d in range(1, r + 1):
            tri[(r, d)] = (b if d == 1 else one,
                           b if d == r else one,
                           b if r == m else one)
    g = Grid(m, tri, reductions=1)
    child = reduce_once(g)
    # away from the corners, both referenced triangles are (b, 1, 1)
    got = child.label(3, 1, "L")
    assert got == 2 * b / (b + 2)
    assert got.eval(9) == F(1, 2)


def test_a_rational_start_grid_reduces_over_the_rationals():
    # No caller names a field: the start grid with a rational boundary is
    # a rational grid, whose symmetric reduction equals graph surgery
    g = symbolic_start_grid(9, F(1, 2))
    child = reduce_once(g)
    assert child == graph_level_reduce(g)
    assert {type(v) for _, v in child.items()} == {F}
    assert g.field is child.field is RATIONALS


@pytest.mark.parametrize("label", [1.5, _Residue(2)],
                         ids=["float", "residue"])
def test_a_label_of_no_field_is_refused(label):
    with pytest.raises(TypeError, match=type(label).__name__):
        Grid(1, {(1, 1): (F(1), label, F(1))})
    with pytest.raises(TypeError, match=type(label).__name__):
        wye(label, label, label)
    with pytest.raises(TypeError, match=type(label).__name__):
        triangle_legs(label, F(1), F(1))

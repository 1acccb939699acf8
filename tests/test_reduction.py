"""Transformation functions, one-step reduction, windowed column reads."""

import random
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest

from circuitarray.circuit_array import reduce_window
from circuitarray.cli import main
from circuitarray.fields import RATIONALS
from circuitarray.grid import Grid, GridError, all_one_grid
from circuitarray.polynomial import Polynomial
from circuitarray.ratfunc import RATFUNCS, RationalFunction
from circuitarray.reduction import (_band_step, _cone_starts, child_edge,
                                    delta, reduce_diagonal, reduce_k,
                                    reduce_once, triangle_legs, wye)


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


def _random_ratfunc(rng):
    def poly():
        while True:
            p = Polynomial(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
            if not p.is_zero:
                return p
    return RationalFunction(poly(), poly())


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
        # zero operands of the split, where Polynomial.cofactors would
        # raise ValueError: R = B = 0, and a y = z wye whose 2x + y is 0,
        # the zero label
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
    g = all_one_grid(6)
    assert child_edge(g, 2, 1, "L") == F(2, 3)         # boundary series
    assert child_edge(g, 3, 2, "L") == 1               # interior wye
    once = reduce_once(all_one_grid(8))
    assert child_edge(once, 3, 2, "L") == F(26, 27)
    assert child_edge(once, 3, 1, "R") == F(13, 12)
    assert child_edge(once, 3, 1, "L") == F(1, 2)


def test_child_edge_domain_errors_name_the_inequality():
    g = all_one_grid(4)
    with pytest.raises(GridError, match="1 <= d <= r <= m-1"):
        child_edge(g, 4, 1, "L")
    with pytest.raises(GridError, match="1 <= d <= r <= m-1"):
        child_edge(g, 2, 3, "B")
    with pytest.raises(GridError):
        child_edge(all_one_grid(1), 1, 1, "L")


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


def test_reduce_matches_child_edge_everywhere():
    # On all-one grids each star's two bottom legs are equal, so a leg
    # placed at the wrong corner only shows on asymmetric labels.
    rng = random.Random(5)
    parents = [reduce_once(all_one_grid(7))]
    for m in range(3, 8):
        tri = {(r, d): tuple(F(rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(3))
               for r in range(1, m + 1) for d in range(1, r + 1)}
        parents.append(Grid(m, tri, field=RATIONALS))
    x = RationalFunction.x()
    labels = (RATFUNCS.one, x, 1 + x, 2 / (x + 1))
    tri = {(r, d): tuple(rng.choice(labels) for _ in range(3))
           for r in range(1, 5) for d in range(1, r + 1)}
    parents.append(Grid(4, tri, field=RATFUNCS))
    for parent in parents:
        child = reduce_once(parent)
        for e, value in child.items():
            assert value == child_edge(parent, e.r, e.d, e.side), \
                (parent.m, parent.field.name, e)


def test_window_validates_inputs():
    with pytest.raises(GridError, match="n >= "):
        reduce_window(4, 10, 1)
    with pytest.raises(GridError):
        reduce_window(0, 10, 1)
    with pytest.raises(GridError):
        reduce_window(3, 12, 4)


def test_band_step_matches_reduce_once_on_arbitrary_runs():
    # Labels drawn from a small set make runs of equal triples that start
    # and stop irregularly along each diagonal; the whole grid also reaches
    # the special rows r = d and r = m-1.
    rng = random.Random(3)
    values = (F(1), F(2), F(1, 2))
    for m in range(2, 10):
        tri, band = {}, []
        for d in range(1, m + 1):
            rows, triples = [], []
            for r in range(d, m + 1):
                if r == d or rng.random() < 0.4:
                    tri[(r, d)] = tuple(rng.choice(values) for _ in range(3))
                else:
                    tri[(r, d)] = tri[(r - 1, d)]
                if not triples or tri[(r, d)] != triples[-1]:
                    rows.append(r)
                    triples.append(tri[(r, d)])
            band.append((rows, triples))
        want = reduce_once(Grid(m, tri, field=RATIONALS))
        child = _band_step(band, m, list(range(1, m)), m - 1)
        assert len(child) == m - 1
        for d, (rows, triples) in enumerate(child, start=1):
            assert rows[0] == d
            assert all(a != b for a, b in zip(triples, triples[1:])), (m, d)
            ends = rows[1:] + [m]
            for start, end, t in zip(rows, ends, triples):
                for r in range(start, end):
                    assert t == want.triangle(r, d), (m, r, d)


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
    g = Grid(m, tri, field=RATFUNCS, reductions=1)
    child = reduce_once(g)
    # away from the corners, both referenced triangles are (b, 1, 1)
    got = child.label(3, 1, "L")
    assert got == 2 * b / (b + 2)
    assert got.eval(9) == F(1, 2)

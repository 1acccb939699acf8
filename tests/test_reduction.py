"""Transformation functions, one-step reduction, windowed column reads."""

import random
from fractions import Fraction as F

import pytest

from circuitarray.fields import RATIONALS
from circuitarray.grid import Grid, GridError, all_one_grid
from circuitarray.ratfunc import RATFUNCS, RationalFunction
from circuitarray.reduction import (_band_step, _cone_starts, child_edge,
                                    delta, reduce_k, reduce_once,
                                    reduce_window, series_merge,
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


def test_series_merge():
    assert series_merge(F(1), F(1)) == 2
    assert series_merge(F(1, 3), F(1, 3)) == F(2, 3)
    assert series_merge(F(3, 8), F(1, 3)) == F(17, 24)


def test_degenerate_sites_raise():
    with pytest.raises(ZeroDivisionError):
        delta(F(1), F(1), F(-2))
    with pytest.raises(ZeroDivisionError):
        wye(F(0), F(1), F(1))


def test_triangle_legs_align_with_delta():
    L, R, B = F(1), F(2), F(3)
    apex, bl, br = triangle_legs(L, R, B)
    assert apex == delta(L, R, B)
    assert bl == delta(B, L, R)
    assert br == delta(R, B, L)


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
    parent = reduce_once(all_one_grid(7))
    child = reduce_once(parent)
    for e in child.edge_refs():
        assert child.label_at(e) == child_edge(parent, e.r, e.d, e.side)


def test_window_matches_full_reduction():
    # with n < 4j-1 the cone reaches the bottom row, where the formulas of
    # row m-1 cut the runs in the middle of the chain
    for j, n in ((1, 4), (2, 8), (3, 12), (4, 16), (3, 14),
                 (3, 8), (3, 9), (4, 11), (5, 14)):
        triples = reduce_window(j, n, j, field=RATIONALS)
        g = reduce_k(all_one_grid(n), j)
        for d in range(1, j + 1):
            assert triples[d] == g.triangle(2 * j - 1, d), (j, n, d)


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
        child = _band_step(band, m, list(range(1, m)), m - 1, {}, {})
        assert len(child) == m - 1
        for d, (rows, triples) in enumerate(child, start=1):
            assert rows[0] == d
            assert all(a != b for a, b in zip(triples, triples[1:])), (m, d)
            ends = rows[1:] + [m]
            for start, end, t in zip(rows, ends, triples):
                for r in range(start, end):
                    assert t == want.triangle(r, d), (m, r, d)


def test_cone_starts_follow_the_row_bound():
    # diagonal d of the chain's cone starts at the first row r whose bound
    # min(r, min(width, k) + k - c), k = min(C, (r+1)//2), reaches d
    for C in range(1, 9):
        for width in (1, 2, C):
            for c in range(C + 1):
                top, last = max(1, 2 * c - 1), 4 * C - 2 * c - 1
                want = []
                for r in range(top, last + 1):
                    k = min(C, (r + 1) // 2)
                    while len(want) < min(r, min(width, k) + k - c):
                        want.append(r)
                assert _cone_starts(C, width, c) == (want, last), (C, width, c)


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

"""Graph oracle: exact resistance, transforms, graph-level reduction,
2-trees and Fibonacci identities."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from circuitarray.graphs import (GraphError, WeightedGraph, delta_to_wye,
                                 effective_resistance, fibonacci,
                                 graph_level_reduce, grid_to_graph, lucas,
                                 r_formula_straight, series, straight_2tree,
                                 verify_2tree_formula, verify_fib_identities,
                                 wye_to_delta)
from circuitarray.grid import all_one_grid
from circuitarray.properties import random_grid
from circuitarray.reduction import reduce_once


def unit_triangle():
    g = WeightedGraph()
    for u, v in ((0, 1), (1, 2), (0, 2)):
        g.add_edge(u, v, F(1))
    return g


def test_effective_resistance_examples():
    assert effective_resistance(unit_triangle(), 0, 1) == F(2, 3)
    paw = WeightedGraph()
    for u, v in (("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")):
        paw.add_edge(u, v, F(1))
    assert effective_resistance(paw, "A", "D") == F(5, 3)
    assert effective_resistance(straight_2tree(4), 1, 2) == F(5, 8)


def test_resistance_query_errors():
    g = unit_triangle()
    with pytest.raises(GraphError):
        effective_resistance(g, 0, 0)
    g.add_vertex(99)
    with pytest.raises(GraphError):
        effective_resistance(g, 0, 99)


def test_parallel_edges_merge_by_conductance():
    g = WeightedGraph()
    g.add_edge(0, 1, F(2))
    g.add_edge(0, 1, F(2))
    assert g.resistance_of(0, 1) == F(1)
    with pytest.raises(GraphError):
        g.add_edge(1, 1, F(1))


def test_delta_wye_examples():
    star = delta_to_wye(unit_triangle(), (0, 1, 2), center="c")
    assert all(star.resistance_of("c", v) == F(1, 3) for v in (0, 1, 2))
    back = wye_to_delta(star, "c")
    assert sorted(r for _, _, r in back.edges()) == [F(1)] * 3


def test_series_example():
    g = WeightedGraph()
    g.add_edge(0, 1, F(1))
    g.add_edge(1, 2, F(1))
    h = series(g, 1)
    assert h.resistance_of(0, 2) == F(2)
    with pytest.raises(GraphError, match="degree 2"):
        series(g, 0)


def test_public_transforms_leave_their_input_unchanged():
    g = unit_triangle()
    before = g.to_json()
    star = delta_to_wye(g, (0, 1, 2), center="c")
    assert g.to_json() == before
    before = star.to_json()
    wye_to_delta(star, "c")
    assert star.to_json() == before
    path = WeightedGraph()
    path.add_edge(0, 1, F(1))
    path.add_edge(1, 2, F(2))
    before = path.to_json()
    series(path, 1)
    assert path.to_json() == before


def test_transforms_preserve_resistance_on_fixed_graph():
    g = WeightedGraph()
    edges = [(0, 1, F(1)), (1, 2, F(2)), (0, 2, F(3, 2)), (2, 3, F(1, 3)),
             (1, 3, F(5, 4)), (3, 4, F(7, 3))]
    for u, v, r in edges:
        g.add_edge(u, v, r)
    base = {(u, v): effective_resistance(g, u, v)
            for u, v in combinations(range(5), 2)}
    h = delta_to_wye(g, (0, 1, 2))
    for (u, v), r in base.items():
        assert effective_resistance(h, u, v) == r
    assert g.degree(1) == 3
    h2 = wye_to_delta(g, 1)
    for (u, v), r in base.items():
        if 1 not in (u, v):
            assert effective_resistance(h2, u, v) == r


def test_grid_to_graph_counts():
    g1 = grid_to_graph(all_one_grid(1))
    assert g1.vertex_count() == 3 and len(g1.edges()) == 3
    g2 = grid_to_graph(all_one_grid(2))
    assert g2.vertex_count() == 6 and len(g2.edges()) == 9
    g3 = grid_to_graph(all_one_grid(3))
    assert g3.vertex_count() == 10 and len(g3.edges()) == 18
    # resistance between two adjacent corners of the 3-grid graph
    r = effective_resistance(g3, (0, 0), (3, 0))
    assert r > 0 and r.denominator > 1


def test_graph_level_reduce_matches_formula_reduction():
    for n in (3, 4, 5, 6):
        g = all_one_grid(n)
        assert graph_level_reduce(g) == reduce_once(g)
    rng = random.Random(3)
    for _ in range(5):
        g = random_grid(rng, rng.choice([3, 4, 5]))
        assert graph_level_reduce(g) == reduce_once(g)


def test_graph_level_reduce_rejects_1_grid():
    with pytest.raises(Exception):
        graph_level_reduce(all_one_grid(1))


def test_straight_2tree_structure():
    g = straight_2tree(4)
    assert sorted(frozenset((u, v)) for u, v, _ in g.edges()) == \
        sorted(frozenset(e) for e in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
    g5 = straight_2tree(5)
    assert len(g5.edges()) == 7
    assert sorted(v for v in g5.vertices if g5.degree(v) == 2) == [1, 5]
    with pytest.raises(GraphError):
        straight_2tree(2)


def test_r_formula_examples():
    assert r_formula_straight(3, 1, 2) == F(2, 3)
    assert r_formula_straight(4, 1, 2) == F(5, 8)
    g = straight_2tree(5)
    assert r_formula_straight(5, 2, 3) == effective_resistance(g, 2, 3)
    with pytest.raises(GraphError):
        r_formula_straight(5, 3, 3)


def test_fibonacci_and_lucas():
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci(-1) == 1 and fibonacci(-2) == -1 and fibonacci(-3) == 2
    assert [lucas(n) for n in range(1, 6)] == [1, 3, 4, 7, 11]
    assert (fibonacci(6), lucas(6)) == (8, 18)
    assert fibonacci(7) == fibonacci(6) + fibonacci(5)
    assert lucas(7) == lucas(6) + lucas(5)


def test_fib_identities_small_values():
    # m=1: 1/3 = (2*3 - 1)/15;  m=2: 1/2 = (3*4 - 2)/20
    rep = verify_fib_identities(mmax=2, nmax=7)
    assert rep.passed
    lhs = -fibonacci(2) * (fibonacci(7) + fibonacci(1) * fibonacci(3))
    assert lhs == -15
    assert -(fibonacci(1) * fibonacci(4) * fibonacci(2) * fibonacci(5)) == -15


def test_identity_and_formula_reports():
    assert verify_fib_identities(10, 12).passed
    assert verify_2tree_formula(7).passed


def test_symmetric_grid_graph_invariant_under_reflection():
    g = reduce_once(all_one_grid(6))
    graph = grid_to_graph(g)
    m = g.m
    # vertical reflection permutes vertices (vr, vp) -> (vr, vr - vp)
    for u, v, r in graph.edges():
        mu = (u[0], u[0] - u[1])
        mv = (v[0], v[0] - v[1])
        assert graph.resistance_of(mu, mv) == r

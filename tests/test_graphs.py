"""Graph oracle: exact resistance, transforms, graph-level reduction,
2-trees and Fibonacci identities."""

import ast
import random
from fractions import Fraction as F
from itertools import combinations, permutations
from pathlib import Path

import pytest

from circuitarray import graphs, reduction
from circuitarray.graphs import (GraphError, WeightedGraph, _ldl,
                                 delta_to_wye, effective_resistance, fibonacci,
                                 graph_level_reduce, grid_to_graph, lucas,
                                 r_formula_straight, series, straight_2tree,
                                 verify_2tree_formula, verify_fib_identities,
                                 wye_to_delta)
from circuitarray.grid import Grid, all_one_grid
from circuitarray.properties import random_connected_graph, random_grid
from circuitarray.reduction import reduce_once
from circuitarray.sequences import symbolic_start_grid


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


def dense_solve(g, v, sources):
    """Reference solve: ground v and solve the dense Laplacian systems
    L x = e_s for every s in ``sources`` at once by Gauss-Jordan
    elimination; returns {(p, s): x_p}."""
    verts = [w for w in g.vertices if w != v]
    index = {w: i for i, w in enumerate(verts)}
    n = len(verts)
    a = [[F(0)] * n + [F(w == s) for s in sources] for w in verts]
    for w in verts:
        for x in g.neighbors(w):
            c = 1 / g.resistance_of(w, x)
            a[index[w]][index[w]] += c
            if x != v:
                a[index[w]][index[x]] -= c
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return {(p, s): a[index[p]][n + k] / a[index[p]][index[p]]
            for p in verts for k, s in enumerate(sources)}


def dense_resistance(g, u, v):
    """The potential x_u when a unit current enters at u and leaves at v."""
    return dense_solve(g, v, [u])[u, u]


def relabeled(g, names):
    h = WeightedGraph()
    for v in g.vertices:
        h.add_vertex(names[v])
    for u, v, r in g.edges():
        h.add_edge(names[u], names[v], r)
    return h


def test_factored_resistance_matches_dense_solve():
    rng = random.Random(11)
    mixed = [0, (1, 2), "a", 3, ("b", 4), "c", 5, (6,), "d", 7]
    for _ in range(10):
        g = random_connected_graph(rng, 8)
        for h in (g, relabeled(g, {v: mixed[v] for v in g.vertices})):
            # every ordered pair, including those with the ground h.vertices[0]
            for u, v in permutations(h.vertices, 2):
                assert effective_resistance(h, u, v) == dense_resistance(h, u, v)


def test_factor_follows_every_mutation():
    def check(g):
        fresh = relabeled(g, {v: v for v in g.vertices})
        for u, v in combinations(g.vertices, 2):
            assert effective_resistance(g, u, v) == \
                effective_resistance(fresh, u, v)

    g = WeightedGraph()
    for u, v, r in ((0, 1, F(1)), (1, 2, F(2)), (2, 3, F(1, 3)),
                    (3, 0, F(3, 2)), (0, 2, F(5, 4)), (3, 4, F(2, 7))):
        g.add_edge(u, v, r)
    check(g)
    g.add_edge(0, 1, F(2))          # parallel: conductances add
    check(g)
    g.remove_edge(0, 2)
    check(g)
    g.add_vertex(5)
    with pytest.raises(GraphError, match="connected"):
        effective_resistance(g, 0, 1)
    g.add_edge(5, 4, F(3))
    check(g)
    g.remove_vertex(1)
    check(g)
    g.add_vertex(6)
    with pytest.raises(GraphError, match="connected"):
        effective_resistance(g, 0, 2)
    g.remove_vertex(6)              # isolated: no remove_edge on the way
    check(g)
    g.remove_vertex(0)              # the ground vertex itself
    check(g)
    g.remove_edge(4, 5)
    with pytest.raises(GraphError, match="connected"):
        effective_resistance(g, 2, 3)
    assert g.copy()._factor is None


def ten_bit_grid_graph(seed, m):
    """Graph of a random m-grid whose labels p/q have 10-bit p and q."""
    rng = random.Random(seed)
    tri = {(r, d): tuple(F(rng.randrange(512, 1024), rng.randrange(512, 1024))
                         for _ in range(3))
           for r in range(1, m + 1) for d in range(1, r + 1)}
    return grid_to_graph(Grid(m, tri))


def test_selected_inverse_answers_every_pair_of_a_random_grid():
    g = ten_bit_grid_graph(6, 6)
    pairs = list(combinations(g.vertices, 2))
    # The factor grounds (0, 0); the reference grounds the far corner, so
    # the two invert different matrices.  Per-pair dense solves of all 378
    # pairs take ~27 s, so they check the pairs with either ground and a
    # few far pairs (top row against bottom row), outside the band's fill.
    ground, far = g.vertices[0], g.vertices[-1]
    assert (ground, far) == ((0, 0), (6, 6))
    inverse = dense_solve(g, far, [w for w in g.vertices if w != far])

    def w(a, b):  # entries at the reference's ground are 0
        return inverse.get((a, b), 0)

    want = {(a, b): w(a, a) + w(b, b) - 2 * w(a, b) for a, b in pairs}
    for a, b in ((ground, (3, 1)), ((1, 0), far), ((1, 1), (6, 0)),
                 ((2, 2), (5, 0))):
        assert want[a, b] == dense_resistance(g, a, b)
    got = {pair: effective_resistance(g, *pair) for pair in pairs}
    assert got == want
    assert all(type(r) is F for r in got.values())
    # on a fresh copy the memo fills in another order, far pairs first
    fresh = g.copy()
    assert {pair: effective_resistance(fresh, *pair)
            for pair in reversed(pairs)} == want


def test_selected_inverse_is_dropped_with_the_factor():
    g = ten_bit_grid_graph(7, 6)
    before = effective_resistance(g, (1, 0), (6, 6))
    assert g._factor[3]
    g.add_edge((1, 0), (6, 6), F(3))
    assert g._factor is None
    assert effective_resistance(g, (1, 0), (6, 6)) == \
        1 / (1 / before + F(1, 3))


def test_selected_inverse_runs_deeper_than_the_recursion_limit():
    # on a path the entry of the first vertex depends on a chain of
    # 2n entries, one per smaller index, beyond Python's recursion limit
    g = WeightedGraph()
    for v in range(1, 1500):
        g.add_edge(v - 1, v, F(1, 2))
    assert effective_resistance(g, 1, 1499) == 749
    assert effective_resistance(g, 0, 2) == 1


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


@pytest.mark.parametrize("resistance, shown", [
    (F(0), "0"), (F(-2, 3), "-2/3"), (0, "0"), (-4, "-4"),
    ("0", "0"), ("-5/3", "-5/3"),
])
def test_nonpositive_resistance_is_refused(resistance, shown):
    g = WeightedGraph()
    with pytest.raises(GraphError) as err:
        g.add_edge(0, 1, resistance)
    assert str(err.value) == f"resistance must be positive, got {shown}"
    assert g.vertices == []


@pytest.mark.parametrize("resistance, want", [
    (F(2, 7), F(2, 7)), (3, F(3)), ("5/3", F(5, 3)),
])
def test_resistance_taken_as_a_fraction(resistance, want):
    g = WeightedGraph()
    g.add_edge(0, 1, resistance)
    r = g.resistance_of(0, 1)
    assert type(r) is F and r == want


def path_graph():
    g = WeightedGraph()
    g.add_edge(0, 1, F(1))
    g.add_edge(1, 2, F(2))
    return g


def star_graph():
    g = WeightedGraph()
    for v in (1, 2, 3):
        g.add_edge(0, v, F(v))
    return g


def test_delta_wye_examples():
    g = unit_triangle()
    delta_to_wye(g, (0, 1, 2), "c")
    assert all(g.resistance_of("c", v) == F(1, 3) for v in (0, 1, 2))
    wye_to_delta(g, "c")
    assert sorted(r for _, _, r in g.edges()) == [F(1)] * 3


def test_series_example():
    g = path_graph()
    series(g, 1)
    assert g.resistance_of(0, 2) == F(3)
    assert g.vertices == [0, 2]


@pytest.mark.parametrize("make, transform, site, match", [
    # delta-wye: each triangle edge missing in turn, a missing vertex, and
    # a center that is already a vertex
    (star_graph, delta_to_wye, ((1, 2, 0), "c"), "missing edge"),
    (star_graph, delta_to_wye, ((0, 1, 2), "c"), "missing edge"),
    (path_graph, delta_to_wye, ((0, 1, 2), "c"), "missing edge"),
    (unit_triangle, delta_to_wye, ((0, 1, 99), "c"), "missing edge"),
    (unit_triangle, delta_to_wye, ((0, 1, 2), 2), "already in graph"),
    # wye-delta and series: a wrong degree either way, a missing vertex
    (unit_triangle, wye_to_delta, (0,), "degree 3"),
    (star_graph, wye_to_delta, (1,), "degree 3"),
    (unit_triangle, wye_to_delta, ("c",), "no vertex"),
    (star_graph, series, (0,), "degree 2"),
    (path_graph, series, (0,), "degree 2"),
    (path_graph, series, (7,), "no vertex"),
], ids=["delta-no-xy", "delta-no-yz", "delta-no-xz", "delta-no-vertex",
        "delta-center-exists", "wye-degree-2", "wye-degree-1",
        "wye-no-vertex", "series-degree-3", "series-degree-1",
        "series-no-vertex"])
def test_rejected_transform_leaves_the_graph_as_it_was(make, transform, site,
                                                        match):
    g = make()
    before = g.to_json()
    with pytest.raises(GraphError, match=match):
        transform(g, *site)
    assert g.to_json() == before


def test_transforms_preserve_resistance_on_fixed_graph():
    g = WeightedGraph()
    edges = [(0, 1, F(1)), (1, 2, F(2)), (0, 2, F(3, 2)), (2, 3, F(1, 3)),
             (1, 3, F(5, 4)), (3, 4, F(7, 3))]
    for u, v, r in edges:
        g.add_edge(u, v, r)
    base = {(u, v): effective_resistance(g, u, v)
            for u, v in combinations(range(5), 2)}
    h = g.copy()
    delta_to_wye(h, (0, 1, 2), 5)
    for (u, v), r in base.items():
        assert effective_resistance(h, u, v) == r
    assert g.degree(1) == 3
    h2 = g.copy()
    wye_to_delta(h2, 1)
    for (u, v), r in base.items():
        if 1 not in (u, v):
            assert effective_resistance(h2, u, v) == r


def shared_factor_labels(rng, count):
    """Positive labels whose denominators share factors with each other, so
    a swapped numerator or denominator does not cancel away."""
    return [F(rng.randint(1, 90), rng.choice((4, 6, 9, 10, 12, 15, 18, 30))
              * rng.randint(1, 7)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(25))
def test_transforms_match_their_operator_forms(seed):
    """Every resistance a transform makes equals its textbook form, written
    here with Fraction operators."""
    rng = random.Random(seed)
    x, y, z, p, q, t, e, r = shared_factor_labels(rng, 8)

    g = WeightedGraph()
    for u, v, w in ((0, 1, x), (1, 2, y), (0, 2, z)):
        g.add_edge(u, v, w)
    delta_to_wye(g, (0, 1, 2), "c")
    total = x + y + z
    assert g.resistance_of("c", 0) == x * z / total
    assert g.resistance_of("c", 1) == x * y / total
    assert g.resistance_of("c", 2) == z * y / total

    g = WeightedGraph()
    for v, w in ((0, p), (1, q), (2, t)):
        g.add_edge("c", v, w)
    wye_to_delta(g, "c")
    cross = p * q + q * t + t * p
    assert g.resistance_of(1, 2) == cross / p
    assert g.resistance_of(0, 2) == cross / q
    assert g.resistance_of(0, 1) == cross / t

    g = WeightedGraph()
    g.add_edge(0, "m", p)
    g.add_edge("m", 1, q)
    series(g, "m")
    assert g.resistance_of(0, 1) == p + q

    g = WeightedGraph()
    g.add_edge(0, 1, e)
    g.add_edge(1, 0, r)
    assert g.resistance_of(0, 1) == g.resistance_of(1, 0) == e * r / (e + r)


def imported_names(module):
    """Every dotted name a module's source imports, relative ones included;
    ``from .a import b`` gives both "a" and "a.b"."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".")
                         for alias in node.names)
    return names


@pytest.mark.parametrize("module, other", [(graphs, "reduction"),
                                           (reduction, "graphs")])
def test_graph_oracle_and_kernel_import_nothing_of_each_other(module, other):
    """The graph surgery is the ground truth for the closed-form kernel, so
    neither module may use the other."""
    names = imported_names(module)
    assert names and not any(other in name.split(".") for name in names)


def test_grid_to_graph_counts():
    g1 = grid_to_graph(all_one_grid(1))
    assert len(g1.vertices) == 3 and len(g1.edges()) == 3
    g2 = grid_to_graph(all_one_grid(2))
    assert len(g2.vertices) == 6 and len(g2.edges()) == 9
    g3 = grid_to_graph(all_one_grid(3))
    assert len(g3.vertices) == 10 and len(g3.edges()) == 18
    # resistance between two adjacent corners of the 3-grid graph
    r = effective_resistance(g3, (0, 0), (3, 0))
    assert r > 0 and r.denominator > 1


def test_json_round_trip_keeps_the_factor_and_every_resistance():
    # rows 10 and up would sort between rows 1 and 2 by repr, off the band
    g = grid_to_graph(all_one_grid(11))
    h = WeightedGraph.from_json(g.to_json())
    assert len(h.vertices) == len(g.vertices) == 78

    def fill(graph):
        return sum(len(col) for col in _ldl(graph)[1])

    assert fill(h) == fill(g)
    number = {v: i for i, v in enumerate(g.vertices)}
    for a, b in combinations(g.vertices, 2):
        r = effective_resistance(h, number[a], number[b])
        assert type(r) is F and r == effective_resistance(g, a, b), (a, b)


def test_json_resistance_past_the_digit_limit_names_the_bound():
    text = ('{"n": 2, "edges": [{"u": 0, "v": 1, "r": "1/' + "3" * 4301
            + '"}]}')
    with pytest.raises(GraphError) as exc:
        WeightedGraph.from_json(text)
    message = str(exc.value)
    assert "edges[0].r" in message and "more than 4300 digits" in message
    assert "\n" not in message and len(message) < 100


def test_graph_level_reduce_matches_formula_reduction():
    for n in (3, 4, 5, 6):
        g = all_one_grid(n)
        assert graph_level_reduce(g) == reduce_once(g)
    rng = random.Random(3)
    for _ in range(5):
        g = random_grid(rng, rng.choice([3, 4, 5]))
        assert graph_level_reduce(g) == reduce_once(g)


def test_graph_level_reduce_matches_the_equal_label_forms():
    # reduce_once and the chain share triangle_legs' R = B form and the
    # wye's x = z form; graph surgery shares neither.  The boundary grid
    # of 1 - 3/x0 has R = B inside its uniform center at every step.
    x0 = F(10 ** 30 + 7, 3 ** 20)
    g = symbolic_start_grid(9, 1 - 3 / x0)
    for _ in range(3):
        assert any(R == B for R, B in (t[1:] for t in g._tri.values()))
        assert graph_level_reduce(g) == reduce_once(g)
        g = reduce_once(g)
    assert max(v.denominator.bit_length() for t in g._tri.values()
               for v in t) > 500
    rng = random.Random(22)
    for _ in range(4):
        n = rng.choice([4, 5, 6])
        big = {(r, d): F(rng.getrandbits(300) + 1, rng.getrandbits(300) + 1)
               for r in range(1, n + 1) for d in range(1, r + 1)}
        planted = {(r, d): (L, big[(r, d)], big[(r, d)])
                   for (r, d), (L, _, _) in random_grid(rng, n)._tri.items()}
        g = Grid(n, planted)
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
    term = [F(fibonacci(i) * fibonacci(i + 1), lucas(i) * lucas(i + 1))
            for i in (1, 2)]
    assert term[0] == F(2 * lucas(2) - fibonacci(2), 5 * lucas(2)) == F(1, 3)
    assert sum(term) == F(3 * lucas(3) - fibonacci(3), 5 * lucas(3)) == F(1, 2)
    lhs = -fibonacci(2) * (fibonacci(7) + fibonacci(1) * fibonacci(3))
    assert lhs == -15
    assert -(fibonacci(1) * fibonacci(4) * fibonacci(2) * fibonacci(5)) == -15


def test_identity_and_formula_reports():
    assert verify_fib_identities().passed
    assert verify_2tree_formula().passed


def test_fib_identities_name_the_first_failure(monkeypatch):
    fib = graphs.fibonacci
    monkeypatch.setattr(graphs, "fibonacci", lambda n: fib(n) + (n == 9))
    rep = verify_fib_identities()
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("product-ratio sum identity, m <= 50", False,
         "fails at m=7: 699/464 != 121/80"),
        ("alternating telescoping identity, n <= 30", False,
         "fails at n=9, k=3: -120 != -117"),
    ]


def test_2tree_formula_names_the_first_failing_pair(monkeypatch):
    formula = graphs.r_formula_straight
    monkeypatch.setattr(
        graphs, "r_formula_straight",
        lambda n, u, v: formula(n, u, v) + (n == 5 and v - u == 2 and u > 1))
    rep = verify_2tree_formula()
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("n=5, all 10 pairs", "pair 2,4: formula 11/7 != oracle 4/7")]
    assert len(rep.checks) == 10


def test_symmetric_grid_graph_invariant_under_reflection():
    g = reduce_once(all_one_grid(6))
    graph = grid_to_graph(g)
    m = g.m
    # vertical reflection permutes vertices (vr, vp) -> (vr, vr - vp)
    for u, v, r in graph.edges():
        mu = (u[0], u[0] - u[1])
        mv = (v[0], v[0] - v[1])
        assert graph.resistance_of(mu, mv) == r

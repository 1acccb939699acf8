"""Seeded randomized property suites.

Each suite draws its cases from its own ``random.Random(seed)`` so runs are
reproducible from the CLI (--seed) and repeatable across seeds in tests.
Everything asserted here is exact; there are no tolerances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .graphs import (WeightedGraph, delta_to_wye, effective_resistance,
                     graph_level_reduce, series, wye_to_delta)
from .grid import Grid, all_one_grid
from .ratfunc import RationalFunction, Polynomial
from .reduction import reduce_once
from .reports import Report
from .sequences import symbolic_start_grid


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 30))


def random_positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def random_ratfunc(rng: random.Random) -> RationalFunction:
    """A quotient of two polynomials of degree <= 2, coefficients in -5..5."""
    def poly(allow_zero: bool) -> Polynomial:
        while True:
            p = Polynomial([rng.randint(-5, 5) for _ in range(3)])
            if allow_zero or not p.is_zero:
                return p
    return RationalFunction(poly(True), poly(False))


def random_grid(rng: random.Random, n: int) -> Grid:
    tri = {(r, d): tuple(random_positive_rational(rng) for _ in range(3))
           for r in range(1, n + 1) for d in range(1, r + 1)}
    return Grid(n, tri)


def random_connected_graph(rng: random.Random, max_vertices: int = 8) -> WeightedGraph:
    """Random spanning tree plus extra edges, positive rational resistances."""
    n = rng.randint(3, max_vertices)
    g = WeightedGraph()
    for v in range(n):
        g.add_vertex(v)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], rng.choice(order[:i]), random_positive_rational(rng))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, random_positive_rational(rng))
    return g


# -- suites -------------------------------------------------------------------

def field_axiom_suite(kind: str = "rational", seed: int = 0,
                      rounds: int = 60) -> Report:
    """Field axioms on random scalars: associativity, commutativity,
    distributivity, identities, inverses, and sub/div consistency.

    For the symbolic kind, also checks that evaluation at a random non-pole
    point is a field homomorphism, and that (in)equality of rational
    functions agrees with values at 20 random points.
    """
    rng = random.Random(seed)
    report = Report(f"field-axioms[{kind}] seed={seed}")
    if kind == "rational":
        draw = lambda: random_rational(rng)
    elif kind == "symbolic":
        draw = lambda: random_ratfunc(rng)
    else:
        raise ValueError(f"unknown field kind {kind!r}")

    ok = {"assoc": True, "comm": True, "dist": True, "ident": True,
          "inverse": True, "subdiv": True}
    for _ in range(rounds):
        a, b, c = draw(), draw(), draw()
        ok["assoc"] &= (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        ok["comm"] &= a + b == b + a and a * b == b * a
        ok["dist"] &= a * (b + c) == a * b + a * c
        ok["ident"] &= a + (a * 0) == a and a * (a * 0 + 1) == a
        if b != a * 0:
            ok["inverse"] &= (a / b) * b == a
            ok["subdiv"] &= a - b + b == a and (a + b) - b == a
    for name, passed in ok.items():
        report.add(f"{name} over {rounds} draws", passed)

    if kind == "symbolic":
        homo_ok = True
        eq_ok = True
        for _ in range(20):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            x0 = random_rational(rng)
            try:
                fv, gv = f.eval(x0), g.eval(x0)
            except ZeroDivisionError:
                continue
            homo_ok &= (f + g).eval(x0) == fv + gv
            homo_ok &= (f - g).eval(x0) == fv - gv
            homo_ok &= (f * g).eval(x0) == fv * gv
            if not g.is_zero and gv != 0:
                homo_ok &= (f / g).eval(x0) == fv / gv
            samples = []
            for _ in range(20):
                pt = random_rational(rng)
                try:
                    samples.append(f.eval(pt) == g.eval(pt))
                except ZeroDivisionError:
                    continue
            if f == g:
                eq_ok &= all(samples)
            elif samples:
                eq_ok &= not all(samples)
        report.add("evaluation is a field homomorphism", homo_ok)
        report.add("equality consistent with 20-point sampling", eq_ok)
    return report


def metric_suite(seed: int = 0) -> Report:
    """Effective resistance behaves as a metric on 10 random connected
    graphs: symmetric, positive, and satisfying the triangle inequality.

    Symmetry compares R(u, v) with R(v, u) on a copy whose vertices were
    inserted in reverse order.  That copy is grounded at another vertex and
    eliminated in another order; on the same graph, both queries would read
    one factor and agree by construction.
    """
    rng = random.Random(seed)
    report = Report(f"resistance-metric seed={seed}")
    sym_ok = pos_ok = tri_ok = True
    for _ in range(10):
        g = random_connected_graph(rng, 7)
        verts = g.vertices
        mirror = WeightedGraph()
        for v in reversed(verts):
            mirror.add_vertex(v)
        for u, v, res in g.edges():
            mirror.add_edge(u, v, res)
        r = {}
        for u, v in combinations(verts, 2):
            r[(u, v)] = effective_resistance(g, u, v)
            sym_ok &= effective_resistance(mirror, v, u) == r[(u, v)]
            pos_ok &= r[(u, v)] > 0
        def dist(u, v):
            return r[(u, v)] if (u, v) in r else r[(v, u)]
        for u, v, w in combinations(verts, 3):
            tri_ok &= dist(u, w) <= dist(u, v) + dist(v, w)
    report.add("symmetry on 10 graphs", sym_ok)
    report.add("positivity", pos_ok)
    report.add("triangle inequality", tri_ok)
    return report


def symmetry_suite(seed: int = 0) -> Report:
    """The orbit rule behind the symmetric reduction, on 12 random m-grids
    (3 <= m <= 12) with a random positive rational on the outer edges and 1
    inside: a freshly built grid is found symmetric, changing one label
    makes it asymmetric, and two steps of ``reduce_once`` (the determining
    sector, then completion by symmetry) equal ``graph_level_reduce``
    label for label."""
    rng = random.Random(seed)
    report = Report(f"grid-symmetry seed={seed}")
    found_ok = broken_ok = reduce_ok = True
    for _ in range(12):
        m = rng.randint(3, 12)
        g = symbolic_start_grid(m, random_positive_rational(rng))
        found_ok &= g.is_symmetric()
        r = rng.randint(1, m)
        d = rng.randint(1, r)
        triple = list(g.triangle(r, d))
        triple[rng.randrange(3)] += random_positive_rational(rng)
        broken = Grid(m, {**g._tri, (r, d): tuple(triple)})
        broken_ok &= not broken.is_symmetric()
        ours = oracle = g
        for _ in range(2):
            ours, oracle = reduce_once(ours), graph_level_reduce(oracle)
            reduce_ok &= ours == oracle
    report.add("a freshly built boundary grid is symmetric", found_ok)
    report.add("changing one label makes it asymmetric", broken_ok)
    report.add("two symmetric reductions equal graph surgery", reduce_ok)
    return report


def transform_soundness_suite(seed: int = 0, graphs: int = 100) -> Report:
    """Each applicable transform preserves every retained pairwise
    resistance exactly, over ``graphs`` random connected graphs."""
    rng = random.Random(seed)
    report = Report(f"transform-soundness seed={seed}")
    applied = {"delta_to_wye": 0, "wye_to_delta": 0, "series": 0}
    failures = []
    for idx in range(graphs):
        g = random_connected_graph(rng, 8)
        verts = g.vertices
        base = {(u, v): effective_resistance(g, u, v)
                for u, v in combinations(verts, 2)}

        candidates = []
        for u, v, w in combinations(verts, 3):
            if g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w):
                candidates.append(("delta_to_wye", (u, v, w)))
        for v in verts:
            if g.degree(v) == 3:
                candidates.append(("wye_to_delta", v))
            elif g.degree(v) == 2:
                candidates.append(("series", v))
        if not candidates:
            continue
        kind, site = rng.choice(candidates)
        h = g.copy()
        if kind == "delta_to_wye":
            # vertices are 0..n-1, so n is a new id
            delta_to_wye(h, site, len(verts))
        else:
            (wye_to_delta if kind == "wye_to_delta" else series)(h, site)
        # a delta's site is a triple, not a vertex: it keeps them all
        retained = [v for v in verts if v != site]
        applied[kind] += 1
        for u, v in combinations(retained, 2):
            if effective_resistance(h, u, v) != base[(u, v)]:
                failures.append((idx, kind, site, u, v))
    for kind, count in applied.items():
        report.scan(f"{kind}: {count} applications, resistances preserved",
                    (f"first failure {f}" for f in failures if f[1] == kind))
    report.scan(f"total graphs exercised: {graphs}",
                (f"first failure {f}" for f in failures))
    return report


def dual_pipeline_suite(seed: int = 0) -> Report:
    """Closed-form reduction agrees with the graph-level reducer label for
    label, on the all-one grids n = 3..8 and on 25 random positive-rational
    grids."""
    rng = random.Random(seed)
    report = Report(f"dual-pipeline seed={seed}")

    def disagree(g):
        return reduce_once(g) != graph_level_reduce(g)

    def random_failures():
        for idx in range(25):
            n = rng.choice([3, 4, 5])
            if disagree(random_grid(rng, n)):
                yield f"random grid #{idx} (n={n})"

    report.scan("all-one grids n = 3..8",
                (f"all-one {n}-grid" for n in range(3, 9)
                 if disagree(all_one_grid(n))))
    report.scan("25 random positive-rational grids (n = 3..5)",
                random_failures())
    return report

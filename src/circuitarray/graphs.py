"""Weighted graphs, exact effective resistance, and graph-level reduction.

This module is the package's independent ground truth.  Effective resistance
is computed from first principles: inject a unit current at u, extract it at
v, ground v, and solve the resulting conductance Laplacian system exactly
over the rationals; the potential at u is the resistance r(u, v).

The three equivalent-circuit transformations (series, delta-wye, wye-delta)
are implemented directly on graphs, and ``graph_level_reduce`` performs the
five-step grid reduction purely as graph surgery.  None of this shares code
with the closed-form child-edge formulas in circuitarray.reduction, which is
the point: the two pipelines must agree label for label.

Straight linear 2-trees and their Fibonacci resistance formula live here
too, together with exact verification of two Fibonacci/Lucas summation
identities that arise from such circuits.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import RATIONALS
from .grid import Grid, GridError
from .reports import Report


class GraphError(ValueError):
    pass


class WeightedGraph:
    """Undirected graph with strictly positive exact rational resistances.

    Parallel edges are merged on ingestion by conductance addition, and
    self-loops are rejected; both can arise transiently during wye-delta
    rounds on arbitrary graphs.
    """

    def __init__(self):
        self._adj: dict = {}

    # -- construction ------------------------------------------------------

    def add_vertex(self, v) -> None:
        self._adj.setdefault(v, {})

    def add_edge(self, u, v, resistance) -> None:
        if u == v:
            raise GraphError(f"self-loop at {u!r} rejected")
        r = Fraction(resistance)
        if r <= 0:
            raise GraphError(f"resistance must be positive, got {r}")
        self.add_vertex(u)
        self.add_vertex(v)
        existing = self._adj[u].get(v)
        if existing is not None:
            # parallel edges combine by adding conductances
            r = existing * r / (existing + r)
        self._adj[u][v] = r
        self._adj[v][u] = r

    def remove_edge(self, u, v) -> None:
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_vertex(self, v) -> None:
        for w in list(self._adj[v]):
            self.remove_edge(v, w)
        del self._adj[v]

    def copy(self) -> "WeightedGraph":
        g = WeightedGraph()
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        return g

    # -- inspection ---------------------------------------------------------

    @property
    def vertices(self) -> list:
        return list(self._adj)

    def edges(self) -> list:
        seen = set()
        out = []
        for u, nbrs in self._adj.items():
            for v, r in nbrs.items():
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out.append((u, v, r))
        return out

    def has_edge(self, u, v) -> bool:
        return v in self._adj.get(u, ())

    def resistance_of(self, u, v) -> Fraction:
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"no edge between {u!r} and {v!r}") from None

    def neighbors(self, v) -> list:
        return list(self._adj[v])

    def degree(self, v) -> int:
        return len(self._adj[v])

    def vertex_count(self) -> int:
        return len(self._adj)

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        start = next(iter(self._adj))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self._adj)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        import json
        verts = sorted(self._adj, key=repr)
        index = {v: i for i, v in enumerate(verts)}
        edges = sorted((index[u], index[v], r) if index[u] < index[v]
                       else (index[v], index[u], r)
                       for u, v, r in self.edges())
        return json.dumps({
            "n": len(verts),
            "edges": [{"u": u, "v": v, "r": RATIONALS.format(r)}
                      for u, v, r in edges],
        }, indent=1)

    @staticmethod
    def from_json(text: str) -> "WeightedGraph":
        """Parse ``{"n": N, "edges": [{"u": .., "v": .., "r": ..}, ...]}``.

        Vertices are 0..N-1 and each ``r`` is an exact positive rational,
        an integer or a string such as ``"5/3"`` (a JSON float is not
        exact).  Any other shape raises a one-line ``GraphError`` that names
        the bad field.
        """
        import json
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise GraphError(f"graph is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise GraphError('graph JSON must be an object with "n" and '
                             '"edges"')
        for key in ("n", "edges"):
            if key not in data:
                raise GraphError(f'graph JSON has no "{key}" field')
        n = data["n"]
        if type(n) is not int or n < 0:
            raise GraphError(f'"n" must be a non-negative integer, got {n!r}')
        edges = data["edges"]
        if not isinstance(edges, list):
            raise GraphError(f'"edges" must be a list, got {edges!r}')
        g = WeightedGraph()
        for i in range(n):
            g.add_vertex(i)
        for i, e in enumerate(edges):
            where = f"edges[{i}]"
            if not isinstance(e, dict):
                raise GraphError(f'{where} must be an object with "u", "v" '
                                 f'and "r", got {e!r}')
            for key in ("u", "v"):
                w = e.get(key)
                if type(w) is not int or not 0 <= w < n:
                    raise GraphError(f"{where}.{key} must be a vertex "
                                     f"0..{n - 1}, got {w!r}")
            r = e.get("r")
            try:
                if type(r) not in (int, str):
                    raise ValueError
                r = Fraction(r)
            except (ValueError, ZeroDivisionError):
                raise GraphError(f"{where}.r must be an exact rational, "
                                 f"got {r!r}") from None
            try:
                g.add_edge(e["u"], e["v"], r)
            except GraphError as exc:
                raise GraphError(f"{where}: {exc}") from None
        return g


# -- effective resistance ----------------------------------------------------

def effective_resistance(g: WeightedGraph, u, v) -> Fraction:
    """Exact effective resistance between two distinct vertices.

    Grounds v, builds the conductance Laplacian on the remaining vertices,
    and solves L x = e_u by Gaussian elimination over the rationals.
    """
    if u == v:
        raise GraphError("effective resistance needs two distinct vertices")
    if u not in g._adj or v not in g._adj:
        raise GraphError("both vertices must be in the graph")
    if not g.is_connected():
        raise GraphError("graph must be connected for resistance queries")

    verts = [w for w in g.vertices if w != v]
    index = {w: i for i, w in enumerate(verts)}
    n = len(verts)
    zero = Fraction(0)
    lap = [[zero] * n for _ in range(n)]
    for w in verts:
        i = index[w]
        total = zero
        for x, r in g._adj[w].items():
            c = 1 / r
            total += c
            if x != v:
                lap[i][index[x]] -= c
        lap[i][i] = total
    rhs = [zero] * n
    rhs[index[u]] = Fraction(1)
    return _solve_for(lap, rhs, index[u])


def _solve_for(a, b, want: int) -> Fraction:
    """Solve a x = b exactly (Gaussian elimination) and return x[want]."""
    n = len(a)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise GraphError("singular system in resistance solve")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                row, prow = a[r], a[col]
                for c in range(col, n):
                    row[c] -= factor * prow[c]
                b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x[want]


# -- the three circuit transformations ---------------------------------------

def delta_to_wye(g: WeightedGraph, triangle, center=None) -> WeightedGraph:
    """Replace the 3-edge loop on the given vertices by a star.

    External effective resistances are preserved.  ``center`` names the new
    star vertex; when omitted an unused integer id is chosen.  Returns a new
    graph; ``g`` is left unchanged.
    """
    out = g.copy()
    _delta_to_wye(out, triangle, center)
    return out


def wye_to_delta(g: WeightedGraph, center) -> WeightedGraph:
    """Replace the degree-3 star at ``center`` by a triangle on its leaves.

    Returns a new graph; ``g`` is left unchanged.
    """
    out = g.copy()
    _wye_to_delta(out, center)
    return out


def series(g: WeightedGraph, through) -> WeightedGraph:
    """Merge the two edges at a degree-2 vertex into one series edge.

    Returns a new graph; ``g`` is left unchanged.
    """
    out = g.copy()
    _series(out, through)
    return out


# The in-place forms below check the site before they change anything, so a
# rejected site leaves the graph as it was.  ``graph_level_reduce`` applies
# them to one graph: copying per transform would make it quadratic in the
# number of triangles.

def _delta_to_wye(g: WeightedGraph, triangle, center) -> None:
    x, y, z = triangle
    for (p, q) in ((x, y), (y, z), (x, z)):
        if not g.has_edge(p, q):
            raise GraphError(f"delta-wye site must be a triangle; missing edge "
                             f"({p!r}, {q!r})")
    if center is None:
        ints = [v for v in g.vertices if isinstance(v, int)]
        center = (max(ints) + 1) if ints else 0
    if center in g._adj:
        raise GraphError(f"center {center!r} already in graph")
    c_xy = g.resistance_of(x, y)
    c_yz = g.resistance_of(y, z)
    c_xz = g.resistance_of(x, z)
    s = c_xy + c_yz + c_xz
    g.remove_edge(x, y)
    g.remove_edge(y, z)
    g.remove_edge(x, z)
    g.add_edge(center, x, c_xy * c_xz / s)
    g.add_edge(center, y, c_xy * c_yz / s)
    g.add_edge(center, z, c_xz * c_yz / s)


def _wye_to_delta(g: WeightedGraph, center) -> None:
    if center not in g._adj:
        raise GraphError(f"no vertex {center!r}")
    nbrs = g.neighbors(center)
    if len(nbrs) != 3:
        raise GraphError(f"wye-delta site must have degree 3, "
                         f"got degree {len(nbrs)} at {center!r}")
    x, y, z = nbrs
    p = g.resistance_of(center, x)
    q = g.resistance_of(center, y)
    t = g.resistance_of(center, z)
    cross = p * q + q * t + t * p
    g.remove_vertex(center)
    g.add_edge(y, z, cross / p)
    g.add_edge(x, z, cross / q)
    g.add_edge(x, y, cross / t)


def _series(g: WeightedGraph, through) -> None:
    if through not in g._adj:
        raise GraphError(f"no vertex {through!r}")
    nbrs = g.neighbors(through)
    if len(nbrs) != 2:
        raise GraphError(f"series site must have degree 2, "
                         f"got degree {len(nbrs)} at {through!r}")
    x, y = nbrs
    r = g.resistance_of(through, x) + g.resistance_of(through, y)
    g.remove_vertex(through)
    g.add_edge(x, y, r)


# -- grid <-> graph ----------------------------------------------------------

def grid_to_graph(grid: Grid) -> WeightedGraph:
    """Explicit weighted graph of a grid (vertices are (vrow, vpos) pairs)."""
    g = WeightedGraph()
    for r in range(1, grid.m + 1):
        for d in range(1, r + 1):
            L, R, B = grid.triangle(r, d)
            apex = (r - 1, d - 1)
            bl = (r, d - 1)
            br = (r, d)
            g.add_edge(apex, bl, L)
            g.add_edge(apex, br, R)
            g.add_edge(bl, br, B)
    return g


def graph_level_reduce(grid: Grid) -> Grid:
    """One-step grid reduction executed on the explicit graph.

    Five steps: delta-wye every upright triangle, discard the three corner
    tails, series-merge the boundary pairs, wye-delta the remaining claws,
    then read the child labels off the star-center graph.  Unexpected
    degrees or leftover vertices are hard errors.
    """
    m = grid.m
    if m < 2:
        raise GridError("cannot reduce: grid size m >= 2 required")
    g = grid_to_graph(grid)

    for r in range(1, m + 1):
        for d in range(1, r + 1):
            apex = (r - 1, d - 1)
            bl = (r, d - 1)
            br = (r, d)
            _delta_to_wye(g, (apex, bl, br), ("c", r, d))

    corners = {(0, 0), (m, 0), (m, m)}
    tails = [v for v in g.vertices if g.degree(v) == 1]
    if set(tails) != corners:
        raise GraphError(f"expected exactly the 3 corner tails, got {tails}")
    for v in tails:
        g.remove_vertex(v)

    for v in list(g.vertices):
        if isinstance(v, tuple) and len(v) == 2 and g.degree(v) == 2:
            _series(g, v)

    for v in list(g.vertices):
        if isinstance(v, tuple) and len(v) == 2:
            if g.degree(v) != 3:
                raise GraphError(f"interior vertex {v} has degree {g.degree(v)}, "
                                 "expected 3")
            _wye_to_delta(g, v)

    if g.vertex_count() != m * (m + 1) // 2:
        raise GraphError("reduction left an unexpected vertex set")

    mc = m - 1
    tri = {}
    for r in range(1, mc + 1):
        for d in range(1, r + 1):
            tri[(r, d)] = (
                g.resistance_of(("c", r, d), ("c", r + 1, d)),
                g.resistance_of(("c", r, d), ("c", r + 1, d + 1)),
                g.resistance_of(("c", r + 1, d), ("c", r + 1, d + 1)),
            )
    return Grid(mc, tri, field=grid.field, reductions=grid.reductions + 1)


# -- straight linear 2-trees and Fibonacci identities -------------------------

def fibonacci(n: int) -> int:
    """Fibonacci number with F(1) = F(2) = 1, extended to negative index
    by F(-n) = (-1)^(n+1) F(n)."""
    if n < 0:
        f = fibonacci(-n)
        return f if (-n) % 2 == 1 else -f
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """Lucas number with L(1) = 1, L(2) = 3; L(-n) = (-1)^n L(n)."""
    return fibonacci(n - 1) + fibonacci(n + 1)


def straight_2tree(n: int) -> WeightedGraph:
    """Straight linear 2-tree on n vertices: i adjacent to i+1 and i+2,
    unit resistances.  Exactly vertices 1 and n have degree 2."""
    if n < 3:
        raise GraphError(f"straight linear 2-tree needs n >= 3, got {n}")
    g = WeightedGraph()
    one = Fraction(1)
    for i in range(1, n):
        g.add_edge(i, i + 1, one)
    for i in range(1, n - 1):
        g.add_edge(i, i + 2, one)
    return g


def r_formula_straight(n: int, u: int, v: int) -> Fraction:
    """Closed-form effective resistance between u < v on the straight
    linear 2-tree with n vertices:

        sum_{i=1}^{v-u} (F_i F_{i+2u-2} - F_{i-1} F_{i+2u-3}) F_{2n-2i-2u+1}
        -----------------------------------------------------------------
                                   F_{2n-2}
    """
    if not (1 <= u < v <= n):
        raise GraphError(f"need 1 <= u < v <= n, got u={u}, v={v}, n={n}")
    total = 0
    for i in range(1, v - u + 1):
        total += ((fibonacci(i) * fibonacci(i + 2 * u - 2)
                   - fibonacci(i - 1) * fibonacci(i + 2 * u - 3))
                  * fibonacci(2 * n - 2 * i - 2 * u + 1))
    return Fraction(total, fibonacci(2 * n - 2))


def verify_fib_identities(mmax: int = 50, nmax: int = 30) -> Report:
    """Exact verification of two Fibonacci/Lucas identities.

    First, for every m <= mmax:

        sum_{i=1}^{m} F_i F_{i+1} / (L_i L_{i+1})
            = ((m+1) L_{m+1} - F_{m+1}) / (5 L_{m+1}).

    Second, for every n <= nmax and k = 3..n-2:

        sum_{j=3}^{k} (-1)^j F_{n-2j+1} (F_n + F_{j-2} F_{n-j-1})
            = -F_{k-2} F_{k+1} F_{n-k-2} F_{n+1-k}.
    """
    report = Report("fibonacci-identities")
    running = Fraction(0)
    ok = True
    first_bad = None
    for m in range(1, mmax + 1):
        running += Fraction(fibonacci(m) * fibonacci(m + 1),
                            lucas(m) * lucas(m + 1))
        rhs = Fraction((m + 1) * lucas(m + 1) - fibonacci(m + 1),
                       5 * lucas(m + 1))
        if running != rhs:
            ok = False
            first_bad = (m, running, rhs)
            break
    report.add(f"product-ratio sum identity, m <= {mmax}", ok,
               "" if ok else f"fails at m={first_bad[0]}: "
               f"{first_bad[1]} != {first_bad[2]}")

    ok = True
    first_bad = None
    for n in range(5, nmax + 1):
        acc = 0
        for k in range(3, n - 1):
            j = k
            acc += (-1) ** j * fibonacci(n - 2 * j + 1) * (
                fibonacci(n) + fibonacci(j - 2) * fibonacci(n - j - 1))
            rhs = -(fibonacci(k - 2) * fibonacci(k + 1)
                    * fibonacci(n - k - 2) * fibonacci(n + 1 - k))
            if acc != rhs:
                ok = False
                first_bad = (n, k, acc, rhs)
                break
        if not ok:
            break
    report.add(f"alternating telescoping identity, n <= {nmax}", ok,
               "" if ok else f"fails at n={first_bad[0]}, k={first_bad[1]}: "
               f"{first_bad[2]} != {first_bad[3]}")
    return report


def verify_2tree_formula(nmax: int = 12) -> Report:
    """Closed 2-tree formula vs the Laplacian oracle, all pairs, n <= nmax."""
    report = Report("straight-2tree-formula")
    for n in range(3, nmax + 1):
        g = straight_2tree(n)
        bad = None
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                expect = effective_resistance(g, u, v)
                got = r_formula_straight(n, u, v)
                if got != expect:
                    bad = (u, v, got, expect)
                    break
            if bad:
                break
        report.add(f"n={n}, all {n*(n-1)//2} pairs", bad is None,
                   "" if bad is None else
                   f"pair {bad[0]},{bad[1]}: formula {bad[2]} != oracle {bad[3]}")
    return report

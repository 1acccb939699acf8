"""Weighted graphs, exact effective resistance, and graph-level reduction.

This module is the package's independent ground truth.  Effective resistance
is computed from first principles: ground the first vertex of a graph,
factor its grounded conductance Laplacian exactly as L·D·Lᵀ over the
rationals, and read r(u, v) = Z_uu + Z_vv - 2 Z_uv off its inverse
Z = (L·D·Lᵀ)⁻¹.  Only the entries of Z that queries reach are computed,
by Takahashi's recurrence over the columns of L (selected inversion), and
each graph keeps its factor and those entries until it is mutated.  So
every pair of an unchanged graph is answered from one factorization, and
later queries mostly read entries that earlier ones computed.  Each entry
of Z is summed as one integer numerator over a running denominator and
normalised once.

The three equivalent-circuit transformations (series, delta-wye, wye-delta)
are implemented directly on graphs and edit the graph they are given in
place (copy it first to keep it); ``graph_level_reduce`` applies them to
one graph, performing the five-step grid reduction purely as graph surgery.
Each resistance a transformation or a parallel merge makes is written over
one denominator from its inputs' numerators and denominators and normalised
once, by one gcd, instead of through a chain of Fraction operators.
None of this shares code with the closed-form child-edge formulas in
circuitarray.reduction, which is the point: the two pipelines must agree
label for label.

Straight linear 2-trees and their Fibonacci resistance formula live here
too, together with exact verification of two Fibonacci/Lucas summation
identities that arise from such circuits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import RATIONALS, digit_limit_error
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
        # L·D·Lᵀ factor for effective_resistance; every mutator drops it
        self._factor = None

    # -- construction ------------------------------------------------------

    def add_vertex(self, v) -> None:
        self._adj.setdefault(v, {})
        self._factor = None

    def add_edge(self, u, v, resistance) -> None:
        if u == v:
            raise GraphError(f"self-loop at {u!r} rejected")
        r = (resistance if type(resistance) is Fraction
             else Fraction(resistance))
        if r.numerator <= 0:
            raise GraphError(f"resistance must be positive, got {r}")
        nbrs = self._adj.setdefault(u, {})
        existing = nbrs.get(v)
        if existing is not None:
            # parallel edges combine by adding conductances: a/α ∥ b/β is
            # ab/(aβ + bα)
            a, alpha = existing.numerator, existing.denominator
            b, beta = r.numerator, r.denominator
            r = Fraction(a * b, a * beta + b * alpha)
        nbrs[v] = r
        self._adj.setdefault(v, {})[u] = r
        self._factor = None

    def remove_edge(self, u, v) -> None:
        del self._adj[u][v]
        del self._adj[v][u]
        self._factor = None

    def remove_vertex(self, v) -> None:
        for w in self._adj.pop(v):
            del self._adj[w][v]
        self._factor = None

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
        """The graph in the format of ``from_json``.

        Vertices are numbered in insertion order, so the graph read back
        grounds and eliminates them in the same order (see ``_ldl``).
        """
        import json
        verts = list(self._adj)
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
        exact).  Any other shape, or an ``"n"`` too large for the edges to
        connect, raises a one-line ``GraphError`` that names the bad field.
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
        if n > len(edges) + 1:
            raise GraphError(f"{n} vertices cannot be connected by "
                             f"{len(edges)} edges")
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
                r = RATIONALS.parse(r) if type(r) is str else Fraction(r)
            except (ValueError, ZeroDivisionError):
                too_long = digit_limit_error(r)
                if too_long:
                    raise GraphError(f"{where}.r {too_long}") from None
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

    With Z = (L D Lᵀ)⁻¹ the inverse of the graph's grounded Laplacian (see
    ``_ldl``), R(u, v) = Z_uu + Z_vv - 2 Z_uv, where every entry in a row or
    column of the ground vertex is 0.  The factor is built on the first
    query and the entries of Z it needs are computed on demand by
    ``_inverse_entry``; both stay on the graph until it is mutated, so later
    queries mostly read entries that are already there.  The first query
    pays for every entry it reaches, and a pair near the ground (the first
    vertices) reaches nearly all of Z: on grid graphs it costs two to three
    times a first query by one forward substitution, and the later queries
    are then almost free.
    """
    if u == v:
        raise GraphError("effective resistance needs two distinct vertices")
    if u not in g._adj or v not in g._adj:
        raise GraphError("both vertices must be in the graph")
    if g._factor is None:
        g._factor = _ldl(g)
    index = g._factor[0]
    i, j = index.get(u), index.get(v)  # None for the ground vertex

    def z(a, b):
        return 0 if a is None or b is None else _inverse_entry(g._factor, a, b)

    return z(i, i) + z(j, j) - 2 * z(i, j)


def _ldl(g: WeightedGraph) -> tuple:
    """L·D·Lᵀ factor of the grounded conductance Laplacian of ``g``.

    The first vertex of ``g`` is grounded; the others are numbered and
    eliminated in insertion order, which keeps grid graphs (inserted row by
    row) banded, so fill stays in the band.  The matrix is symmetric, so
    each row holds only its entries at and right of the diagonal, and
    elimination updates only that half of each Schur complement.  For a
    connected graph with positive resistances the matrix is positive
    definite, so no pivoting is needed and every pivot is positive.

    Returns (index, columns, pivots, Z): the vertex numbering, column k of L
    below the diagonal as {j: L_jk}, the diagonal of D, and an empty memo
    {(i, j): Z_ij, i >= j} of the inverse that ``_inverse_entry`` fills.
    """
    if not g.is_connected():
        raise GraphError("graph must be connected for resistance queries")
    verts = list(g._adj)[1:]
    index = {w: k for k, w in enumerate(verts)}
    rows = []
    for k, w in enumerate(verts):
        row = {k: Fraction(0)}
        for x, r in g._adj[w].items():
            c = 1 / r
            row[k] += c
            j = index.get(x)
            if j is not None and j > k:
                row[j] = -c
        rows.append(row)
    columns, pivots = [], []
    for k, row in enumerate(rows):
        d = row.pop(k)
        col = {j: a / d for j, a in row.items()}
        for j, l in col.items():
            target = rows[j]
            for i, a in row.items():
                if i >= j:
                    target[i] = target.get(i, 0) - l * a
        columns.append(col)
        pivots.append(d)
    return index, columns, pivots, {}


def _inverse_entry(factor: tuple, i: int, j: int) -> Fraction:
    """Entry (i, j) of Z = (L D Lᵀ)⁻¹, memoized in the factor's Z.

    Takahashi's recurrence (Takahashi, Fox & Sato 1973) follows from
    Z = D⁻¹L⁻¹ + (I - Lᵀ)Z: for i >= j,

        Z_ij = [i = j] / D_j - Σ_{k in column j of L} L_kj · Z_{ik},

    where every k is greater than j.  So each entry needs only entries
    whose smaller index is larger than its own, and the recursion ends at
    the last column, which is empty.  It runs on an explicit stack, because
    the chain of smaller indices is as long as the graph.
    """
    _, columns, pivots, Z = factor
    key = (i, j) if i >= j else (j, i)
    stack = [key]
    while stack:
        i, j = stack[-1]
        if (i, j) in Z:
            stack.pop()
            continue
        # the sum is kept as num/den over a common denominator, one gcd a
        # term, and normalised once
        if i == j:
            num, den = pivots[j].denominator, pivots[j].numerator
        else:
            num, den = 0, 1
        ready = True
        for k, l in columns[j].items():
            pair = (i, k) if i >= k else (k, i)
            zik = Z.get(pair)
            if zik is None:
                stack.append(pair)
                ready = False
            elif ready:
                tn = l.numerator * zik.numerator
                td = l.denominator * zik.denominator
                g = gcd(den, td)
                num = num * (td // g) - tn * (den // g)
                den *= td // g
        if ready:
            Z[i, j] = Fraction(num, den)
            stack.pop()
    return Z[key]


# -- the three circuit transformations ---------------------------------------
# Each checks its site before it changes anything, so a rejected site leaves
# the graph as it was.

def delta_to_wye(g: WeightedGraph, triangle, center) -> None:
    """Replace the 3-edge loop on the given vertices by a star whose new
    vertex is ``center``.  External effective resistances are preserved."""
    x, y, z = triangle
    for (p, q) in ((x, y), (y, z), (x, z)):
        if not g.has_edge(p, q):
            raise GraphError(f"delta-wye site must be a triangle; missing edge "
                             f"({p!r}, {q!r})")
    if center in g._adj:
        raise GraphError(f"center {center!r} already in graph")
    # c_xy = a/α, c_yz = b/β, c_xz = c/γ; each leg is the product of its two
    # edges over their sum, (aβγ + bαγ + cαβ)/(αβγ)
    c_xy = g.resistance_of(x, y)
    c_yz = g.resistance_of(y, z)
    c_xz = g.resistance_of(x, z)
    a, alpha = c_xy.numerator, c_xy.denominator
    b, beta = c_yz.numerator, c_yz.denominator
    c, gamma = c_xz.numerator, c_xz.denominator
    s = a * beta * gamma + b * alpha * gamma + c * alpha * beta
    g.remove_edge(x, y)
    g.remove_edge(y, z)
    g.remove_edge(x, z)
    g.add_edge(center, x, Fraction(a * c * beta, s))
    g.add_edge(center, y, Fraction(a * b * gamma, s))
    g.add_edge(center, z, Fraction(b * c * alpha, s))


def wye_to_delta(g: WeightedGraph, center) -> None:
    """Replace the degree-3 star at ``center`` by a triangle on its leaves."""
    if center not in g._adj:
        raise GraphError(f"no vertex {center!r}")
    nbrs = g.neighbors(center)
    if len(nbrs) != 3:
        raise GraphError(f"wye-delta site must have degree 3, "
                         f"got degree {len(nbrs)} at {center!r}")
    x, y, z = nbrs
    # legs p = a/α, q = b/β, t = c/γ; each edge is (pq + qt + tp) over the
    # opposite leg, and pq + qt + tp = (abγ + bcα + caβ)/(αβγ)
    p = g.resistance_of(center, x)
    q = g.resistance_of(center, y)
    t = g.resistance_of(center, z)
    a, alpha = p.numerator, p.denominator
    b, beta = q.numerator, q.denominator
    c, gamma = t.numerator, t.denominator
    k = a * b * gamma + b * c * alpha + c * a * beta
    g.remove_vertex(center)
    g.add_edge(y, z, Fraction(k, a * beta * gamma))
    g.add_edge(x, z, Fraction(k, alpha * b * gamma))
    g.add_edge(x, y, Fraction(k, alpha * beta * c))


def series(g: WeightedGraph, through) -> None:
    """Merge the two edges at a degree-2 vertex into one series edge."""
    if through not in g._adj:
        raise GraphError(f"no vertex {through!r}")
    nbrs = g.neighbors(through)
    if len(nbrs) != 2:
        raise GraphError(f"series site must have degree 2, "
                         f"got degree {len(nbrs)} at {through!r}")
    x, y = nbrs
    p = g.resistance_of(through, x)
    q = g.resistance_of(through, y)
    a, alpha = p.numerator, p.denominator
    b, beta = q.numerator, q.denominator
    g.remove_vertex(through)
    g.add_edge(x, y, Fraction(a * beta + b * alpha, alpha * beta))


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
            delta_to_wye(g, (apex, bl, br), ("c", r, d))

    corners = {(0, 0), (m, 0), (m, m)}
    tails = [v for v in g.vertices if g.degree(v) == 1]
    if set(tails) != corners:
        raise GraphError(f"expected exactly the 3 corner tails, got {tails}")
    for v in tails:
        g.remove_vertex(v)

    for v in list(g.vertices):
        if isinstance(v, tuple) and len(v) == 2 and g.degree(v) == 2:
            series(g, v)

    for v in list(g.vertices):
        if isinstance(v, tuple) and len(v) == 2:
            if g.degree(v) != 3:
                raise GraphError(f"interior vertex {v} has degree {g.degree(v)}, "
                                 "expected 3")
            wye_to_delta(g, v)

    if len(g.vertices) != m * (m + 1) // 2:
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
    return Grid(mc, tri, reductions=grid.reductions + 1)


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


def verify_fib_identities() -> Report:
    """Exact verification of two Fibonacci/Lucas identities.

    First, for every m <= 50:

        sum_{i=1}^{m} F_i F_{i+1} / (L_i L_{i+1})
            = ((m+1) L_{m+1} - F_{m+1}) / (5 L_{m+1}).

    Second, for every n <= 30 and k = 3..n-2:

        sum_{j=3}^{k} (-1)^j F_{n-2j+1} (F_n + F_{j-2} F_{n-j-1})
            = -F_{k-2} F_{k+1} F_{n-k-2} F_{n+1-k}.
    """
    report = Report("fibonacci-identities")

    def product_ratio_failures():
        running = Fraction(0)
        for m in range(1, 51):
            running += Fraction(fibonacci(m) * fibonacci(m + 1),
                                lucas(m) * lucas(m + 1))
            rhs = Fraction((m + 1) * lucas(m + 1) - fibonacci(m + 1),
                           5 * lucas(m + 1))
            if running != rhs:
                yield f"fails at m={m}: {running} != {rhs}"

    def telescoping_failures():
        for n in range(5, 31):
            acc = 0  # the sum over j = 3..k, one term added per k
            for k in range(3, n - 1):
                acc += (-1) ** k * fibonacci(n - 2 * k + 1) * (
                    fibonacci(n) + fibonacci(k - 2) * fibonacci(n - k - 1))
                rhs = -(fibonacci(k - 2) * fibonacci(k + 1)
                        * fibonacci(n - k - 2) * fibonacci(n + 1 - k))
                if acc != rhs:
                    yield f"fails at n={n}, k={k}: {acc} != {rhs}"

    report.scan("product-ratio sum identity, m <= 50", product_ratio_failures())
    report.scan("alternating telescoping identity, n <= 30",
                telescoping_failures())
    return report


def verify_2tree_formula() -> Report:
    """Closed 2-tree formula vs the Laplacian oracle, all pairs, n <= 12."""
    report = Report("straight-2tree-formula")

    def mismatches(n):
        g = straight_2tree(n)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                want = effective_resistance(g, u, v)
                got = r_formula_straight(n, u, v)
                if got != want:
                    yield f"pair {u},{v}: formula {got} != oracle {want}"

    for n in range(3, 13):
        report.scan(f"n={n}, all {n*(n-1)//2} pairs", mismatches(n))
    return report

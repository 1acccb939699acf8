"""One-step grid reduction and the circuit transformation functions.

Reducing an m-grid to an (m-1)-grid is equivalent-circuit surgery: replace
every upright triangle by a star (delta-wye), drop the three corner tails,
merge the series pairs along the boundary, and turn the remaining claws back
into triangles (wye-delta).  Composing those steps gives closed formulas for
each child edge directly in terms of parent labels, built from

    delta(x, y, z) = x*y / (x + y + z)        (triangle edge -> star leg)
    wye(x, y, z)   = (x*y + y*z + z*x) / x    (star legs -> triangle edge)

and plain series addition.  Each parent triangle (L, R, B) contributes three
star legs, one per corner: apex = delta(L, R, B), bottom-left = delta(B, L, R),
bottom-right = delta(R, B, L).  A child edge is then either the wye of the
three legs meeting at the parent vertex it straddles (interior edges) or the
series sum of the two legs meeting there (boundary edges).

``child_edge``, ``reduce_once`` and ``reduce_k`` are generic over the scalar
field: the same code reduces grids of exact rationals and grids of rational
functions.

``reduce_array`` (all array columns) and ``reduce_diagonal`` (the leftmost
diagonal) run one reduction chain from one all-one start grid, reading
column j after j steps; they differ only in how many diagonals each column
reads.  ``reduce_window`` is the one-column read of an all-one n-grid of
any admissible size, including sizes whose cone reaches the bottom row.
All three compute exactly the same labels as repeated ``reduce_once`` but
restrict work to the triangles that can influence the requested reads, and
memoize star legs and wye results on label values.  They store each
diagonal of their cone as runs of equal label triples along the rows and
share one step function, ``_band_step``, which reduces run by run, so a
step costs per run instead of per triangle.  ``reduce_once`` keeps its own
loop and, through ``reduce_k``, serves as the oracle for the step.  The
memos are keyed on each label's ``numerator`` and ``denominator``: integers
for exact rationals, hashable polynomials for rational functions, so the
chain runs over both fields.  ``_reduce_chain`` can also start one step in,
from the once-reduced all-one grid with its boundary relabelled; the
symbolic diagonal L_s(x) is read that way.
"""

from __future__ import annotations

from bisect import bisect_right

from .fields import FieldContract, fast_rationals
from .grid import (SIDES, EdgeRef, Grid, GridError, determining_triangles,
                   symmetry_complete)


def delta(x, y, z):
    """Star leg at the corner where triangle edges x and y meet."""
    s = x + y + z
    if s == 0:
        raise ZeroDivisionError("delta with zero edge sum")
    return x * y / s


def wye(x, y, z):
    """Triangle edge opposite the star leg x, given the other legs y and z."""
    if x == 0:
        raise ZeroDivisionError("wye with zero opposite leg")
    return (x * y + y * z + z * x) / x


def series_merge(r1, r2):
    """Resistance of two resistors in series."""
    return r1 + r2


def triangle_legs(L, R, B):
    """Star legs (apex, bottom-left, bottom-right) of one upright triangle."""
    s = L + R + B
    if s == 0:
        raise ZeroDivisionError("delta-wye with zero edge sum")
    return (L * R / s, B * L / s, R * B / s)


def child_edge(parent: Grid, r: int, d: int, side: str):
    """Label of edge (r, d, side) in the one-step reduction of ``parent``.

    Domain limits follow from which parent triangles each formula touches;
    violations are rejected with the failing inequality named.
    """
    m = parent.m
    mc = m - 1
    if mc < 1:
        raise GridError("parent grid must have m >= 2")
    if side not in SIDES:
        raise GridError(f"side must be one of {SIDES}, got {side!r}")
    if not 1 <= d <= r <= mc:
        raise GridError(f"child edge needs 1 <= d <= r <= m-1; "
                        f"got r={r}, d={d}, m-1={mc}")
    legs = {}

    def leg(rr, dd):
        v = legs.get((rr, dd))
        if v is None:
            v = triangle_legs(*parent.triangle(rr, dd))
            legs[(rr, dd)] = v
        return v

    if side == "L":
        if d == 1:
            return series_merge(leg(r, 1)[1], leg(r + 1, 1)[0])
        return wye(leg(r, d - 1)[2], leg(r, d)[1], leg(r + 1, d)[0])
    if side == "R":
        if d == r:
            return series_merge(leg(r, r)[2], leg(r + 1, r + 1)[0])
        return wye(leg(r, d + 1)[1], leg(r, d)[2], leg(r + 1, d + 1)[0])
    if r == mc:
        return series_merge(leg(m, d)[2], leg(m, d + 1)[1])
    return wye(leg(r + 2, d + 1)[0], leg(r + 1, d)[2], leg(r + 1, d + 1)[1])


def _reduce_triangles(tri, m, out_triangles):
    """Child label triples for the listed child triangles.

    ``tri`` maps parent (r, d) to (L, R, B).  Same formulas as child_edge,
    with delta legs shared across the child edges of one pass.
    """
    legs = {}

    def leg(rr, dd):
        v = legs.get((rr, dd))
        if v is None:
            L, R, B = tri[(rr, dd)]
            s = L + R + B
            v = (L * R / s, B * L / s, R * B / s)
            legs[(rr, dd)] = v
        return v

    mc = m - 1
    child = {}
    for (r, d) in out_triangles:
        if d == 1:
            Lv = leg(r, 1)[1] + leg(r + 1, 1)[0]
        else:
            a = leg(r, d - 1)[2]; b = leg(r, d)[1]; c = leg(r + 1, d)[0]
            Lv = b + c + b * c / a
        if d == r:
            Rv = leg(r, r)[2] + leg(r + 1, r + 1)[0]
        else:
            a = leg(r, d + 1)[1]; b = leg(r, d)[2]; c = leg(r + 1, d + 1)[0]
            Rv = b + c + b * c / a
        if r == mc:
            Bv = leg(m, d)[2] + leg(m, d + 1)[1]
        else:
            a = leg(r + 2, d + 1)[0]; b = leg(r + 1, d)[2]; c = leg(r + 1, d + 1)[1]
            Bv = b + c + b * c / a
        child[(r, d)] = (Lv, Rv, Bv)
    return child


def reduce_once(grid: Grid) -> Grid:
    """Reduce an m-grid to the equivalent (m-1)-grid.

    Symmetric grids are reduced on the determining region only and completed
    by symmetry; general grids are reduced edge by edge.  Both paths agree
    with the independent graph-level reducer (see circuitarray.graphs).
    """
    if grid.m < 2:
        raise GridError("cannot reduce: grid size m >= 2 required")
    mc = grid.m - 1
    if grid.is_symmetric():
        out = determining_triangles(mc)
        child = _reduce_triangles(grid._tri, grid.m, out)
        partial = {EdgeRef(r, d, s): child[(r, d)][i]
                   for (r, d) in out for i, s in enumerate(SIDES)}
        return symmetry_complete(partial, mc, field=grid.field,
                                 reductions=grid.reductions + 1)
    out = [(r, d) for r in range(1, mc + 1) for d in range(1, r + 1)]
    child = _reduce_triangles(grid._tri, grid.m, out)
    return Grid(mc, child, field=grid.field, reductions=grid.reductions + 1)


def reduce_k(grid: Grid, k: int) -> Grid:
    """k-fold composition of reduce_once (k = 0 returns the grid unchanged)."""
    if k < 0:
        raise GridError(f"reduction count must be >= 0, got {k}")
    if k >= grid.m:
        raise GridError(f"cannot reduce a {grid.m}-grid {k} times (k < m required)")
    for _ in range(k):
        grid = reduce_once(grid)
    return grid


def reduce_window(j: int, n: int, read_dmax: int,
                  field: FieldContract | None = None) -> dict:
    """Row-(2j-1) label triples of the j-times-reduced all-one n-grid.

    Computes exactly the labels that repeated ``reduce_once`` would produce,
    restricted to the dependency cone of the read row: reading diagonals
    1..read_dmax of row 2j-1 after j reductions only requires, after k
    steps, diagonal d <= read_dmax + j - k from row max(2j-1, d) to row
    min(2j-1 + 2(j-k), n-k).  Each diagonal of that band is stored as runs
    of equal triples and reduced by the chain's step (``_band_step``), so
    the uniform interior of reduced grids costs one run, not one entry per
    triangle.  With n < 4j-1 the cone reaches the bottom row of the grid.

    Returns {d: (L, R, B)} for d = 1..read_dmax.  ``field`` is an exact
    rational field and defaults to the fastest available backend.
    """
    if j < 1:
        raise GridError(f"column index must be >= 1, got {j}")
    if n < 3 * j - 1:
        raise GridError(f"read row 2j-1={2*j-1} needs n-j >= 2j-1, "
                        f"i.e. n >= {3*j-1}; got n={n}")
    if not 1 <= read_dmax <= j:
        raise GridError(f"read diagonals must lie in 1..j={j}, got {read_dmax}")
    if field is None:
        field = fast_rationals()
    lo = 2 * j - 1

    def cone(k):
        t = j - k
        return ([max(lo, d) for d in range(1, read_dmax + t + 1)],
                min(lo + 2 * t, n - k))

    one = field.one
    band = [([a], [(one, one, one)]) for a in cone(0)[0]]
    leg_memo: dict = {}
    wye_memo: dict = {}
    for k in range(j):
        band = _band_step(band, n - k, *cone(k + 1), leg_memo, wye_memo)
    return {d: _run_at(band[d - 1], lo) for d in range(1, read_dmax + 1)}


def reduce_array(C: int, field: FieldContract | None = None) -> list[dict]:
    """Row-(2j-1) label triples after j reductions, for columns j = 1..C.

    One reduction chain from the all-one 4C-grid (see ``_reduce_chain``).
    Entry j-1 of the result is {d: (L, R, B)} for d = 1..j and equals
    ``reduce_window(j, 4*j, j)``: the cone of row 2j-1 never reaches the
    bottom boundary row, so a larger start grid gives the same labels by the
    same formulas.  ``field`` is an exact rational field and defaults to the
    fastest available backend.
    """
    return _reduce_chain(C, C, field)


def reduce_diagonal(S: int, field: FieldContract | None = None) -> list:
    """Left labels of triangle (2s-1, 1) after s reductions, for s = 1..S.

    The same chain as ``reduce_array`` on the all-one 4S-grid, reading only
    diagonal 1 of each column.  Each value equals
    ``reduce_window(s, 4*s, 1)[1][0]``.  ``field`` is an exact rational
    field and defaults to the fastest available backend.
    """
    return [reads[1][0] for reads in _reduce_chain(S, 1, field)]


def _reduce_chain(C: int, width: int, field, boundary=None) -> list[dict]:
    """Diagonals 1..min(j, width) of row 2j-1 after j reductions, j = 1..C.

    One reduction chain from the all-one 4C-grid.  Column j's read needs,
    c steps into the chain, rows 2j-1 .. 4j-2c-1 out to diagonal
    min(j, width) + j - c.  After c reductions the chain keeps only the
    union of the cones of the columns still open (j >= c): row r
    (2c-1 <= r <= 4C-2c-1) out to diagonal min(width, k) + k - c with
    k = min(C, (r+1)//2), the widest cone of any j <= C with 2j-1 <= r.
    Column c is read after c steps, at the top row of the cone, which the
    next step drops.

    That bound never decreases as r grows, so diagonal d of the cone is the
    row interval from its first row (``_cone_starts``) to the cone's last
    row.  The chain stores each diagonal as maximal runs of equal (L, R, B)
    triples along r and reduces it run by run (``_band_step``), so a step
    costs per run, not per triangle: deep in the chain almost every
    diagonal is one run.  Runs are found by comparing values, not assumed,
    so the labels are exactly those of repeated ``reduce_once``.

    With ``boundary`` given, the chain starts after step 1, from the
    once-reduced all-one grid (2/3 on its boundary, 1 inside) with each
    boundary label replaced by ``boundary``.  Its bottom row lies below
    the cone, so only left labels at d = 1 and right labels at d = r are
    relabelled.  ``field`` is any field whose labels expose hashable
    ``numerator`` and ``denominator`` (see ``_band_step``).
    """
    if C < 1:
        raise GridError(f"need at least one column, got {C}")
    if field is None:
        field = fast_rationals()
    n = 4 * C
    one = field.one

    def read(c):
        return {d: _run_at(band[d - 1], 2 * c - 1)
                for d in range(1, min(width, c) + 1)}

    columns = []
    if boundary is None:
        first = 1
        starts, _ = _cone_starts(C, width, 0)
        band = [([a], [(one, one, one)]) for a in starts]
    else:
        first = 2
        starts, last = _cone_starts(C, width, 1)
        band = []
        for d, a in enumerate(starts, start=1):
            left = boundary if d == 1 else one
            rows, triples = [a], [(left, boundary if a == d else one, one)]
            if a == d and a < last:
                rows.append(a + 1)
                triples.append((left, one, one))
            band.append((rows, triples))
        columns.append(read(1))
    leg_memo: dict = {}
    wye_memo: dict = {}
    for c in range(first, C + 1):
        band = _band_step(band, n - c + 1, *_cone_starts(C, width, c),
                          leg_memo, wye_memo)
        columns.append(read(c))
    return columns


def _cone_starts(C: int, width: int, c: int) -> tuple[list, int]:
    """First row of each diagonal d = 1, 2, ... of the chain's cone after c
    reductions (see ``_reduce_chain``), and the cone's last row.

    Row r reaches diagonal min(r, g(k) - c) with g(k) = min(width, k) + k and
    k = min(C, (r+1)//2).  g increases strictly with k, so with k the least
    value for which g(k) >= d + c, diagonal d starts at row
    max(top, d, 2k-1); the cone has no diagonal d once k exceeds C or that
    row passes the cone's last row 4C-2c-1.
    """
    top, last = max(1, 2 * c - 1), 4 * C - 2 * c - 1
    starts = []
    d = 1
    while True:
        t = d + c
        # g(k) = 2k while k <= width, width + k after
        k = (t + 1) // 2 if (t + 1) // 2 <= width else t - width
        r = max(top, d, 2 * k - 1)
        if k > C or r > last:
            return starts, last
        starts.append(r)
        d += 1


def _run_at(runs, r):
    """The value a diagonal stored as (run start rows, values) holds at row r."""
    rows, values = runs
    return values[bisect_right(rows, r) - 1]


def _band_step(band: list, m: int, starts: list, last: int, leg_memo: dict,
               wye_memo: dict) -> list:
    """Child cone of one reduction of an m-grid, diagonals stored as runs.

    ``band[d-1]`` is (rows, triples): parent diagonal d holds triples[i]
    from row rows[i] up to the next run's start, the last run up to the
    parent cone's last row.  The child cone's diagonal d runs from row
    ``starts[d-1]`` to row ``last``.  Child (r, d) reads parent diagonals
    d-1 at row r, d at rows r..r+1 and d+1 at rows r..r+2 by the formulas
    of ``child_edge``, which change only at r = d and r = m-1; so between
    two cut rows, the run starts of those sources shifted up by their row
    offset and the two special rows, every child triple is the same.  Each
    such segment is evaluated once, star legs once per parent run, and
    equal neighbouring results are merged.

    ``leg_memo`` and ``wye_memo`` persist across the steps of one chain.
    They, and the merge, are keyed on each label's (numerator, denominator)
    pair: integers for exact rationals, which hash far faster than the
    scalars themselves (``Fraction.__hash__`` computes a modular inverse),
    and canonical polynomials for rational functions, which compare
    structurally.
    """
    legs = [(rows, [_star_legs(t, leg_memo) for t in triples])
            for rows, triples in band]

    def leg(r, d):
        return _run_at(legs[d - 1], r)

    wye3 = _memo_wye(wye_memo)
    mc = m - 1
    child = []
    for d, a in enumerate(starts, start=1):
        cuts = {a, d + 1, mc, mc + 1}
        for source, span in ((d - 1, 1), (d, 2), (d + 1, 3)):
            if source:
                for p in legs[source - 1][0]:
                    cuts.update(range(p - span + 1, p + 1))
        rows, triples, prev = [], [], None
        for r in sorted(q for q in cuts if a <= q <= last):
            Lv, Rv, Bv = _child_triple(leg, wye3, r, d, m)
            key = (Lv.numerator, Lv.denominator, Rv.numerator, Rv.denominator,
                   Bv.numerator, Bv.denominator)
            if key != prev:
                rows.append(r)
                triples.append((Lv, Rv, Bv))
                prev = key
        child.append((rows, triples))
    return child


def _star_legs(triple, leg_memo):
    """Star legs of one parent triple, memoized on its label values."""
    L, R, B = triple
    key = (L.numerator, L.denominator, R.numerator, R.denominator,
           B.numerator, B.denominator)
    v = leg_memo.get(key)
    if v is None:
        s = L + R + B
        v = leg_memo[key] = (L * R / s, B * L / s, R * B / s)
    return v


def _memo_wye(wye_memo):
    """The wye formula memoized on its three legs' values."""
    def wye3(a, b, c):
        key = (a.numerator, a.denominator, b.numerator, b.denominator,
               c.numerator, c.denominator)
        v = wye_memo.get(key)
        if v is None:
            v = wye_memo[key] = b + c + b * c / a
        return v
    return wye3


def _child_triple(leg, wye3, r, d, m):
    """Child (L, R, B) at (r, d) of one reduction of an m-grid.

    The formulas of ``child_edge``, with ``leg(r, d)`` the star legs of
    parent triangle (r, d) and ``wye3`` the wye formula.
    """
    if d == 1:
        Lv = leg(r, 1)[1] + leg(r + 1, 1)[0]
    else:
        Lv = wye3(leg(r, d - 1)[2], leg(r, d)[1], leg(r + 1, d)[0])
    if d == r:
        Rv = leg(r, r)[2] + leg(r + 1, r + 1)[0]
    else:
        Rv = wye3(leg(r, d + 1)[1], leg(r, d)[2], leg(r + 1, d + 1)[0])
    if r == m - 1:
        Bv = leg(m, d)[2] + leg(m, d + 1)[1]
    else:
        Bv = wye3(leg(r + 2, d + 1)[0], leg(r + 1, d)[2], leg(r + 1, d + 1)[1])
    return Lv, Rv, Bv

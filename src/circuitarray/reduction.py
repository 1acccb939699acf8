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
reads.  ``reduce_window`` reduces for one column alone and is the per-column
reference.  All three compute exactly the same labels as repeated
``reduce_once`` but restrict work to the triangles that can influence the
requested reads, and memoize on label values so the large uniform interior
of a reduced grid costs almost nothing.  They run the same step function,
``_reduce_step``; ``reduce_once`` keeps its own loop and, through
``reduce_k``, serves as the oracle the windowed paths are tested against.
The windowed paths key their memos on each label's ``numerator`` and
``denominator``: integers for exact rationals, hashable polynomials for
rational functions, so they run over both fields.  ``_reduce_chain`` can
also start one step in, from the once-reduced all-one grid with its
boundary relabelled; the symbolic diagonal L_s(x) is read that way.
"""

from __future__ import annotations

import enum

from .fields import FieldContract, fast_rationals
from .grid import (SIDES, EdgeRef, Grid, GridError, determining_triangles,
                   symmetry_complete)


class TransformKind(enum.Enum):
    """The four child-edge transformation shapes.

    Boundary edges on the right side and bottom row use BOUNDARY_LEFT
    composed with the grid's rotational symmetry (same formula, rotated
    arguments), so four kinds cover every child edge.
    """

    BOUNDARY_LEFT = "boundary-left"
    NONBOUNDARY_LEFT = "left"
    NONBOUNDARY_RIGHT = "right"
    BASE = "base"


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


def transform_kind(r: int, d: int, side: str, m_child: int) -> TransformKind:
    if side == "L":
        return TransformKind.BOUNDARY_LEFT if d == 1 else TransformKind.NONBOUNDARY_LEFT
    if side == "R":
        return TransformKind.BOUNDARY_LEFT if d == r else TransformKind.NONBOUNDARY_RIGHT
    return TransformKind.BOUNDARY_LEFT if r == m_child else TransformKind.BASE


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
    1..read_dmax of row 2j-1 after j reductions only requires, k steps
    before the end, triangles within 2k rows below the read row and k
    diagonals beyond it.  Within the cone, star legs and wye results are
    memoized by label value, which collapses the uniform interior bands of
    reduced grids to near-constant work.

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
        return [(r, min(r, read_dmax + t))
                for r in range(lo, min(lo + 2 * t, n - k) + 1)]

    labels = _all_one(cone(0), field)
    leg_memo: dict = {}
    wye_memo: dict = {}
    for k in range(j):
        labels = _reduce_step(labels, n - k, cone(k + 1), leg_memo, wye_memo)
    return {d: labels[(lo, d)] for d in range(1, read_dmax + 1)}


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

    With ``boundary`` given, the chain starts after step 1, from the
    once-reduced all-one grid (2/3 on its boundary, 1 inside) with each
    boundary label replaced by ``boundary``.  Its bottom row lies below
    the cone, so only left labels at d = 1 and right labels at d = r are
    relabelled.  ``field`` is any field whose labels expose hashable
    ``numerator`` and ``denominator`` (see ``_reduce_step``).
    """
    if C < 1:
        raise GridError(f"need at least one column, got {C}")
    if field is None:
        field = fast_rationals()
    n = 4 * C

    def cone(c):
        rows = []
        for r in range(max(1, 2 * c - 1), n - 2 * c):
            k = min(C, (r + 1) // 2)
            rows.append((r, min(r, min(width, k) + k - c)))
        return rows

    def read(c):
        return {d: labels[(2 * c - 1, d)] for d in range(1, min(width, c) + 1)}

    columns = []
    if boundary is None:
        first = 1
        labels = _all_one(cone(0), field)
    else:
        first = 2
        one = field.one
        labels = {(r, d): (boundary if d == 1 else one,
                           boundary if d == r else one, one)
                  for r, dmax in cone(1) for d in range(1, dmax + 1)}
        columns.append(read(1))
    leg_memo: dict = {}
    wye_memo: dict = {}
    for c in range(first, C + 1):
        labels = _reduce_step(labels, n - c + 1, cone(c), leg_memo, wye_memo)
        columns.append(read(c))
    return columns


def _all_one(rows, field) -> dict:
    one = field.one
    return {(r, d): (one, one, one) for r, dmax in rows
            for d in range(1, dmax + 1)}


def _reduce_step(labels: dict, m: int, rows: list, leg_memo: dict,
                 wye_memo: dict) -> dict:
    """Child triples of one reduction of an m-grid, on a cone of triangles.

    ``rows`` lists (r, dmax) pairs: the child triangles (r, 1..dmax) to
    compute.  ``labels`` maps parent (r, d) to (L, R, B) and must hold every
    parent triangle those children read: (r, d-1..d+1), (r+1, d..d+1) and
    (r+2, d+1); it is consumed (its values are overwritten).  The formulas
    are those of ``child_edge``.

    ``leg_memo`` and ``wye_memo`` persist across the steps of one chain.
    They are keyed on each label's (numerator, denominator) pair: integers
    for exact rationals, which hash far faster than the scalars themselves
    (``Fraction.__hash__`` computes a modular inverse), and canonical
    polynomials for rational functions, which compare structurally.
    """
    # Each parent triple is read only here, so its slot takes the triangle's
    # star legs: a second dict of the cone's size would raise the chain's
    # peak memory by about a third.
    legs = labels
    for pos, (L, R, B) in labels.items():
        key = (L.numerator, L.denominator, R.numerator, R.denominator,
               B.numerator, B.denominator)
        v = leg_memo.get(key)
        if v is None:
            s = L + R + B
            v = leg_memo[key] = (L * R / s, B * L / s, R * B / s)
        legs[pos] = v

    def wye3(a, b, c):
        key = (a.numerator, a.denominator, b.numerator, b.denominator,
               c.numerator, c.denominator)
        v = wye_memo.get(key)
        if v is None:
            v = wye_memo[key] = b + c + b * c / a
        return v

    mc = m - 1
    child = {}
    for r, dmax in rows:
        for d in range(1, dmax + 1):
            if d == 1:
                Lv = legs[r, 1][1] + legs[r + 1, 1][0]
            else:
                Lv = wye3(legs[r, d - 1][2], legs[r, d][1], legs[r + 1, d][0])
            if d == r:
                Rv = legs[r, r][2] + legs[r + 1, r + 1][0]
            else:
                Rv = wye3(legs[r, d + 1][1], legs[r, d][2],
                          legs[r + 1, d + 1][0])
            if r == mc:
                Bv = legs[m, d][2] + legs[m, d + 1][1]
            else:
                Bv = wye3(legs[r + 2, d + 1][0], legs[r + 1, d][2],
                          legs[r + 1, d + 1][1])
            child[(r, d)] = (Lv, Rv, Bv)
    return child

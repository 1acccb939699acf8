"""One-step grid reduction and the circuit transformation functions.

Reducing an m-grid to an (m-1)-grid is equivalent-circuit surgery: replace
every upright triangle by a star (delta-wye), drop the three corner tails,
merge the series pairs along the boundary, and turn the remaining claws back
into triangles (wye-delta).  Composing those steps gives closed formulas for
each child edge directly in terms of parent labels, built from

    delta(x, y, z) = x*y / (x + y + z)        (triangle edge -> star leg)
    wye(x, y, z)   = y + z + y*z / x          (star legs -> triangle edge)

and plain series addition.  Each parent triangle (L, R, B) contributes three
star legs, one per corner: apex = delta(L, R, B), bottom-left = delta(B, L, R),
bottom-right = delta(R, B, L).  A child edge is then either the wye of the
three legs meeting at the parent vertex it straddles (interior edges) or the
series sum of the two legs meeting there (boundary edges).

``child_edge``, ``reduce_once`` and ``reduce_k`` are generic over the scalar
field: the same code reduces grids of exact rationals and grids of rational
functions.

One kernel, ``_child_triple``, places parent star legs into a child
(L, R, B) triple; ``triangle_legs`` is the only star-leg computation and
``wye`` the only wye.  ``reduce_once`` calls the kernel for every triangle
of a grid, or, when the grid is symmetric, for the triangles of the child's
determining sector only and hands those triples to ``symmetry_complete``;
``_band_step`` calls it for the runs of the chain below.
``triangle_legs`` and ``wye`` do not chain field operations, each of which
would normalise its own result: they form every output over one
denominator from their inputs' ``numerator`` and ``denominator`` and build
it with the label type's own (numerator, denominator) constructor, so each
output label is normalised once, in every field.  Both also take a
shorter form when two inputs are equal, compared by numerator and
denominator as the memos compare them.  Inside the uniform center the
right label equals the base label, so most triangles of the chain have
R = B: their apex and bottom-left legs are then one value, built once, and
the wye of legs x = z is the sum 2y + z; the other wyes of the chain have
legs y = z; unequal inputs take the general formulas.  The equal-label
forms cancel the equal factor by algebra, and ``_split`` takes out the
factors the two labels' numerators and their denominators share (about
half of each deep label's bits) before any product is formed: by
``math.gcd`` for integers, by ``Polynomial.cofactors`` for polynomials.
``delta`` and the operator form ``y + z + y*z/x`` are the textbook
references for those formulas.  ``child_edge`` places the legs edge by
edge on its own and is the reference for the kernel's placement;
``circuitarray.graphs``' ``graph_level_reduce`` performs the reduction as
graph surgery, shares no code with this module and checks the formulas
themselves.  ``reduce_once``, through ``reduce_k``, in turn checks the
chain's cone, runs and memos.

Every band read is one reduction chain, ``_reduce_chain``, from the
all-one 4C-grid, reading column j after j steps.  ``reduce_array`` (all
array columns) and ``reduce_diagonal`` (the leftmost diagonal) differ
only in how many diagonals each column reads.  The symbolic
diagonal L_s(x) is the same chain with every label 2/3 renamed after step
1, which is the paper's relabelling of the once-reduced grid's boundary.
The chain computes exactly the labels of repeated ``reduce_once`` but
restricts work to the triangles that can influence the requested reads.
It stores each diagonal of its cone as runs of equal label triples along
the rows and reduces them with ``_band_step``, run by run, so a step costs
per run instead of per triangle.  Its leg and wye memos last one step, so
the chain holds one step of labels.  They are keyed on each label's
``numerator`` and ``denominator``: integers for exact rationals, hashable
polynomials for rational functions, so the chain runs over both fields.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd

from .fields import RATIONALS, FieldContract
from .grid import (SIDES, Grid, GridError, determining_triangles,
                   symmetry_complete)


def delta(x, y, z):
    """Star leg at the corner where triangle edges x and y meet."""
    s = x + y + z
    if s == 0:
        raise ZeroDivisionError("delta with zero edge sum")
    return x * y / s


def wye(x, y, z):
    """Triangle edge opposite the star leg x, given the other legs y and z.

    y + z + y*z/x over one denominator: with x = p/P, y = q/Q and z = r/R
    it is (p(qR + rQ) + qrP) / (pQR), built by the labels' own
    (numerator, denominator) constructor, which normalises it once and
    raises ZeroDivisionError for a zero leg x.  Two equal legs (equal
    numerator and denominator) take shorter forms; a zero x still raises.

    - x = z: y*z/x cancels to y and the edge is 2y + z, a two-label-wide
      sum.  With (g, Q', R') = _split(Q, R) it is (2qR' + rQ') / (gQ'R').
    - y = z: the edge is y(2x + y)/x.  With (h, p', q') = _split(p, q),
      (g, P', Q') = _split(P, Q) and M = 2p'Q' + q'P' it is
      hq'M / (p'gQ'^2), and _split(h, p') and _split(M, g) take out the
      only factors the two sides can still share.

    Every wye of the rational chain takes one of these two forms, fed by
    the legs of the uniform center's equal right and base labels.
    """
    p, P = x.numerator, x.denominator
    q, Q = y.numerator, y.denominator
    r, R = z.numerator, z.denominator
    make = _label_type(x, y, z)
    if p == r and P == R:
        if x == 0:
            raise ZeroDivisionError("wye with a zero leg")
        g, Q, R = _split(Q, R)
        return make(2 * q * R + r * Q, g * Q * R)
    if q == r and Q == R:
        if x == 0:
            raise ZeroDivisionError("wye with a zero leg")
        h, p, q = _split(p, q)
        g, P, Q = _split(P, Q)
        M = 2 * p * Q + q * P
        _, h, p = _split(h, p)
        _, M, g = _split(M, g)
        return make(h * q * M, p * g * Q * Q)
    return make(p * (q * R + r * Q) + q * r * P, p * Q * R)


def triangle_legs(L, R, B):
    """Star legs (apex, bottom-left, bottom-right) of one upright triangle.

    delta(L, R, B), delta(B, L, R) and delta(R, B, L) over one denominator:
    with L = a/α, R = b/β, B = c/γ and S = aβγ + bαγ + cαβ they are abγ/S,
    caβ/S and bcα/S, each built by the labels' own (numerator, denominator)
    constructor, which normalises it once and raises ZeroDivisionError for
    a zero edge sum.  When R = B (equal numerator and denominator), as the
    uniform center's right and base labels are, S = β(aβ + 2bα): the apex
    and bottom-left legs are both ab/(aβ + 2bα), built once, and the
    bottom-right leg is b²α/(β(aβ + 2bα)).

    The R = B form first splits off the factors that a and b, and α and
    β, share: with (h, a', b') = _split(a, b), (g, α', β') = _split(α, β)
    and t' = a'β' + 2b'α', the edge sum is aβ + 2bα = hgt', and with
    (k, h', t'') = _split(h, t') the legs are a'b'h' / (g·t'') and
    h'b'²α' / (β'g·t'').
    """
    a, al = L.numerator, L.denominator
    b, be = R.numerator, R.denominator
    c, ga = B.numerator, B.denominator
    make = _label_type(L, R, B)
    if b == c and be == ga:
        if L == 0 and R == 0:
            raise ZeroDivisionError("triangle legs with zero edge sum")
        h, a, b = _split(a, b)
        g, al, be = _split(al, be)
        _, h, t = _split(h, a * be + 2 * b * al)
        t = g * t
        apex = make(a * b * h, t)
        return apex, apex, make(h * b * b * al, be * t)
    abe, bal = a * be, b * al
    s = (abe + bal) * ga + c * al * be
    return make(a * b * ga, s), make(c * abe, s), make(c * bal, s)


def _split(u, v):
    """(g, u/g, v/g) for g the gcd of u and v, which are not both zero:
    by math.gcd for integers, by Polynomial.cofactors for polynomials,
    which takes no zero polynomial, so a zero operand there splits off
    the other one whole."""
    if type(u) is int:
        g = gcd(u, v)
        return g, u // g, v // g
    if u.is_zero or v.is_zero:
        g = u + v
        return g, u.divide_exact(g), v.divide_exact(g)
    return u.cofactors(v)


def _label_type(*labels):
    """Type of the first label that is not a plain int: Fraction or
    RationalFunction, whose (numerator, denominator) constructor builds the
    kernel's results.  Plain int labels alone give Fraction."""
    for v in labels:
        if type(v) is not int:
            return type(v)
    return Fraction


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
            return leg(r, 1)[1] + leg(r + 1, 1)[0]
        return wye(leg(r, d - 1)[2], leg(r, d)[1], leg(r + 1, d)[0])
    if side == "R":
        if d == r:
            return leg(r, r)[2] + leg(r + 1, r + 1)[0]
        return wye(leg(r, d + 1)[1], leg(r, d)[2], leg(r + 1, d + 1)[0])
    if r == mc:
        return leg(m, d)[2] + leg(m, d + 1)[1]
    return wye(leg(r + 2, d + 1)[0], leg(r + 1, d)[2], leg(r + 1, d + 1)[1])


def _reduce_triangles(tri, m, out_triangles):
    """Child label triples for the listed child triangles.

    ``tri`` maps parent (r, d) to (L, R, B).  Each child triple comes from
    ``_child_triple``, with star legs shared across the child edges of one
    pass.
    """
    legs = {}

    def leg(rr, dd):
        v = legs.get((rr, dd))
        if v is None:
            try:
                v = legs[(rr, dd)] = triangle_legs(*tri[(rr, dd)])
            except ZeroDivisionError:
                raise GridError(
                    f"zero edge sum at triangle ({rr},{dd})") from None
        return v

    return {(r, d): _child_triple(leg, wye, r, d, m)
            for (r, d) in out_triangles}


def reduce_once(grid: Grid) -> Grid:
    """Reduce an m-grid to the equivalent (m-1)-grid.

    Symmetric grids are reduced on the determining sector only, and its
    child triples are completed by symmetry (``symmetry_complete``);
    general grids are reduced triangle by triangle.  Both paths agree
    with the independent graph-level reducer (see circuitarray.graphs).
    """
    if grid.m < 2:
        raise GridError("cannot reduce: grid size m >= 2 required")
    mc = grid.m - 1
    if grid.is_symmetric():
        sector = _reduce_triangles(grid._tri, grid.m,
                                   determining_triangles(mc))
        return symmetry_complete(sector, mc, field=grid.field,
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


def reduce_array(C: int) -> list[dict]:
    """Row-(2j-1) label triples after j reductions, for columns j = 1..C.

    One reduction chain from the all-one 4C-grid (see ``_reduce_chain``).
    Entry j-1 of the result is {d: (L, R, B)} for d = 1..j, the labels of
    row 2j-1 of the j-times-reduced all-one 4j-grid: the cone of that row
    never reaches the bottom boundary row, so a larger start grid gives the
    same labels by the same formulas.
    """
    return _reduce_chain(C, C, RATIONALS)


def reduce_diagonal(S: int) -> list:
    """Left labels of triangle (2s-1, 1) after s reductions, for s = 1..S.

    The same chain as ``reduce_array`` on the all-one 4S-grid, reading only
    diagonal 1 of each column.
    """
    return [reads[1][0] for reads in _reduce_chain(S, 1, RATIONALS)]


def _reduce_chain(C: int, width: int, field: FieldContract,
                  boundary=None) -> list[dict]:
    """Diagonals 1..min(j, width) of row 2j-1 after j reductions, j = 1..C.

    One reduction chain from the all-one 4C-grid.  Column j's read needs,
    c steps into the chain, rows 2j-1 .. 4j-2c-1 out to diagonal
    min(j, width) + j - c.  After c reductions the chain keeps only the
    union of the cones of the columns still open (j >= c): row r
    (2c-1 <= r <= 4C-2c-1) out to diagonal min(width, k) + k - c
    with k = min(C, (r+1)//2), the widest cone of any j <= C with
    2j-1 <= r.  Column c is read after c steps, at the top row of the cone,
    which the next step drops.

    That bound never decreases as r grows, so diagonal d of the cone is the
    row interval from its first row (``_cone_starts``) to the cone's last
    row.  The chain stores each diagonal as runs of equal (L, R, B) triples
    along r and reduces it run by run (``_band_step``), so a step costs per
    run, not per triangle: deep in the chain almost every diagonal is one
    run.  Runs are found by comparing values, not assumed, so the labels
    are exactly those of repeated ``reduce_once``.

    With ``boundary`` given, every label equal to 2/3 after step 1 is
    renamed ``boundary`` before column 1 is read.  One reduction of the
    all-one grid puts 2/3 exactly on the boundary edges and 1 everywhere
    else, so this is the once-reduced grid with its boundary relabelled.
    ``field`` is any field whose labels expose hashable ``numerator`` and
    ``denominator`` (see ``_band_step``).
    """
    if C < 1:
        raise GridError(f"need at least one column, got {C}")
    one = field.one
    two_thirds = (one + one) / (one + one + one)
    starts, _ = _cone_starts(C, width, 0)
    band = [([a], [(one, one, one)]) for a in starts]
    columns = []
    for c in range(1, C + 1):
        band = _band_step(band, 4 * C - c + 1, *_cone_starts(C, width, c))
        if c == 1 and boundary is not None:
            band = [(rows, [tuple(boundary if v == two_thirds else v
                                  for v in t) for t in triples])
                    for rows, triples in band]
        columns.append({d: _run_at(band[d - 1], 2 * c - 1)
                        for d in range(1, min(width, c) + 1)})
    return columns


def _cone_starts(C: int, width: int, c: int) -> tuple[list, int]:
    """First row of each diagonal d = 1, 2, ... of the chain's cone after c
    reductions of the all-one 4C-grid (see ``_reduce_chain``), and the
    cone's last row 4C-2c-1.

    Row r reaches diagonal min(r, g(k) - c) with g(k) = min(width, k) + k and
    k = min(C, (r+1)//2).  g increases strictly with k, so with k the least
    value for which g(k) >= d + c, diagonal d starts at row
    max(top, d, 2k-1); the cone has no diagonal d once k exceeds C.  For
    c <= C that row never passes the last row: d + c <= 2k and k <= C.
    """
    top, last = max(1, 2 * c - 1), 4 * C - 2 * c - 1
    starts = []
    d = 1
    while True:
        t = d + c
        # g(k) = 2k while k <= width, width + k after
        k = (t + 1) // 2 if (t + 1) // 2 <= width else t - width
        if k > C:
            return starts, last
        starts.append(max(top, d, 2 * k - 1))
        d += 1


def _run_at(runs, r):
    """The value a diagonal stored as (run start rows, values) holds at row r."""
    rows, values = runs
    return values[bisect_right(rows, r) - 1]


def _band_step(band: list, m: int, starts: list, last: int) -> list:
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

    The leg and wye memos last this one step: the only values that recur
    across steps are the all-one ones, which each step recomputes once, so
    a longer memo would only keep old labels alive.  They, and the merge,
    are keyed on each label's (numerator, denominator) pair: integers for
    exact rationals, which hash far faster than the scalars themselves
    (``Fraction.__hash__`` computes a modular inverse), and canonical
    polynomials for rational functions, which compare structurally.
    """
    leg_memo: dict = {}
    legs = [(rows, [_star_legs(t, leg_memo) for t in triples])
            for rows, triples in band]

    def leg(r, d):
        return _run_at(legs[d - 1], r)

    wye3 = _memo_wye({})
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
        v = leg_memo[key] = triangle_legs(L, R, B)
    return v


def _memo_wye(wye_memo):
    """The wye formula memoized on its three legs' values."""
    def wye3(a, b, c):
        key = (a.numerator, a.denominator, b.numerator, b.denominator,
               c.numerator, c.denominator)
        v = wye_memo.get(key)
        if v is None:
            v = wye_memo[key] = wye(a, b, c)
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

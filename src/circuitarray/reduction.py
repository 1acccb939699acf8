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

``reduce_once`` and ``reduce_k`` are generic over the scalar field: the
same code reduces grids of exact rationals and grids of rational functions.

One kernel, ``_child_triple``, places parent star legs into a child
(L, R, B) triple; ``triangle_legs`` is the only star-leg computation and
``wye`` the only wye.  ``reduce_once`` calls the kernel for every triangle
of a grid, or, when the grid is symmetric, for the triangles of the child's
determining sector only and hands those triples to ``symmetry_complete``;
``_band_step`` calls it once per distinct cell of the chain below.
``triangle_legs`` and ``wye`` do not chain field operations, each of which
would normalise its own result: they form every output over one
denominator from their inputs' ``numerator`` and ``denominator``, with
the builders of their field (``fields.field_of``).  Both also
take a shorter form when two inputs are equal, compared by numerator and
denominator as the memos compare them.  Inside the uniform center the
right label equals the base label, so most triangles of the chain have
R = B: their apex and bottom-left legs are then one value, built once, and
the wye of legs x = z is the sum 2y + z; the other wyes of the chain have
legs y = z.  The equal-label forms cancel the equal factor by algebra, and
the field's ``split`` takes out the factors the two labels' numerators and
their denominators share (about half of each deep label's bits) before
any product is formed.  Their results are then built in lowest terms with
no final gcd, in Z and in Z[x] alike (Knuth, TAOCP vol. 2, 4.5.1): what
the parts can still share is taken out first, on short operands, by
``split``, and a shared 2 by the field's ``coprime``:

    R = B apex            a'b'h' / (g t'')       2 (a' and t'')
    R = B bottom-right    h'b'^2 α' / (β'g t'')  gcd(α', g): split
    wye x = z             N / (gQ'R')            gcd(N, g): split; 2
    wye y = z             hq'M / (p'gQ'^2)       nothing

``delta`` and the operator form ``y + z + y*z/x`` are the textbook
references for those formulas.  ``circuitarray.graphs``'
``graph_level_reduce`` performs the reduction as graph surgery, shares no
code with this module and is the reference for the formulas and for the
kernel's placement of the legs, label for label.  ``reduce_once``, through
``reduce_k``, in turn checks the chain's cone, runs and memos.

Every band read is one reduction chain, ``_reduce_chain``, from the
once-reduced all-one 4C-grid with a given label on its boundary edges,
over that label's field, reading column j after j steps.
``reduce_array`` (all array columns) and ``reduce_diagonal`` (the
leftmost diagonal) give it the label 2/3 and differ only in how many
diagonals each column reads; the symbolic diagonal L_s(x) gives it
1 - 3/x, as the paper does.  The chain computes exactly the labels of
repeated ``reduce_once`` but restricts work to the triangles that can
influence the requested reads.  It stores each diagonal of its cone as
runs of equal label triples along the rows and reduces them with
``_band_step``, which numbers a step's distinct triples, interns their
star legs and evaluates each distinct cell once.  Its memos last one
step, so the chain holds one step of labels, and key values on each
label's ``numerator`` and ``denominator`` (integers, or hashable
polynomials), so the chain runs over both fields.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .fields import field_of
from .grid import Grid, GridError, determining_triangles, symmetry_complete


def delta(x, y, z):
    """Star leg at the corner where triangle edges x and y meet."""
    s = x + y + z
    if s == 0:
        raise ZeroDivisionError("delta with zero edge sum")
    return x * y / s


def wye(x, y, z):
    """Triangle edge opposite the star leg x, given the other legs y and z.

    y + z + y*z/x over one denominator: with x = p/P, y = q/Q and z = r/R
    it is (p(qR + rQ) + qrP) / (pQR), built by ``make`` of x's field
    (``field_of``), which normalises it once and raises ZeroDivisionError
    for a zero leg x.  Two equal legs (equal numerator and denominator)
    take shorter forms, built in lowest terms by the field's ``coprime``;
    a zero x still raises.

    - x = z: y*z/x cancels to y and the edge is 2y + z, a two-label-wide
      sum.  With (g, Q', R') = split(Q, R) it is N/(gQ'R'), N = 2qR' + rQ',
      and split(N, g) and then coprime take out the only factors the two
      sides can still share: gcd(N, g), then a 2 of N and Q'.
    - y = z: the edge is y(2x + y)/x.  With (h, p', q') = split(p, q),
      (g, P', Q') = split(P, Q) and M = 2p'Q' + q'P' it is
      hq'M / (p'gQ'^2), and split(h, p') and split(M, g) take out the
      only factors the two sides can still share.

    Every wye of the rational chain takes one of these two forms, fed by
    the legs of the uniform center's equal right and base labels.
    """
    field = field_of(x)
    p, P = x.numerator, x.denominator
    q, Q = y.numerator, y.denominator
    r, R = z.numerator, z.denominator
    if p == r and P == R:
        if not p:
            raise ZeroDivisionError("wye with a zero leg")
        g, Q, R = field.split(Q, R)
        _, N, g = field.split(2 * q * R + r * Q, g)
        return field.coprime(N, g * Q * R)
    if q == r and Q == R:
        if not p:
            raise ZeroDivisionError("wye with a zero leg")
        h, p, q = field.split(p, q)
        g, P, Q = field.split(P, Q)
        M = 2 * p * Q + q * P
        _, h, p = field.split(h, p)
        _, M, g = field.split(M, g)
        return field.coprime(h * q * M, p * g * Q * Q)
    return field.make(p * (q * R + r * Q) + q * r * P, p * Q * R)


def triangle_legs(L, R, B):
    """Star legs (apex, bottom-left, bottom-right) of one upright triangle.

    delta(L, R, B), delta(B, L, R) and delta(R, B, L) over one denominator:
    with L = a/α, R = b/β, B = c/γ and S = aβγ + bαγ + cαβ they are abγ/S,
    caβ/S and bcα/S, each built by ``make`` of L's field, which normalises
    it once and raises ZeroDivisionError for a zero edge sum.  When R = B
    (equal numerator and denominator), as the uniform center's right and
    base labels are, S = β(aβ + 2bα): the apex and bottom-left legs are
    both ab/(aβ + 2bα), built once, and the bottom-right leg is
    b²α/(β(aβ + 2bα)).

    The R = B form first splits off the factors that a and b, and α and
    β, share: with (h, a', b') = split(a, b), (g, α', β') = split(α, β)
    and t' = a'β' + 2b'α', the edge sum is aβ + 2bα = hgt', and with
    (k, h', t'') = split(h, t') the legs are a'b'h' / (g·t'') and
    h'b'²α' / (β'g·t''), whose sides share at most a 2 (a' and t''),
    which coprime takes out, and exactly gcd(α', g), which split(α', g)
    takes out.  Both fields take this one path.
    """
    field = field_of(L)
    a, al = L.numerator, L.denominator
    b, be = R.numerator, R.denominator
    c, ga = B.numerator, B.denominator
    if b == c and be == ga:
        if not a and not b:
            raise ZeroDivisionError("triangle legs with zero edge sum")
        h, a, b = field.split(a, b)
        g, al, be = field.split(al, be)
        _, h, t = field.split(h, a * be + 2 * b * al)
        apex = field.coprime(a * b * h, g * t)
        _, al, g = field.split(al, g)
        return apex, apex, field.coprime(h * b * b * al, be * g * t)
    make = field.make
    abe, bal = a * be, b * al
    s = (abe + bal) * ga + c * al * be
    return make(a * b * ga, s), make(c * abe, s), make(c * bal, s)


def _reduce_triangles(tri, m, out_triangles):
    """Child label triples for the listed child triangles.

    ``tri`` maps parent (r, d) to (L, R, B).  Each child triple comes from
    ``_child_triple``, with star legs shared across the child edges of one
    pass.
    """
    legs = {}

    def leg(rr, dd):
        v = legs.get((rr, dd))
        if v is None and (rr, dd) in tri:
            try:
                v = legs[(rr, dd)] = triangle_legs(*tri[(rr, dd)])
            except ZeroDivisionError:
                raise GridError(
                    f"zero edge sum at triangle ({rr},{dd})") from None
        return v

    return {(r, d): _child_triple(wye, leg(r, d - 1), leg(r, d),
                                  leg(r + 1, d), leg(r, d + 1),
                                  leg(r + 1, d + 1), leg(r + 2, d + 1))
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
        return symmetry_complete(sector, mc, reductions=grid.reductions + 1)
    out = [(r, d) for r in range(1, mc + 1) for d in range(1, r + 1)]
    child = _reduce_triangles(grid._tri, grid.m, out)
    return Grid(mc, child, reductions=grid.reductions + 1)


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

    One chain from the once-reduced all-one 4C-grid (``_reduce_chain``).
    Entry j-1 of the result is {d: (L, R, B)} for d = 1..j, the labels of
    row 2j-1 of the j-times-reduced all-one 4j-grid: the cone of that row
    never reaches the bottom boundary row, so a larger start grid gives the
    same labels by the same formulas.
    """
    return _reduce_chain(C, C, Fraction(2, 3))


def reduce_diagonal(S: int) -> list:
    """Left labels of triangle (2s-1, 1) after s reductions, for s = 1..S.

    The same chain as ``reduce_array`` on the all-one 4S-grid, reading only
    diagonal 1 of each column.
    """
    return [reads[1][0] for reads in _reduce_chain(S, 1, Fraction(2, 3))]


def _reduce_chain(C: int, width: int, boundary) -> list[dict]:
    """Diagonals 1..min(j, width) of row 2j-1 after j reductions, j = 1..C.

    One reduction chain, over ``boundary``'s field, from the all-one
    4C-grid reduced once: the (4C-1)-grid with 1 inside and ``boundary``
    on its boundary edges, 2/3 for the circuit array and 1 - 3/x for the
    paper's symbolic family.  Column 1 is read from it.

    Column j's read needs, c steps into the chain, rows 2j-1 .. 4j-2c-1
    out to diagonal min(j, width) + j - c.  After c reductions the chain
    keeps only the union of the cones of the columns still open (j >= c):
    row r (2c-1 <= r <= 4C-2c-1) out to diagonal min(width, k) + k - c
    with k = min(C, (r+1)//2), the widest cone of any j <= C with
    2j-1 <= r.  Column c is read after c steps, at the top row of the cone,
    which the next step drops.  The cone never reaches the bottom row.

    That bound never decreases as r grows, so diagonal d of the cone is the
    row interval from its first row (``_cone_starts``) to the cone's last
    row.  The chain stores each diagonal as runs of equal (L, R, B) triples
    along r and reduces it run by run (``_band_step``), so a step costs per
    run, not per triangle: deep in the chain almost every diagonal is one
    run.  Runs are found by comparing values, not assumed, so the labels
    are exactly those of repeated ``reduce_once``.
    """
    if C < 1:
        raise GridError(f"need at least one column, got {C}")
    one = field_of(boundary).one
    starts, last = _cone_starts(C, width, 1)
    band = []
    for d, a in enumerate(starts, start=1):
        L = boundary if d == 1 else one
        # a diagonal meets the right side, r = d, at most in its first row
        if a == d < last:
            band.append(([a, a + 1], [(L, boundary, one), (L, one, one)]))
        else:
            band.append(([a], [(L, boundary if a == d else one, one)]))
    columns = []
    for c in range(1, C + 1):
        if c > 1:
            band = _band_step(band, 4 * C - c + 1, *_cone_starts(C, width, c))
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
    d-1 at row r, d at rows r..r+1 and d+1 at rows r..r+2
    (``_child_triple``), so between two cut rows, the run starts of those
    sources, the two rows above each, r = d+1 and r = m-1..m, every child
    triple is the same.

    The step numbers the parent's distinct triples by value, builds each
    one's star legs once and interns them by value, so equal legs are one
    object and the wye memo keys on their identities.  Each cut row is a
    cell keyed on the numbers of its six parent triangles, None for the
    one absent at each boundary (d = 1, r = d, r = m-1), so each distinct
    cell is evaluated once.  Equal neighbouring results are merged.
    These memos last this one step: only the all-one values recur across
    steps, so a longer memo would only keep old labels alive.  Values are
    keyed on each label's (numerator, denominator): integers for exact
    rationals, which hash far faster than Fractions (``Fraction.__hash__``
    computes a modular inverse), and canonical polynomials.
    """
    numbers, interned, wyes, cells, values = {}, {}, {}, {}, {}
    numbered = [(rows, [numbers.setdefault(_key(t), (len(numbers), t))[0]
                        for t in triples]) for rows, triples in band]
    legs = {i: tuple(interned.setdefault((v.numerator, v.denominator), v)
                     for v in triangle_legs(*t)) for i, t in numbers.values()}

    def wye3(x, y, z):
        key = id(x), id(y), id(z)
        v = wyes.get(key)
        if v is None:
            v = wyes[key] = wye(x, y, z)
        return v

    near = [{q for p in rows for q in (p - 2, p - 1, p)} for rows, _ in band]
    mc = m - 1
    child = []
    for d, a in enumerate(starts, start=1):
        lr, ln = numbered[d - 2] if d > 1 else ((), ())
        (hr, hn), (rr, rn) = numbered[d - 1], numbered[d]
        cuts = near[d - 1].union(near[d], near[d - 2] if d > 1 else (),
                                 (a, d + 1, mc, mc + 1))
        rows, triples, prev = [], [], None
        for r in sorted(q for q in cuts if a <= q <= last):
            six = (None if d == 1 else ln[bisect_right(lr, r) - 1],
                   hn[bisect_right(hr, r) - 1],
                   hn[bisect_right(hr, r + 1) - 1],
                   None if r == d else rn[bisect_right(rr, r) - 1],
                   rn[bisect_right(rr, r + 1) - 1],
                   None if r == mc else rn[bisect_right(rr, r + 2) - 1])
            cell = cells.get(six)
            if cell is None:
                t = _child_triple(wye3, *map(legs.get, six))
                cell = cells[six] = values.setdefault(_key(t), t)
            if cell is not prev:
                rows.append(r)
                triples.append(cell)
                prev = cell
        child.append((rows, triples))
    return child


def _key(t):
    """A label triple's value: its numerators and denominators."""
    return (t[0].numerator, t[0].denominator, t[1].numerator,
            t[1].denominator, t[2].numerator, t[2].denominator)


def _child_triple(wye3, left, here, below, right, below_right, bottom):
    """Child (L, R, B) at (r, d) of one reduction of an m-grid.

    From ``wye3``, the wye formula, and the star legs (a, l, b), apex,
    bottom-left and bottom-right, of parent triangles (r, d-1), (r, d),
    (r+1, d), (r, d+1), (r+1, d+1) and (r+2, d+1), None where absent, each
    edge is the wye of three legs, or on the boundary the sum of two:
    L = wye(b(r, d-1), l(r, d), a(r+1, d)), or l(r, 1) + a(r+1, 1) at d = 1;
    R = wye(l(r, d+1), b(r, d), a(r+1, d+1)), or b(r, r) + a(r+1, r+1) at
    r = d; B = wye(a(r+2, d+1), b(r+1, d), l(r+1, d+1)), or b(m, d) +
    l(m, d+1) at r = m-1.
    """
    Lv = (here[1] + below[0] if left is None
          else wye3(left[2], here[1], below[0]))
    Rv = (here[2] + below_right[0] if right is None
          else wye3(right[1], here[2], below_right[0]))
    Bv = (below[2] + below_right[1] if bottom is None
          else wye3(bottom[0], below[2], below_right[1]))
    return Lv, Rv, Bv

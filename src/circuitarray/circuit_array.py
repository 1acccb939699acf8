"""The circuit array: construction, closed forms, and row recursions.

Column j of the array collects the left/right resistance labels along row
2j-1 of a j-times-reduced all-one grid, top of the column being the left
side of the diagonal-j triangle:

    entry (i, j) = label of side (L if i even, R if i odd) of triangle
                   (2j-1, j - floor((i+1)/2)) after j reductions,

for i = 0..2(j-1).  Any start grid of size 4j or more places the read row
deep enough that every entry is independent of the start size (grow the
grid and the entries do not change; tests audit this).  ``build_array(C)``
therefore reads all C columns from one reduction chain on the all-one
4C-grid, column j after j steps; ``build_array_direct(C)`` rebuilds them
from full grid reductions and is the slow reference.

Row 0 is 1 - 3/9^j, row 1 is 1 + (2/3)/(9^(j-1) - 1), and row 2 also has a
closed form; beyond that the array is best described recursively: each row
i satisfies a fixed rational recursion in earlier rows and columns, with
recursion functions known explicitly for rows 0..4 (``row_recursion``).
Both are evaluated over integers: with each argument X = a/α in lowest
terms, a value is built as one integer ratio and normalised once.

The leftmost diagonal L_s = entry(2(s-1), s) - the bottom of each column -
is the package's central sequence; see circuitarray.sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import format_rational
from .grid import GridError, all_one_grid
from .reduction import delta, reduce_array, reduce_diagonal, reduce_k, wye
from .reports import Report


class ArrayError(ValueError):
    pass


def entry_position(i: int, j: int) -> tuple[int, str]:
    """(diagonal, side) of array entry (i, j) on read row 2j-1."""
    if not (j >= 1 and 0 <= i <= 2 * (j - 1)):
        raise ArrayError(f"entry ({i},{j}) out of range: need j >= 1 and "
                         f"0 <= i <= 2(j-1)")
    return j - (i + 1) // 2, "L" if i % 2 == 0 else "R"


@dataclass(frozen=True)
class Provenance:
    """Where an array entry was read: grid size, reductions, and edge."""

    n: int
    reductions: int
    r: int
    d: int
    side: str


@dataclass
class CircuitArray:
    """Columns of exact rationals; column j holds rows 0..2(j-1)."""

    columns: list[list[Fraction]]

    @property
    def column_count(self) -> int:
        return len(self.columns)

    def column(self, j: int) -> list[Fraction]:
        if not 1 <= j <= self.column_count:
            raise ArrayError(f"column {j} not built (have 1..{self.column_count})")
        return self.columns[j - 1]

    def entry(self, i: int, j: int) -> Fraction:
        col = self.column(j)
        if not 0 <= i <= 2 * (j - 1):
            raise ArrayError(f"row {i} out of range for column {j} "
                             f"(0 <= i <= {2 * (j - 1)})")
        return col[i]

    def provenance(self, i: int, j: int) -> Provenance:
        """Where entry (i, j) is read: row 2j-1 of the j-times-reduced
        all-one 4j-grid (any larger start gives the same entry)."""
        self.column(j)  # refuses a column not built
        d, side = entry_position(i, j)
        return Provenance(4 * j, j, 2 * j - 1, d, side)

    def validate(self) -> None:
        for j, col in enumerate(self.columns, start=1):
            if len(col) != 2 * j - 1:
                raise ArrayError(f"column {j} has {len(col)} entries, "
                                 f"expected {2 * j - 1}")
            # a reduced Fraction's denominator is positive
            if any(v.numerator <= 0 for v in col):
                raise ArrayError(f"non-positive entry in column {j}")
            if col[0] != Fraction(9 ** j - 3, 9 ** j):
                raise ArrayError(
                    f"cross-check failed: top of column {j} is {col[0]}, "
                    f"expected 1 - 3/9^{j}")


def _read_column(j: int, triples: dict) -> list[Fraction]:
    """Entries of column j from its row-(2j-1) triples {d: (L, R, B)}."""
    reads = [entry_position(i, j) for i in range(2 * j - 1)]
    return [triples[d][0 if side == "L" else 1] for d, side in reads]


def build_array(C: int) -> CircuitArray:
    """Build columns 1..C from one reduction chain (``reduce_array``).

    Column j is read after j steps of the chain on the all-one 4C-grid; its
    entries equal those of the j-times-reduced all-one 4j-grid, which is
    what ``CircuitArray.provenance`` reports.
    """
    if C < 1:
        raise ArrayError(f"need at least one column, got C={C}")
    arr = CircuitArray([_read_column(j, triples)
                        for j, triples in enumerate(reduce_array(C), start=1)])
    arr.validate()
    return arr


def reduce_window(j: int) -> dict:
    """Row-(2j-1) label triples of the j-times-reduced all-one 4j-grid.

    The slow reference read: a full ``reduce_k`` of the grid, no chain.
    Returns {d: (L, R, B)} for d = 1..j.
    """
    if j < 1:
        raise GridError(f"column index must be >= 1, got {j}")
    g = reduce_k(all_one_grid(4 * j), j)
    return {d: g.triangle(2 * j - 1, d) for d in range(1, j + 1)}


def build_array_direct(C: int) -> CircuitArray:
    """Like build_array but via full grid reductions (slow reference path)."""
    arr = CircuitArray([_read_column(j, reduce_window(j))
                        for j in range(1, C + 1)])
    arr.validate()
    return arr


def diagonal_sequence(S: int) -> list[Fraction]:
    """L_1..L_S, the bottom entries of columns 1..S (strictly decreasing).

    All S values come from one reduction chain on the all-one 4S-grid
    (see ``reduce_diagonal``); each equals the bottom entry of column s of
    the s-times-reduced all-one 4s-grid, ``reduce_window(s)[1][0]``.
    """
    if S < 1:
        raise ArrayError(f"need S >= 1, got {S}")
    values = reduce_diagonal(S)
    for a, b in zip(values, values[1:]):
        if not b < a:
            raise ArrayError("leftmost diagonal failed to decrease strictly")
    return values


# -- row recursion functions --------------------------------------------------
#
# Each function is written over integers.  With X = a/α, Y = b/β, Z = c/γ in
# lowest terms and Ak = a + kα (so X + k = Ak/α), both sides of the ratio are
# multiplied by the same power of α, β and γ; the result is one
# ``Fraction(num, den)``, normalised once.  α, β and γ are positive, so each
# integer denominator is zero exactly when the rational one is, and that
# raises ``ZeroDivisionError``.

def _g0(X):
    a, al = X.numerator, X.denominator
    return Fraction(a + 8 * al, 9 * al)

def _g1(X):
    a, al = X.numerator, X.denominator
    return Fraction(a + 8 * al, 3 * (a + 2 * al))

def _g2(X, Y):
    a, al = X.numerator, X.denominator
    b, be = Y.numerator, Y.denominator
    A2, A8, A26 = a + 2 * al, a + 8 * al, a + 26 * al
    return Fraction(9 * b * A2 * A2 + 8 * be * A8 * A8, be * A26 * A26)

def _g3(X, Y):
    # (9Y(X+2)^2 (X+8) + 8(X+8)^3) / (9Y(X+2)^2 (X+26) + 6(X+2)(X+8)(X+26))
    a, al = X.numerator, X.denominator
    b, be = Y.numerator, Y.denominator
    A2, A8, A26 = a + 2 * al, a + 8 * al, a + 26 * al
    return Fraction(A8 * (9 * b * A2 * A2 + 8 * be * A8 * A8),
                    A2 * A26 * (9 * b * A2 + 6 * be * A8))

def _g4(X, Y, Z):
    # numerator 8(X+8)(X+80)(8(X+8)^2 + 9(X+2)^2 Y)^2
    #           + 9(X+2)^2 (X+80)^2 (2(X+8) + 3(X+2)Y)^2 Z,
    # denominator (X+8)^2 (2q + 27(X+2)^2 Y)^2, q = 13X^2 + 298X + 2848
    a, al = X.numerator, X.denominator
    b, be = Y.numerator, Y.denominator
    c, ga = Z.numerator, Z.denominator
    A2, A8, A80 = a + 2 * al, a + 8 * al, a + 80 * al
    Q = 13 * a * a + 298 * a * al + 2848 * al * al
    P = 8 * be * A8 * A8 + 9 * b * A2 * A2
    R = 2 * be * A8 + 3 * b * A2
    S = 2 * be * Q + 27 * b * A2 * A2
    return Fraction(A80 * (8 * ga * A8 * P * P + 9 * c * A2 * A2 * A80 * R * R),
                    ga * A8 * A8 * S * S)


_ROW_RECURSIONS = {0: (_g0, 1), 1: (_g1, 1), 2: (_g2, 2), 3: (_g3, 2), 4: (_g4, 3)}


def row_recursion(index: int, args: list) -> Fraction:
    """Evaluate the explicit recursion function for rows 0..4.

    Arities are 1, 1, 2, 2, 3.  The argument schedules (which earlier
    entries feed which slots) are applied by ``verify_row_recursions``.
    """
    if index not in _ROW_RECURSIONS:
        raise ArrayError(f"no explicit recursion function for row {index}")
    fn, arity = _ROW_RECURSIONS[index]
    if len(args) != arity:
        raise ArrayError(f"row-{index} recursion takes {arity} argument(s), "
                         f"got {len(args)}")
    args = [Fraction(a) for a in args]
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        raise ArrayError(f"row-{index} recursion hit a zero denominator") from exc


def verify_row_recursions(arr: CircuitArray) -> Report:
    """Check rows 0..4 against their recursion functions across all columns.

    Schedules:  C[0,j] = g0(C[0,j-1]);        C[1,j] = g1(C[0,j-1]);
                C[2,j] = g2(C[0,j-2], C[2,j-1]);
                C[3,j] = g3(C[0,j-2], C[2,j-1]);
                C[4,j] = g4(C[0,j-3], C[2,j-2], C[4,j-1]).
    """
    report = Report("row-recursions")
    C = arr.column_count
    if C < 5:
        raise ArrayError("row-recursion verification needs at least 5 columns")
    schedules = {
        0: (2, lambda j: [arr.entry(0, j - 1)]),
        1: (2, lambda j: [arr.entry(0, j - 1)]),
        2: (3, lambda j: [arr.entry(0, j - 2), arr.entry(2, j - 1)]),
        3: (3, lambda j: [arr.entry(0, j - 2), arr.entry(2, j - 1)]),
        4: (4, lambda j: [arr.entry(0, j - 3), arr.entry(2, j - 2),
                          arr.entry(4, j - 1)]),
    }

    def mismatches(i, jmin, args_of):
        for j in range(jmin, C + 1):
            got, want = row_recursion(i, args_of(j)), arr.entry(i, j)
            if got != want:
                yield j, f"column {j}: recursion gives {got}, array holds {want}"

    # the check's name counts the identities read, up to the first failure
    for i, (jmin, args_of) in schedules.items():
        j, detail = next(mismatches(i, jmin, args_of), (C, ""))
        report.add(f"row {i}, columns {jmin}..{C} ({j - jmin + 1} identities)",
                   not detail, detail)
    report.note(f"entry (3,4) computed as {format_rational(arr.entry(3, 4))}")
    return report


# -- closed forms -------------------------------------------------------------

def closed_form_row(i: int, s: int) -> Fraction:
    """Closed-form value of entry (i, s) for rows 0, 1, 2.

    Row 0 (s >= 1):  1 - 3/9^s.
    Row 1 (s >= 2):  1 + (2/3) / (9^(s-1) - 1).
    Row 2 (s >= 2):  1 - N/D with n = 2(s-2), d = (3^(s-1) - 1)/2,
                     N = n*3^(n+1)/4 + (5*3^(n+1) + (-1)^n)/16,
                     D = d^2 (d+1)^2 / 2.

    Each is written over integers and normalised once: row 0 is
    (9^s - 3)/9^s, row 1 is (3*9^(s-1) - 1)/(3*9^(s-1) - 3), and row 2 is
    (D8 - N16)/D8 with N16 = 16N = (4n+5)*3^(n+1) + (-1)^n and
    D8 = 16D = 8(d(d+1))^2.
    """
    if i == 0:
        if s < 1:
            raise ArrayError(f"row 0 needs s >= 1, got {s}")
        return Fraction(9 ** s - 3, 9 ** s)
    if i == 1:
        if s < 2:
            raise ArrayError(f"row 1 needs s >= 2, got {s}")
        t = 3 * 9 ** (s - 1)
        return Fraction(t - 1, t - 3)
    if i == 2:
        if s < 2:
            raise ArrayError(f"row 2 needs s >= 2, got {s}")
        n = 2 * (s - 2)
        d = (3 ** (s - 1) - 1) // 2
        N16 = (4 * n + 5) * 3 ** (n + 1) + (-1) ** n
        D8 = 8 * (d * (d + 1)) ** 2
        return Fraction(D8 - N16, D8)
    raise ArrayError(f"no closed form implemented for row {i}")


def verify_closed_forms(arr: CircuitArray) -> Report:
    """Rows 0..2 closed forms against array entries for all in-domain s."""
    report = Report("closed-forms")
    smax = arr.column_count

    def mismatches(i, smin):
        for s in range(smin, smax + 1):
            got, want = closed_form_row(i, s), arr.entry(i, s)
            if got != want:
                yield f"s={s}: closed form {got} != entry {want}"

    for i, smin in ((0, 1), (1, 2), (2, 2)):
        report.scan(f"row {i}, s = {smin}..{smax}", mismatches(i, smin))
    return report


def verify_row01_recurrences(arr: CircuitArray) -> Report:
    """First-order recurrences of the reduced numerators and denominators.

    Row 0 in lowest terms is (3^(2s-1) - 1)/3^(2s-1): denominators multiply
    by 9 and numerators satisfy N = 9*N' + 8.  Row 1 doubled is
    (2*numerator, 2*denominator) with 2N = 9*(2N') + 8 and 2D = 9*(2D') + 24.
    """
    report = Report("row-0/1-recurrences")
    smax = arr.column_count

    row0 = [arr.entry(0, s) for s in range(1, smax + 1)]
    ok_d = all(b.denominator == 9 * a.denominator for a, b in zip(row0, row0[1:]))
    ok_n = all(b.numerator == 9 * a.numerator + 8 for a, b in zip(row0, row0[1:]))
    report.add(f"row 0 denominators: D = 9*D', s <= {smax}", ok_d)
    report.add(f"row 0 numerators: N = 9*N' + 8, s <= {smax}", ok_n)

    row1 = [arr.entry(1, s) for s in range(2, smax + 1)]
    ok_n = all(2 * b.numerator == 9 * (2 * a.numerator) + 8
               for a, b in zip(row1, row1[1:]))
    ok_d = all(2 * b.denominator == 9 * (2 * a.denominator) + 24
               for a, b in zip(row1, row1[1:]))
    report.add(f"row 1 doubled numerators: 2N = 9*(2N') + 8, s <= {smax}", ok_n)
    report.add(f"row 1 doubled denominators: 2D = 9*(2D') + 24, s <= {smax}", ok_d)
    return report


# -- uniform center ------------------------------------------------------------

def verify_uniform_center(n: int, s: int) -> Report:
    """Band structure of the s-times-reduced all-one n-grid (size m = n-s).

    (a) For each diagonal d <= s, triangles in rows s+d .. m-2s are equal.
    (b) On diagonal s: left labels equal across rows 2s-1 .. m-2s, the
        (2s-1, s) right label equals its left label, right labels are 1 on
        rows 2s .. m-2s, base labels are 1 on rows 2s-1 .. m-2s-1.
    (c) Inside the band of (a), right label = base label.
    Empty bands (small n) are reported as vacuous passes.
    """
    if s < 1:
        raise ArrayError(f"need s >= 1, got {s}")
    if n < 4 * s:
        raise ArrayError(f"need n >= 4s = {4 * s}, got n={n}")
    g = reduce_k(all_one_grid(n), s)
    m = g.m
    report = Report(f"uniform-center n={n} s={s} (m={m})")
    one = Fraction(1)

    for d in range(1, s + 1):
        rows = range(s + d, m - 2 * s + 1)
        suffix = "" if rows else " (vacuous)"
        report.scan(f"(a) diagonal {d}: rows {s + d}..{m - 2 * s} equal{suffix}",
                    (f"row {r}" for r in rows
                     if g.triangle(r, d) != g.triangle(rows[0], d)))
        if rows:
            report.scan(f"(c) diagonal {d}: right = base inside the band",
                        (f"row {r}" for r in rows
                         if g.label(r, d, "R") != g.label(r, d, "B")))

    rows_b = range(2 * s - 1, m - 2 * s + 1)
    lefts = [g.label(r, s, "L") for r in rows_b]
    ok = all(v == lefts[0] for v in lefts)
    report.add(f"(b) diagonal {s}: left labels equal on rows "
               f"{2 * s - 1}..{m - 2 * s}{'' if lefts else ' (vacuous)'}", ok)
    if 2 * s - 1 <= m:
        report.add(f"(b) corner: ({2 * s - 1},{s}) right = left",
                   g.label(2 * s - 1, s, "R") == g.label(2 * s - 1, s, "L"))
    ok = all(g.label(r, s, "R") == one for r in range(2 * s, m - 2 * s + 1))
    report.add(f"(b) diagonal {s}: right labels 1 on rows {2 * s}..{m - 2 * s}", ok)
    ok = all(g.label(r, s, "B") == one for r in range(2 * s - 1, m - 2 * s))
    report.add(f"(b) diagonal {s}: base labels 1 on rows "
               f"{2 * s - 1}..{m - 2 * s - 1}", ok)
    return report


# -- composed spot checks -------------------------------------------------------

def verify_composition_spotchecks(kmax: int, arr: CircuitArray) -> Report:
    """Row-2 entries rebuilt from one wye/delta composition of earlier entries.

    For k = 0..kmax, the entry C[2, 3+k] (= the left label at (5+2k, 2+k)
    after 3+k reductions) must equal

        wye(delta(g1(X), g1(X), Y), delta(1, g0(X), 1), delta(g0(X), 1, 1))

    with X = C[0, 1+k] and Y = C[2, 2+k]: the neighborhood of the read edge
    consists of one band triangle (left label Y, other sides g1(X)) and two
    interior triangles (left label g0(X), other sides 1).  The composition
    is algebraically the row-2 recursion, so this pins the recursion to a
    concrete grid neighborhood.
    """
    if arr.column_count < kmax + 3:
        raise ArrayError(f"need {kmax + 3} columns for kmax={kmax}")
    report = Report("composition-spotchecks")
    one = Fraction(1)
    for k in range(kmax + 1):
        X = arr.entry(0, 1 + k)
        Y = arr.entry(2, 2 + k)
        direct = arr.entry(2, 3 + k)
        g0x, g1x = _g0(X), _g1(X)
        composed = wye(delta(g1x, g1x, Y), delta(one, g0x, one),
                       delta(g0x, one, one))
        report.add(f"k={k}: composed neighborhood = entry (2,{3 + k})",
                   composed == direct,
                   f"both {format_rational(direct)}" if composed == direct
                   else f"composed {composed} != direct {direct}")
        report.add(f"k={k}: composition agrees with row-2 recursion",
                   composed == _g2(X, Y))
        naive = wye(delta(Y, g0x, g0x), delta(one, one, one),
                    delta(one, one, one))
        if naive != direct:
            report.note(
                f"k={k}: collapsing the band sides to g0/1 instead gives "
                f"{format_rational(naive)}, not {format_rational(direct)}")
    return report

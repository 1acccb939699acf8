"""Analysis of the leftmost diagonal: numerators, Hankel determinants,
recursion exclusion, the single-variable symbolic pipeline, and asymptotics.

The diagonal L_s (bottom entry of array column s) has denominator dividing
2^(4s-7) for s >= 2, so the normalized numerators n'_s = L_s * 2^(4s-7) are
integers.  Their Hankel determinants (matrices constant along
anti-diagonals, built from consecutive n'-values) turn out to be exact
powers of 9 with triangular-number exponents; since they never vanish, the
n'-sequence satisfies no linear homogeneous recursion with constant
coefficients (LHRCC) of any order covered by the computed windows.  Every
window's determinant comes from one condensation table per sequence
(Desnanot-Jacobi for Hankel matrices, Dodgson 1866), each entry one exact
division of products of smaller windows; Bareiss elimination fills the
entries whose divisor vanishes and, with cofactor expansion, is the oracle
the tests hold the table to.

The symbolic pipeline replays the grid reduction over the rational-function
field: give the once-reduced all-one grid the boundary label 1 - 3/x in
place of 2/3 (they agree at x = 9), keep reducing, and read the diagonal
as closed forms L_s(x).  It is the exact diagonal's one reduction chain
started from that label, which makes it run over rational functions.
Substituting x = 9 must reproduce the exact diagonal.

Asymptotically, L_s tracks the product A_s = (2/3) * prod_{i=2..s}
(1 - 1/(2i-1)), which Stirling's formula in turn ties to P_s =
sqrt(pi/(9s)).  The table renderers reproduce the numeric evidence with
exact columns computed as rationals and only the P-columns in floating
point.

Every suite here checks only the sequence it is handed and refuses one
that stops short with ``SequenceError``; only the command line and the
benchmark build chains, each once, at the depth they need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# perfbench/tracing.py wraps diagonal_sequence at this lookup site; keep the import.
from .circuit_array import diagonal_sequence  # noqa: F401
from .fields import field_of, format_rational
from .grid import Grid
from .polynomial import Polynomial
from .ratfunc import RationalFunction
# perfbench/tracing.py wraps reduce_once at this lookup site; keep the import.
from .reduction import _reduce_chain, reduce_once  # noqa: F401
from .reports import Report


class SequenceError(ValueError):
    pass


# -- normalized numerators ----------------------------------------------------

def _check_diagonal(diagonal: list, S: int) -> None:
    if len(diagonal) < S:
        raise SequenceError(f"need L_1..L_{S}, got {len(diagonal)} values")


@dataclass(frozen=True)
class NumeratorSequence:
    """n'_s = L_s * 2^(4s-7) for s = 2..S; ``entries[0]`` is n'_2.

    ``entries`` must not change once ``hankel_table`` has been read.
    """

    entries: list[int]

    def nprime(self, s: int) -> int:
        if not 2 <= s <= len(self.entries) + 1:
            raise SequenceError(f"n'_{s} not computed")
        return self.entries[s - 2]

    @cached_property
    def hankel_table(self) -> list[list[int]]:
        """``hankel_table[k][n]``: determinant of the k x k Hankel window
        whose top-left entry is ``entries[n]``, for every window that fits.

        Desnanot-Jacobi on the window gives H_k^(n) * H_{k-2}^(n+2) =
        H_{k-1}^(n) * H_{k-1}^(n+2) - (H_{k-1}^(n+1))^2, with H_0 = 1 and
        H_1^(n) = ``entries[n]``: one exact division per entry.  An entry
        whose divisor is 0 is eliminated from its own window instead.
        """
        N = len(self.entries)
        table = [[1] * (N + 1), list(self.entries)]
        for k in range(2, (N + 1) // 2 + 1):
            up, up2 = table[k - 1], table[k - 2]
            table.append([
                (up[n] * up[n + 2] - up[n + 1] ** 2) // up2[n + 2]
                if up2[n + 2] else
                bareiss_determinant(hankel_matrix(self, k, n + 2))
                for n in range(N - 2 * k + 2)])
        return table


def nprime_sequence(S: int, diagonal: list[Fraction]) -> NumeratorSequence:
    """Normalized numerators for s = 2..S of ``diagonal`` (L_1, L_2, ...).

    Raises if some L_s * 2^(4s-7) is not an integer; that would break the
    premise of the determinant analysis and must surface loudly.
    """
    if S < 2:
        raise SequenceError(f"need S >= 2 (the s=1 scaling 2^-3 is not integral), got {S}")
    _check_diagonal(diagonal, S)
    entries = []
    for s in range(2, S + 1):
        L = diagonal[s - 1]
        scale = 2 ** (4 * s - 7)
        if scale % L.denominator != 0:
            raise SequenceError(
                f"denominator of L_{s} = {format_rational(L)} does not divide "
                f"2^(4s-7) = {scale}")
        entries.append(L.numerator * (scale // L.denominator))
    return NumeratorSequence(entries)


def verify_denominator_divisibility(S: int, diagonal: list[Fraction]) -> Report:
    """d_s | 2^(4s-7) for 2 <= s <= S."""
    _check_diagonal(diagonal, S)
    report = Report("denominator-divisibility")
    report.scan(f"d_s divides 2^(4s-7) for s = 2..{S}",
                (f"fails at s={s}: L={L}"
                 for s, L in enumerate(diagonal[1:S], start=2)
                 if 2 ** (4 * s - 7) % L.denominator))
    return report


# -- determinants -------------------------------------------------------------

def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    Fills the Hankel condensation entries whose divisor vanishes, and is
    the oracle the condensation table is tested against.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise SequenceError("determinant needs a square matrix")
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cofactor_determinant(matrix: list[list[int]]) -> int:
    """Naive cofactor expansion; the independent oracle for small sizes."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for col in range(n):
        if matrix[0][col] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != col] for row in matrix[1:]]
        total += (-1) ** col * matrix[0][col] * cofactor_determinant(minor)
    return total


def hankel_matrix(seq: NumeratorSequence, k: int, start: int = 2) -> list[list[int]]:
    """k x k matrix with entry (a, b) = n'_{start+a+b}."""
    if k < 1:
        raise SequenceError(f"need k >= 1, got {k}")
    return [[seq.nprime(start + a + b) for b in range(k)] for a in range(k)]


def hankel_determinant(seq: NumeratorSequence, k: int, start: int = 2) -> int:
    """Determinant of the k x k Hankel matrix with top-left n'_start.

    Needs n'_start .. n'_{start+2k-2}, and reads the value from the
    sequence's condensation table (``NumeratorSequence.hankel_table``);
    ``bareiss_determinant(hankel_matrix(seq, k, start))`` is its oracle.
    """
    if k < 1:
        raise SequenceError(f"need k >= 1, got {k}")
    last = len(seq.entries) + 1
    if not 2 <= start <= last:
        raise SequenceError(f"n'_{start} not computed")
    if start + 2 * k - 2 > last:
        raise SequenceError(f"n'_{last + 1} not computed")
    return seq.hankel_table[k][start - 2]


def triangular(j: int) -> int:
    return j * (j + 1) // 2


def verify_determinant_conjecture(kmax: int, seq: NumeratorSequence) -> Report:
    """Hankel determinants det_k for k = 2..kmax are exactly 9^T(k-1).

    Under the alternative indexing that views the same matrix as
    (j+1) x (j+1) with j = k-1, the exponent is T(j), not T(j-1); the
    report states both readings so the discrepancy is explicit.
    """
    if kmax < 2:
        raise SequenceError(f"need kmax >= 2, got {kmax}")
    report = Report("hankel-determinant-conjecture")
    for k in range(2, kmax + 1):
        det = hankel_determinant(seq, k)
        expected = 9 ** triangular(k - 1)
        report.add(f"k={k}: det = 9^T({k - 1}) = 9^{triangular(k - 1)}",
                   det == expected,
                   f"det = {det}" if det == expected
                   else f"det = {det}, expected {expected}")
    report.note("as a (j+1)x(j+1) statement (j = k-1) the verified exponent "
                "is T(j); the reading with exponent T(j-1) does not match "
                "(3x3 determinant is 729 = 9^T(2), not 9^T(1))")
    return report


def lhrcc_ruled_out(rmax: int, seq: NumeratorSequence) -> Report:
    """No LHRCC of order <= rmax fits the computed n'-prefix.

    A sequence obeying an order-r LHRCC has every (r+1) x (r+1) Hankel
    window singular, so one nonzero window per order is a disproof; here
    every available window is checked and reported.  The order-rmax window
    needs n'_2..n'_{2rmax+2}.
    """
    if rmax < 1:
        raise SequenceError(f"need rmax >= 1, got {rmax}")
    last = len(seq.entries) + 1
    if last < 2 * (rmax + 1):
        raise SequenceError(f"need n'_2..n'_{2 * (rmax + 1)}, got "
                            f"n'_2..n'_{last}")
    report = Report("lhrcc-exclusion")
    for order in range(1, rmax + 1):
        size = order + 1
        dets = seq.hankel_table[size]  # windows at starts 2, 3, ...
        ok = all(d != 0 for d in dets)
        report.add(f"order {order}: all {len(dets)} windows of size {size} "
                   f"nonsingular", ok,
                   "" if ok else f"zero window at start {dets.index(0) + 2}")
    return report


# -- symbolic pipeline --------------------------------------------------------

def symbolic_start_grid(m: int, boundary=None) -> Grid:
    """Size-m grid with boundary labels ``boundary`` (default 1 - 3/x) and
    interior labels 1, over ``boundary``'s field.

    This is the once-reduced all-one grid with ``boundary`` in place of
    its boundary label 2/3 (1 - 3/x equals it at x = 9); ``reductions`` is
    1 accordingly.
    """
    if boundary is None:
        boundary = 1 - 3 / RationalFunction.x()
    one = field_of(boundary).one
    tri = {(r, d): (boundary if d == 1 else one, boundary if d == r else one,
                    boundary if r == m else one)
           for r in range(1, m + 1) for d in range(1, r + 1)}
    return Grid(m, tri, reductions=1)


def symbolic_diagonal(S: int) -> list[RationalFunction]:
    """L_1(x)..L_S(x): the diagonal of the symbolic pipeline.

    L_1 is the boundary label 1 - 3/x itself; each later L_s is read at
    (2s-1, 1, L) after one further reduction.  One reduction chain does all
    the reads: the exact diagonal's chain from 1 - 3/x in place of 2/3,
    which equals reducing ``symbolic_start_grid(4S - 1)`` with
    ``reduce_once``.
    """
    if S < 1:
        raise SequenceError(f"need S >= 1, got {S}")
    boundary = 1 - 3 / RationalFunction.x()
    return [reads[1][0] for reads in _reduce_chain(S, 1, boundary)]


def _poly(*coeffs: int) -> Polynomial:
    return Polynomial(coeffs)


def _x_minus_3() -> Polynomial:
    return _poly(-3, 1)


def diagonal_closed_forms() -> list[tuple[int, Polynomial, int, int]]:
    """Reference closed forms for L_2(x)..L_7(x) (L_1 is the boundary).

    Each item is (s, numerator, denominator constant, denominator power),
    the value being numerator / (constant * (x-1)^power).  The numerators
    are kept in the factored presentation whose denominator constants
    follow 3 * 2^(4(s-3)+1) from s = 3 on; canonicalization may divide an
    integer content out of both sides (it does at s = 5 and s = 7).
    """
    x3 = _x_minus_3()
    x1 = _poly(-1, 1)
    t31 = _poly(-1, 3)
    forms = [
        (2, 2 * x3, 3, 1),
        (3, x3 * t31, 6, 2),
        (4, x3 * (3 * (x1 * x3) + 4 * t31 ** 2), 96, 3),
        (5, x3 * (3 * (x1 * x3) * _poly(-18, 34) + 16 * t31 ** 3), 1536, 4),
        (6, x3 * (3 * (x1 * x3) * _poly(273, -874, 793) + 64 * t31 ** 4),
         24576, 5),
        (7, x3 * (6 * (x1 * x3) * _poly(-2015, 8693, -13549, 7895)
                  + 256 * t31 ** 5), 393216, 6),
    ]
    return forms


def reference_diagonal_formula(s: int) -> RationalFunction:
    """Canonical rational function for the reference closed form of L_s."""
    if s == 1:
        # the boundary label itself: (x - 3) / x
        return RationalFunction(_x_minus_3(), Polynomial((0, 1)))
    for (ss, numer, const, power) in diagonal_closed_forms():
        if ss == s:
            return RationalFunction(numer, const * _poly(-1, 1) ** power)
    raise SequenceError(f"no reference formula for s = {s}")


def check_reference_range(S: int) -> None:
    """Reject S outside 1..7, the range the reference formulas cover."""
    if not 1 <= S <= 7:
        raise SequenceError(f"reference formulas cover 1 <= S <= 7, got {S}")


def verify_symbolic_patterns(S: int, diagonal: list[Fraction],
                             formulas: list[RationalFunction]) -> Report:
    """Symbolic diagonal vs reference formulas, constants, and x = 9 values.

    Checks, for s = 1..S (S <= 7): canonical equality with the reference
    formula, the denominator-constant pattern 3 * 2^(4(s-3)+1) of the
    reference presentation for s >= 3, and evaluation at x = 9 against the
    exact diagonal.  Also records the s = 1 finding: the plausible-looking
    variant (x-3)/(x-1) evaluates to 3/4 at x = 9, not 2/3; only the
    relabeled boundary (x-3)/x reproduces L_1.  ``diagonal`` is the exact
    diagonal and ``formulas`` the symbolic diagonal under test, each to at
    least S.
    """
    check_reference_range(S)
    _check_diagonal(diagonal, S)
    if len(formulas) < S:
        raise SequenceError(f"need L_1(x)..L_{S}(x), got {len(formulas)} "
                            f"formulas")
    report = Report("symbolic-diagonal")
    for s in range(1, S + 1):
        got = formulas[s - 1]
        ref = reference_diagonal_formula(s)
        report.add(f"s={s}: pipeline formula matches reference (canonical)",
                   got == ref, "" if got == ref else f"pipeline {got}, ref {ref}")
        value = got.eval(9)
        report.add(f"s={s}: value at x=9 equals exact diagonal",
                   value == diagonal[s - 1],
                   "" if value == diagonal[s - 1] else
                   f"{value} != {diagonal[s - 1]}")
        if s >= 3:
            const = next(c for (ss, _, c, _) in diagonal_closed_forms() if ss == s)
            want = 3 * 2 ** (4 * (s - 3) + 1)
            report.add(f"s={s}: reference denominator constant = 3*2^{4 * (s - 3) + 1}"
                       f" = {want}", const == want)
            canonical_const = got.denominator_constant()
            if canonical_const != const:
                report.note(f"s={s}: canonical form carries constant "
                            f"{canonical_const} (integer content "
                            f"{const // canonical_const} cancels)")
    variant = RationalFunction(_x_minus_3(), _poly(-1, 1))
    report.note(f"s=1: variant (x-3)/(x-1) evaluates to "
                f"{format_rational(variant.eval(9))} at x=9; the boundary "
                f"relabel (x-3)/x gives {format_rational(formulas[0].eval(9))}")
    return report


# -- asymptotics ---------------------------------------------------------------

@dataclass
class AsymptoticRow:
    """One table row: exact L and A, floating P, and the derived columns."""

    s: int
    L: Fraction
    A: Fraction
    P: float

    @property
    def L_minus_A(self) -> Fraction:
        return self.L - self.A

    @property
    def L_over_A(self) -> Fraction:
        return self.L / self.A

    def columns(self) -> dict[str, str]:
        """The nine printed columns, rendered to 4 decimals."""
        Lf, Af = float(self.L), float(self.A)
        return {
            "L": render_4dp(self.L),
            "A": render_4dp(self.A),
            "L-A": render_4dp(self.L_minus_A),
            "L/A": render_4dp(self.L_over_A),
            "P": render_4dp(self.P),
            "A-P": render_4dp(Af - self.P),
            "A/P": render_4dp(Af / self.P),
            "L-P": render_4dp(Lf - self.P),
            "L/P": render_4dp(Lf / self.P),
        }


ASYMPTOTIC_COLUMNS = ("s", "L", "A", "L-A", "L/A", "P", "A-P", "A/P", "L-P", "L/P")


def render_4dp(value) -> str:
    """Render to 4 decimal places, ties away from zero, trailing zeros
    stripped (0.5, 1.125, 0 rather than 0.5000, 1.1250, 0.0000).

    The exact value is rounded once, in integers; a float converts to its
    exact binary value first.
    """
    q = Fraction(value)
    units, rest = divmod(abs(q.numerator) * 10 ** 4, q.denominator)
    if 2 * rest >= q.denominator:
        units += 1
    whole, frac = divmod(units, 10 ** 4)
    sign = "-" if q < 0 and units else ""
    return f"{sign}{whole}.{frac:04d}".rstrip("0").rstrip(".")


def sqrt_pi_approximation(s: int) -> float:
    """P_s = sqrt(pi / (9 s)) in binary64."""
    return math.sqrt(math.pi / (9 * s))


def asymptotics_table(s_values: list[int],
                      diagonal: list[Fraction]) -> list[AsymptoticRow]:
    """Rows for the requested s values; ``diagonal`` reaches max(s)."""
    if not s_values:
        return []
    if any(s < 1 for s in s_values):
        raise SequenceError("all s values must be >= 1")
    smax = max(s_values)
    _check_diagonal(diagonal, smax)
    approx = [Fraction(2, 3)]  # A_1..A_smax
    for i in range(2, smax + 1):
        approx.append(approx[-1] * Fraction(2 * i - 2, 2 * i - 1))
    return [AsymptoticRow(s, diagonal[s - 1], approx[s - 1],
                          sqrt_pi_approximation(s)) for s in s_values]


def verify_monotonicity(smax: int, diagonal: list[Fraction]) -> Report:
    """Strict decrease of the approximation gaps from s = 3 on.

    L-A and L/A are compared exactly as rationals; A-P and A/P use floats
    with tolerance 1e-12.  (From s = 2 to 3 the ratio L/A still increases,
    which is why the claim starts at s = 3.)
    """
    if smax < 4:
        raise SequenceError(f"need smax >= 4, got {smax}")
    rows = asymptotics_table(list(range(1, smax + 1)), diagonal)
    report = Report(f"asymptotic-monotonicity s <= {smax}")

    def violations(values, tol=0):
        # values[0] is at s = 3; s fails when the value at s + 1 is not
        # below the value at s plus tol
        return (f"first violation at s={s}"
                for s, (a, b) in enumerate(zip(values, values[1:]), start=3)
                if not b < a + tol)

    tail = rows[2:]
    report.scan("L-A strictly decreasing for s >= 3 (exact)",
                violations([r.L_minus_A for r in tail]))
    report.scan("L/A strictly decreasing for s >= 3 (exact)",
                violations([r.L_over_A for r in tail]))
    report.scan("A-P decreasing for s >= 3 (float, 1e-12)",
                violations([float(r.A) - r.P for r in tail], tol=1e-12))
    report.scan("A/P decreasing for s >= 3 (float, 1e-12)",
                violations([float(r.A) / r.P for r in tail], tol=1e-12))
    report.add("L/A increases from s=2 to s=3 (why the claim starts at 3)",
               rows[1].L_over_A < rows[2].L_over_A)
    return report

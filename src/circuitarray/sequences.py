"""Analysis of the leftmost diagonal: numerators, Hankel determinants,
recursion exclusion, the single-variable symbolic pipeline, and asymptotics.

The diagonal L_s (bottom entry of array column s) has denominator dividing
2^(4s-7) for s >= 2, so the normalized numerators n'_s = L_s * 2^(4s-7) are
integers.  Their Hankel determinants (matrices constant along
anti-diagonals, built from consecutive n'-values) turn out to be exact
powers of 9 with triangular-number exponents; since they never vanish, the
n'-sequence satisfies no linear homogeneous recursion with constant
coefficients (LHRCC) of any order covered by the computed windows.

The symbolic pipeline replays the grid reduction over the rational-function
field: relabel the boundary of a once-reduced all-one grid as 1 - 3/x
(2/3 corresponds to x = 9), keep reducing, and read the diagonal as closed
forms L_s(x).  It runs the same one reduction chain as the exact diagonal,
restricted to the dependency cone of the reads and memoized on canonical
rational functions.  Substituting x = 9 must reproduce the exact diagonal.

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
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

# perfbench/tracing.py wraps diagonal_sequence at this lookup site; keep the import.
from .circuit_array import diagonal_sequence  # noqa: F401
from .fields import FieldContract, format_rational
from .grid import Grid
from .polynomial import Polynomial
from .ratfunc import RATFUNCS, RationalFunction
# perfbench/tracing.py wraps reduce_once at this lookup site; keep the import.
from .reduction import _reduce_chain, reduce_once  # noqa: F401
from .reports import Report


class SequenceError(ValueError):
    pass


# -- normalized numerators ----------------------------------------------------

def _check_diagonal(diagonal: list, S: int) -> None:
    if len(diagonal) < S:
        raise SequenceError(f"need L_1..L_{S}, got {len(diagonal)} values")


@dataclass
class NumeratorSequence:
    """n'_s = L_s * 2^(4s-7) for s = 2..S; ``entries[0]`` is n'_2."""

    entries: list[int]

    def nprime(self, s: int) -> int:
        if not 2 <= s <= len(self.entries) + 1:
            raise SequenceError(f"n'_{s} not computed")
        return self.entries[s - 2]


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
    bad = None
    for s in range(2, S + 1):
        L = diagonal[s - 1]
        if (2 ** (4 * s - 7)) % L.denominator != 0:
            bad = (s, L)
            break
    report.add(f"d_s divides 2^(4s-7) for s = 2..{S}", bad is None,
               "" if bad is None else f"fails at s={bad[0]}: L={bad[1]}")
    return report


# -- determinants -------------------------------------------------------------

def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
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

    Needs n'_start .. n'_{start+2k-2}.
    """
    return bareiss_determinant(hankel_matrix(seq, k, start))


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
        starts = range(2, last - 2 * size + 3)
        dets = [hankel_determinant(seq, size, start) for start in starts]
        ok = all(d != 0 for d in dets)
        report.add(f"order {order}: all {len(dets)} windows of size {size} "
                   f"nonsingular", ok,
                   "" if ok else f"zero window at start "
                   f"{list(starts)[dets.index(0)]}")
    return report


def row0_numerator_contrast() -> tuple[list[int], int]:
    """Row-0 numerators and their vanishing 3x3 Hankel window determinant.

    The top-row numerators 2, 26, 242, ... satisfy N = 9N' + 8 (an order-2
    LHRCC after homogenization), so their order-3 windows are singular;
    the diagonal's numerators behave in exactly the opposite way.
    """
    nums = [(3 ** (2 * s - 1) - 1) for s in range(1, 8)]
    det = cofactor_determinant([[nums[a + b] for b in range(3)] for a in range(3)])
    return nums, det


# -- symbolic pipeline --------------------------------------------------------

def symbolic_start_grid(m: int, boundary=None,
                        field: FieldContract = RATFUNCS) -> Grid:
    """Size-m grid over ``field`` with boundary labels ``boundary`` (default
    1 - 3/x) and interior labels 1.

    This is the once-reduced all-one pattern with the boundary value 2/3
    relabeled (1 - 3/x equals it at x = 9); ``reductions`` is 1
    accordingly.
    """
    if boundary is None:
        boundary = 1 - 3 / RationalFunction.x()
    one = field.one
    tri = {}
    for r in range(1, m + 1):
        for d in range(1, r + 1):
            L = boundary if d == 1 else one
            R = boundary if d == r else one
            B = boundary if r == m else one
            tri[(r, d)] = (L, R, B)
    return Grid(m, tri, field=field, reductions=1)


def symbolic_diagonal(S: int) -> list[RationalFunction]:
    """L_1(x)..L_S(x): the diagonal of the symbolic pipeline.

    L_1 is the relabeled boundary itself; each later L_s is read at
    (2s-1, 1, L) after one further reduction.  One reduction chain does all
    the reads: the diagonal chain of the all-one 4S-grid, started after its
    first step with the boundary 2/3 relabeled as 1 - 3/x, so it equals
    reducing ``symbolic_start_grid(4S - 1)`` with ``reduce_once``.
    """
    if S < 1:
        raise SequenceError(f"need S >= 1, got {S}")
    boundary = 1 - 3 / RationalFunction.x()
    return [reads[1][0] for reads in _reduce_chain(S, 1, RATFUNCS, boundary)]


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
                             formulas: list[RationalFunction] | None = None
                             ) -> Report:
    """Symbolic diagonal vs reference formulas, constants, and x = 9 values.

    Checks, for s = 1..S (S <= 7): canonical equality with the reference
    formula, the denominator-constant pattern 3 * 2^(4(s-3)+1) of the
    reference presentation for s >= 3, and evaluation at x = 9 against the
    exact diagonal.  Also records the s = 1 finding: the plausible-looking
    variant (x-3)/(x-1) evaluates to 3/4 at x = 9, not 2/3; only the
    relabeled boundary (x-3)/x reproduces L_1.  ``diagonal`` is the exact
    diagonal to at least S; ``formulas``, the symbolic diagonal under test,
    is computed here when not given.
    """
    check_reference_range(S)
    _check_diagonal(diagonal, S)
    computed = formulas if formulas is not None else symbolic_diagonal(S)
    report = Report("symbolic-diagonal")
    for s in range(1, S + 1):
        got = computed[s - 1]
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
                f"relabel (x-3)/x gives {format_rational(computed[0].eval(9))}")
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
    stripped (0.5, 1.125, 0 rather than 0.5000, 1.1250, 0.0000)."""
    if isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(value)
    text = str(dec.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def product_approximation(s: int) -> Fraction:
    """A_s = (2/3) * prod_{i=2..s} (1 - 1/(2i-1)), exactly."""
    if s < 1:
        raise SequenceError(f"need s >= 1, got {s}")
    a = Fraction(2, 3)
    for i in range(2, s + 1):
        a *= Fraction(2 * i - 2, 2 * i - 1)
    return a


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

    def first_violation(values, tol=None):
        for i in range(len(values) - 1):
            if tol is None:
                if not values[i + 1] < values[i]:
                    return i + 3
            elif not values[i + 1] < values[i] + tol:
                return i + 3
        return None

    diffs = [r.L_minus_A for r in rows[2:]]
    ratios = [r.L_over_A for r in rows[2:]]
    bad = first_violation(diffs)
    report.add("L-A strictly decreasing for s >= 3 (exact)", bad is None,
               "" if bad is None else f"first violation at s={bad}")
    bad = first_violation(ratios)
    report.add("L/A strictly decreasing for s >= 3 (exact)", bad is None,
               "" if bad is None else f"first violation at s={bad}")
    ap_diff = [float(r.A) - r.P for r in rows[2:]]
    ap_ratio = [float(r.A) / r.P for r in rows[2:]]
    bad = first_violation(ap_diff, tol=1e-12)
    report.add("A-P decreasing for s >= 3 (float, 1e-12)", bad is None,
               "" if bad is None else f"first violation at s={bad}")
    bad = first_violation(ap_ratio, tol=1e-12)
    report.add("A/P decreasing for s >= 3 (float, 1e-12)", bad is None,
               "" if bad is None else f"first violation at s={bad}")
    report.add("L/A increases from s=2 to s=3 (why the claim starts at 3)",
               rows[1].L_over_A < rows[2].L_over_A)
    return report

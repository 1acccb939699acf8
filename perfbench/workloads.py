"""The benchmark's workloads: seeded inputs, one round of program calls, checks.

A workload has three parts.  ``make_inputs(seed)`` builds everything the
program is given, from the seed alone.  ``run(inputs, call)`` is one round:
the public program calls a user would make, each made through ``call`` so
that it is counted (and, in the traced run, looked up after the tracer has
wrapped it).  ``check(inputs, outputs)`` returns the list of failed checks;
every check compares against a computation made apart from the call it
checks, or against a property the method must have, never against stored
output.

Callers must put the repository's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from circuitarray import circuit_array, graphs, reduction, sequences
from circuitarray.grid import Grid, all_one_grid

DUAL_STEPS = 2    # reductions of each dual-pipeline grid
LABEL_BITS = 10   # bit length of the numerators and denominators of random labels


class Calls:
    """Counts the program calls of a round.

    A call that raises is counted as failed and returns None; calls that
    depend on its result then fail too, so a failing operation fails the
    same way in every round.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, the round goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: {exc!r}")
            return None


# -- oracles and input generators -----------------------------------------------

def reduced_diagonal(start: Grid, count: int, first_s: int) -> list:
    """Left labels at (2s-1, 1) of ``start`` reduced repeatedly by ``reduce_once``.

    ``start`` has already been reduced ``first_s - 1`` times (the all-one grid
    has ``first_s = 1``); the label for s is read after s - first_s + 1 more
    full-grid reductions, for ``count`` consecutive values of s.  This is the
    full-grid path the program's windowed and one-chain paths are tested
    against.
    """
    g, values = start, []
    for s in range(first_s, first_s + count):
        g = reduction.reduce_once(g)
        values.append(g.label(2 * s - 1, 1, "L"))
    return values


def oracle_diagonal(count: int) -> list[Fraction]:
    """L_1..L_count from full reductions of the all-one 4*count-grid."""
    return reduced_diagonal(all_one_grid(4 * count), count, 1)


def boundary_grid(m: int, boundary: Fraction) -> Grid:
    """m-grid with ``boundary`` on its outer edges and 1 inside."""
    one = Fraction(1)
    return Grid(m, {(r, d): (boundary if d == 1 else one,
                             boundary if d == r else one,
                             boundary if r == m else one)
                    for r in range(1, m + 1) for d in range(1, r + 1)})


def product_approximation(S: int) -> list[Fraction]:
    """A_1..A_S with A_s = (2/3) prod_{i=2..s} (1 - 1/(2i-1))."""
    a, out = Fraction(2, 3), [Fraction(2, 3)]
    for i in range(2, S + 1):
        a *= 1 - Fraction(1, 2 * i - 1)
        out.append(a)
    return out


def random_grid(rng: random.Random, n: int, used: set, bits: int) -> Grid:
    """n-grid of rationals p/q with p and q of exactly ``bits`` bits, none
    in ``used``.

    Every drawn label is added to ``used``, so labels never repeat across
    the grids drawn with one set.  Numerators and denominators of one length
    keep the cost of a grid from depending much on the seed.
    """
    lo, hi = 1 << (bits - 1), 1 << bits

    def fresh() -> Fraction:
        while True:
            v = Fraction(rng.randrange(lo, hi), rng.randrange(lo, hi))
            if v not in used:
                used.add(v)
                return v
    return Grid(n, {(r, d): (fresh(), fresh(), fresh())
                    for r in range(1, n + 1) for d in range(1, r + 1)})


def grid_edges(g: Grid) -> list[tuple]:
    """(u, v, resistance) for every edge; triangle (r, d) has apex (r-1, d-1),
    bottom-left (r, d-1) and bottom-right (r, d)."""
    edges = []
    for r in range(1, g.m + 1):
        for d in range(1, r + 1):
            L, R, B = g.triangle(r, d)
            apex, bl, br = (r - 1, d - 1), (r, d - 1), (r, d)
            edges += [(apex, bl, L), (apex, br, R), (bl, br, B)]
    return edges


def strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def strictly_increasing(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


# -- workloads -------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalDeep:
    """The leftmost diagonal to s = S in one reduction chain, then the
    numerators, the Hankel determinants up to k = S/2 and the asymptotics."""

    S: int = 64
    oracle_s: int = 8
    name: str = "diagonal-deep"

    def make_inputs(self, seed: int) -> dict:
        # The all-one start grid leaves nothing to draw: every seed gives the
        # same inputs.
        return {"S": self.S}

    def run(self, inputs: dict, call: Calls) -> dict:
        S = inputs["S"]
        diag = call(circuit_array.diagonal_sequence, S)
        seq = call(sequences.nprime_sequence, S, diag)
        dets = [call(sequences.hankel_determinant, seq, k)
                for k in range(2, S // 2 + 1)]
        table = call(sequences.asymptotics_table, list(range(1, S + 1)), diag)
        mono = call(sequences.verify_monotonicity, S, diag)
        return {"diagonal": diag, "nprime": seq, "dets": dets,
                "table": table, "monotonicity": mono}

    def check(self, inputs: dict, out: dict) -> list[str]:
        S = inputs["S"]
        diag = out["diagonal"]
        if diag is None or len(diag) != S:
            return [f"diagonal_sequence({S}) gave no list of {S} values"]
        bad = []
        oracle = oracle_diagonal(min(self.oracle_s, S))
        bad += [f"L_{s} != full-grid reduce_k oracle"
                for s, want in enumerate(oracle, start=1) if diag[s - 1] != want]
        bad += [f"d_{s} does not divide 2^(4s-7)" for s in range(2, S + 1)
                if 2 ** (4 * s - 7) % diag[s - 1].denominator]
        seq = out["nprime"]
        if seq is None or seq.entries != [diag[s - 1] * 2 ** (4 * s - 7)
                                         for s in range(2, S + 1)]:
            bad.append("n'_s != L_s * 2^(4s-7)")
        bad += [f"det_{k} != 9^T({k - 1})"
                for k, det in enumerate(out["dets"], start=2)
                if det != 9 ** (k * (k - 1) // 2)]
        A = product_approximation(S)
        if not strictly_decreasing(diag):
            bad.append("L is not strictly decreasing")
        if not strictly_decreasing([L - a for L, a in zip(diag[2:], A[2:])]):
            bad.append("L - A is not strictly decreasing from s = 3")
        if not strictly_decreasing([L / a for L, a in zip(diag[2:], A[2:])]):
            bad.append("L / A is not strictly decreasing from s = 3")
        table = out["table"]
        if table is None or [(r.s, r.L, r.A) for r in table] != \
                list(zip(range(1, S + 1), diag, A)):
            bad.append("asymptotics table rows != (s, L_s, A_s)")
        if out["monotonicity"] is None or not out["monotonicity"].passed:
            bad.append("verify_monotonicity report failed")
        return bad


@dataclass(frozen=True)
class ArrayWide:
    """Columns 1..C of the circuit array, one windowed chain per column, and
    the program's row-recursion and closed-form reports on them."""

    C: int = 24
    direct_columns: int = 6
    name: str = "array-wide"

    def make_inputs(self, seed: int) -> dict:
        # The array is a fixed object: every seed gives the same inputs.
        return {"C": self.C}

    def run(self, inputs: dict, call: Calls) -> dict:
        arr = call(circuit_array.build_array, inputs["C"])
        recursions = call(circuit_array.verify_row_recursions, arr)
        closed_forms = call(circuit_array.verify_closed_forms, arr)
        return {"array": arr, "recursions": recursions,
                "closed_forms": closed_forms}

    def check(self, inputs: dict, out: dict) -> list[str]:
        C = inputs["C"]
        arr = out["array"]
        if arr is None or [len(c) for c in arr.columns] != \
                [2 * j - 1 for j in range(1, C + 1)]:
            return [f"build_array({C}) gave no array of {C} columns"]
        cols = arr.columns
        bad = [f"row 0, column {j} != 1 - 3/9^j" for j in range(1, C + 1)
               if cols[j - 1][0] != 1 - Fraction(3, 9 ** j)]
        bad += [f"row 1, column {j} != 1 + (2/3)/(9^(j-1) - 1)"
                for j in range(2, C + 1)
                if cols[j - 1][1] != 1 + Fraction(2, 3) / (9 ** (j - 1) - 1)]
        k = min(self.direct_columns, C)
        if cols[:k] != circuit_array.build_array_direct(k).columns:
            bad.append(f"columns 1..{k} != build_array_direct({k})")
        if [c[-1] for c in cols] != circuit_array.diagonal_sequence(C):
            bad.append(f"column bottoms != diagonal_sequence({C})")
        # Down every column the left labels (even rows) fall strictly and stay
        # below 1 and the right labels (odd rows) rise strictly and stay above
        # 1, so any two entries of a column trade places only by breaking it.
        for j, col in enumerate(cols, start=1):
            left, right = col[0::2], col[1::2]
            if not (strictly_decreasing(left) and left[0] < 1
                    and strictly_increasing(right)
                    and all(v > 1 for v in right)):
                bad.append(f"column {j} breaks the left/right label ordering")
        for key in ("recursions", "closed_forms"):
            if out[key] is None or not out[key].passed:
                bad.append(f"program's {key} report failed")
        return bad


@dataclass(frozen=True)
class SymbolicDiagonal:
    """L_1(x)..L_S(x) over the field of rational functions."""

    S: int = 6
    points: int = 3
    name: str = "symbolic-diagonal"

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        xs: list[Fraction] = []
        while len(xs) < self.points:
            q = rng.randint(1, 9)
            x0 = Fraction(rng.randint(3 * q + 1, 40 * q), q)
            if x0 != 9 and x0 not in xs:
                xs.append(x0)
        return {"S": self.S, "points": xs}

    def run(self, inputs: dict, call: Calls) -> dict:
        return {"diagonal": call(sequences.symbolic_diagonal, inputs["S"])}

    def check(self, inputs: dict, out: dict) -> list[str]:
        S = inputs["S"]
        fs = out["diagonal"]
        if fs is None or len(fs) != S:
            return [f"symbolic_diagonal({S}) gave no list of {S} functions"]
        bad = [f"L_{s}(9) != exact L_{s}"
               for s, (f, want) in enumerate(zip(fs, oracle_diagonal(S)), start=1)
               if f.eval(9) != want]
        # The symbolic start grid is the once-reduced all-one grid with its
        # boundary 2/3 relabelled 1 - 3/x; here x is a number.
        for x0 in inputs["points"]:
            start = boundary_grid(4 * S - 1, 1 - 3 / x0)
            want = [start.label(1, 1, "L")] + reduced_diagonal(start, S - 1, 2)
            bad += [f"L_{s}({x0}) != Fraction reduction with boundary 1 - 3/x0"
                    for s, (f, w) in enumerate(zip(fs, want), start=1)
                    if f.eval(x0) != w]
        for s, f in enumerate(fs[1:], start=2):
            den = f.denom.coeffs
            k, c = len(den) - 1, den[-1]
            if den != tuple(c * comb(k, i) * (-1) ** (k - i) for i in range(k + 1)):
                bad.append(f"denominator of L_{s}(x) is not c * (x - 1)^k")
        return bad


@dataclass(frozen=True)
class ResistanceOracle:
    """Random grids whose labels never repeat: effective resistance across
    every edge of the small ones, and the closed-form reduction against
    graph surgery on the large ones."""

    foster_sizes: tuple = (5, 5, 5)
    dual_sizes: tuple = (20, 20)
    name: str = "resistance-oracle"

    def make_inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        used: set = set()
        foster = [random_grid(rng, n, used, LABEL_BITS)
                  for n in self.foster_sizes]
        return {"foster": [(g, grid_edges(g)) for g in foster],
                "dual": [random_grid(rng, n, used, LABEL_BITS)
                         for n in self.dual_sizes]}

    def run(self, inputs: dict, call: Calls) -> dict:
        resistances = []
        for g, edges in inputs["foster"]:
            graph = call(graphs.grid_to_graph, g)
            resistances.append([call(graphs.effective_resistance, graph, u, v)
                                for u, v, _ in edges])
        dual = []
        for g in inputs["dual"]:
            closed = call(reduction.reduce_k, g, DUAL_STEPS)
            surgery = g
            for _ in range(DUAL_STEPS):
                surgery = call(graphs.graph_level_reduce, surgery)
            dual.append((closed, surgery))
        return {"resistances": resistances, "dual": dual}

    def check(self, inputs: dict, out: dict) -> list[str]:
        bad = []
        for i, ((g, edges), rs) in enumerate(zip(inputs["foster"],
                                                  out["resistances"])):
            if any(R is None or not 0 < R < r for R, (_, _, r) in zip(rs, edges)):
                bad.append(f"grid {i}: an edge resistance is not in (0, r_e)")
                continue
            # Foster's theorem: sum over edges of R_eff(e) / r_e = V - 1.
            if sum(R / r for R, (_, _, r) in zip(rs, edges)) != \
                    (g.m + 1) * (g.m + 2) // 2 - 1:
                bad.append(f"grid {i}: Foster's sum != V - 1")
        for i, (g, (closed, surgery)) in enumerate(zip(inputs["dual"],
                                                        out["dual"])):
            m = g.m - DUAL_STEPS
            if closed is None or surgery is None or closed.m != m or \
                    surgery.m != m or any(
                        closed.triangle(r, d) != surgery.triangle(r, d)
                        for r in range(1, m + 1) for d in range(1, r + 1)):
                bad.append(f"dual grid {i}: reduce_k != repeated "
                           "graph_level_reduce")
        return bad


WORKLOADS = {w.name: w for w in (DiagonalDeep(), ArrayWide(),
                                 SymbolicDiagonal(), ResistanceOracle())}

"""Command-line interface.

Subcommands: array build|verify, reduce, diag, hankel, symbolic,
asymptotics, resistance, oracle verify, verify.  All output is
deterministic for a given invocation; fractions are printed exactly
("p/q"), never as floats, except in asymptotics tables which reproduce the
fixed 4-decimal rendering.

Exit status: 0 on success, 1 when any verification finding failed, 2 on
usage errors.  The array columns and the leftmost diagonal are each one
reduction chain in one process.

Every verification suite is listed in one place, the table ``_SUITES``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys

from . import circuit_array as ca
from . import graphs, properties, sequences
from .fields import RATIONALS, format_rational
from .grid import GridError, all_one_grid
from .ratfunc import RATFUNCS
from .reduction import reduce_k
from .reports import Report


class UsageError(Exception):
    """Bad arguments or input; ``main`` prints it and exits 2."""


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a command writes to: the file at ``path``, or stdout."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _write(text: str, path: str | None) -> None:
    with _output(path) as out:
        out.write(text if text.endswith("\n") else text + "\n")


def _write_table(header: list[str], rows, fmt: str, path: str | None) -> None:
    """Write a markdown or csv table one row at a time, so that only one
    row's strings are held; ``rows`` may be any iterable of string lists."""
    with _output(path) as out:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return
        out.write("| " + " | ".join(header) + " |\n")
        out.write("|" + "|".join("---" for _ in header) + "|\n")
        for row in rows:
            out.write("| " + " | ".join(row) + " |\n")


def _emit_reports(reports: list[Report], verbose: bool) -> int:
    for rep in reports:
        print(rep.render(verbose))
    failed = [r for r in reports if not r.passed]
    print(f"\n{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 1 if failed else 0


# -- array ---------------------------------------------------------------------

def _write_array(arr: ca.CircuitArray, fmt: str, path: str | None) -> None:
    """Write the array as a markdown or csv table, or as the json document
    ``json.dump({"columns": [...]}, indent=1)`` would write, one column at a
    time, so that only one column's strings are held."""
    C = arr.column_count
    if fmt == "json":
        with _output(path) as out:
            out.write('{\n "columns": [')
            for j in range(1, C + 1):
                entries = []
                for i, v in enumerate(arr.column(j)):
                    p = arr.provenance(i, j)
                    entries.append({"row": i, "value": format_rational(v),
                                     "edge": {"r": p.r, "d": p.d,
                                              "side": p.side},
                                     "reductions": p.reductions, "n": p.n})
                # the column object as indent=1 places it, two levels deep;
                # json escapes every newline inside a string
                text = json.dumps({"column": j, "entries": entries}, indent=1)
                out.write(("," if j > 1 else "") + "\n  "
                          + text.replace("\n", "\n  "))
            out.write("\n ]\n}\n")
        return
    header = ["row"] + [str(j) for j in range(1, C + 1)]
    rows = ([str(i)] + [format_rational(arr.entry(i, j))
                        if i <= 2 * (j - 1) else "" for j in range(1, C + 1)]
            for i in range(2 * C - 1))
    _write_table(header, rows, fmt, path)


def cmd_array(args) -> int:
    if args.action == "build":
        if not 1 <= args.cols <= _ARRAY_MAX_COLS:
            raise UsageError(f"--cols must be in 1..{_ARRAY_MAX_COLS}, "
                             f"got {args.cols}")
        arr = ca.build_array(args.cols)
        _write_array(arr, args.format, args.out)
        return 0
    if args.max_k < 0:
        raise UsageError(f"--max-k must be >= 0, got {args.max_k}")
    if not 1 <= args.center_s <= _UNIFORM_CENTER_MAX_S:
        raise UsageError(f"--max-s must be in 1..{_UNIFORM_CENTER_MAX_S}, "
                         f"got {args.center_s}")
    return _run_suites(args, _ARRAY_SUITES, _array_width(args), 0)


def _uniform_center_all(smax: int) -> Report:
    merged = Report(f"uniform-center s = 1..{smax}, n = 4s and 4s+2")
    for s in range(1, smax + 1):
        for n in (4 * s, 4 * s + 2):
            rep = ca.verify_uniform_center(n, s)
            merged.add(f"n={n}, s={s}", rep.passed,
                       "" if rep.passed else "; ".join(
                           c.name for c in rep.failures()))
    return merged


# -- reduce ----------------------------------------------------------------------

# The whole n-grid is held in memory, about n^2 labels: n = 400 takes
# ~60 MiB and ~1 s for each of the first steps.
_REDUCE_MAX_N = 400

# The labels grow with every step: over the rationals the all-one
# n = 400 grid takes ~6, ~12, ~20, ~26 and ~35 s at 10, 20, 30, 35 and 40
# steps, and 32 steps take ~22 s and ~85 MiB end to end.
_REDUCE_MAX_STEPS = 32

# Over rational functions the labels grow with every step: end to end on
# two cores, n = 400 takes ~31, ~32-36 and ~49 s at 10, 11 and 12 steps,
# in 108, 113 and 118 MiB.
_SYMBOLIC_REDUCE_MAX_STEPS = 11


def cmd_reduce(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.n > _REDUCE_MAX_N:
        raise UsageError(f"--n must be <= {_REDUCE_MAX_N}, got {args.n}")
    if not 0 <= args.steps < args.n:
        raise UsageError(f"--steps must be in 0..n-1 = 0..{args.n - 1}, "
                         f"got {args.steps}")
    if args.field == "rational" and args.steps > _REDUCE_MAX_STEPS:
        raise UsageError(f"--steps must be <= {_REDUCE_MAX_STEPS} "
                         f"with --field rational, got {args.steps}")
    if args.field == "symbolic" and args.steps > _SYMBOLIC_REDUCE_MAX_STEPS:
        raise UsageError(f"--steps must be <= {_SYMBOLIC_REDUCE_MAX_STEPS} "
                         f"with --field symbolic, got {args.steps}")
    text = args.boundary
    if text is None and args.field == "symbolic":
        text = "1 - 3/x"
    field = RATIONALS if args.field == "rational" else RATFUNCS
    try:
        boundary = None if text is None else field.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --boundary {text!r}: {exc}") from None
    try:
        if boundary is None:
            g = all_one_grid(args.n)
        else:
            g = sequences.symbolic_start_grid(args.n, boundary)
        g = reduce_k(g, args.steps)
    except GridError as exc:
        # a boundary with a non-positive label or a zero edge sum
        raise UsageError(f"bad --boundary {text!r}: {exc}") from None
    if args.dump_json:
        _write(g.to_json(), args.dump_json)
    print(f"reduced to m={g.m} (reductions={g.reductions}, "
          f"field={g.field.name})")
    corner = g.label(1, 1, "L")
    print(f"top corner left label: {g.field.format(corner)}")
    return 0


# -- diag / hankel / symbolic / asymptotics --------------------------------------

# The leftmost diagonal to depth s is one reduction chain whose labels grow
# with s, and its cost grows about as s^5: s = 160 takes ~12 s and ~18 MiB.
_DIAG_MAX_S = 160

# C array columns are one reduction chain on the all-one 4C-grid; its cost
# grows about as C^5, and C = 112 takes ~10 s and ~41 MiB to build.
_ARRAY_MAX_COLS = 112

# `array verify --suite uniform-center --max-s S` fully reduces the all-one
# 4s- and (4s+2)-grids for every s <= S; its cost grows about as S^4.3, and
# S = 28 takes ~30 s.
_UNIFORM_CENTER_MAX_S = 28


def _check_depth(flag: str, value: int | str, depth: int) -> None:
    """Refuse a ``flag`` ``value`` that needs the diagonal to s = depth."""
    if depth > _DIAG_MAX_S:
        raise UsageError(f"{flag} {value} needs the diagonal to s = {depth}, "
                         f"past the limit s <= {_DIAG_MAX_S}")


def _array_width(args) -> int:
    """Columns for --max-cols and for the spot checks to k = --max-k."""
    if args.max_cols < 1:
        raise UsageError(f"--max-cols must be >= 1, got {args.max_cols}")
    cols = max(args.max_cols, args.max_k + 3, 5)
    if cols > _ARRAY_MAX_COLS:
        raise UsageError(f"--max-cols/--max-k need {cols} array columns, "
                         f"past the limit C <= {_ARRAY_MAX_COLS}")
    return cols


def cmd_diag(args) -> int:
    if args.max_s < 1:
        raise UsageError(f"--max-s must be >= 1, got {args.max_s}")
    _check_depth("--max-s", args.max_s, args.max_s)
    diag = ca.diagonal_sequence(args.max_s)
    header = ["s", "L"]
    rows = []
    for s, v in enumerate(diag, start=1):
        shown = (format_rational(v) if args.emit == "fractions"
                 else sequences.render_4dp(v))
        rows.append([str(s), shown])
    _write_table(header, rows, args.format, args.out)
    return 0


def cmd_hankel(args) -> int:
    if args.max_k < 2:
        raise UsageError(f"--max-k must be >= 2, got {args.max_k}")
    S = 2 * (args.max_k + 1)
    _check_depth("--max-k", args.max_k, S)
    return _run_suites(args, ("hankel",), 0, S)


def _hankel_suites(kmax: int, diag: list) -> list[Report]:
    """The two Hankel suites over n'_2..n'_S, S = len(diag), or, when some
    L_s * 2^(4s-7) is not an integer, both reported failed with the reason."""
    try:
        seq = sequences.nprime_sequence(len(diag), diag)
    except sequences.SequenceError as exc:
        reports = [Report("hankel-determinant-conjecture"),
                   Report("lhrcc-exclusion")]
        for rep in reports:
            rep.add("n'_s = L_s * 2^(4s-7) is an integer for s = "
                    f"2..{len(diag)}", False, str(exc))
        return reports
    return [sequences.verify_determinant_conjecture(kmax, seq),
            sequences.lhrcc_ruled_out(kmax, seq)]


def cmd_symbolic(args) -> int:
    try:
        sequences.check_reference_range(args.max_s)
    except sequences.SequenceError as exc:
        raise UsageError(f"--max-s: {exc}") from None
    formulas = sequences.symbolic_diagonal(args.max_s)
    report = sequences.verify_symbolic_patterns(
        args.max_s, ca.diagonal_sequence(args.max_s), formulas)
    for s, f in enumerate(formulas, start=1):
        print(f"L_{s}(x) = {f}")
    return _emit_reports([report], args.verbose)


def _parse_rows(spec: str) -> list[int]:
    ranges = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                a, b = part.split("..")
                ranges.append((int(a), int(b)))
            elif part:
                ranges.append((int(part), int(part)))
    except ValueError:  # a bad number, or more than one ".." in a part
        ranges = []
    if not ranges or any(not 1 <= a <= b for a, b in ranges):
        raise UsageError(f"bad row spec {spec!r}")
    deepest = max(b for _, b in ranges)
    _check_depth("--rows", spec, deepest)
    return [s for a, b in ranges for s in range(a, b + 1)]


def cmd_asymptotics(args) -> int:
    s_values = _parse_rows(args.rows)
    rows = sequences.asymptotics_table(
        s_values, ca.diagonal_sequence(max(s_values)))
    header = list(sequences.ASYMPTOTIC_COLUMNS)
    table = []
    for row in rows:
        cols = row.columns()
        table.append([str(row.s)] + [cols[c] for c in header[1:]])
    _write_table(header, table, args.format, args.out)
    return 0


# -- resistance / oracle ----------------------------------------------------------

def cmd_resistance(args) -> int:
    try:
        with open(args.graph) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read --graph {args.graph}: "
                         f"{exc.strerror}") from None
    try:
        g = graphs.WeightedGraph.from_json(text)
        r = graphs.effective_resistance(g, args.u, args.v)
    except graphs.GraphError as exc:
        raise UsageError(str(exc)) from None
    print(format_rational(r))
    return 0


# The transform-soundness suite's cost grows linearly in --graphs, in ~17 MiB:
# 1,000, 10,000 and 20,000 graphs take ~0.4, ~4.5 and ~8.5 s.
_ORACLE_MAX_GRAPHS = 20_000


def cmd_oracle(args) -> int:
    if args.graphs < 1:
        raise UsageError(f"--graphs must be >= 1, got {args.graphs}")
    if args.graphs > _ORACLE_MAX_GRAPHS:
        raise UsageError(f"--graphs must be <= {_ORACLE_MAX_GRAPHS}, "
                         f"got {args.graphs}")
    return _run_suites(args, _ORACLE_SUITES, 0, 0)


# -- verify (aggregate) ------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.max_k < 2:
        raise UsageError(f"--max-k must be >= 2, got {args.max_k}")
    _check_depth("--max-k", args.max_k, 2 * args.max_k + 2)
    if args.max_s < 1:
        raise UsageError(f"--max-s must be >= 1, got {args.max_s}")
    _check_depth("--max-s", args.max_s, args.max_s)
    return _run_suites(args, tuple(_SUITES), _array_width(args),
                       max(2 * args.max_k + 2, 20, args.max_s))


# Every verification suite, in the order `verify` prints them: its name, and
# a function of the parsed arguments, the command's array and its diagonal
# (functions that build them on first call) that returns its reports.
_SUITES = {
    "recursions": lambda a, arr, diag: [ca.verify_row_recursions(arr())],
    "closed-forms": lambda a, arr, diag: [ca.verify_closed_forms(arr())],
    "row01": lambda a, arr, diag: [ca.verify_row01_recurrences(arr())],
    "uniform-center": lambda a, arr, diag: [_uniform_center_all(a.center_s)],
    "spotchecks": lambda a, arr, diag: [
        ca.verify_composition_spotchecks(a.max_k, arr())],
    "hankel": lambda a, arr, diag: _hankel_suites(a.max_k, diag()),
    "divisibility": lambda a, arr, diag: [
        sequences.verify_denominator_divisibility(len(diag()), diag())],
    "symbolic": lambda a, arr, diag: [sequences.verify_symbolic_patterns(
        7, diag(), sequences.symbolic_diagonal(7))],
    "monotonicity": lambda a, arr, diag: [
        sequences.verify_monotonicity(max(a.max_s, 20), diag())],
    "fib": lambda a, arr, diag: [graphs.verify_fib_identities()],
    "2tree": lambda a, arr, diag: [graphs.verify_2tree_formula()],
    "dual-pipeline": lambda a, arr, diag: [
        properties.dual_pipeline_suite(seed=a.seed)],
    "transforms": lambda a, arr, diag: [properties.transform_soundness_suite(
        seed=a.seed, graphs=a.graphs)],
    "field-axioms": lambda a, arr, diag: [
        properties.field_axiom_suite("rational", seed=a.seed),
        properties.field_axiom_suite("symbolic", seed=a.seed, rounds=25)],
    "metric": lambda a, arr, diag: [properties.metric_suite(seed=a.seed)],
    "symmetry": lambda a, arr, diag: [properties.symmetry_suite(seed=a.seed)],
}
_ARRAY_SUITES = ("recursions", "closed-forms", "uniform-center", "spotchecks")
_ORACLE_SUITES = ("transforms", "dual-pipeline", "fib", "2tree")


def _run_suites(args, names, width: int, depth: int) -> int:
    """Emit the reports of the suites ``names``, or of the one ``--suite``
    names, over the array of ``width`` columns and the diagonal to s =
    ``depth``, each built at most once and only if a suite reads it."""
    array = functools.cache(lambda: ca.build_array(width))
    diag = functools.cache(lambda: ca.diagonal_sequence(depth))
    if getattr(args, "suite", "all") != "all":
        names = (args.suite,)
    reports = [r for name in names for r in _SUITES[name](args, array, diag)]
    return _emit_reports(reports, args.verbose)


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuitarray",
        description="Exact triangular-grid circuit reduction and the "
                    "circuit array, with verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("markdown", "csv", "json")):
        p.add_argument("--format", choices=fmt, default="markdown")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("array", help="build or verify the circuit array")
    asub = p.add_subparsers(dest="action", required=True)
    pb = asub.add_parser("build", help="build columns and print them")
    pb.add_argument("--cols", type=int, required=True)
    common(pb)
    pb.set_defaults(fn=cmd_array)
    pv = asub.add_parser("verify", help="run array verification suites")
    pv.add_argument("--suite", choices=_ARRAY_SUITES + ("all",), default="all")
    pv.add_argument("--max-cols", type=int, default=8)
    pv.add_argument("--max-k", type=int, default=3)
    pv.add_argument("--max-s", type=int, default=4, dest="center_s",
                    metavar="MAX_S")
    pv.add_argument("--verbose", action="store_true")
    pv.set_defaults(fn=cmd_array)

    p = sub.add_parser("reduce", help="reduce an all-one (or relabeled) grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dump-json", metavar="PATH", default=None)
    p.add_argument("--field", choices=("rational", "symbolic"),
                   default="rational")
    p.add_argument("--boundary", default=None,
                   help="boundary label: a fraction (rational field) or an "
                        "expression in x such as \"1-3/x\" (symbolic field); "
                        "marks the start grid as once-reduced")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("diag", help="leftmost diagonal of the array")
    p.add_argument("--max-s", type=int, required=True)
    p.add_argument("--emit", choices=("fractions", "decimal"),
                   default="fractions")
    common(p, fmt=("markdown", "csv"))
    p.set_defaults(fn=cmd_diag)

    p = sub.add_parser("hankel", help="Hankel determinants of the diagonal "
                                      "numerators")
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_hankel)

    p = sub.add_parser("symbolic", help="single-variable diagonal formulas")
    p.add_argument("--max-s", type=int, default=7)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_symbolic)

    p = sub.add_parser("asymptotics", help="diagonal asymptotics table")
    p.add_argument("--rows", required=True,
                   help="comma list and/or ranges, e.g. 1,2,3 or 1..80")
    common(p, fmt=("markdown", "csv"))
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("resistance", help="effective resistance on a graph "
                                          "from JSON")
    p.add_argument("--graph", required=True, metavar="PATH")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(fn=cmd_resistance)

    p = sub.add_parser("oracle", help="graph-oracle verification suites")
    osub = p.add_subparsers(dest="action", required=True)
    po = osub.add_parser("verify")
    po.add_argument("--suite", choices=_ORACLE_SUITES + ("all",),
                    default="all")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--graphs", type=int, default=100)
    po.add_argument("--verbose", action="store_true")
    po.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--max-cols", type=int, default=8)
    p.add_argument("--max-k", type=int, default=5)
    p.add_argument("--max-s", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify, center_s=4, graphs=40)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

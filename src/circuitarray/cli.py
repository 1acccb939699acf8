"""Command-line interface.

Subcommands: array build|verify, reduce, diag, hankel, symbolic,
asymptotics, resistance, oracle verify, verify.  All output is
deterministic for a given invocation; fractions are printed exactly
("p/q"), never as floats, except in asymptotics tables which reproduce the
fixed 4-decimal rendering.

Exit status: 0 on success, 1 when any verification finding failed, 2 on
usage errors.  The array columns and the leftmost diagonal are each one
reduction chain in one process.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import circuit_array as ca
from . import graphs, properties, sequences
from .fields import format_rational, parse_rational
from .grid import Grid, all_one_grid
from .ratfunc import parse_ratfunc
from .reduction import reduce_k
from .reports import Report


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _emit_reports(reports: list[Report], verbose: bool) -> int:
    for rep in reports:
        print(rep.render(verbose))
    failed = [r for r in reports if not r.passed]
    print(f"\n{len(reports) - len(failed)}/{len(reports)} suites passed")
    return 1 if failed else 0


# -- array ---------------------------------------------------------------------

def _render_array(arr: ca.CircuitArray, fmt: str) -> str:
    C = arr.column_count
    if fmt == "json":
        import json
        cols = []
        for j in range(1, C + 1):
            entries = []
            for i, (v, p) in enumerate(zip(arr.column(j), arr.provenance[j - 1])):
                entries.append({"row": i, "value": format_rational(v),
                                "edge": {"r": p.r, "d": p.d, "side": p.side},
                                "reductions": p.reductions, "n": p.n})
            cols.append({"column": j, "entries": entries})
        return json.dumps({"columns": cols}, indent=1)
    header = ["row"] + [str(j) for j in range(1, C + 1)]
    rows = []
    for i in range(2 * C - 1):
        row = [str(i)]
        for j in range(1, C + 1):
            row.append(format_rational(arr.entry(i, j)) if i <= 2 * (j - 1) else "")
        rows.append(row)
    return (_markdown_table(header, rows) if fmt == "markdown"
            else _csv_table(header, rows))


def cmd_array(args) -> int:
    if args.action == "build":
        arr = ca.build_array(args.cols)
        _write(_render_array(arr, args.format), args.out)
        return 0
    arr = ca.build_array(max(args.max_cols, 5))
    suites = {
        "recursions": lambda: ca.verify_row_recursions(arr),
        "closed-forms": lambda: ca.verify_closed_forms(arr),
        "uniform-center": lambda: _uniform_center_all(args.max_s),
        "spotchecks": lambda: ca.verify_composition_spotchecks(
            args.max_k, arr if arr.column_count >= args.max_k + 3 else None),
    }
    if args.suite == "all":
        reports = [fn() for fn in suites.values()]
    else:
        reports = [suites[args.suite]()]
    return _emit_reports(reports, args.verbose)


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

def cmd_reduce(args) -> int:
    text = args.boundary
    if text is None and args.field == "symbolic":
        text = "1 - 3/x"
    parse = parse_rational if args.field == "rational" else parse_ratfunc
    try:
        boundary = None if text is None else parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad --boundary {text!r}: {exc}", file=sys.stderr)
        return 2
    if args.field == "symbolic":
        g = sequences.symbolic_start_grid(args.n, boundary)
    elif boundary is None:
        g = all_one_grid(args.n)
    else:
        g = _boundary_grid(args.n, boundary)
    g = reduce_k(g, args.steps)
    if args.dump_json:
        _write(g.to_json(), args.dump_json)
    print(f"reduced to m={g.m} (reductions={g.reductions}, "
          f"field={g.field.name})")
    corner = g.label(1, 1, "L")
    print(f"top corner left label: {g.field.format(corner)}")
    return 0


def _boundary_grid(n: int, boundary: Fraction) -> Grid:
    one = Fraction(1)
    tri = {}
    for r in range(1, n + 1):
        for d in range(1, r + 1):
            tri[(r, d)] = (boundary if d == 1 else one,
                           boundary if d == r else one,
                           boundary if r == n else one)
    return Grid(n, tri, reductions=1)


# -- diag / hankel / symbolic / asymptotics --------------------------------------

def cmd_diag(args) -> int:
    diag = ca.diagonal_sequence(args.max_s)
    header = ["s", "L"]
    rows = []
    for s, v in enumerate(diag, start=1):
        shown = (format_rational(v) if args.emit == "fractions"
                 else sequences.render_4dp(v))
        rows.append([str(s), shown])
    _write(_csv_table(header, rows) if args.format == "csv"
           else _markdown_table(header, rows), args.out)
    return 0


def cmd_hankel(args) -> int:
    diag = ca.diagonal_sequence(2 * (args.max_k + 1))
    seq = sequences.nprime_sequence(2 * args.max_k, diag)
    conjecture = sequences.verify_determinant_conjecture(args.max_k, seq)
    exclusion = sequences.lhrcc_ruled_out(
        args.max_k, sequences.nprime_sequence(2 * (args.max_k + 1), diag))
    return _emit_reports([conjecture, exclusion], args.verbose)


def cmd_symbolic(args) -> int:
    sequences.check_reference_range(args.max_s)
    formulas = sequences.symbolic_diagonal(args.max_s)
    report = sequences.verify_symbolic_patterns(args.max_s, formulas=formulas)
    for s, f in enumerate(formulas, start=1):
        print(f"L_{s}(x) = {f}")
    return _emit_reports([report], args.verbose)


def _parse_rows(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            a, b = part.split("..")
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    if not out or any(s < 1 for s in out):
        raise ValueError(f"bad row spec {spec!r}")
    return out


def cmd_asymptotics(args) -> int:
    try:
        s_values = _parse_rows(args.rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = sequences.asymptotics_table(s_values)
    header = list(sequences.ASYMPTOTIC_COLUMNS)
    table = []
    for row in rows:
        cols = row.columns()
        table.append([str(row.s)] + [cols[c] for c in header[1:]])
    _write(_csv_table(header, table) if args.format == "csv"
           else _markdown_table(header, table), args.out)
    return 0


# -- resistance / oracle ----------------------------------------------------------

def cmd_resistance(args) -> int:
    with open(args.graph) as fh:
        text = fh.read()
    try:
        g = graphs.WeightedGraph.from_json(text)
        r = graphs.effective_resistance(g, args.u, args.v)
    except graphs.GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_rational(r))
    return 0


def cmd_oracle(args) -> int:
    suites = {
        "transforms": lambda: properties.transform_soundness_suite(
            seed=args.seed, graphs=args.graphs),
        "dual-pipeline": lambda: properties.dual_pipeline_suite(seed=args.seed),
        "fib": lambda: graphs.verify_fib_identities(),
        "2tree": lambda: graphs.verify_2tree_formula(),
    }
    if args.suite == "all":
        reports = [fn() for fn in suites.values()]
    else:
        reports = [suites[args.suite]()]
    return _emit_reports(reports, args.verbose)


# -- verify (aggregate) ------------------------------------------------------------

def cmd_verify(args) -> int:
    arr = ca.build_array(max(args.max_cols, args.max_k + 3, 5))
    smax = max(2 * args.max_k + 2, 20)
    diag = ca.diagonal_sequence(smax)
    seq = sequences.nprime_sequence(smax, diag)
    reports = [
        ca.verify_row_recursions(arr),
        ca.verify_closed_forms(arr),
        ca.verify_row01_recurrences(arr),
        _uniform_center_all(4),
        ca.verify_composition_spotchecks(args.max_k, arr),
        sequences.verify_determinant_conjecture(args.max_k, seq),
        sequences.lhrcc_ruled_out(args.max_k, seq),
        sequences.verify_denominator_divisibility(min(smax, 20), diag),
        sequences.verify_symbolic_patterns(7, diag),
        sequences.verify_monotonicity(max(args.max_s, 20), diag),
        graphs.verify_fib_identities(),
        graphs.verify_2tree_formula(),
        properties.dual_pipeline_suite(seed=args.seed),
        properties.transform_soundness_suite(seed=args.seed, graphs=40),
        properties.field_axiom_suite("rational", seed=args.seed),
        properties.field_axiom_suite("symbolic", seed=args.seed, rounds=25),
        properties.metric_suite(seed=args.seed, graphs=10),
        properties.symmetry_suite(seed=args.seed),
    ]
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
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("array", help="build or verify the circuit array")
    asub = p.add_subparsers(dest="action", required=True)
    pb = asub.add_parser("build", help="build columns and print them")
    pb.add_argument("--cols", type=int, required=True)
    common(pb)
    pb.set_defaults(fn=cmd_array)
    pv = asub.add_parser("verify", help="run array verification suites")
    pv.add_argument("--suite", choices=("recursions", "closed-forms",
                                        "uniform-center", "spotchecks", "all"),
                    default="all")
    pv.add_argument("--max-cols", type=int, default=8)
    pv.add_argument("--max-k", type=int, default=3)
    pv.add_argument("--max-s", type=int, default=4)
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
    po.add_argument("--suite", choices=("transforms", "dual-pipeline",
                                        "fib", "2tree", "all"),
                    default="all")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--graphs", type=int, default=100)
    po.add_argument("--verbose", action="store_true")
    po.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--all", action="store_true",
                   help="included for symmetry; the default already runs all")
    p.add_argument("--max-cols", type=int, default=8)
    p.add_argument("--max-k", type=int, default=5)
    p.add_argument("--max-s", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""CLI surface: subcommands, formats, determinism, exit codes."""

import argparse
import itertools
import json
import shlex
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from circuitarray.circuit_array import CircuitArray, build_array
from circuitarray.cli import (_ARRAY_MAX_COLS, _ARRAY_SUITES, _DIAG_MAX_S,
                             _ORACLE_MAX_GRAPHS, _ORACLE_SUITES,
                             _REDUCE_MAX_STEPS, _SUITES,
                             _UNIFORM_CENTER_MAX_S, _write_array,
                             build_parser, main)
from circuitarray.fields import RATIONALS
from circuitarray.graphs import WeightedGraph
from circuitarray.grid import Grid
from circuitarray.ratfunc import RATFUNCS, RationalFunction
from circuitarray.reduction import reduce_k
from circuitarray.reports import Report
from circuitarray.sequences import symbolic_start_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_array_build_markdown(capsys):
    code, out = run(capsys, "array", "build", "--cols", "3")
    assert code == 0
    assert "| 26/27 |" in out and "13/32" in out


def test_array_build_deterministic(capsys):
    _, first = run(capsys, "array", "build", "--cols", "4", "--format", "csv")
    _, second = run(capsys, "array", "build", "--cols", "4", "--format", "csv")
    assert first == second
    assert "305041/380192" in first


def test_array_build_json_round_trips(capsys):
    code, out = run(capsys, "array", "build", "--cols", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    values = [e["value"] for c in data["columns"] for e in c["entries"]]
    assert values == ["2/3", "26/27", "13/12", "1/2"]
    assert all(F(v) > 0 for v in values)


def read_long_rational(text):
    """A rendered rational read back in chunks of digits, so that parsing
    stays inside the default digit limit that rendering went past."""
    def read_int(digits):
        n = 0
        for k in range(0, len(digits), 1000):
            chunk = digits[k:k + 1000]
            n = n * 10 ** len(chunk) + int(chunk)
        return n
    num, _, den = text.partition("/")
    return F(read_int(num), read_int(den or "1"))


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_array_renders_labels_past_the_digit_limit(fmt, capsys):
    import csv
    columns = build_array(2).columns
    big = F(3 ** 9100 + 2, 2 ** 15000)  # 4342 and 4516 digits
    columns[1][1] = big  # two columns: row and column order agree
    _write_array(CircuitArray(columns), fmt, None)
    text = capsys.readouterr().out
    if fmt == "json":
        cells = [e["value"] for col in json.loads(text)["columns"]
                 for e in col["entries"]]
    else:
        lines = text.splitlines()
        if fmt == "markdown":
            rows = [[c.strip() for c in line.strip("|").split("|")]
                    for line in lines[2:]]
        else:
            rows = list(csv.reader(lines[1:]))
        cells = [c for row in rows for c in row[1:] if c]
    assert [read_long_rational(c) for c in cells] == \
        [v for col in columns for v in col]


ARRAY_2_TABLES = {
    "markdown": "| row | 1 | 2 |\n|---|---|---|\n| 0 | 2/3 | 26/27 |\n"
                "| 1 |  | 13/12 |\n| 2 |  | 1/2 |\n",
    "csv": "row,1,2\n0,2/3,26/27\n1,,13/12\n2,,1/2\n",
    # json.dump(..., indent=1) of the whole document, plus a newline
    "json": """{
 "columns": [
  {
   "column": 1,
   "entries": [
    {
     "row": 0,
     "value": "2/3",
     "edge": {
      "r": 1,
      "d": 1,
      "side": "L"
     },
     "reductions": 1,
     "n": 4
    }
   ]
  },
  {
   "column": 2,
   "entries": [
    {
     "row": 0,
     "value": "26/27",
     "edge": {
      "r": 3,
      "d": 2,
      "side": "L"
     },
     "reductions": 2,
     "n": 8
    },
    {
     "row": 1,
     "value": "13/12",
     "edge": {
      "r": 3,
      "d": 1,
      "side": "R"
     },
     "reductions": 2,
     "n": 8
    },
    {
     "row": 2,
     "value": "1/2",
     "edge": {
      "r": 3,
      "d": 1,
      "side": "L"
     },
     "reductions": 2,
     "n": 8
    }
   ]
  }
 ]
}
""",
}


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_array_build_writes_the_same_bytes_to_stdout_and_out(fmt, capsys,
                                                             tmp_path):
    path = tmp_path / "array.txt"
    argv = ["array", "build", "--cols", "2", "--format", fmt]
    _, out = run(capsys, *argv)
    assert run(capsys, *argv, "--out", str(path)) == (0, "")
    assert path.read_text() == out
    assert out == ARRAY_2_TABLES[fmt]


def test_array_build_json_is_the_indent_1_layout(capsys):
    # written one column at a time, byte for byte what one json.dump of the
    # whole document writes
    _, out = run(capsys, "array", "build", "--cols", "5", "--format", "json")
    assert out == json.dumps(json.loads(out), indent=1) + "\n"
    assert len(json.loads(out)["columns"]) == 5


def test_array_verify_all(capsys):
    code, out = run(capsys, "array", "verify", "--suite", "all",
                    "--max-cols", "5", "--max-k", "1", "--max-s", "2")
    assert code == 0
    assert "row-recursions" in out and "uniform-center" in out


def test_reduce_and_dump(tmp_path, capsys):
    path = tmp_path / "grid.json"
    code, out = run(capsys, "reduce", "--n", "6", "--steps", "2",
                    "--dump-json", str(path))
    assert code == 0
    g = Grid.from_json(path.read_text())
    assert g.m == 4 and g.reductions == 2
    assert "top corner left label" in out


def test_reduce_symbolic(capsys):
    code, out = run(capsys, "reduce", "--n", "8", "--steps", "1",
                    "--boundary", "1-3/x")
    assert code == 0
    assert "x^1" in out


@pytest.mark.parametrize("boundary, field", [
    ("2/3", "rational"), ("5/7", "rational"), (None, "rational"),
    ("1-3/x", "symbolic"), ("x-x-2", "symbolic"),
    ("(x-3)*(3*x-1)/(6*(x-1)^2)", "symbolic"),
])
def test_reduce_reads_its_field_from_the_boundary(capsys, boundary, field):
    # no step, as x - x - 2 has a zero edge sum that the first step meets
    argv = ["reduce", "--n", "6", "--steps", "0"]
    if boundary is not None:
        argv.append(f"--boundary={boundary}")
    code, out = run(capsys, *argv)
    assert code == 0
    assert f"field={field})" in out


def test_reduce_boundary_in_x_dumps_the_symbolic_start_grid(tmp_path,
                                                            capsys):
    path = tmp_path / "grid.json"
    code, _ = run(capsys, "reduce", "--n", "9", "--steps", "2", "--boundary",
                  "1-3/x", "--dump-json", str(path))
    assert code == 0
    x = RationalFunction.x()
    want = reduce_k(symbolic_start_grid(9, 1 - 3 / x), 2)
    assert path.read_text() == want.to_json() + "\n"
    assert Grid.from_json(path.read_text(), RATFUNCS) == want


@pytest.mark.parametrize("field, boundary", [
    (RATIONALS, None), (RATIONALS, "5/7"), (RATFUNCS, "1-3/x"),
    # a boundary the parser would refuse: the cap is read before it
    (RATFUNCS, "x^-999999999"),
], ids=["all-one", "5/7", "1-3/x", "x^-999999999"])
def test_each_fields_step_cap_is_refused_before_any_grid_is_built(
        capsys, monkeypatch, field, boundary):
    from circuitarray import cli, sequences

    def built(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "all_one_grid", built)
    monkeypatch.setattr(sequences, "symbolic_start_grid", built)
    cap = _REDUCE_MAX_STEPS[field]
    argv = ["reduce", "--n", "400", "--steps", str(cap + 1)]
    if boundary is not None:
        argv.append(f"--boundary={boundary}")
    assert usage_error(capsys, argv) == (
        f"error: --steps must be <= {cap} with field={field.name}, "
        f"got {cap + 1}\n")


def test_diag_fractions_and_decimal(capsys):
    code, out = run(capsys, "diag", "--max-s", "4")
    assert code == 0 and "89/256" in out
    code, out = run(capsys, "diag", "--max-s", "3", "--emit", "decimal",
                    "--format", "csv")
    assert code == 0 and "0.4063" in out


def test_hankel(capsys):
    code, out = run(capsys, "hankel", "--max-k", "3")
    assert code == 0
    assert "hankel-determinant-conjecture" in out and "lhrcc" in out


def test_symbolic(capsys):
    code, out = run(capsys, "symbolic", "--max-s", "3")
    assert code == 0
    assert "L_3(x)" in out


def count_calls(monkeypatch, module, name):
    """Arguments of every call to module.name from now on."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_symbolic_computes_the_diagonal_once(capsys, monkeypatch):
    from circuitarray import sequences
    calls = count_calls(monkeypatch, sequences, "symbolic_diagonal")
    code, out = run(capsys, "symbolic", "--max-s", "3")
    assert code == 0 and "L_3(x)" in out
    assert calls == [(3,)]


def test_hankel_builds_the_diagonal_once(capsys, monkeypatch):
    from circuitarray import circuit_array
    calls = count_calls(monkeypatch, circuit_array, "reduce_diagonal")
    code, out = run(capsys, "hankel", "--max-k", "3")
    assert code == 0 and "lhrcc" in out
    assert calls == [(8,)]


def test_verify_builds_the_array_once(capsys, monkeypatch):
    from circuitarray import circuit_array
    calls = count_calls(monkeypatch, circuit_array, "build_array")
    code, out = run(capsys, "verify", "--max-cols", "4", "--max-k", "2")
    assert code == 0 and "composition-spotchecks" in out
    assert calls == [(5,)]


def test_array_verify_builds_one_array_wide_enough(capsys, monkeypatch):
    from circuitarray import circuit_array
    calls = count_calls(monkeypatch, circuit_array, "build_array")
    code, out = run(capsys, "array", "verify", "--max-k", "9")
    assert code == 0 and "k=9:" in out
    assert calls == [(12,)]


def test_uniform_center_alone_builds_no_array(capsys, monkeypatch):
    from circuitarray import circuit_array
    calls = count_calls(monkeypatch, circuit_array, "build_array")
    code, out = run(capsys, "array", "verify", "--suite", "uniform-center",
                    "--max-s", "2")
    assert code == 0 and "uniform-center s = 1..2" in out
    assert calls == []


def test_uniform_center_names_each_failing_checks_detail(capsys,
                                                         monkeypatch):
    from circuitarray import circuit_array

    def failing_at_6(n, s):
        rep = Report(f"uniform-center n={n} s={s}")
        rep.add("(a) band", n != 6, "row 3")
        rep.add("(b) corner", n != 6)
        return rep

    monkeypatch.setattr(circuit_array, "verify_uniform_center", failing_at_6)
    code, out = run(capsys, "array", "verify", "--suite", "uniform-center",
                    "--max-s", "2")
    assert code == 1
    assert "    FAIL n=6, s=1 -- (a) band: row 3; (b) corner\n" in out


def test_a_failed_divisibility_is_reported(capsys, monkeypatch):
    from circuitarray import circuit_array
    real = circuit_array.diagonal_sequence

    def bad_diagonal(S):
        diag = real(S)
        diag[4] = F(diag[4].numerator, 3 * diag[4].denominator)  # L_5
        return diag

    monkeypatch.setattr(circuit_array, "diagonal_sequence", bad_diagonal)
    code, out = run(capsys, "verify", "--max-cols", "4", "--max-k", "2")
    assert code == 1
    assert "[FAIL] denominator-divisibility" in out
    assert "fails at s=5" in out
    for suite in ("hankel-determinant-conjecture", "lhrcc-exclusion"):
        assert f"[FAIL] {suite}" in out
    assert "denominator of L_5" in out
    code, out = run(capsys, "hankel", "--max-k", "2")
    assert code == 1 and "[FAIL] hankel-determinant-conjecture" in out


def test_verify_reaches_max_s_past_the_hankel_depth(capsys):
    code, out = run(capsys, "verify", "--max-s", "30")
    assert code == 0
    assert "asymptotic-monotonicity s <= 30" in out


def test_asymptotics_rows_spec(capsys):
    code, out = run(capsys, "asymptotics", "--rows", "1,2..3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("s,L,A,")
    assert lines[1].split(",")[1] == "0.6667"
    assert len(lines) == 4


def test_asymptotics_bad_rows(capsys):
    code = main(["asymptotics", "--rows", "0"])
    assert code == 2


def test_resistance_subcommand(tmp_path, capsys):
    g = WeightedGraph()
    for u, v in ((0, 1), (1, 2), (0, 2), (2, 3)):
        g.add_edge(u, v, F(1))
    path = tmp_path / "graph.json"
    path.write_text(g.to_json())
    code, out = run(capsys, "resistance", "--graph", str(path),
                    "--u", "0", "--v", "3")
    assert code == 0
    assert out.strip() == "5/3"


def test_oracle_verify_fib(capsys):
    code, out = run(capsys, "oracle", "verify", "--suite", "fib")
    assert code == 0 and "fibonacci-identities" in out


def test_oracle_verify_transforms_seeded(capsys):
    code, out = run(capsys, "oracle", "verify", "--suite", "transforms",
                    "--seed", "3", "--graphs", "10")
    assert code == 0


def usage_error(capsys, argv):
    """stderr of ``main(argv)``, which must exit 2 with one error line."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def subparser(command):
    """The parser of ``command``, such as ("array", "verify")."""
    parser = build_parser()
    for word in command:
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


def flag_choices(parser, flag):
    """The choices of ``flag`` in ``parser``, or None if it has no flag."""
    return next((a.choices for a in parser._actions
                 if flag in a.option_strings), None)


def report_titles(out):
    return [line.split("] ", 1)[1].rsplit(" (", 1)[0]
            for line in out.splitlines() if line.startswith(("[PASS]",
                                                             "[FAIL]"))]


# Each verify command's suites, as the table names them, and the titles of
# the reports each prints at the command's defaults, in printed order.
SUITE_TITLES = {
    ("verify",): (tuple(_SUITES), [
        ("recursions", ["row-recursions"]),
        ("closed-forms", ["closed-forms"]),
        ("row01", ["row-0/1-recurrences"]),
        ("uniform-center", ["uniform-center s = 1..4, n = 4s and 4s+2"]),
        ("spotchecks", ["composition-spotchecks"]),
        ("hankel", ["hankel-determinant-conjecture", "lhrcc-exclusion"]),
        ("divisibility", ["denominator-divisibility"]),
        ("symbolic", ["symbolic-diagonal"]),
        ("monotonicity", ["asymptotic-monotonicity s <= 20"]),
        ("fib", ["fibonacci-identities"]),
        ("2tree", ["straight-2tree-formula"]),
        ("dual-pipeline", ["dual-pipeline seed=0"]),
        ("transforms", ["transform-soundness seed=0"]),
        ("field-axioms", ["field-axioms[rational] seed=0",
                          "field-axioms[symbolic] seed=0"]),
        ("metric", ["resistance-metric seed=0"]),
        ("symmetry", ["grid-symmetry seed=0"]),
    ]),
    ("array", "verify"): (_ARRAY_SUITES, [
        ("recursions", ["row-recursions"]),
        ("closed-forms", ["closed-forms"]),
        ("uniform-center", ["uniform-center s = 1..4, n = 4s and 4s+2"]),
        ("spotchecks", ["composition-spotchecks"]),
    ]),
    ("oracle", "verify"): (_ORACLE_SUITES, [
        ("transforms", ["transform-soundness seed=0"]),
        ("dual-pipeline", ["dual-pipeline seed=0"]),
        ("fib", ["fibonacci-identities"]),
        ("2tree", ["straight-2tree-formula"]),
    ]),
}


@pytest.mark.parametrize("command", SUITE_TITLES, ids=" ".join)
def test_suite_table_drives_each_verify_command(capsys, command):
    names, suites = SUITE_TITLES[command]
    assert [name for name, _ in suites] == list(names)
    code, out = run(capsys, *command)
    assert code == 0
    assert report_titles(out) == [t for _, titles in suites for t in titles]
    # `verify` runs every suite and takes no --suite
    choices = flag_choices(subparser(command), "--suite")
    if command == ("verify",):
        assert choices is None and names == tuple(_SUITES)
        return
    assert tuple(choices) == names + ("all",)
    for name, titles in suites:
        code, out = run(capsys, *command, "--suite", name)
        assert code == 0 and report_titles(out) == titles, name


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["array", "build"])  # missing --cols
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text, field", [
    ('{"n": 3}', '"edges"'),
    ('{"n": 2, "edges": [{"u": 0, "v": 1, "r": "1/0"}]}', "edges[0].r"),
    ('{"n": 2, "edges": [{"u": 0, "v": 7, "r": "1"}]}', "edges[0].v"),
    ('{"n": -1, "edges": []}', '"n"'),
    ('{"n": 100000, "edges": []}', "100000 vertices cannot be connected by 0"),
    ('{"n": 2, "edges": [{"u": 0, "v": 1, "r": "1e999999999"}]}',
     "edges[0].r"),
    ("not json", "JSON"),
])
def test_malformed_graph_json_is_a_usage_error(tmp_path, capsys, text, field):
    path = tmp_path / "graph.json"
    path.write_text(text)
    err = usage_error(capsys, ["resistance", "--graph", str(path),
                               "--u", "0", "--v", "1"])
    assert field in err


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--steps", "2", "--boundary", "1/0"],
    ["--n", "5", "--steps", "2", "--boundary", "abc"],
    ["--n", "5", "--steps", "2", "--boundary", "x-x+1/0"],
    ["--n", "27", "--steps", "2", "--boundary",
     "3/(x-x)"],
    ["--n", "4", "--steps", "1", "--boundary",
     "(" * 400 + "x" + ")" * 400],
    ["--n", "5", "--steps", "2", "--boundary", "1e999999999"],
    ["--n", "5", "--steps", "2", "--boundary",
     "(1+x)^100000"],
    ["--n", "5", "--steps", "2", "--boundary", "x-x+2^999999999"],
    ["--n", "5", "--steps", "2", "--boundary",
     "x^-999999999"],
    ["--n", "5", "--steps", "2", "--boundary",
     "((1+x)^30)^30"],
    ["--n", "5", "--steps", "2", "--boundary",
     "*".join(["(1+x)^499"] * 8)],
    # many places the written form's " / " could split
    ["--n", "5", "--steps", "2", "--boundary", "(" + ") / (" * 40000 + "x"],
])
def test_bad_boundary_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    usage_error(capsys, ["reduce"] + argv)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv, needle", [
    (["reduce", "--n", "2", "--steps", "5"], "--steps"),
    (["diag", "--max-s", "0"], "--max-s"),
    (["hankel", "--max-k", "1"], "--max-k"),
    (["symbolic", "--max-s", "8"], "--max-s"),
    (["array", "build", "--cols", "0"], "--cols"),
    (["verify", "--max-k", "1"], "--max-k"),
    (["oracle", "verify", "--graphs", "0"], "--graphs"),
    (["reduce", "--n", "6", "--steps", "1", "--boundary=-2"],
     "triangle (1,1)"),
    (["reduce", "--n", "6", "--steps", "1", "--boundary=x-x-2"],
     "triangle (2,1)"),
    (["reduce", "--n", "401", "--steps", "1"], "--n"),
    (["asymptotics", "--rows", "1..2..3"], "bad row spec '1..2..3'"),
    (["asymptotics", "--rows", "..5"], "bad row spec '..5'"),
    # each depth is refused before a diagonal chain or a row list is built
    (["diag", "--max-s", str(_DIAG_MAX_S + 1)], f"s <= {_DIAG_MAX_S}"),
    (["hankel", "--max-k", str(_DIAG_MAX_S // 2)], f"s <= {_DIAG_MAX_S}"),
    (["verify", "--max-k", str(_DIAG_MAX_S // 2)], f"s <= {_DIAG_MAX_S}"),
    (["asymptotics", "--rows", "1..1000000000000"], f"s <= {_DIAG_MAX_S}"),
    (["asymptotics", "--rows", f"1,{_DIAG_MAX_S + 1}"], f"s <= {_DIAG_MAX_S}"),
    (["asymptotics", "--rows=-1000000000000..3"], "bad row spec"),
    (["verify", "--max-s", str(_DIAG_MAX_S + 1)], f"s <= {_DIAG_MAX_S}"),
    # each array width is refused before the array chain is started
    (["array", "build", "--cols", str(_ARRAY_MAX_COLS + 1)], "--cols"),
    (["array", "verify", "--max-cols", str(_ARRAY_MAX_COLS + 1)],
     f"C <= {_ARRAY_MAX_COLS}"),
    (["array", "verify", "--max-k", str(_ARRAY_MAX_COLS - 2)],
     f"C <= {_ARRAY_MAX_COLS}"),
    (["verify", "--max-cols", str(_ARRAY_MAX_COLS + 1)],
     f"C <= {_ARRAY_MAX_COLS}"),
    # array verify refuses flags under which a suite checks nothing
    (["array", "verify", "--max-s", "0"], "--max-s"),
    (["array", "verify", "--max-k", "-1"], "--max-k"),
    (["array", "verify", "--max-s", str(_UNIFORM_CENTER_MAX_S + 1)],
     f"--max-s must be in 1..{_UNIFORM_CENTER_MAX_S}"),
    (["asymptotics", "--rows", "1..3,5..1"], "bad row spec '1..3,5..1'"),
    # refused before the symbolic start grid is built
    (["reduce", "--n", "400", "--steps",
      str(_REDUCE_MAX_STEPS[RATFUNCS] + 1), "--boundary", "1-3/x"],
     f"--steps must be <= {_REDUCE_MAX_STEPS[RATFUNCS]} with field=symbolic"),
    # a zero label is refused over rational functions as over rationals
    (["reduce", "--n", "3", "--steps", "2", "--boundary", "x-x"],
     "zero resistance label at triangle (1,1)"),
    # a depth or width below 1 is refused, not run as a vacuous pass
    (["verify", "--max-s", "-5"], "--max-s must be >= 1"),
    (["verify", "--max-cols", "-3"], "--max-cols must be >= 1"),
    (["array", "verify", "--max-cols", "-1"], "--max-cols must be >= 1"),
    # refused before the all-one grid is built
    (["reduce", "--n", "400", "--steps",
      str(_REDUCE_MAX_STEPS[RATIONALS] + 1)],
     f"--steps must be <= {_REDUCE_MAX_STEPS[RATIONALS]} with field=rational"),
    # refused before any random graph is built
    (["oracle", "verify", "--graphs", str(_ORACLE_MAX_GRAPHS + 1)],
     f"--graphs must be <= {_ORACLE_MAX_GRAPHS}"),
])
def test_bad_argument_is_a_usage_error(capsys, argv, needle):
    assert needle in usage_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["diag", "--max-s", "3", "--verbose"],
    ["array", "build", "--cols", "2", "--verbose"],
    ["asymptotics", "--rows", "1", "--verbose"],
    ["verify", "--all"],
    # verify's fixed depths are not flags, and it runs every suite
    ["verify", "--graphs", "5"],
    ["verify", "--suite", "fib"],
    # the boundary label sets reduce's field
    ["reduce", "--n", "5", "--steps", "1", "--field", "symbolic"],
])
def test_flags_no_command_reads_are_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_cli_block_parses(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines()
             if line.startswith("circuitarray ")]
    assert len(lines) >= 10
    for line in lines:
        words = shlex.split(line)[1:]
        for argv in itertools.product(*(word.split("|") for word in words)):
            try:
                build_parser().parse_args(list(argv))
            except SystemExit:
                pytest.fail(f"{line}: {capsys.readouterr().err.strip()}")
        # each a|b|c lists exactly its flag's choices, in the parser's order
        command = list(itertools.takewhile(lambda w: not w.startswith("--"),
                                           words))
        for flag, word in zip(words, words[1:]):
            if "|" in word:
                assert word.split("|") == list(
                    flag_choices(subparser(command), flag)), line


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import circuitarray
    src = str(Path(circuitarray.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "circuitarray", "diag",
                           "--max-s", "3"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[2:]
    assert [row.split("|")[1].strip() for row in rows] == ["1", "2", "3"]


def test_missing_input_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code = main(["resistance", "--graph", str(path), "--u", "0", "--v", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("argv, flag", [
    (["array", "build", "--cols", "2"], "--out"),
    (["reduce", "--n", "4", "--steps", "1"], "--dump-json"),
])
def test_unwritable_output_file_is_a_usage_error(capsys, tmp_path, argv,
                                                 flag):
    path = tmp_path / "no-such-dir" / "out.txt"
    err = usage_error(capsys, argv + [flag, str(path)])
    assert str(path) in err
    assert not path.parent.exists()


def test_failed_finding_exit_1(capsys, monkeypatch):
    from circuitarray import circuit_array
    failing = Report("closed-forms")
    failing.add("planted check", False, "planted failure")
    monkeypatch.setattr(circuit_array, "verify_closed_forms",
                        lambda arr: failing)
    code, out = run(capsys, "array", "verify", "--suite", "closed-forms",
                    "--max-cols", "4")
    assert code == 1 and "planted check" in out

"""CLI surface: subcommands, formats, determinism, exit codes."""

import json
import time
from fractions import Fraction as F

import pytest

from circuitarray.cli import _ARRAY_MAX_COLS, _DIAG_MAX_S, main
from circuitarray.graphs import WeightedGraph
from circuitarray.grid import Grid
from circuitarray.reports import Report


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
                    "--field", "symbolic", "--boundary", "1-3/x")
    assert code == 0
    assert "x^1" in out


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
    ["--n", "5", "--steps", "2", "--field", "symbolic", "--boundary", "1/0"],
    ["--n", "27", "--steps", "2", "--field", "symbolic", "--boundary",
     "3/(x-x)"],
    ["--n", "4", "--steps", "1", "--field", "symbolic", "--boundary",
     "(" * 400 + "x" + ")" * 400],
    ["--n", "5", "--steps", "2", "--boundary", "1e999999999"],
    ["--n", "5", "--steps", "2", "--field", "symbolic", "--boundary",
     "(1+x)^100000"],
    ["--n", "5", "--steps", "2", "--field", "symbolic", "--boundary",
     "2^999999999"],
    ["--n", "5", "--steps", "2", "--field", "symbolic", "--boundary",
     "x^-999999999"],
    ["--n", "5", "--steps", "2", "--field", "symbolic", "--boundary",
     "((1+x)^30)^30"],
    ["--n", "5", "--steps", "2", "--field", "symbolic", "--boundary",
     "*".join(["(1+x)^499"] * 8)],
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
    (["reduce", "--n", "6", "--steps", "1", "--field", "symbolic",
      "--boundary=-2"], "triangle (2,1)"),
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
    (["array", "verify", "--max-s", "100"], "--max-s must be in 1..99"),
])
def test_bad_argument_is_a_usage_error(capsys, argv, needle):
    assert needle in usage_error(capsys, argv)


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

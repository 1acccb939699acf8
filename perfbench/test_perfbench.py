"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest perfbench

The checks must reject a deliberately corrupted output, tracing must leave
every output as it was and restore every wrapped name, and the runner must
refuse to run without the package's sources.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from circuitarray import circuit_array  # noqa: E402
from circuitarray.grid import Grid  # noqa: E402
from circuitarray.polynomial import Polynomial  # noqa: E402
from circuitarray.ratfunc import RationalFunction  # noqa: E402

SMALL = {
    "diagonal-deep": replace(workloads.WORKLOADS["diagonal-deep"],
                             S=12, oracle_s=4),
    "array-wide": replace(workloads.WORKLOADS["array-wide"],
                          C=8, direct_columns=4),
    "symbolic-diagonal": replace(workloads.WORKLOADS["symbolic-diagonal"],
                                 S=4, points=2),
    "resistance-oracle": replace(workloads.WORKLOADS["resistance-oracle"],
                                 foster_sizes=(3, 4), dual_sizes=(7,)),
}


def run_round(name: str, seed: int = 3):
    w = SMALL[name]
    inputs = w.make_inputs(seed)
    call = workloads.Calls()
    return w, inputs, w.run(inputs, call), call


@lru_cache(maxsize=None)
def outputs(name: str):
    w, inputs, out, call = run_round(name)
    assert call.failed == 0, call.errors
    return w, inputs, out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_outputs_pass_every_check(name):
    w, inputs, out = outputs(name)
    assert w.check(inputs, out) == []


def test_same_seed_same_inputs():
    w = SMALL["resistance-oracle"]
    a, b = w.make_inputs(5), w.make_inputs(5)
    assert [g for g, _ in a["foster"]] == [g for g, _ in b["foster"]]
    assert a["dual"] == b["dual"]
    assert a["dual"] != w.make_inputs(6)["dual"]


def test_diagonal_check_rejects_one_value_off_by_2_pow_minus_4s():
    w, inputs, out = outputs("diagonal-deep")
    s = 9
    diag = list(out["diagonal"])
    diag[s - 1] += Fraction(1, 2 ** (4 * s))
    assert w.check(inputs, dict(out, diagonal=diag))


@pytest.mark.parametrize("j,a,b", [(8, 0, 1), (8, 1, 2), (8, 5, 7),
                                   (7, 4, 8), (3, 1, 3)])
def test_array_check_rejects_one_swapped_entry(j, a, b):
    w, inputs, out = outputs("array-wide")
    columns = [list(c) for c in out["array"].columns]
    columns[j - 1][a], columns[j - 1][b] = columns[j - 1][b], columns[j - 1][a]
    corrupted = replace(out["array"], columns=columns)
    assert w.check(inputs, dict(out, array=corrupted))


def shifted(f: RationalFunction) -> RationalFunction:
    """f(x + 1): the same function read at the wrong point."""
    def at_x_plus_1(p: Polynomial) -> Polynomial:
        acc = Polynomial()
        for c in reversed(p.coeffs):
            acc = acc * Polynomial((1, 1)) + Polynomial.constant(c)
        return acc
    return RationalFunction(at_x_plus_1(f.numer), at_x_plus_1(f.denom))


def test_symbolic_check_rejects_a_function_read_at_the_wrong_point():
    w, inputs, out = outputs("symbolic-diagonal")
    fs = list(out["diagonal"])
    fs[2] = shifted(fs[2])
    assert w.check(inputs, dict(out, diagonal=fs))


def test_resistance_check_rejects_one_wrong_edge_resistance():
    w, inputs, out = outputs("resistance-oracle")
    rs = [list(r) for r in out["resistances"]]
    rs[1][5] *= Fraction(999, 1000)
    assert w.check(inputs, dict(out, resistances=rs))


def test_resistance_check_rejects_one_wrong_reduced_label():
    w, inputs, out = outputs("resistance-oracle")
    closed, surgery = out["dual"][0]
    tri = {(r, d): closed.triangle(r, d)
           for r in range(1, closed.m + 1) for d in range(1, r + 1)}
    L, R, B = tri[(2, 1)]
    tri[(2, 1)] = (L + 1, R, B)
    wrong = Grid(closed.m, tri, reductions=closed.reductions)
    assert w.check(inputs, dict(out, dual=[(wrong, surgery)]))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_leaves_outputs_identical(name):
    sites = [(owner, attr, vars(owner)[attr])
             for _, _, layer_sites in tracing.LAYERS
             for owner, attr in layer_sites]
    _, _, plain, _ = run_round(name)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, _, traced, call = run_round(name)
    assert traced == plain
    assert call.failed == 0
    assert any(tracer.calls.values())
    assert all(vars(owner)[attr] is fn for owner, attr, fn in sites)


def test_self_times_do_not_count_a_nested_call_twice():
    tracer = tracing.Tracer()
    with tracer.installed():
        circuit_array.diagonal_sequence(6)
    assert tracer.calls["circuit_array.diagonal_sequence"] == 1
    assert tracer.calls["reduction.reduce_diagonal"] == 1
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.wrapped_s)


def test_benchmark_json_names_every_traced_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == \
        tracing.layer_metric_names() + list(run.TRACE_SUMMARY)


def test_runner_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(bench["command"] + ["--workload", "array-wide",
                                              "--seed", "1", "--seconds", "1",
                                              "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_runner_runs_on_one_process_whatever_the_environment(tmp_path):
    for part in ("src", HERE.name):
        shutil.copytree(HERE.parent / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "array-wide", "--seed", "1", "--seconds", "0.01",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, env={"CIRCUITARRAY_WORKERS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    record = json.loads(
        (tmp_path / ".perfbench-results" / "array-wide-seed1-trace0.json")
        .read_text())
    assert record["environment"]["CIRCUITARRAY_WORKERS_found"] == "2"
    assert record["environment"]["CIRCUITARRAY_WORKERS"] == "1"

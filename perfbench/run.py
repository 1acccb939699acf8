"""Run one workload of the circuitarray benchmark and print its metrics.

    python3 perfbench/run.py --workload diagonal-deep --seed 1 --seconds 28 \
        --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, on one thread, with whichever rational backend it finds.
``CIRCUITARRAY_WORKERS`` is set to 1 for the run, so that ``build_array``
starts no worker processes; the value found is kept in the results file.

A run times whole rounds of the workload's program calls.  It starts another
round only while the rounds so far suggest it ends within ``--seconds``.
Every round's outputs must equal the first round's, and the first round's
outputs are checked in full after timing.

A shared virtual machine can run the same code up to half again as fast for
minutes at a time, which moves raw round times by more than any useful
bound.  So round times are normalised: a fixed exact-arithmetic kernel that
does not use the program is timed before the first round and after each
round, and a round of ``t`` seconds between kernel times ``k1`` and ``k2``
counts as ``t * CALIBRATION_S / mean(k1, k2)`` seconds, its length on a
machine that runs the kernel in CALIBRATION_S.  Raw times are kept in the
results file (see README.md).

``--trace 0`` reports the end-to-end metrics: ``solve_s`` (median normalised
round), ``setup_s`` (median wall time of a fresh interpreter that imports the
package and makes the inputs, three times before the rounds and once after
each, each normalised by the kernel time taken just before it) and
``peak_rss_mib`` (this process, before the checks).
``--trace 1`` alternates untraced and traced rounds and reports, in raw
seconds, the per-layer self times and call counts of the traced rounds, the
median traced and untraced round and their difference, which is the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the Python version, the rational backend and the CPU count, is written
to ``.perfbench-results/`` in the checkout.  The exit code is 0 when every
check passes, 1 when one fails and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench-results"
SETUP_PROBES = 3  # before the rounds; one more follows each round
# About the median kernel time on a 2-core Intel Xeon virtual machine (2.1 GHz
# nominal, Python 3.11) at its usual speed.
CALIBRATION_S = 0.15
TRACE_SUMMARY = ("unwrapped_s", "traced_solve_s", "untraced_solve_s",
                 "tracing_overhead_s")

# One fresh interpreter's set-up: import the package and make the inputs.
# It runs without the site module (-S): site hooks belong to the Python
# installation, not to the program.  The child's alarm ends a set-up that
# hangs.
SETUP_CODE = ("import signal; signal.alarm(120); import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workers_found) -> dict:
    return {"python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "CIRCUITARRAY_WORKERS_found": workers_found,
            "CIRCUITARRAY_WORKERS": os.environ["CIRCUITARRAY_WORKERS"]}


def calibration_seconds() -> float:
    """Wall time of a fixed kernel in the program's style: exact fractions,
    a small memo keyed on integer tuples, and big-integer list arithmetic.

    The memo is cleared often, so the kernel adds nothing to the peak
    resident memory of the run.
    """
    t0 = perf_counter()
    memo, total = {}, Fraction(0)
    for i in range(1, 3201):
        if i % 64 == 0:
            memo.clear()
        a, b, c = Fraction(i, 7), Fraction(i + 1, 9), Fraction(2 * i + 1, 11)
        for _ in range(3):
            key = (a.numerator, a.denominator, b.numerator, b.denominator)
            v = memo.get(key)
            if v is None:
                v = memo[key] = b + c + b * c / a
            a, b, c = b, c, v
        total += c
    coeffs = [i * 7919 for i in range(60)]
    for _ in range(80):
        coeffs = [(x * 31 + y) >> 3 for x, y in zip(coeffs, coeffs[1:] + [1])]
    return perf_counter() - t0


def setup_seconds(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter's set-up.

    No ``timeout`` is passed: with one, ``subprocess`` polls the child at
    intervals of up to 50 ms and rounds the time up to the next poll.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", SETUP_CODE, str(SRC), str(HERE),
                    name, str(seed)], check=True)
    return perf_counter() - t0


class Rounds:
    """Times rounds of one workload and holds what the checks need."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first = None
        self.mismatches = 0

    def run(self) -> float:
        import workloads  # importable once main() has put src/ on sys.path
        call = workloads.Calls()
        t0 = perf_counter()
        outputs = self.workload.run(self.inputs, call)
        seconds = perf_counter() - t0
        self.attempted += call.attempted
        self.failed += call.failed
        self.errors += call.errors
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            self.mismatches += 1
        return seconds


def measure(rounds: Rounds, seconds: float, trace: bool,
            after_round=lambda: None) -> dict:
    """Raw round times; with ``trace``, alternate untraced and traced
    rounds.  ``after_round`` runs after each round, outside the timed spans.
    """
    import tracing  # importable once main() has put src/ on sys.path
    untraced, traced, layers, unwrapped = [], [], [], []
    start = perf_counter()
    while True:
        untraced.append(rounds.run())
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced.append(rounds.run())
            layers.append(tracer.metrics())
            unwrapped.append(traced[-1] - tracer.wrapped_s)
        after_round()
        step = median(untraced) + (median(traced) if trace else 0.0)
        if perf_counter() - start + step > seconds:
            break
    if not trace:
        return {"round_s": untraced}
    metrics = {name: median(m[name] for m in layers) for name in layers[0]}
    metrics["unwrapped_s"] = median(unwrapped)
    metrics["traced_solve_s"] = median(traced)
    metrics["untraced_solve_s"] = median(untraced)
    metrics["tracing_overhead_s"] = (metrics["traced_solve_s"]
                                     - metrics["untraced_solve_s"])
    return {"round_s": untraced, "traced_round_s": traced, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circuitarray" / "__init__.py").is_file():
        print(f"perfbench: no circuitarray package under {SRC}; run it from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    # One process: a worker pool in build_array would run outside the
    # memory that RUSAGE_SELF reports and outside the tracer's reach.
    workers_found = os.environ.get("CIRCUITARRAY_WORKERS")
    os.environ["CIRCUITARRAY_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    import circuitarray
    if Path(circuitarray.__file__).resolve().parent != SRC / "circuitarray":
        print(f"perfbench: imported circuitarray from {circuitarray.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    rounds = Rounds(workload, inputs)
    kernel: list[float] = []
    setup: list[float] = []
    if args.trace:
        timing = measure(rounds, args.seconds, trace=True)
    else:
        def calibrate_and_set_up():
            kernel.append(calibration_seconds())
            setup.append(setup_seconds(workload.name, args.seed))
        for _ in range(SETUP_PROBES):
            calibrate_and_set_up()
        timing = measure(rounds, args.seconds, trace=False,
                         after_round=calibrate_and_set_up)
        # Round i ran between kernel samples SETUP_PROBES - 1 + i and the next.
        k = kernel[SETUP_PROBES - 1:]
        timing["solve_s"] = [t * CALIBRATION_S / mean(k[i:i + 2])
                             for i, t in enumerate(timing["round_s"])]
        # Each set-up probe runs just after its kernel sample.
        timing["setup_s"] = [t * CALIBRATION_S / k for t, k in zip(setup, kernel)]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = workload.check(inputs, rounds.first)
    if rounds.mismatches:
        failures.append(f"{rounds.mismatches} round(s) gave outputs unlike "
                        "the first round's")

    if args.trace:
        values = timing["metrics"]
        names = tracing.layer_metric_names() + list(TRACE_SUMMARY)
        metrics = {n: {"value": values[n],
                       "unit": "count" if n.endswith("_calls") else "s"}
                   for n in names}
    else:
        metrics = {"solve_s": {"value": median(timing["solve_s"]), "unit": "s"},
                   "setup_s": {"value": median(timing["setup_s"]), "unit": "s"},
                   "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}
    result = {"correct": not failures, "attempted": rounds.attempted,
              "failed": rounds.failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(workers_found), "kernel_s": kernel,
              "setup_raw_s": setup,
              "check_failures": failures, "errors": rounds.errors,
              **timing, **result}
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for line in failures + rounds.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(timing['round_s'])}  attempted {rounds.attempted}  "
          f"failed {rounds.failed}  results {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer self time and call counts for the traced run.

The tracer wraps named public functions of circuitarray at the places their
callers look them up (``circuit_array.reduce_diagonal`` is where
``diagonal_sequence`` finds the chain; ``Polynomial.gcd`` is a class
attribute every instance finds).  A wrapped call is a span.  A layer's self
time is the length of its spans minus the part covered by wrapped calls made
inside them, so time is never counted twice; the time a round spends outside
every span is reported as ``unwrapped_s``.

The program itself is not changed and results are the same with tracing on:
the wrappers only time and count.  Callers must put the repository's ``src``
directory on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from circuitarray import (circuit_array, graphs, grid, polynomial, ratfunc,
                          reduction, sequences)

# (layer, report a call count, lookup sites wrapped under that layer)
LAYERS = (
    ("reduction.reduce_diagonal", False,
     ((circuit_array, "reduce_diagonal"),)),
    ("reduction.reduce_window", True, ((circuit_array, "reduce_window"),)),
    ("reduction.reduce_once", True,
     ((reduction, "reduce_once"), (sequences, "reduce_once"))),
    ("circuit_array.build_array", False, ((circuit_array, "build_array"),)),
    ("circuit_array.diagonal_sequence", False,
     ((circuit_array, "diagonal_sequence"), (sequences, "diagonal_sequence"))),
    ("circuit_array.verify", False,
     ((circuit_array, "verify_row_recursions"),
      (circuit_array, "verify_closed_forms"))),
    ("sequences.bareiss", True, ((sequences, "bareiss_determinant"),)),
    ("sequences.nprime", False, ((sequences, "nprime_sequence"),)),
    ("sequences.asymptotics", False,
     ((sequences, "asymptotics_table"), (sequences, "verify_monotonicity"))),
    ("sequences.symbolic_diagonal", False, ((sequences, "symbolic_diagonal"),)),
    ("polynomial.gcd", True, ((polynomial.Polynomial, "gcd"),)),
    ("polynomial.pseudo_rem", True, ((polynomial.Polynomial, "pseudo_rem"),)),
    ("polynomial.divide_exact", True,
     ((polynomial.Polynomial, "divide_exact"),)),
    ("ratfunc.construct", True, ((ratfunc.RationalFunction, "__init__"),)),
    ("grid.symmetry_complete", True,
     ((reduction, "symmetry_complete"), (grid, "symmetry_complete"))),
    ("graphs.effective_resistance", True,
     ((graphs, "effective_resistance"),)),
    ("graphs.graph_level_reduce", True, ((graphs, "graph_level_reduce"),)),
)


def layer_metric_names() -> list[str]:
    """Names of the per-layer metrics, in the order of LAYERS."""
    names = []
    for layer, counted, _ in LAYERS:
        names.append(f"{layer}_s")
        if counted:
            names.append(f"{layer}_calls")
    return names


class Tracer:
    """Self time and call count per layer, for the calls made while installed."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer, _, _ in LAYERS}
        self.calls = {layer: 0 for layer, _, _ in LAYERS}
        self.wrapped_s = 0.0  # length of the outermost spans
        self._open: list[float] = []  # wrapped-child time of each open span

    def _wrap(self, layer: str, fn):
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                self.self_s[layer] += span - open_spans.pop()
                self.calls[layer] += 1
                if open_spans:
                    open_spans[-1] += span
                else:
                    self.wrapped_s += span
        return traced

    @contextmanager
    def installed(self):
        """Wrap every lookup site for the duration of the block."""
        saved = []
        try:
            for layer, _, sites in LAYERS:
                for owner, attr in sites:
                    fn = vars(owner)[attr]
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(layer, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, counted, _ in LAYERS:
            out[f"{layer}_s"] = self.self_s[layer]
            if counted:
                out[f"{layer}_calls"] = self.calls[layer]
        return out

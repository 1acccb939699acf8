"""Fixtures shared across test modules, a bound on every test, and a bound
on the label growth of every reduction chain."""

import signal
import time
from math import gcd

import pytest

from circuitarray import reduction
from circuitarray.circuit_array import diagonal_sequence
from circuitarray.ratfunc import RationalFunction

# A kernel that loses a cancellation makes its labels grow without bound,
# which shows as a hang, not a failure; every test, its setup (session
# fixtures such as diag80 included) and its teardown together get this long.
_BOUND_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not hasattr(signal, "setitimer"):  # no SIGALRM: unbounded
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the per-test bound of "
                    f"{_BOUND_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, _BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _bits(part):
    """An int's bits; a polynomial's degree plus its largest coefficient's."""
    if type(part) is int:
        return part.bit_length()
    return part.degree + max(map(abs, part.coeffs), default=0).bit_length()


@pytest.fixture(scope="session", autouse=True)
def label_growth_envelope():
    """Fail every reduction chain step c after which a label's numerator or
    denominator has more than 2c² + 16 bits, or after which an exact
    rational label is not in lowest terms with a positive denominator, or
    a rational function not in the canonical form its constructor gives.

    The exact chain's labels peak at about 1.6 c² bits (at most 2 c², at
    c = 1), the symbolic chain's likewise; a kernel that loses a
    cancellation passes the bound within a few steps, long before its
    chain would reach the per-test time bound.  Step c of a chain on the
    all-one 4C-grid reduces the (4C - c + 1)-grid, whose cone ends at row
    4C - 2c - 1, so c = m - last - 2 in ``_band_step``'s arguments.
    The kernel builds its equal-label results in lowest terms without a
    final gcd, from proofs about their parts; a factor a proof misses
    shows here, wherever a chain stores the label.
    """
    step = reduction._band_step

    def watched(band, m, starts, last):
        child = step(band, m, starts, last)
        c = m - last - 2
        bound = 2 * c * c + 16
        labels = [v for _, triples in child for t in triples for v in t]
        peak = max((_bits(part) for v in labels
                    for part in (v.numerator, v.denominator)), default=0)
        if peak > bound:
            pytest.fail(f"label-growth envelope: step {c} of a reduction "
                        f"chain peaks at {peak} bits, over 2c² + 16 = {bound}")
        for v in labels:
            n, d = v.numerator, v.denominator
            if type(n) is int:
                if d <= 0 or gcd(n, d) != 1:
                    pytest.fail(f"lowest terms: step {c} of a reduction chain "
                                f"stores a label n/d with gcd(n, d) = "
                                f"{gcd(n, d)} and d {'>' if d > 0 else '<='} 0")
            elif (w := RationalFunction(n, d)).numer != n or w.denom != d:
                pytest.fail(f"canonical form: step {c} of a reduction chain "
                            f"stores the rational function ({n}) / ({d}), "
                            f"which RationalFunction(n, d) writes as {w}")
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_band_step", watched)
        yield


@pytest.fixture(scope="session")
def diag80():
    """The leftmost diagonal to s = 80 and the seconds its build took."""
    t0 = time.perf_counter()
    values = diagonal_sequence(80)
    return values, time.perf_counter() - t0

"""Fixtures shared across test modules, and a bound on every test."""

import signal
import time

import pytest

from circuitarray.circuit_array import diagonal_sequence

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


@pytest.fixture(scope="session")
def diag80():
    """The leftmost diagonal to s = 80 and the seconds its build took."""
    t0 = time.perf_counter()
    values = diagonal_sequence(80)
    return values, time.perf_counter() - t0

"""Fixtures shared across test modules."""

import time

import pytest

from circuitarray.circuit_array import diagonal_sequence


@pytest.fixture(scope="session")
def diag80():
    """The leftmost diagonal to s = 80 and the seconds its build took."""
    t0 = time.perf_counter()
    values = diagonal_sequence(80)
    return values, time.perf_counter() - t0

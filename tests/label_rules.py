"""The rules every label a reduction chain stores must keep, checked after
each step: ``tests/conftest.py`` applies them to every chain tier-1 builds
in-process, and the CI workflow to the deeper chains it runs.  Import with
``tests`` on ``sys.path``: ``from label_rules import watch_chains``.

After step c a label's numerator and denominator have at most 2c² + 16
bits (a polynomial counts its degree plus its largest coefficient's bits).
The exact chain's labels peak at about 1.6 c² bits (at most 2 c², at
c = 1), the symbolic chain's likewise; a kernel that loses a cancellation
passes the bound within a few steps, long before its chain would reach a
time bound.  Every exact rational label is in lowest terms with a positive
denominator, and every rational function in the canonical form its
constructor gives: the kernel builds its equal-label results without a
final gcd, from proofs about their parts, and a factor a proof misses
shows here, wherever a chain stores the label.

Step c of a chain on the all-one 4C-grid reduces the (4C - c + 1)-grid,
whose cone ends at row 4C - 2c - 1, so c = m - last - 2 in
``_band_step``'s arguments.
"""

from contextlib import contextmanager
from math import gcd

from circuitarray import reduction
from circuitarray.ratfunc import RationalFunction


def bits(part):
    """An int's bits; a polynomial's degree plus its largest coefficient's."""
    if type(part) is int:
        return part.bit_length()
    return part.degree + max(map(abs, part.coeffs), default=0).bit_length()


def check_step(labels, c):
    """(peak bits, the first rule broken or None) for the labels a chain
    stores after step c."""
    bound = 2 * c * c + 16
    peak = max((bits(part) for v in labels
                for part in (v.numerator, v.denominator)), default=0)
    if peak > bound:
        return peak, (f"label-growth envelope: step {c} of a reduction "
                      f"chain peaks at {peak} bits, over 2c² + 16 = {bound}")
    for v in labels:
        n, d = v.numerator, v.denominator
        if type(n) is int:
            if d <= 0 or gcd(n, d) != 1:
                return peak, (f"lowest terms: step {c} of a reduction chain "
                              f"stores a label n/d with gcd(n, d) = "
                              f"{gcd(n, d)} and d {'>' if d > 0 else '<='} 0")
        elif (w := RationalFunction(n, d)).numer != n or w.denom != d:
            return peak, (f"canonical form: step {c} of a reduction chain "
                          f"stores the rational function ({n}) / ({d}), "
                          f"which RationalFunction(n, d) writes as {w}")
    return peak, None


@contextmanager
def watch_chains(fail):
    """Check each step of every reduction chain run inside the block.

    ``reduction._band_step`` is wrapped for the block; ``fail`` is called
    with the message of the first rule a step breaks.  The block gets a
    dict from each step c to the most bits a label part had after it.
    """
    step = reduction._band_step
    peaks = {}

    def watched(band, m, starts, last):
        child = step(band, m, starts, last)
        c = m - last - 2
        peak, failure = check_step(
            [v for _, triples in child for t in triples for v in t], c)
        peaks[c] = max(peaks.get(c, 0), peak)
        if failure:
            fail(failure)
        return child

    reduction._band_step = watched
    try:
        yield peaks
    finally:
        reduction._band_step = step

"""The rules every label a reduction stores must keep, checked after each
step: ``tests/conftest.py`` applies them to every chain and every
full-grid reduction tier-1 runs in-process, and the CI workflow to the
deeper chains it runs.  Import with ``tests`` on ``sys.path``:
``from label_rules import watch_chains``.

After step c a label's numerator and denominator have at most 2c² + 16
bits (a polynomial counts its degree plus its largest coefficient's bits).
The exact chain's labels peak at about 1.6 c² bits (at most 2 c², at
c = 1), the symbolic chain's likewise; a kernel that loses a cancellation
passes the bound within a few steps, long before its chain would reach a
time bound.  Every label is in lowest terms, one rule for every field:
its field's normalising constructor (``field_of(v).make(n, d)``) gives
back its numerator and denominator unchanged, which for exact rationals
means no common factor and a positive denominator, and for rational
functions the canonical form.  The kernel builds its equal-label results
without a final gcd, from proofs about their parts, and a factor a proof
misses shows here, wherever a chain stores the label.

Step c of a chain on the all-one 4C-grid reduces the (4C - c + 1)-grid,
whose cone ends at row 4C - 2c - 1, so c = m - last - 2 in
``_band_step``'s arguments.

A full-grid reduction (``reduction._reduce_triangles``, under
``reduce_once``) keeps the same rules, with the envelope
(9 s0 + 3) c² + 16 bits after c steps from labels of at most s0 bits:
random labels of s0 = 10 and 16 bits grow to 86 and 141 bits in one
step and to about 8 s0 c² early on, the all-one grid to about 2.9 c²
(1,139 bits at c = 20), the symbolic start grid to 129 bits at c = 6.
A kernel that loses a cancellation grows them geometrically instead.
Successive steps are one run when each reduces the grid the one before
left, as far as size and peak tell: a step that starts anywhere else
starts a run of its own.
"""

from contextlib import contextmanager

from circuitarray import reduction
from circuitarray.fields import field_of


def bits(part):
    """An int's bits; a polynomial's degree plus its largest coefficient's."""
    if type(part) is int:
        return part.bit_length()
    return part.degree + max(map(abs, part.coeffs), default=0).bit_length()


def peak_bits(labels):
    """The most bits of any label's numerator or denominator."""
    return max((bits(part) for v in labels
                for part in (v.numerator, v.denominator)), default=0)


def check_step(labels, c, s0=None):
    """(peak bits, the first rule broken or None) for the labels a chain
    stores after step c, or, given s0, a full-grid reduction after c steps
    from labels of at most s0 bits."""
    if s0 is None:
        where, rule, bound = "a reduction chain", "2c² + 16", 2 * c * c + 16
    else:
        where, rule = "a full-grid reduction", f"(9·{s0} + 3)c² + 16"
        bound = (9 * s0 + 3) * c * c + 16
    peak = peak_bits(labels)
    if peak > bound:
        return peak, (f"label-growth envelope: step {c} of {where} "
                      f"peaks at {peak} bits, over {rule} = {bound}")
    for v in labels:
        n, d = v.numerator, v.denominator
        field = field_of(v)
        w = field.make(n, d)
        if (w.numerator, w.denominator) != (n, d):
            return peak, (f"lowest terms: step {c} of {where} stores "
                          f"the {field.name} label ({n}) / ({d}), which "
                          f"its field's make(n, d) writes as {w}")
    return peak, None


@contextmanager
def watch_chains(fail):
    """Check each step of every reduction chain and full-grid reduction
    run inside the block.

    ``reduction._band_step`` and ``reduction._reduce_triangles`` are
    wrapped for the block; ``fail`` is called with the message of the
    first rule a step breaks.  The block gets a dict from each chain step c
    to the most bits a label part had after it.
    """
    step, full = reduction._band_step, reduction._reduce_triangles
    peaks = {}
    # the last full-grid step's child size and peak, its run's s0 and c
    run = {"m": None, "peak": None, "s0": 0, "c": 0}

    def watched(band, m, starts, last):
        child = step(band, m, starts, last)
        c = m - last - 2
        peak, failure = check_step(
            [v for _, triples in child for t in triples for v in t], c)
        peaks[c] = max(peaks.get(c, 0), peak)
        if failure:
            fail(failure)
        return child

    def watched_full(tri, m, out_triangles):
        child = full(tri, m, out_triangles)
        start = peak_bits([v for t in tri.values() for v in t])
        if (run["m"], run["peak"]) != (m, start):
            run.update(s0=start, c=0)
        run["c"] += 1
        peak, failure = check_step([v for t in child.values() for v in t],
                                   run["c"], run["s0"])
        run.update(m=m - 1, peak=peak)
        if failure:
            fail(failure)
        return child

    reduction._band_step, reduction._reduce_triangles = watched, watched_full
    try:
        yield peaks
    finally:
        reduction._band_step, reduction._reduce_triangles = step, full

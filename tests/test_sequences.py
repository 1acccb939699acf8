"""Numerator sequence, Hankel determinants, symbolic diagonal, asymptotics."""

import random
from fractions import Fraction as F

import pytest

from circuitarray import polynomial, sequences
from circuitarray.circuit_array import diagonal_sequence
from circuitarray.polynomial import Polynomial
from circuitarray.ratfunc import RationalFunction
from circuitarray.reduction import _reduce_chain, reduce_once
from circuitarray.sequences import (NumeratorSequence, SequenceError,
                                    asymptotics_table, bareiss_determinant,
                                    cofactor_determinant, hankel_determinant,
                                    hankel_matrix, lhrcc_ruled_out,
                                    nprime_sequence,
                                    reference_diagonal_formula, render_4dp,
                                    symbolic_diagonal,
                                    symbolic_start_grid,
                                    verify_denominator_divisibility,
                                    verify_determinant_conjecture,
                                    verify_monotonicity,
                                    verify_symbolic_patterns)


@pytest.fixture(scope="module")
def diag14():
    return diagonal_sequence(14)


@pytest.fixture(scope="module")
def seq14(diag14):
    return nprime_sequence(14, diag14)


def test_nprime_values(seq14):
    assert seq14.nprime(2) == 1          # 1/2 * 2^1
    assert seq14.nprime(3) == 13         # 13/32 * 2^5
    assert seq14.nprime(4) == 178        # 89/256 * 2^9; 256 divides 512
    assert seq14.nprime(5) == 2521
    assert seq14.nprime(6) == 36526


def test_nprime_bounds(seq14, diag14):
    with pytest.raises(SequenceError):
        seq14.nprime(1)
    with pytest.raises(SequenceError):
        nprime_sequence(1, diag14)


def test_nprime_integrality_guard():
    # a sequence violating the divisibility premise must raise loudly
    fake = [F(2, 3), F(1, 3)]  # denominator 3 never divides a power of 2
    with pytest.raises(SequenceError, match="does not divide"):
        nprime_sequence(2, fake)


def test_denominator_divisibility(diag14):
    assert verify_denominator_divisibility(14, diag14).passed


def test_denominator_divisibility_names_the_first_failure(diag14):
    wrong = list(diag14)
    wrong[4] = wrong[7] = F(1, 3)
    rep = verify_denominator_divisibility(14, wrong)
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("d_s divides 2^(4s-7) for s = 2..14", False, "fails at s=5: L=1/3")]


def test_hankel_matrices_and_determinants(seq14):
    assert hankel_matrix(seq14, 2) == [[1, 13], [13, 178]]
    assert hankel_determinant(seq14, 2) == 9
    assert hankel_matrix(seq14, 3) == [[1, 13, 178], [13, 178, 2521],
                                       [178, 2521, 36526]]
    assert hankel_determinant(seq14, 3) == 729


def test_bareiss_matches_cofactor_oracle(seq14):
    for k in (2, 3, 4):
        m = hankel_matrix(seq14, k)
        assert bareiss_determinant(m) == cofactor_determinant(m)
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(m) == cofactor_determinant(m)


def test_bareiss_handles_zero_pivots():
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 0], [0, 0]]) == 0
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def count_bareiss_calls(monkeypatch) -> list:
    """Route the module's Bareiss calls through a counter; returns it."""
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return bareiss_determinant(matrix)

    monkeypatch.setattr(sequences, "bareiss_determinant", counted)
    return calls


def test_condensation_table_matches_bareiss_on_the_diagonal(diag80,
                                                            monkeypatch):
    seq = nprime_sequence(80, diag80[0])
    calls = count_bareiss_calls(monkeypatch)
    table = seq.hankel_table
    assert calls == []  # no window of the diagonal has a zero divisor
    last = len(seq.entries) + 1
    for k in range(1, 13):
        for start in range(2, last - 2 * k + 3):
            assert table[k][start - 2] == hankel_determinant(seq, k, start) \
                == bareiss_determinant(hankel_matrix(seq, k, start)), (k, start)


def test_condensation_table_matches_oracles_on_zero_heavy_sequences(
        monkeypatch):
    # Entries drawn from {-1, 0, 0, 1, 2} make singular windows common, so
    # many condensation divisors vanish and the Bareiss fallback runs.
    calls = count_bareiss_calls(monkeypatch)
    rng = random.Random(17)
    for _ in range(120):
        seq = NumeratorSequence([rng.choice((-1, 0, 0, 1, 2))
                                 for _ in range(rng.randint(1, 15))])
        last = len(seq.entries) + 1
        for k in range(1, 8):
            for start in range(2, last - 2 * k + 3):
                m = hankel_matrix(seq, k, start)
                det = hankel_determinant(seq, k, start)
                assert det == bareiss_determinant(m), (seq.entries, k, start)
                if k <= 5:
                    assert det == cofactor_determinant(m), (seq.entries, k,
                                                            start)
    assert len(calls) > 100


def test_hankel_determinant_refuses_a_window_past_the_sequence():
    seq = NumeratorSequence(list(range(1, 16)))  # n'_2..n'_16
    assert hankel_determinant(seq, 8) == 0  # n'_2..n'_16, the widest window
    for k, start, missing in ((9, 2, 17), (8, 3, 17), (2, 16, 17),
                              (1, 17, 17), (3, 1, 1), (3, 20, 20)):
        with pytest.raises(SequenceError, match=f"^n'_{missing} not computed$"):
            hankel_determinant(seq, k, start)
    with pytest.raises(SequenceError, match="need k >= 1, got 0"):
        hankel_determinant(seq, 0)


def test_determinant_conjecture(seq14, diag80):
    rep = verify_determinant_conjecture(4, seq14)
    assert rep.passed, rep.render(True)
    assert any("not 9^T(1)" in n for n in rep.notes)
    # past the k <= 6 of the acceptance suite: k = 2..40 from s <= 80
    rep = verify_determinant_conjecture(40, nprime_sequence(80, diag80[0]))
    assert rep.passed, rep.render(True)
    assert len(rep.checks) == 39


def test_diagonal_recurrence_conjecture(diag80):
    # Conjectured order-2 recurrence of the leftmost diagonal, checked to
    # s = 80 by arithmetic that shares no code with the reduction chain:
    # 8(n+1) L_{n+2} = (10n+3) L_{n+1} - 2(n-1) L_n.
    L = [None] + diag80[0]
    for n in range(1, 79):
        assert 8 * (n + 1) * L[n + 2] == \
            (10 * n + 3) * L[n + 1] - 2 * (n - 1) * L[n], n


def test_lhrcc_exclusion(seq14, diag80):
    rep = lhrcc_ruled_out(4, seq14)
    assert rep.passed, rep.render(True)
    # every order the numerators n'_2..n'_80 reach: orders 1..39
    rep = lhrcc_ruled_out(39, nprime_sequence(80, diag80[0]))
    assert rep.passed, rep.render(True)
    assert len(rep.checks) == 39


def test_lhrcc_finds_the_row0_recursion():
    # 3^(2s-1) - 1 obeys N_{s+1} = 9 N_s + 8, so every window of size >= 3
    # is singular and condensation divides by zero from size 5 on.
    seq = NumeratorSequence([3 ** (2 * s - 1) - 1 for s in range(1, 16)])
    assert lhrcc_ruled_out(6, seq).render(True).splitlines() == [
        "[FAIL] lhrcc-exclusion (1/6 checks)",
        "    ok  order 1: all 13 windows of size 2 nonsingular",
        *(f"    FAIL order {r}: all {15 - 2 * r} windows of size {r + 1} "
          f"nonsingular -- zero window at start 2" for r in range(2, 7))]
    for start in range(2, 15):
        assert hankel_determinant(seq, 2, start) == -192 * 9 ** (start - 2)
    for k in range(3, 9):
        assert [hankel_determinant(seq, k, start)
                for start in range(2, 19 - 2 * k)] == [0] * (17 - 2 * k)


def test_row0_numerators_do_satisfy_a_recursion():
    # N = 9N' + 8 is an order-2 LHRCC after homogenization, so every 3x3
    # window is singular; the diagonal's numerators behave the opposite way
    nums = [3 ** (2 * s - 1) - 1 for s in range(1, 8)]
    det3 = cofactor_determinant([[nums[a + b] for b in range(3)]
                                 for a in range(3)])
    assert nums[:4] == [2, 26, 242, 2186]
    assert all(b == 9 * a + 8 for a, b in zip(nums, nums[1:]))
    assert det3 == 0
    # while 2x2 windows stay nonsingular
    assert cofactor_determinant([[nums[0], nums[1]],
                                 [nums[1], nums[2]]]) != 0


def test_symbolic_diagonal_small():
    forms = symbolic_diagonal(3)
    assert forms[0] == reference_diagonal_formula(1)
    assert forms[1] == reference_diagonal_formula(2)
    assert forms[2] == reference_diagonal_formula(3)
    assert [f.eval(9) for f in forms] == [F(2, 3), F(1, 2), F(13, 32)]


def full_grid_symbolic_reads(S):
    """Oracle: reduce the whole symbolic start grid with reduce_once, reading
    diagonals 1..s of row 2s-1 after s-1 further reductions."""
    g = symbolic_start_grid(4 * S - 1)
    out = []
    for s in range(1, S + 1):
        if s > 1:
            g = reduce_once(g)
        out.append({d: g.triangle(2 * s - 1, d) for d in range(1, s + 1)})
    return out


def test_symbolic_chain_matches_full_grid_reduction():
    # L_s(x) does not depend on the start size once the grid is large
    # enough, so one 27-grid serves every chain length up to 7.  The
    # diagonal never reads a right boundary label 1 - 3/x; the
    # full-width chain does, from its first step on.
    full = full_grid_symbolic_reads(7)
    for S in range(1, 8):
        assert symbolic_diagonal(S) == [r[1][0] for r in full[:S]], S
    boundary = 1 - 3 / RationalFunction.x()
    assert _reduce_chain(7, 7, boundary) == full


def test_symbolic_diagonal_pinned_at_x9_through_s12():
    forms = symbolic_diagonal(12)
    assert [f.eval(9) for f in forms] == diagonal_sequence(12)
    x1 = Polynomial((-1, 1))
    for s, f in enumerate(forms[1:], start=2):
        c = f.denominator_constant()
        assert f.denominator == c * x1 ** (s - 1), s
    with pytest.raises(SequenceError):
        symbolic_diagonal(0)


def test_symbolic_diagonal_is_the_same_over_the_prs_gcd(monkeypatch):
    # GCDHEU accepts only a candidate that divides both sides, so turning it
    # off (every gcd then runs the PRS) must leave each L_s(x) unchanged.
    forms = symbolic_diagonal(12)
    monkeypatch.setattr(polynomial, "_heu_gcd", lambda a, b: None)
    assert symbolic_diagonal(12) == forms


def test_symbolic_patterns_report(diag14):
    forms = symbolic_diagonal(7)
    rep = verify_symbolic_patterns(4, diag14, forms)
    assert rep.passed, rep.render(True)
    assert any("(x-3)/(x-1)" in n and "3/4" in n for n in rep.notes)
    with pytest.raises(SequenceError):
        verify_symbolic_patterns(8, diag14, forms)
    with pytest.raises(SequenceError, match=r"need L_1\(x\)\.\.L_4\(x\), "
                                            r"got 3 formulas"):
        verify_symbolic_patterns(4, diag14, forms[:3])


@pytest.fixture(scope="module")
def rows29(diag80):
    """Asymptotic rows s = 1..29; row s - 1 holds A_s and P_s."""
    return asymptotics_table(list(range(1, 30)), diag80[0])


def test_product_approximation_telescopes(rows29):
    A = [row.A for row in rows29]
    assert A[0] == F(2, 3)
    assert A[1] == F(4, 9)
    for s in range(2, 30):
        assert A[s - 1] / A[s - 2] == F(2 * s - 2, 2 * s - 1)


def test_sqrt_approximation_converges_to_product(rows29):
    # |A/P - 1| decreasing, below 1% by s = 13
    gaps = [abs(float(rows29[s - 1].A) / rows29[s - 1].P - 1)
            for s in range(3, 21)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[10] < 0.01  # s = 13


def test_render_4dp():
    assert render_4dp(F(2, 3)) == "0.6667"
    assert render_4dp(F(1, 2)) == "0.5"
    assert render_4dp(F(0)) == "0"
    assert render_4dp(F(9, 8)) == "1.125"
    assert render_4dp(F(1)) == "1"
    assert render_4dp(F(13, 32)) == "0.4063"  # exact tie rounds up
    assert render_4dp(F(1, 18)) == "0.0556"
    assert render_4dp(F(-1, 18)) == "-0.0556"


@pytest.mark.parametrize("sign", [1, -1])
def test_render_4dp_rounds_the_exact_value_once(sign):
    tie, eps = F(12345, 10 ** 5), F(1, 10 ** 40)
    mark = "-" if sign < 0 else ""
    assert render_4dp(sign * (tie - eps)) == mark + "0.1234"
    assert render_4dp(sign * tie) == mark + "0.1235"
    assert render_4dp(sign * (tie + eps)) == mark + "0.1235"
    assert render_4dp(sign * F(10 ** 30)) == mark + "1" + "0" * 30
    assert render_4dp(sign * F(1, 20001)) == "0"  # no "-0"
    assert render_4dp(sign * 0.125) == mark + "0.125"  # floats exactly too
    assert render_4dp(sign * 0.00015) == mark + "0.0001"  # binary64 < tie


def test_asymptotics_first_rows(diag14):
    rows = asymptotics_table([1, 2], diag14)
    r1 = rows[0].columns()
    assert r1["L"] == "0.6667" and r1["A"] == "0.6667"
    assert r1["L-A"] == "0" and r1["L/A"] == "1"
    assert r1["P"] == "0.5908" and r1["A/P"] == "1.1284"
    r2 = rows[1].columns()
    assert r2["L"] == "0.5" and r2["L/A"] == "1.125" and r2["L-P"] == "0.0822"


def test_monotonicity_small(diag14):
    rep = verify_monotonicity(14, diag14)
    assert rep.passed, rep.render(True)
    with pytest.raises(SequenceError):
        verify_monotonicity(3, diag14)


def test_monotonicity_names_the_first_failures(diag14, monkeypatch):
    # a raised L_6 breaks both exact gaps at s = 5, and a larger P_7 and
    # P_9 both float gaps at s = 7
    wrong = list(diag14)
    wrong[5] += F(1, 10)
    sqrt_pi = sequences.sqrt_pi_approximation
    monkeypatch.setattr(sequences, "sqrt_pi_approximation",
                        lambda s: sqrt_pi(s) * (1.5 if s in (7, 9) else 1))
    rep = verify_monotonicity(14, wrong)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("L-A strictly decreasing for s >= 3 (exact)",
         "first violation at s=5"),
        ("L/A strictly decreasing for s >= 3 (exact)",
         "first violation at s=5"),
        ("A-P decreasing for s >= 3 (float, 1e-12)", "first violation at s=7"),
        ("A/P decreasing for s >= 3 (float, 1e-12)", "first violation at s=7"),
    ]
    assert len(rep.checks) == 5


@pytest.mark.parametrize("suite", [
    lambda diag: nprime_sequence(6, diag),
    lambda diag: verify_denominator_divisibility(6, diag),
    lambda diag: asymptotics_table([2, 6], diag),
    lambda diag: verify_monotonicity(6, diag),
    lambda diag: verify_symbolic_patterns(6, diag, symbolic_diagonal(6)),
], ids=["nprime", "divisibility", "asymptotics", "monotonicity", "symbolic"])
def test_suites_refuse_a_short_diagonal(diag14, suite):
    with pytest.raises(SequenceError, match=r"need L_1\.\.L_6, got 5 values"):
        suite(diag14[:5])


def test_lhrcc_refuses_a_short_sequence(diag14):
    # order 3 reads the 4x4 window n'_2..n'_8; a sequence to n'_7 has none
    with pytest.raises(SequenceError, match="need n'_2..n'_8, got n'_2..n'_7"):
        lhrcc_ruled_out(3, nprime_sequence(7, diag14))

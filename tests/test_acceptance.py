"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact except where a criterion itself states a
floating tolerance; no tolerances are loosened here.
"""

import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from circuitarray.circuit_array import (build_array, closed_form_row,
                                        verify_row_recursions,
                                        verify_uniform_center)
from circuitarray.fields import format_rational
from circuitarray.graphs import (effective_resistance, r_formula_straight,
                                 straight_2tree, verify_fib_identities)
from circuitarray.properties import (dual_pipeline_suite, field_axiom_suite,
                                     metric_suite, symmetry_suite,
                                     transform_soundness_suite)
from circuitarray.sequences import (asymptotics_table, cofactor_determinant,
                                    hankel_determinant, hankel_matrix,
                                    lhrcc_ruled_out, nprime_sequence,
                                    symbolic_diagonal, triangular,
                                    verify_determinant_conjecture,
                                    verify_monotonicity,
                                    verify_symbolic_patterns)

EXPECTED_COLUMNS = {
    1: ["2/3"],
    2: ["26/27", "13/12", "1/2"],
    3: ["242/243", "121/120", "89/100", "1157/960", "13/32"],
    4: ["2186/2187", "1093/1092", "16243/16562", "1965403/1904448",
        "305041/380192", "224369/167424", "89/256"],
    5: ["19682/19683", "9841/9840", "335209/336200", "366383437/364552320",
        "1303624379/1372554304", "19373074829/18067568640",
        "296645909/412902400", "46041023/31211520", "2521/8192"],
    6: ["177146/177147", "88573/88572", "108912805/108958322",
        "1071810914005/1071023961216", "9044690242835/9138722473024",
        "308084703953915/303469074613248", "31631261501245/34990560891392",
        "112546800611915/99980909002752", "320676092095/495976128512",
        "4910281495/3059613696", "18263/65536"],
}

# frozen asymptotics rows, every digit as rendered: s -> (L, A, L-A, L/A, P, A-P, A/P, L-P, L/P)
EXPECTED_ASYMPTOTICS = {
    1: ("0.6667", "0.6667", "0", "1", "0.5908", "0.0758", "1.1284", "0.0758", "1.1284"),
    2: ("0.5", "0.4444", "0.0556", "1.125", "0.4178", "0.0267", "1.0638", "0.0822", "1.1968"),
    3: ("0.4063", "0.3556", "0.0507", "1.1426", "0.3411", "0.0144", "1.0424", "0.0651", "1.191"),
    4: ("0.3477", "0.3048", "0.0429", "1.1407", "0.2954", "0.0094", "1.0317", "0.0522", "1.1769"),
    5: ("0.3077", "0.2709", "0.0368", "1.136", "0.2642", "0.0067", "1.0253", "0.0435", "1.1647"),
    8: ("0.2387", "0.2122", "0.0265", "1.125", "0.2089", "0.0033", "1.0157", "0.0298", "1.1427"),
    16: ("0.1658", "0.1489", "0.017", "1.1141", "0.1477", "0.0012", "1.0078", "0.0181", "1.1228"),
    24: ("0.1346", "0.1212", "0.0134", "1.1103", "0.1206", "0.0006", "1.0052", "0.014", "1.1161"),
    32: ("0.1162", "0.1049", "0.0114", "1.1084", "0.1044", "0.0004", "1.0039", "0.0118", "1.1127"),
    40: ("0.1038", "0.0937", "0.0101", "1.1072", "0.0934", "0.0003", "1.0031", "0.0103", "1.1107"),
    48: ("0.0946", "0.0855", "0.0091", "1.1065", "0.0853", "0.0002", "1.0026", "0.0093", "1.1094"),
    56: ("0.0875", "0.0791", "0.0084", "1.1059", "0.079", "0.0002", "1.0022", "0.0086", "1.1084"),
    64: ("0.0818", "0.074", "0.0078", "1.1055", "0.0739", "0.0001", "1.002", "0.008", "1.1077"),
    72: ("0.0771", "0.0697", "0.0073", "1.1052", "0.0696", "0.0001", "1.0017", "0.0075", "1.1071"),
    80: ("0.0731", "0.0662", "0.0069", "1.105", "0.0661", "0.0001", "1.0016", "0.007", "1.1067"),
}

COLUMN_ORDER = ("L", "A", "L-A", "L/A", "P", "A-P", "A/P", "L-P", "L/P")


def ok(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:>2} {name}: PASS")


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    arr = build_array(6)
    elapsed = time.perf_counter() - t0
    for j, expected in EXPECTED_COLUMNS.items():
        got = [format_rational(v) for v in arr.column(j)]
        assert got == expected, f"column {j}: {got}"
    total = sum(len(v) for v in EXPECTED_COLUMNS.values())
    assert total == 36
    assert elapsed < 10, f"build_array(6) took {elapsed:.2f}s (budget 10s)"
    ok(1, f"table reproduction, all {total} fractions exact in {elapsed:.2f}s")


def test_criterion_02_dual_pipeline():
    rep = dual_pipeline_suite(seed=0)
    assert rep.passed, rep.render(True)
    ok(2, "dual-pipeline equality (all-one n=3..8 + 25 random grids)")


def test_criterion_03_transform_soundness():
    rep = transform_soundness_suite(seed=0, graphs=100)
    assert rep.passed, rep.render(True)
    ok(3, "transform soundness on 100 random graphs, exact")


def test_criterion_04_closed_forms():
    arr = build_array(10)
    for i, smin in ((0, 1), (1, 2), (2, 2)):
        for s in range(smin, 11):
            assert closed_form_row(i, s) == arr.entry(i, s), (i, s)
    row2 = [format_rational(arr.entry(2, s)) for s in range(2, 7)]
    assert row2 == ["1/2", "89/100", "16243/16562", "335209/336200",
                    "108912805/108958322"]
    ok(4, "closed forms rows 0..2 equal array entries, s <= 10")


def test_criterion_05_recursions():
    arr = build_array(8)
    rep = verify_row_recursions(arr)
    assert rep.passed, rep.render(True)
    from circuitarray.circuit_array import row_recursion
    assert row_recursion(4, [F(2, 3), F(1, 2), F(13, 32)]) == F(305041, 380192)
    ok(5, "row recursions 0..4 through column 8, worked examples included")


def test_criterion_06_uniform_center():
    for s in range(1, 5):
        for n in (4 * s, 4 * s + 2):
            rep = verify_uniform_center(n, s)
            assert rep.passed, (s, n, rep.render(True))
    ok(6, "uniform center for s = 1..4, n = 4s and 4s+2")


def test_criterion_07_hankel_conjecture(diag80):
    values, _ = diag80
    seq = nprime_sequence(14, values[:14])
    for k in range(2, 7):
        det = hankel_determinant(seq, k)
        assert det == 9 ** triangular(k - 1), (k, det)
        assert det == cofactor_determinant(hankel_matrix(seq, k)), k
    assert hankel_determinant(seq, 2) == 9
    assert hankel_determinant(seq, 3) == 729
    rep = verify_determinant_conjecture(6, seq)
    assert rep.passed
    assert any("not 9^T(1)" in n for n in rep.notes), "indexing note missing"
    excl = lhrcc_ruled_out(6, seq)
    assert excl.passed, excl.render(True)
    ok(7, "Hankel determinants = 9^T(k-1) for k = 2..6 (oracle-confirmed), "
          "LHRCC excluded through order 6")


def test_criterion_08_denominator_divisibility(diag80):
    values, _ = diag80
    for s in range(2, 21):
        L = values[s - 1]
        assert (2 ** (4 * s - 7)) % L.denominator == 0, s
    ok(8, "d_s divides 2^(4s-7) for s = 2..20")


def test_criterion_09_symbolic_pipeline(diag80):
    values, _ = diag80
    rep = verify_symbolic_patterns(7, values[:7], symbolic_diagonal(7))
    assert rep.passed, rep.render(True)
    assert any("(x-3)/(x-1)" in n for n in rep.notes), "s=1 finding missing"
    ok(9, "symbolic formulas s = 2..7 canonical, constants 3*2^(4(s-3)+1), "
          "values at x=9 exact; s=1 variant flagged")


def test_criterion_10_asymptotics(diag80):
    values, elapsed = diag80
    assert elapsed < 60, f"diagonal to s=80 took {elapsed:.1f}s (budget 60s)"
    rows = asymptotics_table(sorted(EXPECTED_ASYMPTOTICS), values)
    for row in rows:
        got = row.columns()
        expected = EXPECTED_ASYMPTOTICS[row.s]
        for name, want in zip(COLUMN_ORDER, expected):
            assert got[name] == want, (row.s, name, got[name], want)
    rep = verify_monotonicity(80, values)
    assert rep.passed, rep.render(True)
    ok(10, f"asymptotics tables match all frozen digits; monotone from s=3; "
           f"diagonal to s=80 in {elapsed:.1f}s")


def test_criterion_11_fibonacci_identities():
    rep = verify_fib_identities()
    assert rep.passed, rep.render(True)
    for n in range(3, 13):
        g = straight_2tree(n)
        for u, v in combinations(range(1, n + 1), 2):
            assert r_formula_straight(n, u, v) == effective_resistance(g, u, v)
    ok(11, "identities exact (m <= 50, n <= 30); 2-tree formula = oracle, "
           "all pairs n <= 12")


def test_criterion_12_property_suites():
    for seed in (0, 1, 2):
        assert field_axiom_suite("rational", seed=seed).passed
        assert field_axiom_suite("symbolic", seed=seed, rounds=20).passed
        assert metric_suite(seed=seed).passed
        assert symmetry_suite(seed=seed).passed
    ok(12, "field, metric, and symmetry property suites under 3 seeds")

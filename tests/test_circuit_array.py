"""Circuit array construction, recursions, closed forms, uniform center."""

import random
from fractions import Fraction as F

import pytest

from circuitarray import circuit_array, reduction
from circuitarray.circuit_array import (ArrayError, Provenance, _g0, _g1, _g2,
                                        _g3, _g4, build_array,
                                        build_array_direct, closed_form_row,
                                        diagonal_sequence, entry_position,
                                        reduce_window, row_recursion,
                                        verify_closed_forms,
                                        verify_composition_spotchecks,
                                        verify_row01_recurrences,
                                        verify_row_recursions,
                                        verify_uniform_center)
from circuitarray.grid import Grid, GridError, all_one_grid
from circuitarray.reduction import (delta, reduce_array, reduce_diagonal,
                                    reduce_k, reduce_once, wye)

# frozen expected values: columns 1..6, rows 0..2(j-1)
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


@pytest.fixture(scope="module")
def arr6():
    return build_array(6)


def test_layout_positions():
    assert entry_position(0, 2) == (2, "L")
    assert entry_position(1, 2) == (1, "R")
    assert entry_position(2, 2) == (1, "L")
    assert entry_position(3, 3) == (1, "R")
    assert entry_position(4, 3) == (1, "L")
    with pytest.raises(ArrayError):
        entry_position(3, 2)


def test_expected_columns(arr6):
    for j, values in EXPECTED_COLUMNS.items():
        assert arr6.column(j) == [F(v) for v in values], f"column {j}"


def test_entry_examples(arr6):
    assert arr6.entry(0, 2) == F(26, 27)
    assert arr6.entry(4, 4) == F(305041, 380192)
    assert arr6.entry(10, 6) == F(18263, 65536)
    with pytest.raises(ArrayError):
        arr6.entry(3, 2)
    with pytest.raises(ArrayError):
        arr6.entry(0, 7)


def test_windowed_build_matches_direct_reductions():
    fast = build_array(4)
    slow = build_array_direct(4)
    assert fast.columns == slow.columns


def test_reference_read_runs_no_chain(monkeypatch):
    chain_reads = reduce_array(3)
    chain_array = build_array(3)

    def no_chain(*args, **kwargs):
        raise AssertionError("the reference read ran the reduction chain")

    monkeypatch.setattr(reduction, "_reduce_chain", no_chain)
    assert reduce_window(3) == chain_reads[-1]
    assert build_array_direct(3).columns == chain_array.columns


def test_columns_independent_of_start_size():
    for j in range(1, 6):
        bigger = reduce_k(all_one_grid(4 * j + 2), j)
        assert reduce_window(j) == {d: bigger.triangle(2 * j - 1, d)
                                    for d in range(1, j + 1)}, \
            f"column {j} changed with start size"


def test_provenance_records_reads(arr6):
    p = arr6.provenance(0, 3)
    assert (p.n, p.reductions, p.r, p.d, p.side) == (12, 3, 5, 3, "L")
    with pytest.raises(ArrayError):
        arr6.provenance(0, 7)


def test_row_recursion_worked_examples():
    assert row_recursion(0, [F(2, 3)]) == F(26, 27)
    assert row_recursion(1, [F(2, 3)]) == F(13, 12)
    assert row_recursion(1, [F(26, 27)]) == F(121, 120)
    assert row_recursion(2, [F(2, 3), F(1, 2)]) == F(89, 100)
    assert row_recursion(2, [F(26, 27), F(89, 100)]) == F(16243, 16562)
    assert row_recursion(3, [F(2, 3), F(1, 2)]) == F(1157, 960)
    assert row_recursion(4, [F(2, 3), F(1, 2), F(13, 32)]) == F(305041, 380192)
    with pytest.raises(ArrayError):
        row_recursion(2, [F(1)])
    with pytest.raises(ArrayError):
        row_recursion(5, [F(1)])


def test_row4_recursion_is_the_neighborhood_composition():
    # wye/delta over the read edge's neighborhood, written with the
    # previous column's rows 1..4
    rng = random.Random(11)
    for _ in range(12):
        X = F(rng.randint(1, 9), rng.randint(1, 9))
        Y = F(rng.randint(1, 9), rng.randint(1, 9))
        Z = F(rng.randint(1, 9), rng.randint(1, 9))
        g1, g2, g3 = _g1(_g0(X)), _g2(X, Y), _g3(X, Y)
        composed = wye(delta(g3, g3, Z), delta(g1, g2, g1),
                       delta(g2, g1, g1))
        assert composed == row_recursion(4, [X, Y, Z])


# -- operator forms: the references for the integer forms ---------------------

def g0_ref(X):
    return (X + 8) / 9

def g1_ref(X):
    return (X + 8) / (3 * (X + 2))

def g2_ref(X, Y):
    return (9 * Y * (X + 2) ** 2 + 8 * (X + 8) ** 2) / (X + 26) ** 2

def g3_ref(X, Y):
    num = 9 * Y * (X + 2) ** 2 * (X + 8) + 8 * (X + 8) ** 3
    den = 9 * Y * (X + 2) ** 2 * (X + 26) + 6 * (X + 2) * (X + 8) * (X + 26)
    return num / den

def g4_ref(X, Y, Z):
    q = 13 * X ** 2 + 298 * X + 2848
    num = (512 * (X + 8) ** 5 * (X + 80)
           + 1152 * (X + 2) ** 2 * (X + 8) ** 3 * (X + 80) * Y
           + 648 * (X + 2) ** 4 * (X + 8) * (X + 80) * Y ** 2
           + 36 * (X + 2) ** 2 * (X + 8) ** 2 * (X + 80) ** 2 * Z
           + 108 * (X + 2) ** 3 * (X + 8) * (X + 80) ** 2 * Y * Z
           + 81 * (X + 2) ** 4 * (X + 80) ** 2 * Y ** 2 * Z)
    den = (4 * (X + 8) ** 2 * q ** 2
           + 108 * (X + 2) ** 2 * (X + 8) ** 2 * q * Y
           + 729 * (X + 2) ** 4 * (X + 8) ** 2 * Y ** 2)
    return num / den

def closed_form_ref(i, s):
    if i == 0:
        return 1 - F(3, 9 ** s)
    if i == 1:
        return 1 + F(2, 3) / (9 ** (s - 1) - 1)
    n = 2 * (s - 2)
    d = (3 ** (s - 1) - 1) // 2
    N = F(n * 3 ** (n + 1), 4) + F(5 * 3 ** (n + 1) + (-1) ** n, 16)
    D = F(d * d * (d + 1) * (d + 1), 2)
    return 1 - N / D


INTEGER_FORMS = [(0, _g0, g0_ref, 1), (1, _g1, g1_ref, 1), (2, _g2, g2_ref, 2),
                 (3, _g3, g3_ref, 2), (4, _g4, g4_ref, 3)]


def random_rational(rng, bits):
    return F(rng.choice((-1, 1)) * rng.getrandbits(bits),
             rng.getrandbits(bits) + 1)


@pytest.mark.parametrize("row, fast, ref, arity", INTEGER_FORMS)
def test_recursion_integer_forms_match_operator_forms(row, fast, ref, arity):
    rng = random.Random(2300 + row)
    sizes = set()
    for k in range(40):
        # every fourth draw has a 520-bit numerator and denominator
        args = [random_rational(rng, 520 if k % 4 == 0 else rng.randint(1, 40))
                for _ in range(arity)]
        sizes.add(args[0].numerator.bit_length() >= 500)
        got = fast(*args)
        assert type(got) is F
        assert got == ref(*args), (row, args)
        assert row_recursion(row, args) == got
    assert sizes == {True, False}


def test_closed_form_integer_forms_match_operator_forms():
    for i, smin in ((0, 1), (1, 2), (2, 2)):
        for s in range(smin, 61):
            got = closed_form_row(i, s)
            assert type(got) is F
            assert got == closed_form_ref(i, s), (i, s)


def test_recursion_poles_raise_in_both_forms():
    rng = random.Random(23)
    X = random_rational(rng, 30)
    Y = random_rational(rng, 30)
    Z = random_rational(rng, 30)
    poles = [
        (1, [F(-2)]),
        (2, [F(-26), Y]),
        (3, [F(-2), Y]),
        (3, [F(-26), Y]),
        # 9Y(X+2) + 6(X+8) = 0
        (3, [X, -2 * (X + 8) / (3 * (X + 2))]),
        (4, [F(-8), Y, Z]),
        # 2q + 27(X+2)^2 Y = 0
        (4, [X, -2 * (13 * X ** 2 + 298 * X + 2848) / (27 * (X + 2) ** 2), Z]),
    ]
    for row, args in poles:
        _, fast, ref, _ = INTEGER_FORMS[row]
        with pytest.raises(ZeroDivisionError):
            ref(*args)
        with pytest.raises(ZeroDivisionError):
            fast(*args)
        with pytest.raises(ArrayError, match="zero denominator"):
            row_recursion(row, args)


def test_verify_row_recursions_through_column_8():
    arr = build_array(8)
    rep = verify_row_recursions(arr)
    assert rep.passed, rep.render(True)
    assert any("1965403/1904448" in n for n in rep.notes)


def test_verify_row_recursions_names_the_first_failure(arr6, monkeypatch):
    # row 2 is wrong from column 4 on; the count stops at the failure
    recursion = circuit_array.row_recursion

    def wrong_from_column_4(i, args):
        value = recursion(i, args)
        return 2 * value if i == 2 and args[0] != F(2, 3) else value

    monkeypatch.setattr(circuit_array, "row_recursion", wrong_from_column_4)
    rep = verify_row_recursions(arr6)
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("row 0, columns 2..6 (5 identities)", True, ""),
        ("row 1, columns 2..6 (5 identities)", True, ""),
        ("row 2, columns 3..6 (2 identities)", False,
         "column 4: recursion gives 16243/8281, array holds 16243/16562"),
        ("row 3, columns 3..6 (4 identities)", True, ""),
        ("row 4, columns 4..6 (3 identities)", True, ""),
    ]


def test_closed_forms():
    assert closed_form_row(0, 4) == F(2186, 2187)
    assert closed_form_row(1, 2) == F(13, 12)
    assert closed_form_row(2, 3) == 1 - F(22, 200) == F(89, 100)
    assert closed_form_row(2, 2) == F(1, 2)
    with pytest.raises(ArrayError):
        closed_form_row(1, 1)
    with pytest.raises(ArrayError):
        closed_form_row(3, 3)


def test_verify_closed_forms(arr6):
    rep = verify_closed_forms(arr6)
    assert rep.passed, rep.render(True)


def test_verify_closed_forms_names_the_first_failure(arr6, monkeypatch):
    closed_form = circuit_array.closed_form_row
    monkeypatch.setattr(circuit_array, "closed_form_row",
                        lambda i, s: closed_form(i, s) + (i == 1 and s >= 4))
    rep = verify_closed_forms(arr6)
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("row 1, s = 2..6", "s=4: closed form 2185/1092 != entry 1093/1092")]
    assert len(rep.checks) == 3


def test_row01_recurrences(arr6):
    rep = verify_row01_recurrences(arr6)
    assert rep.passed, rep.render(True)


def test_uniform_center_reports():
    for n, s in ((4, 1), (8, 2), (16, 4), (12, 2), (16, 3), (18, 4), (20, 4)):
        rep = verify_uniform_center(n, s)
        assert rep.passed, (n, s, rep.render(True))
    with pytest.raises(ArrayError):
        verify_uniform_center(7, 2)


def test_uniform_center_names_the_first_row_where_right_leaves_base(
        monkeypatch):
    # rows 5..7 of diagonal 2 form the band; right labels raised on 6 and 7
    reduce = circuit_array.reduce_k

    def raised(grid, k):
        g = reduce(grid, k)
        tri = dict(g._tri)
        for r in (6, 7):
            L, R, B = tri[(r, 2)]
            tri[(r, 2)] = (L, R + 1, B)
        return Grid(g.m, tri, reductions=g.reductions)

    monkeypatch.setattr(circuit_array, "reduce_k", raised)
    rep = verify_uniform_center(16, 3)
    failed = {c.name: c.detail for c in rep.failures()}
    assert list(failed) == ["(a) diagonal 2: rows 5..7 equal",
                            "(c) diagonal 2: right = base inside the band"]
    assert failed["(a) diagonal 2: rows 5..7 equal"] == "row 6"
    assert failed["(c) diagonal 2: right = base inside the band"] == "row 6"


def test_uniform_center_nonvacuous_band():
    rep = verify_uniform_center(12, 2)
    named = [c.name for c in rep.checks]
    assert any("rows 3..6" in n for n in named)


def test_composition_spotchecks(arr6):
    rep = verify_composition_spotchecks(2, arr6)
    assert rep.passed, rep.render(True)
    assert any("89/100" in (c.detail or "") for c in rep.checks)
    assert any("collapsing the band" in n for n in rep.notes)


def test_diagonal_sequence():
    diag = diagonal_sequence(6)
    assert diag == [F(2, 3), F(1, 2), F(13, 32), F(89, 256),
                    F(2521, 8192), F(18263, 65536)]
    arr = build_array(4)
    assert [c[-1] for c in arr.columns] == diag[:4]


def test_installed_gmpy2_does_not_change_the_rational_type(monkeypatch):
    # an importable gmpy2 whose mpq is a Fraction subclass: any value built
    # from it would fail the exact type check below
    import sys
    import types
    fake = types.ModuleType("gmpy2")
    fake.mpq = type("mpq", (F,), {})
    monkeypatch.setitem(sys.modules, "gmpy2", fake)
    values = list(diagonal_sequence(6))
    values += [v for col in build_array(4).columns for v in col]
    values += [v for t in reduce_window(3).values() for v in t]
    assert len(values) == 6 + 16 + 9
    assert all(type(v) is F for v in values)


def test_diagonal_chain_matches_oracle():
    chain = reduce_diagonal(40)
    assert diagonal_sequence(20) == chain[:20]
    assert [c[-1] for c in build_array_direct(6).columns] == chain[:6]
    with pytest.raises(GridError):
        reduce_diagonal(0)


def test_array_chain_matches_80_grid_oracle():
    chain = reduce_array(20)
    assert len(chain) == 20
    # one reduce_once pass over the all-one 80-grid holds every column
    # j <= 20 at full width: row 2j-1 after j reductions
    arr = build_array(20)
    g = all_one_grid(80)
    for j in range(1, 21):
        g = reduce_once(g)
        row = 2 * j - 1
        assert chain[j - 1] == {d: g.triangle(row, d)
                                for d in range(1, j + 1)}, j
        for i, value in enumerate(arr.column(j)):
            d, side = entry_position(i, j)
            assert value == g.label(row, d, side), (i, j)
            assert arr.provenance(i, j) == Provenance(4 * j, j, row, d, side)
    assert [t[1][0] for t in chain] == reduce_diagonal(20)
    with pytest.raises(GridError):
        reduce_array(0)
    with pytest.raises(ArrayError):
        build_array(0)


def test_validate_rejects_corrupt_columns():
    arr = build_array(3)
    arr.columns[2][0] += 1
    with pytest.raises(ArrayError, match="cross-check"):
        arr.validate()
    for bad in (F(0), F(-1, 3)):
        arr = build_array(3)
        arr.columns[2][3] = bad
        with pytest.raises(ArrayError, match="non-positive"):
            arr.validate()

"""Circuit array construction, recursions, closed forms, uniform center."""

import random
from fractions import Fraction as F

import pytest

from circuitarray.circuit_array import (ArrayError, Provenance,
                                        array_position, build_array,
                                        build_array_direct, closed_form_row,
                                        diagonal_sequence, entry_position,
                                        row_recursion, verify_closed_forms,
                                        verify_composition_spotchecks,
                                        verify_row01_recurrences,
                                        verify_row_recursions,
                                        verify_uniform_center)
from circuitarray.fields import RATIONALS
from circuitarray.grid import GridError, all_one_grid
from circuitarray.reduction import (delta, reduce_array, reduce_diagonal,
                                    reduce_once, reduce_window, wye)

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


def test_array_position_classifier():
    assert array_position(3, 5, 2, "R") == (1, 3)
    assert array_position(3, 5, 3, "L") == (0, 3)
    assert array_position(3, 5, 1, "L") == (4, 3)
    assert array_position(3, 5, 3, "R") is None  # would be row -1
    assert array_position(3, 4, 2, "L") is None  # off the read row
    assert array_position(2, 3, 1, "B") is None


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


def test_columns_independent_of_start_size():
    for j in range(1, 6):
        base = reduce_window(j, 4 * j, j, field=RATIONALS)
        bigger = reduce_window(j, 4 * j + 2, j, field=RATIONALS)
        assert base == bigger, f"column {j} changed with start size"


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
    from circuitarray.circuit_array import _g0, _g1, _g2, _g3
    rng = random.Random(11)
    for _ in range(12):
        X = F(rng.randint(1, 9), rng.randint(1, 9))
        Y = F(rng.randint(1, 9), rng.randint(1, 9))
        Z = F(rng.randint(1, 9), rng.randint(1, 9))
        g1, g2, g3 = _g1(_g0(X)), _g2(X, Y), _g3(X, Y)
        composed = wye(delta(g3, g3, Z), delta(g1, g2, g1),
                       delta(g2, g1, g1))
        assert composed == row_recursion(4, [X, Y, Z])


def test_verify_row_recursions_through_column_8():
    arr = build_array(8)
    rep = verify_row_recursions(arr)
    assert rep.passed, rep.render(True)
    assert any("1965403/1904448" in n for n in rep.notes)


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


def test_row01_recurrences(arr6):
    rep = verify_row01_recurrences(arr6)
    assert rep.passed, rep.render(True)


def test_uniform_center_reports():
    for n, s in ((4, 1), (8, 2), (16, 4), (12, 2), (16, 3), (18, 4), (20, 4)):
        rep = verify_uniform_center(n, s)
        assert rep.passed, (n, s, rep.render(True))
    with pytest.raises(ArrayError):
        verify_uniform_center(7, 2)


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
    assert arr.diagonal() == diag[:4]


def test_diagonal_chain_matches_window_reads_and_oracle():
    chain = reduce_diagonal(40, field=RATIONALS)
    for s in range(1, 41):
        assert chain[s - 1] == reduce_window(s, 4 * s, 1, field=RATIONALS)[1][0], s
    assert diagonal_sequence(20) == chain[:20]
    assert build_array_direct(6).diagonal() == chain[:6]
    with pytest.raises(GridError):
        reduce_diagonal(0)


def test_array_chain_matches_window_reads_and_oracle():
    chain = reduce_array(20, field=RATIONALS)
    assert len(chain) == 20
    for j in range(1, 13):
        assert chain[j - 1] == reduce_window(j, 4 * j, j, field=RATIONALS), j
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
    assert [t[1][0] for t in chain] == reduce_diagonal(20, field=RATIONALS)
    with pytest.raises(GridError):
        reduce_array(0)
    with pytest.raises(ArrayError):
        build_array(0)


def test_validate_rejects_corrupt_columns():
    arr = build_array(3)
    arr.columns[2][0] += 1
    with pytest.raises(ArrayError):
        arr.validate()

"""Grid model: counts, symmetry maps, completion, serialization."""

from fractions import Fraction as F

import pytest

from circuitarray.grid import (SIDES, EdgeRef, Grid, GridError, _orbit_key,
                               all_one_grid, corner_distances,
                               determining_triangles, symmetry_complete,
                               triangle_count, validate_edge_ref)
from circuitarray.reduction import reduce_k, reduce_once


def edges(m):
    """Every edge of an m-grid, row by row, sides in SIDES order."""
    return [EdgeRef(r, d, s) for r in range(1, m + 1)
            for d in range(1, r + 1) for s in SIDES]


# The grid's two generating symmetries, kept here as the oracle for the
# orbit rule (``_orbit_key``) that the program uses instead.

def reflect_edge(ref, m):
    """Vertical reflection: (r,d) -> (r, r+1-d) with L and R swapped."""
    r, d, side = ref
    swapped = {"L": "R", "R": "L", "B": "B"}[side]
    return EdgeRef(r, r + 1 - d, swapped)


def rotate_edge(ref, m):
    """Rotation by 2*pi/3: (r,d) -> (m+1-d, r+1-d) with L->B, R->L, B->R.

    Maps the corner triangles cyclically (1,1) -> (m,1) -> (m,m) -> (1,1).
    """
    r, d, side = ref
    mapped = {"L": "B", "R": "L", "B": "R"}[side]
    return EdgeRef(m + 1 - d, r + 1 - d, mapped)


def test_all_one_grid_counts():
    g = all_one_grid(3)
    assert 3 * triangle_count(g.m) == len(list(g.items())) == 18
    assert all(v == 1 for _, v in g.items())
    assert all_one_grid(1).triangle(1, 1) == (1, 1, 1)
    assert 3 * triangle_count(all_one_grid(4).m) == 30
    assert triangle_count(4) == 10


def test_bad_size_rejected():
    with pytest.raises(GridError):
        all_one_grid(0)
    with pytest.raises(GridError):
        all_one_grid(-2)


def test_edge_ref_validation():
    validate_edge_ref(EdgeRef(3, 2, "B"), 3)
    with pytest.raises(GridError):
        validate_edge_ref(EdgeRef(2, 3, "L"), 3)
    with pytest.raises(GridError):
        validate_edge_ref(EdgeRef(4, 1, "L"), 3)
    with pytest.raises(GridError):
        validate_edge_ref(EdgeRef(2, 1, "X"), 3)


def test_reflection_involution_and_rotation_order():
    for m in (1, 2, 3, 7, 10):
        for e in edges(m):
            assert reflect_edge(reflect_edge(e, m), m) == e
            assert rotate_edge(rotate_edge(rotate_edge(e, m), m), m) == e


def test_rotation_cycles_corners():
    m = 5
    assert rotate_edge(EdgeRef(1, 1, "L"), m)[:2] == (m, 1)
    assert rotate_edge(EdgeRef(m, 1, "L"), m)[:2] == (m, m)
    assert rotate_edge(EdgeRef(m, m, "L"), m)[:2] == (1, 1)


def closure_orbits(m):
    """Orbits of the edges of an m-grid, closed under reflect_edge and
    rotate_edge by search: the oracle for ``_orbit_key``."""
    orbits = []
    seen = set()
    for e in edges(m):
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        while frontier:
            f = frontier.pop()
            for image in (reflect_edge(f, m), rotate_edge(f, m)):
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def key_classes(m):
    classes = {}
    for e in edges(m):
        key = _orbit_key(e.r, e.d, SIDES.index(e.side), m)
        classes.setdefault(key, set()).add(e)
    return classes


def test_orbit_key_classes_are_the_symmetry_closure():
    for m in range(1, 16):
        assert (set(map(frozenset, key_classes(m).values()))
                == set(closure_orbits(m))), m


def test_determining_region_meets_every_orbit_once():
    for m in range(1, 31):
        sector = determining_triangles(m)
        # sorted corner distances characterize the sector
        assert sector == [(r, d) for r in range(1, m + 1)
                          for d in range(1, r + 1)
                          if corner_distances(r, d, m)
                          == tuple(sorted(corner_distances(r, d, m)))]
        reached = {_orbit_key(r, d, i, m) for (r, d) in sector
                   for i in range(3)}
        assert reached == set(key_classes(m)), m
        covered = set()
        for orbit in closure_orbits(m):
            if any((e.r, e.d) in sector for e in orbit):
                covered |= orbit
        assert len(covered) == 3 * triangle_count(m)


def test_sector_small_cases():
    assert determining_triangles(3) == [(1, 1), (2, 1)]
    assert determining_triangles(2) == [(1, 1)]
    assert determining_triangles(1) == [(1, 1)]
    # rotation-fixed central triangle included when m = 1 mod 3
    assert (3, 2) in determining_triangles(4)


def test_symmetry_complete_once_reduced_pattern():
    # the 2-grid determined by one triangle: boundary 2/3, base 1
    g = symmetry_complete({(1, 1): (F(2, 3), F(2, 3), F(1))}, 2, reductions=1)
    assert g == reduce_once(all_one_grid(3))


def test_symmetry_complete_single_label_orbit():
    # the three edges of a 1-grid are one orbit
    g = symmetry_complete({(1, 1): (F(5, 7),) * 3}, 1)
    assert g.triangle(1, 1) == (F(5, 7), F(5, 7), F(5, 7))


def test_symmetry_complete_round_trip():
    for n, k in ((5, 1), (9, 2), (12, 3)):
        g = reduce_k(all_one_grid(n), k)
        sector = {t: g.triangle(*t) for t in determining_triangles(g.m)}
        assert symmetry_complete(sector, g.m, reductions=k) == g


def test_symmetry_complete_rejects_bad_input():
    with pytest.raises(GridError, match=r"inconsistent .* at \(1,1,R\)"):
        symmetry_complete({(1, 1): (F(1), F(2), F(1))}, 1)
    with pytest.raises(GridError, match="not reached"):
        symmetry_complete({(1, 1): (F(1), F(1), F(1))}, 3)


def test_positive_labels_enforced_for_rationals():
    for bad in (F(-1), F(0), F(-3, 7), 0, -2):
        with pytest.raises(GridError, match="non-positive"):
            Grid(1, {(1, 1): (F(1), bad, F(1))})
    assert Grid(1, {(1, 1): (F(1, 9), 2, F(1))}).triangle(1, 1) == (F(1, 9), 2, 1)


def test_wrong_triangle_set_rejected():
    with pytest.raises(GridError):
        Grid(2, {(1, 1): (F(1),) * 3})
    with pytest.raises(GridError):
        Grid(1, {(1, 1): (F(1),) * 3, (2, 1): (F(1),) * 3})


def test_json_round_trip():
    g = reduce_k(all_one_grid(6), 2)
    h = Grid.from_json(g.to_json())
    assert h == g
    assert '"value"' in g.to_json() and "." not in g.to_json().split("labels")[1]


@pytest.mark.parametrize("text, needle", [
    ('{"labels": []}', 'no "m"'),
    ('{"m": 1}', 'no "labels"'),
    ('{"m": 1, "labels": {"r": 1}}', '"labels" must be a list'),
    ('{"m": 1, "labels": "L"}', '"labels" must be a list'),
    ('{"m": "1", "labels": []}', '"m" must be a positive integer'),
    ('[1]', "must be an object"),
    ('{"m": 1,', "not valid JSON"),
    ('{"m": 1, "labels": [{"r": 1, "d": 1, "side": "L"}]}', "labels[0]"),
    ('{"m": 1, "labels": [{"r": "1", "d": 1, "side": "L", "value": "1"}]}',
     "labels[0]"),
    ('{"m": 1, "labels": [{"r": 1, "d": 1, "side": "L", "value": 1}]}',
     "labels[0].value"),
    ('{"m": 1, "labels": [{"r": 1, "d": 1, "side": "L", "value": "1/0"}]}',
     "labels[0].value"),
    ('{"m": 1, "reductions": -1, "labels": [{"r": 1, "d": 1, "side": "L", '
     '"value": "1"}, {"r": 1, "d": 1, "side": "R", "value": "1"}, '
     '{"r": 1, "d": 1, "side": "B", "value": "1"}]}', '"reductions"'),
    pytest.param('{"m": 1, "labels": [{"r": 1, "d": 1, "side": "L", '
                 '"value": "1/' + "3" * 4301 + '"}]}',
                 "more than 4300 digits", id="label-past-the-digit-limit"),
])
def test_malformed_grid_json_is_a_one_line_grid_error(text, needle):
    with pytest.raises(GridError) as exc:
        Grid.from_json(text)
    assert needle in str(exc.value) and "\n" not in str(exc.value)


def test_is_symmetric_detects_asymmetry():
    tri = {(r, d): (F(1), F(1), F(1)) for r in range(1, 3) for d in range(1, r + 1)}
    tri[(2, 1)] = (F(2), F(1), F(1))
    assert not Grid(2, tri).is_symmetric()
    assert all_one_grid(4).is_symmetric()


def labelled_by_class(m, mapping):
    """An m-grid whose edges carry one label per class of the partition
    generated by ``mapping``, an involution or a map of order 3."""
    labels = {}
    for e in edges(m):
        if e not in labels:
            value = F(len(labels) + 1)
            f = e
            while f not in labels:
                labels[f] = value
                f = mapping(f, m)
    tri = {(r, d): tuple(labels[EdgeRef(r, d, s)] for s in SIDES)
           for r in range(1, m + 1) for d in range(1, r + 1)}
    return Grid(m, tri)


@pytest.mark.parametrize("m", [2, 3, 4, 7])
@pytest.mark.parametrize("kept, broken", [(reflect_edge, rotate_edge),
                                          (rotate_edge, reflect_edge)])
def test_is_symmetric_needs_both_maps(m, kept, broken):
    g = labelled_by_class(m, kept)
    assert all(g.label(*kept(e, m)) == v for e, v in g.items())
    assert not all(g.label(*broken(e, m)) == v for e, v in g.items())
    assert not g.is_symmetric()

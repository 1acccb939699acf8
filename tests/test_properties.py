"""Randomized property suites run under several distinct seeds."""

import pytest

from circuitarray import properties, reduction
from circuitarray.grid import Grid, GridError, determining_triangles
from circuitarray.properties import (dual_pipeline_suite, field_axiom_suite,
                                     metric_suite, symmetry_suite,
                                     transform_soundness_suite)

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_field_axioms_rational(seed):
    rep = field_axiom_suite("rational", seed=seed, rounds=40)
    assert rep.passed, rep.render(True)


@pytest.mark.parametrize("seed", SEEDS)
def test_field_axioms_symbolic(seed):
    rep = field_axiom_suite("symbolic", seed=seed, rounds=15)
    assert rep.passed, rep.render(True)


@pytest.mark.parametrize("seed", SEEDS)
def test_metric_axioms(seed):
    rep = metric_suite(seed=seed)
    assert rep.passed, rep.render(True)


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_symmetry(seed):
    rep = symmetry_suite(seed=seed)
    assert rep.passed, rep.render(True)


def test_grid_symmetry_fails_when_every_grid_is_called_symmetric(monkeypatch):
    # then every asymmetric grid would be reduced on the sector alone
    monkeypatch.setattr(Grid, "is_symmetric", lambda self: True)
    for seed in SEEDS:
        assert not symmetry_suite(seed=seed).passed, seed


def test_grid_symmetry_fails_when_completion_swaps_sides(monkeypatch):
    complete = reduction.symmetry_complete

    def swapped(sector, m, **kwargs):
        g = complete(sector, m, **kwargs)
        inside = set(determining_triangles(m))
        tri = {t: v if t in inside else (v[1], v[0], v[2])
               for t, v in g._tri.items()}
        return Grid(m, tri, reductions=g.reductions)

    monkeypatch.setattr(reduction, "symmetry_complete", swapped)
    for seed in SEEDS:
        try:
            passed = symmetry_suite(seed=seed).passed
        except GridError:
            continue
        assert not passed, seed


def test_transform_soundness_sample():
    rep = transform_soundness_suite(seed=0, graphs=20)
    assert rep.passed, rep.render(True)


def test_transform_soundness_names_each_kinds_own_first_failure(
        monkeypatch):
    # every series merge raises the merged resistance by 1
    merge = properties.series

    def raised(g, v):
        x, y = g.neighbors(v)
        merge(g, v)
        r = g.resistance_of(x, y)
        g.remove_edge(x, y)
        g.add_edge(x, y, r + 1)

    monkeypatch.setattr(properties, "series", raised)
    rep = transform_soundness_suite(seed=0, graphs=40)
    checks = {c.name.split(":")[0]: c for c in rep.checks}
    assert list(checks) == ["delta_to_wye", "wye_to_delta", "series",
                            "total graphs exercised"]
    for kind in ("delta_to_wye", "wye_to_delta"):
        assert (checks[kind].passed, checks[kind].detail) == (True, "")
    series, total = checks["series"], checks["total graphs exercised"]
    assert not series.passed and not total.passed
    assert series.detail.startswith("first failure (1, 'series', ")
    assert total.detail == series.detail


def test_dual_pipeline_sample():
    # seed 0 is test_criterion_02_dual_pipeline
    for seed in (1, 2):
        rep = dual_pipeline_suite(seed=seed)
        assert rep.passed, rep.render(True)


def test_dual_pipeline_names_the_first_failure_and_draws_no_further(
        monkeypatch):
    graph_reduce = properties.graph_level_reduce
    sizes = []

    def wrong_on_calls_4_and_9(g):
        sizes.append(g.m)
        return None if len(sizes) in (4, 9) else graph_reduce(g)

    monkeypatch.setattr(properties, "graph_level_reduce",
                        wrong_on_calls_4_and_9)
    rep = dual_pipeline_suite(seed=0)
    assert [(c.name, c.passed, c.detail) for c in rep.checks] == [
        ("all-one grids n = 3..8", False, "all-one 6-grid"),
        ("25 random positive-rational grids (n = 3..5)", False,
         "random grid #4 (n=4)"),
    ]
    # each loop stops at its first failure
    assert sizes == [3, 4, 5, 6, 4, 5, 3, 4, 4]


def test_field_kind_validated():
    with pytest.raises(ValueError):
        field_axiom_suite("complex", seed=0)

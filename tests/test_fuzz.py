"""Seeded fuzzing of the CLI and the JSON loaders.

Every input ends in a result, in one ``error:`` line with exit 1 or 2, or,
for a loader called directly, in its own ``GridError``/``GraphError``;
never in a traceback.  Sizes and exponents are drawn large too: a declared
size, a decimal exponent or a power beyond what the document or the
expression can back is refused before anything is built for it.
"""

import json
import random
import tracemalloc

import pytest

from circuitarray.cli import main
from circuitarray.fields import RATIONALS
from circuitarray.graphs import GraphError, WeightedGraph, grid_to_graph
from circuitarray.grid import Grid, GridError, all_one_grid
from circuitarray.ratfunc import RATFUNCS, RationalFunction
from circuitarray.reduction import reduce_once
from circuitarray.sequences import symbolic_start_grid

ATOMS = ("x", "0", "1", "2", "3")
JUNK = ("", " ", "(", "x)", "x^", "^2", "1/0", "abc", "1e3", "2.5", "--1",
        "x^-1", "0^-1", "x^x", "3/(x-x)", "nan", "inf", "(" * 400 + "x"
        + ")" * 400, "-" * 400 + "1", "(1 + 1*x^999999999) / (1*x^1)",
        "1 - 1*x^1000", "(0) / (0*x^1)", "(1 - 2*x^1) / (3 + x)")
VALUES = (None, True, False, -1, 0, 1, 3, 2.5, "", "0", "-1", "1/0", "2/3",
          "x", "L", [], {}, [0], {"r": 1}, 10 ** 5, 10 ** 9, "1e999999999",
          "x^-999999999")


def big_exponent(rng):
    return rng.choice((-1, 1)) * 10 ** rng.randint(3, 9)


def expression(rng, depth=0):
    """A random expression in x over small integers."""
    p = rng.random()
    if depth >= 3 or p < 0.3:
        return rng.choice(ATOMS)
    if p < 0.4:
        return "-" + expression(rng, depth + 1)
    if p < 0.5:
        k = big_exponent(rng) if rng.random() < 0.2 else rng.randint(-2, 2)
        return f"({expression(rng, depth + 1)})^{k}"
    return (f"({expression(rng, depth + 1)}){rng.choice('+-*/')}"
            f"({expression(rng, depth + 1)})")


def reduce_argv(rng):
    if rng.random() < 0.1:
        n, steps = rng.choice(((-1, 0), (0, 0), (401, 1), (10 ** 9, 1),
                               (3, 3), (3, -1)))
    else:
        n = rng.randint(1, 6)
        steps = rng.randrange(n)
    argv = ["reduce", "--n", str(n), "--steps", str(steps)]
    # a boundary in x is read over rational functions: for half of the
    # draws, no boundary becomes 1 - 3/x and one without x is added to x - x
    symbolic = rng.choice((False, True))
    p = rng.random()
    text = None
    if p < 0.2:
        text = rng.choice(JUNK)
    elif p < 0.3:
        text = f"{rng.randint(-3, 4)}/{rng.randint(0, 4)}"
    elif p < 0.4:
        text = f"{rng.randint(1, 9)}e{big_exponent(rng)}"
    elif p < 0.9:
        text = expression(rng)
    if symbolic and "x" not in (text or ""):
        text = "1-3/x" if text is None else f"x-x+({text})"
    return argv if text is None else argv + [f"--boundary={text}"]


def mutated(rng, doc):
    """A copy of a JSON document with one node replaced or deleted, or the
    whole document replaced."""
    doc = json.loads(json.dumps(doc))
    sites = []

    def walk(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in list(items):
            sites.append((node, key))
            walk(child)

    walk(doc)
    if not sites or rng.random() < 0.05:
        return rng.choice(VALUES)
    node, key = rng.choice(sites)
    if rng.random() < 0.2:
        del node[key]
    else:
        node[key] = rng.choice(VALUES)
    return doc


def malformed(rng, doc):
    """JSON text of a mutated document, sometimes cut short."""
    text = json.dumps(mutated(rng, doc))
    if rng.random() < 0.1:
        text = text[:rng.randrange(len(text) + 1)]
    return text


def check_cli(capsys, argv):
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail(f"{argv!r} raised {exc!r}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_reduce_argv_fuzz(capsys):
    rng = random.Random(10)
    for _ in range(300):
        check_cli(capsys, reduce_argv(rng))


def test_resistance_graph_json_fuzz(capsys, tmp_path):
    rng = random.Random(11)
    path = tmp_path / "graph.json"
    valid = json.loads(grid_to_graph(all_one_grid(2)).to_json())
    for _ in range(150):
        path.write_text(malformed(rng, valid))
        check_cli(capsys, ["resistance", "--graph", str(path),
                           "--u", str(rng.randint(-1, 6)),
                           "--v", str(rng.randint(-1, 6))])
        try:
            WeightedGraph.from_json(path.read_text())
        except GraphError:
            pass


def test_grid_json_fuzz():
    rng = random.Random(12)
    docs = [(json.loads(reduce_once(all_one_grid(3)).to_json()), RATIONALS),
            (json.loads(symbolic_start_grid(2, 1 - 3 / RationalFunction.x())
                        .to_json()), RATFUNCS)]
    for _ in range(300):
        doc, field = rng.choice(docs)
        try:
            Grid.from_json(malformed(rng, doc), field)
        except GridError:
            pass


@pytest.mark.parametrize("load, text, error", [
    (Grid.from_json, '{"m": 1000, "labels": []}', GridError),
    (WeightedGraph.from_json, '{"n": 100000, "edges": []}', GraphError),
])
def test_declared_size_alone_allocates_nothing(load, text, error):
    tracemalloc.start()
    try:
        with pytest.raises(error):
            load(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20

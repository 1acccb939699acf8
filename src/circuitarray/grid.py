"""The triangular grid model.

An m-grid is m rows of upright unit triangles: row r (1-based, top to
bottom) holds triangles at diagonals d = 1..r.  Each upright triangle
carries three resistance labels, one per side: L (left), R (right) and
B (base).  Every edge of the grid belongs to exactly one upright triangle,
so a grid of size m carries exactly 3*m*(m+1)/2 labels.  They belong to
one field, which the grid reads off them (``fields.field_of``).

Vertices are addressed as (vrow, vpos) with vrow = 0..m and vpos = 0..vrow.
Upright triangle (r, d) has apex (r-1, d-1), bottom-left (r, d-1) and
bottom-right (r, d); its L edge joins apex to bottom-left, R joins apex to
bottom-right, and B joins the two bottom vertices.

Symmetries.  The grid has the dihedral symmetry of the triangle: a vertical
reflection (r, d) <-> (r, r+1-d) swapping L and R, and a rotation by 2*pi/3
cycling the three corner triangles (1,1) -> (m,1) -> (m,m).  Together they
permute a triangle's three corner distances (d-1, r-d, m-r) and its sides
L, R, B in the same way, so two edges lie in one symmetry orbit exactly when
their triangles have the same sorted distances and the two sides have the
same distance.  A grid constant on every orbit is called symmetric; it is
determined by its labels on the upper-left sector (triangles whose distances
are sorted), which meets every orbit; see ``determining_triangles``.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterator, Mapping, NamedTuple

from .fields import RATIONALS, FieldContract, digit_limit_error, field_of

SIDES = ("L", "R", "B")


class GridError(ValueError):
    pass


class EdgeRef(NamedTuple):
    """Address of one edge: owning triangle (row, diagonal) and side."""

    r: int
    d: int
    side: str


def validate_edge_ref(ref: EdgeRef, m: int) -> None:
    r, d, side = ref
    if side not in SIDES:
        raise GridError(f"side must be one of {SIDES}, got {side!r}")
    if not (1 <= d <= r <= m):
        raise GridError(f"edge ({r},{d},{side}) violates 1 <= d <= r <= m={m}")


def triangle_count(m: int) -> int:
    return m * (m + 1) // 2


# -- orbits and the determining region ----------------------------------------

def corner_distances(r: int, d: int, m: int) -> tuple[int, int, int]:
    """Barycentric distances (to left side, right side, bottom) of a triangle.

    These sum to m - 1.  The reflection swaps the first two, the rotation
    cycles all three, so orbits correspond to multisets of distances.
    """
    return (d - 1, r - d, m - r)


def _orbit_key(r: int, d: int, side: int, m: int) -> tuple:
    """The symmetry orbit of edge (r, d, SIDES[side]): the symmetries
    permute corner distances and sides alike (see the module docstring)."""
    dist = corner_distances(r, d, m)
    return tuple(sorted(dist)), dist[side]


def determining_triangles(m: int) -> list[tuple[int, int]]:
    """Canonical determining region: the upper-left sector of the grid.

    A triangle is in the sector when its corner distances are sorted,
    d-1 <= r-d <= m-r, i.e. it lies at least as close to the top corner as
    to the bottom ones and no further from the left side than the right.
    The sector meets every orbit.  (For a 3-grid it is {(1,1), (2,1)}; the
    triangle fixed by the rotation, present when m = 1 mod 3, has all
    distances equal and is always included.)
    """
    return [(r, d) for r in range(1, m + 1) for d in range(1, r + 1)
            if d - 1 <= r - d <= m - r]


# -- the grid ----------------------------------------------------------------

class Grid:
    """Immutable triangular grid with field-valued edge labels.

    ``triangles`` maps (r, d) to an (L, R, B) value triple.  ``reductions``
    counts how many reduction steps produced this grid from its ancestor.
    ``field`` is its labels' field (``field_of``), which all of them share.
    """

    __slots__ = ("m", "reductions", "field", "_tri", "_symmetric")

    def __init__(self, m: int, triangles: Mapping[tuple[int, int], tuple],
                 reductions: int = 0):
        self.m = m
        self.reductions = reductions
        self._tri = dict(triangles)
        self._symmetric = None
        self._validate()

    def _validate(self) -> None:
        if self.m < 1:
            raise GridError(f"grid size must be >= 1, got {self.m}")
        # count and range only: a declared m alone allocates nothing
        m = self.m
        if len(self._tri) != triangle_count(m) or not all(
                type(r) is int and type(d) is int and 1 <= d <= r <= m
                for r, d in self._tri):
            raise GridError(f"grid of size {self.m} needs exactly the triangles "
                            f"(r,d), 1 <= d <= r <= {self.m}")
        fields = set(map(field_of, chain.from_iterable(self._tri.values())))
        if len(fields) > 1:
            raise GridError("labels of more than one field")
        self.field = field = fields.pop()
        zero = field.zero
        for (r, d), triple in self._tri.items():
            if len(triple) != 3:
                raise GridError(f"triangle ({r},{d}) needs 3 labels")
            if field.ordered:
                # the rationals: a reduced Fraction's denominator is
                # positive, and an int's numerator is the int itself
                if not all(v.numerator > 0 for v in triple):
                    raise GridError(f"non-positive resistance label at "
                                    f"triangle ({r},{d})")
            elif zero in triple:
                raise GridError(f"zero resistance label at triangle ({r},{d})")

    # -- access ----------------------------------------------------------

    def triangle(self, r: int, d: int) -> tuple:
        return self._tri[(r, d)]

    def label(self, r: int, d: int, side: str):
        return self._tri[(r, d)][SIDES.index(side)]

    def items(self) -> Iterator[tuple[EdgeRef, object]]:
        for (r, d), (L, R, B) in self._tri.items():
            yield EdgeRef(r, d, "L"), L
            yield EdgeRef(r, d, "R"), R
            yield EdgeRef(r, d, "B"), B

    def is_symmetric(self) -> bool:
        """True when every orbit (``_orbit_key``) carries a single label."""
        if self._symmetric is None:
            first = {}
            self._symmetric = all(
                first.setdefault(_orbit_key(r, d, i, self.m), v) == v
                for (r, d), triple in self._tri.items()
                for i, v in enumerate(triple))
        return self._symmetric

    def __eq__(self, other) -> bool:
        return (isinstance(other, Grid) and self.m == other.m
                and self.reductions == other.reductions
                and self._tri == other._tri)

    def __repr__(self) -> str:
        return (f"Grid(m={self.m}, reductions={self.reductions}, "
                f"field={self.field.name})")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        labels = [{"r": e.r, "d": e.d, "side": e.side,
                   "value": self.field.format(v)}
                  for e, v in sorted(self.items(),
                                     key=lambda ev: (ev[0].r, ev[0].d,
                                                     SIDES.index(ev[0].side)))]
        return json.dumps({"m": self.m, "reductions": self.reductions,
                           "labels": labels}, indent=1)

    @staticmethod
    def from_json(text: str, field: FieldContract = RATIONALS) -> "Grid":
        """Parse ``{"m": M, "reductions": K, "labels": [{"r", "d", "side",
        "value"}, ...]}`` as written by ``to_json``, reading labels in
        ``field``: a document of constant labels such as ``"(2) / (3)"``
        does not show which field it is in.

        Any other shape raises a one-line ``GridError`` that names the bad
        field; ``"reductions"`` may be omitted (0).
        """
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise GridError(f"grid is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise GridError('grid JSON must be an object with "m" and '
                            '"labels"')
        for key in ("m", "labels"):
            if key not in data:
                raise GridError(f'grid JSON has no "{key}" field')
        m = data["m"]
        if type(m) is not int or m < 1:
            raise GridError(f'"m" must be a positive integer, got {m!r}')
        labels = data["labels"]
        if not isinstance(labels, list):
            raise GridError(f'"labels" must be a list, got {labels!r}')
        tri: dict[tuple[int, int], list] = {}
        for i, item in enumerate(labels):
            if not isinstance(item, dict) or \
                    not all(k in item for k in ("r", "d", "side", "value")):
                raise GridError(f'labels[{i}] must be an object with "r", '
                                f'"d", "side" and "value", got {item!r}')
            ref = EdgeRef(item["r"], item["d"], item["side"])
            if type(ref.r) is not int or type(ref.d) is not int:
                raise GridError(f"labels[{i}]: r and d must be integers, "
                                f"got {ref.r!r} and {ref.d!r}")
            validate_edge_ref(ref, m)
            triple = tri.setdefault((ref.r, ref.d), [None, None, None])
            idx = SIDES.index(ref.side)
            if triple[idx] is not None:
                raise GridError(f"duplicate label for {ref}")
            value = item["value"]
            try:
                if type(value) is not str:
                    raise ValueError
                triple[idx] = field.parse(value)
            except (ValueError, ZeroDivisionError):
                too_long = digit_limit_error(value)
                if too_long:
                    raise GridError(f"labels[{i}].value {too_long}") from None
                raise GridError(f"labels[{i}].value must be a {field.name} "
                                f"label string, got {value!r}") from None
        triangles = {}
        for key, triple in tri.items():
            if None in triple:
                raise GridError(f"missing label(s) for triangle {key}")
            triangles[key] = tuple(triple)
        reductions = data.get("reductions", 0)
        if type(reductions) is not int or reductions < 0:
            raise GridError(f'"reductions" must be a non-negative integer, '
                            f'got {reductions!r}')
        return Grid(m, triangles, reductions=reductions)


def all_one_grid(n: int) -> Grid:
    """The rational n-grid whose resistance labels are uniformly 1."""
    if n < 1:
        raise GridError(f"grid size must be >= 1, got {n}")
    one = RATIONALS.one
    tri = {(r, d): (one, one, one)
           for r in range(1, n + 1) for d in range(1, r + 1)}
    g = Grid(n, tri, reductions=0)
    g._symmetric = True
    return g


def symmetry_complete(sector: Mapping[tuple[int, int], tuple], m: int, *,
                      reductions: int = 0) -> Grid:
    """Extend label triples on the determining sector to a full symmetric grid.

    ``sector`` maps the triangles of ``determining_triangles(m)`` to their
    (L, R, B) triples, as the reduction kernel produces them; every edge
    takes the label given for its orbit.  Two distinct values for one orbit,
    or a grid edge whose orbit has no value, are errors.
    """
    labels = {}
    for (r, d), triple in sector.items():
        for i, value in enumerate(triple):
            existing = labels.setdefault(_orbit_key(r, d, i, m), value)
            if existing != value:
                fmt = field_of(value).format
                raise GridError(
                    f"inconsistent symmetry overlap at ({r},{d},{SIDES[i]}): "
                    f"{fmt(existing)} vs {fmt(value)}")

    tri = {}
    for r in range(1, m + 1):
        for d in range(1, r + 1):
            try:
                tri[(r, d)] = tuple(labels[_orbit_key(r, d, i, m)]
                                    for i in range(3))
            except KeyError:
                raise GridError(f"determining region incomplete: triangle "
                                f"({r},{d}) not reached by any orbit") from None
    g = Grid(m, tri, reductions=reductions)
    g._symmetric = True
    return g

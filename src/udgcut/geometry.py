"""Exact rational plane geometry on a fixed 1/20 grid.

Every coordinate handled by this package is an integer multiple of 1/20 of a
mesh unit, so points are stored as integer pairs in "units" (1 mesh unit = 20
units) and all predicates reduce to integer comparisons.  Squared distances
are exposed as Fractions in squared mesh units; nothing here ever touches a
float.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import DegenerateOverlapError, InputError

SCALE = 20
# dist2 <= 1 mesh unit squared, expressed in (1/20)^2 units.
ONE_DIST2_UNITS = SCALE * SCALE
# dist2 >= 1/2 (the squared 1/sqrt(2) precision bound), in the same units.
HALF_DIST2_UNITS = ONE_DIST2_UNITS // 2


class Point(NamedTuple):
    """A plane point with coordinates in 1/20 units (exact integers)."""

    xu: int
    yu: int

    @classmethod
    def mesh(cls, x: int, y: int) -> "Point":
        """Point at integer mesh coordinates (a mesh cross)."""
        return cls(x * SCALE, y * SCALE)

    @classmethod
    def of(cls, x, y) -> "Point":
        """Point from exact rationals in mesh units; rejects non-1/20 values."""
        xu = Fraction(x) * SCALE
        yu = Fraction(y) * SCALE
        if xu.denominator != 1 or yu.denominator != 1:
            raise InputError(f"coordinates ({x}, {y}) are not multiples of 1/{SCALE}")
        return cls(int(xu), int(yu))

    def translate(self, dxu: int, dyu: int) -> "Point":
        return Point(self.xu + dxu, self.yu + dyu)

    def is_mesh_cross(self) -> bool:
        return self.xu % SCALE == 0 and self.yu % SCALE == 0


def dist2_units(p: Point, q: Point) -> int:
    """Squared distance in squared 1/20 units (exact integer)."""
    dx = p.xu - q.xu
    dy = p.yu - q.yu
    return dx * dx + dy * dy


def dist2(p: Point, q: Point) -> Fraction:
    """Squared distance in squared mesh units (exact rational)."""
    return Fraction(dist2_units(p, q), ONE_DIST2_UNITS)


def pairs_within(points: Sequence[Point], width: int):
    """(dist2_units, i, j) for every index pair i < j at most width units
    (1/20 of a mesh unit each) apart, each once.

    Cells are width units wide, so such a pair lies in one cell or in two
    neighbouring ones.  Each cell is scanned with itself and with the four
    neighbours after it, (0, 1), (1, -1), (1, 0) and (1, 1).  A cell is
    keyed by cx * stride + cy, where stride is the number of rows plus two,
    so no two cells share a key and no offset reaches a cell of another
    column.
    """
    if not points:
        return
    row = itemgetter(1)
    stride = (max(points, key=row).yu // width
              - min(points, key=row).yu // width + 3)
    cells: dict[int, list[tuple[int, int, int]]] = {}
    for i, (x, y) in enumerate(points):  # so ids ascend within a cell
        key = x // width * stride + y // width
        cell = cells.get(key)
        if cell is None:
            cells[key] = [(x, y, i)]
        else:
            cell.append((x, y, i))
    limit = width * width
    offsets = (1, stride - 1, stride, stride + 1)
    for key, members in cells.items():
        if len(members) > 1:
            for a, (xi, yi, i) in enumerate(members):
                for xj, yj, j in members[a + 1:]:
                    d = (xi - xj) ** 2 + (yi - yj) ** 2
                    if d <= limit:
                        yield d, i, j
        for offset in offsets:
            other = cells.get(key + offset)
            if other is None:
                continue
            for xi, yi, i in members:
                for xj, yj, j in other:
                    d = (xi - xj) ** 2 + (yi - yj) ** 2
                    if d <= limit:
                        yield (d, i, j) if i < j else (d, j, i)


class Segment(NamedTuple):
    """A closed segment with distinct endpoints."""

    a: Point
    b: Point

    @classmethod
    def make(cls, a: Point, b: Point) -> "Segment":
        if a == b:
            raise InputError(f"degenerate segment at {a}")
        return cls(a, b)


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    v = (b.xu - a.xu) * (c.yu - a.yu) - (b.yu - a.yu) * (c.xu - a.xu)
    return (v > 0) - (v < 0)


def _collinear_overlap_length_positive(s: Segment, t: Segment) -> bool:
    # All four points collinear; project on the axis with the larger span.
    if s.a.xu != s.b.xu:
        s1, s2 = sorted((s.a.xu, s.b.xu))
        t1, t2 = sorted((t.a.xu, t.b.xu))
    else:
        s1, s2 = sorted((s.a.yu, s.b.yu))
        t1, t2 = sorted((t.a.yu, t.b.yu))
    return max(s1, t1) < min(s2, t2)


def segments_properly_cross(s: Segment, t: Segment) -> tuple[Fraction, Fraction] | None:
    """Interior intersection point of two open segments, if they cross transversally.

    Returns the point as exact mesh-unit rationals, or None when the open
    segments are disjoint (including endpoint touches and T-contacts).
    Collinear segments overlapping in more than a point raise
    DegenerateOverlapError: such a configuration is never a crossing.
    """
    a, b = s.a, s.b
    c, d = t.a, t.b
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    if o1 == 0 and o2 == 0:
        if _collinear_overlap_length_positive(s, t):
            raise DegenerateOverlapError(f"collinear overlap between {s} and {t}")
        return None
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        # Strict straddle on both sides: unique transversal interior crossing.
        rx = b.xu - a.xu
        ry = b.yu - a.yu
        sx = d.xu - c.xu
        sy = d.yu - c.yu
        denom = rx * sy - ry * sx
        lam = Fraction((c.xu - a.xu) * sy - (c.yu - a.yu) * sx, denom)
        px = Fraction(a.xu, SCALE) + lam * Fraction(rx, SCALE)
        py = Fraction(a.yu, SCALE) + lam * Fraction(ry, SCALE)
        return (px, py)
    return None

"""Proximity models of unit disk graphs: validation against the
distance-at-most-one adjacency rule, precision, and the planarity dichotomy
for precision strictly above 1/sqrt(2).

Both checks of a model read one cached scan of its points: a grid of cells
one unit wide yields every pair within one unit once, checks it against the
edge set as it goes, and records the least squared distance among those
pairs (the fixed-radius near-neighbour grid of Bentley, Stanat and Williams,
1977).  A point set with no pair within one unit is scanned again with the
radius and the cell width doubled, until a pair turns up.  The first pair of
equal points met ends the scan, and one linear pass then names the smallest
such pair.

The straight-line crossing search runs the same scan on the doubled
midpoints of the edges of length at most 1, within 2 units, and tests each
longer edge against every edge, so it finds every crossing on any model,
valid or not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import (DegenerateOverlapError, InputError, TheoremViolationError,
                     UndefinedPrecisionError)
from .geometry import (HALF_DIST2_UNITS, ONE_DIST2_UNITS, SCALE, Point, Segment,
                       dist2, dist2_units, pairs_within, segments_properly_cross)
from .graph_core import Edge, Graph

PLANAR_BY_THEOREM = "planar_by_theorem"
PLANAR_BY_CHECK = "planar_by_check"
NOT_PLANAR_DRAWING = "not_planar_drawing"


class _Scan(NamedTuple):
    """What validate_model and precision2 need to know of a model."""

    missing: list[Edge]  # close pairs that are not edges, sorted; [] if coincident
    spurious: list[Edge]  # edges that are not close pairs, sorted; [] if coincident
    coincident: Edge | None  # the smallest pair of equal points
    closest: int | None  # least dist2_units over all pairs; None below 2 points


@dataclass(frozen=True)
class ProximityModel:
    """One exact point per vertex; adjacency must equal dist <= 1."""

    graph: Graph
    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) != self.graph.n:
            raise InputError(
                f"{len(self.points)} points for {self.graph.n} vertices")

    @cached_property
    def _scan(self) -> _Scan:
        """The one scan of the points that validate_model and precision2
        read; kept, since neither the points nor the graph can change."""
        pts = self.points
        edges = self.graph.edges
        missing = []
        matched = 0
        best = ONE_DIST2_UNITS + 1
        for d, i, j in pairs_within(pts, SCALE):
            if not d:  # stop: n equal points would make n^2/2 close pairs
                return _Scan([], [], _first_coincident_pair(pts), 0)
            if d < best:
                best = d
            if (i, j) in edges:
                matched += 1
            else:
                missing.append((i, j))
        # every edge counted once among the close pairs leaves none spurious
        spurious = [] if matched == len(edges) else sorted(
            (u, v) for u, v in edges
            if dist2_units(pts[u], pts[v]) > ONE_DIST2_UNITS)
        if best > ONE_DIST2_UNITS:
            best = _closest_beyond_one(pts) if len(pts) >= 2 else None
        return _Scan(sorted(missing), spurious, None, best)


def _first_coincident_pair(points: tuple[Point, ...]) -> Edge | None:
    """The smallest (i, j) with points[i] == points[j], found in O(n)."""
    first: dict[Point, int] = {}
    pairs = ((first.setdefault(p, j), j) for j, p in enumerate(points))
    return min((pair for pair in pairs if pair[0] != pair[1]), default=None)


def _closest_beyond_one(points: tuple[Point, ...]) -> int:
    """Least dist2_units of two or more points with no pair within one unit.

    Doubles the radius until a pair lies within it; the closest pair then
    lies within it too.  The cells grow with the radius, so each pass still
    looks at four neighbour cells per cell.
    """
    width = SCALE
    while True:
        width *= 2
        best = min((d for d, _, _ in pairs_within(points, width)), default=None)
        if best is not None:
            return best


@dataclass
class ModelReport:
    """Outcome of validate_model with exact witnesses for each failure."""

    ok: bool
    missing_edges: list[tuple[int, int, Fraction]] = field(default_factory=list)
    spurious_edges: list[tuple[int, int, Fraction]] = field(default_factory=list)


def _checked_scan(m: ProximityModel) -> _Scan:
    """m's scan; raises InputError naming the smallest pair of coincident
    points, if any."""
    scan = m._scan
    if scan.coincident is not None:
        i, j = scan.coincident
        raise InputError(f"coincident points for vertices {i} and {j}")
    return scan


def validate_model(m: ProximityModel) -> ModelReport:
    """Check adjacency iff distance <= 1 over all vertex pairs.

    Tangency counts as intersecting, so dist2 == 1 requires an edge.
    Coincident points are rejected outright, naming the smallest such pair.
    """
    scan = _checked_scan(m)
    pts = m.points
    return ModelReport(
        ok=not scan.missing and not scan.spurious,
        missing_edges=[(u, v, dist2(pts[u], pts[v])) for u, v in scan.missing],
        spurious_edges=[(u, v, dist2(pts[u], pts[v])) for u, v in scan.spurious])


def precision2(m: ProximityModel) -> Fraction:
    """Minimum pairwise squared distance (the squared precision lambda^2)."""
    if len(m.points) < 2:
        raise UndefinedPrecisionError("precision needs at least two points")
    return Fraction(m._scan.closest, ONE_DIST2_UNITS)


@dataclass(frozen=True)
class CrossingWitness:
    """Two edges whose straight-line images meet in their interiors."""

    edge1: Edge
    edge2: Edge
    point: tuple[Fraction, Fraction] | None  # None for a collinear overlap


def straight_line_crossings(m: ProximityModel) -> list[CrossingWitness]:
    """Crossings of the straight-line drawing induced by the model points.

    Two edges that meet have midpoints at most half their summed lengths
    apart, so pairs of edges of length at most 1 come from the shared scan
    of their doubled midpoints within 2 units.  Each longer edge, which only
    an invalid model has, is tested against every other edge, so one long
    edge costs one pass over the edges.  This holds on any model, valid or
    not.  Collinear overlaps are reported as witnesses.
    """
    pts = m.points
    edges = m.graph.sorted_edges()
    segs = [Segment.make(pts[u], pts[v]) for u, v in edges]
    short = [i for i, (a, b) in enumerate(segs) if dist2_units(a, b) <= ONE_DIST2_UNITS]
    mids = [Point(a.xu + b.xu, a.yu + b.yu) for a, b in map(segs.__getitem__, short)]  # doubled
    pairs = [(short[a], short[b]) for _, a, b in pairs_within(mids, 2 * SCALE)]
    long_ = set(range(len(segs))).difference(short)
    pairs += [(min(i, j), max(i, j)) for i in long_ for j in range(len(segs))
              if j not in long_ or j > i]  # a pair of long edges once
    witnesses = []
    for i, j in pairs:
        try:
            p = segments_properly_cross(segs[i], segs[j])
            if p is None:
                continue
        except DegenerateOverlapError:
            p = None  # a collinear overlap
        witnesses.append(CrossingWitness(edges[i], edges[j], p))
    witnesses.sort(key=lambda w: (w.edge1, w.edge2))
    return witnesses


def require_valid_model(m: ProximityModel) -> None:
    """Raise InputError unless the edges are exactly the pairs of points at
    distance at most 1, naming up to three missing and spurious edges.
    Reads the pairs from the scan, with no distance for each."""
    scan = _checked_scan(m)
    if scan.missing or scan.spurious:
        raise InputError(
            "model edges disagree with its coordinates: "
            f"missing={scan.missing[:3]} spurious={scan.spurious[:3]}")


def planarity_verdict(m: ProximityModel) -> str:
    """Dichotomy on a valid model: precision2 > 1/2 certifies planarity;
    otherwise check.  Invalid models raise InputError."""
    require_valid_model(m)
    if len(m.points) < 2:
        return PLANAR_BY_THEOREM
    p2 = precision2(m)
    crossings = straight_line_crossings(m)
    if p2 > Fraction(1, 2):
        if crossings:
            raise TheoremViolationError(
                f"straight-line crossing found despite precision2={p2} > 1/2: "
                f"{crossings[0]}")
        return PLANAR_BY_THEOREM
    return NOT_PLANAR_DRAWING if crossings else PLANAR_BY_CHECK


def conflict_gap2(x) -> Fraction:
    """Squared lower bound, 2 - x^2, on the gap between the two regions of
    points farther than 1/sqrt(2) from both endpoints of an edge of length x."""
    x = Fraction(x)
    if not 0 < x <= 1:
        raise InputError(f"edge length {x} outside (0, 1]")
    return 2 - x * x


def random_precise_model(rng: random.Random, n: int, box: int = 40) -> ProximityModel:
    """Random model with precision2 strictly above 1/2, edges by the distance
    rule.  Points are 1/20-grid points in a box x box mesh square; candidates
    too close to an accepted point are resampled."""
    pts: list[Point] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 10000 * (n + 1):
            raise InputError(f"cannot place {n} points in a {box}x{box} box")
        cand = Point(rng.randrange(0, box * SCALE + 1), rng.randrange(0, box * SCALE + 1))
        if all(dist2_units(cand, p) > HALF_DIST2_UNITS for p in pts):
            pts.append(cand)
    edges = frozenset((i, j) for _, i, j in pairs_within(pts, SCALE))
    return ProximityModel(Graph(n, edges), tuple(pts))

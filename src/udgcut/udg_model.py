"""Proximity models of unit disk graphs: validation against the
distance-at-most-one adjacency rule, precision, and the planarity dichotomy
for precision strictly above 1/sqrt(2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .errors import (DegenerateOverlapError, InputError, TheoremViolationError,
                     UndefinedPrecisionError)
from .geometry import (HALF_DIST2_UNITS, ONE_DIST2_UNITS, SCALE, Point, Segment,
                       dist2, dist2_units, segments_properly_cross)
from .graph_core import Edge, Graph

PLANAR_BY_THEOREM = "planar_by_theorem"
PLANAR_BY_CHECK = "planar_by_check"
NOT_PLANAR_DRAWING = "not_planar_drawing"


@dataclass(frozen=True)
class ProximityModel:
    """One exact point per vertex; adjacency must equal dist <= 1."""

    graph: Graph
    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) != self.graph.n:
            raise InputError(
                f"{len(self.points)} points for {self.graph.n} vertices")


def _grid_buckets(points: tuple[Point, ...]) -> dict[tuple[int, int], list[int]]:
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(points):
        buckets.setdefault((p.xu // SCALE, p.yu // SCALE), []).append(i)
    return buckets


def _pairs_within(points: tuple[Point, ...], limit_units2: int):
    """All index pairs (i < j) with dist2_units <= limit_units2.

    Bucket width is one mesh unit; a query of radius r mesh units scans the
    ceil(r) surrounding rings of buckets.
    """
    radius_units = isqrt(max(limit_units2 - 1, 0)) + 1
    rings = (radius_units + SCALE - 1) // SCALE
    buckets = _grid_buckets(points)
    for (bx, by), members in buckets.items():
        for dx in range(-rings, rings + 1):
            for dy in range(-rings, rings + 1):
                other = buckets.get((bx + dx, by + dy))
                if other is None:
                    continue
                for i in members:
                    for j in other:
                        if i < j and dist2_units(points[i], points[j]) <= limit_units2:
                            yield i, j


@dataclass
class ModelReport:
    """Outcome of validate_model with exact witnesses for each failure."""

    ok: bool
    missing_edges: list[tuple[int, int, Fraction]] = field(default_factory=list)
    spurious_edges: list[tuple[int, int, Fraction]] = field(default_factory=list)


def validate_model(m: ProximityModel) -> ModelReport:
    """Check adjacency iff distance <= 1 over all vertex pairs.

    Tangency counts as intersecting, so dist2 == 1 requires an edge.
    Coincident points are rejected outright.
    """
    pts = m.points
    close_pairs = set()
    for i, j in _pairs_within(pts, ONE_DIST2_UNITS):
        if pts[i] == pts[j]:
            raise InputError(f"coincident points for vertices {i} and {j}")
        close_pairs.add((i, j))
    missing = sorted(close_pairs - m.graph.edges)
    spurious = sorted(m.graph.edges - close_pairs)
    report = ModelReport(ok=not missing and not spurious)
    report.missing_edges = [(u, v, dist2(pts[u], pts[v])) for u, v in missing]
    report.spurious_edges = [(u, v, dist2(pts[u], pts[v])) for u, v in spurious]
    return report


def precision2(m: ProximityModel) -> Fraction:
    """Minimum pairwise squared distance (the squared precision lambda^2)."""
    pts = m.points
    n = len(pts)
    if n < 2:
        raise UndefinedPrecisionError("precision needs at least two points")
    # the pairs within one mesh unit, when there are any, include the closest
    best = min((dist2_units(pts[i], pts[j])
                for i, j in _pairs_within(pts, ONE_DIST2_UNITS)), default=None)
    if best is None:
        best = min(dist2_units(pts[i], pts[j])
                   for i in range(n) for j in range(i + 1, n))
    return Fraction(best, ONE_DIST2_UNITS)


@dataclass(frozen=True)
class CrossingWitness:
    """Two edges whose straight-line images meet in their interiors."""

    edge1: Edge
    edge2: Edge
    point: tuple[Fraction, Fraction] | None  # None for a collinear overlap


def straight_line_crossings(m: ProximityModel) -> list[CrossingWitness]:
    """Crossings of the straight-line drawing induced by the model points.

    Valid models have edges of length <= 1, so two edges can only meet when
    their midpoints are within one unit; candidate pairs come from a grid on
    scaled midpoints.  Collinear overlaps are reported as witnesses.
    """
    pts = m.points
    edges = m.graph.sorted_edges()
    mids = tuple(Point(pts[u].xu + pts[v].xu, pts[u].yu + pts[v].yu)
                 for u, v in edges)  # doubled coordinates, still exact ints
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(mids):
        buckets.setdefault((p.xu // (2 * SCALE), p.yu // (2 * SCALE)), []).append(i)
    witnesses = []
    for (bx, by), members in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other = buckets.get((bx + dx, by + dy))
                if other is None:
                    continue
                for i in members:
                    for j in other:
                        if i >= j:
                            continue
                        w = _edge_pair_witness(pts, edges[i], edges[j])
                        if w is not None:
                            witnesses.append(w)
    witnesses.sort(key=lambda w: (w.edge1, w.edge2))
    return witnesses


def _edge_pair_witness(pts, e1: Edge, e2: Edge) -> CrossingWitness | None:
    shared = set(e1) & set(e2)
    s1 = Segment.make(pts[e1[0]], pts[e1[1]])
    s2 = Segment.make(pts[e2[0]], pts[e2[1]])
    if shared:
        # segments sharing an endpoint can only conflict by collinear overlap
        try:
            segments_properly_cross(s1, s2)
        except DegenerateOverlapError:
            return CrossingWitness(e1, e2, None)
        return None
    try:
        p = segments_properly_cross(s1, s2)
    except DegenerateOverlapError:
        return CrossingWitness(e1, e2, None)
    if p is not None:
        return CrossingWitness(e1, e2, p)
    return None


def planarity_verdict(m: ProximityModel) -> str:
    """Dichotomy: precision2 > 1/2 certifies planarity; otherwise check."""
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
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if dist2_units(pts[i], pts[j]) <= ONE_DIST2_UNITS]
    return ProximityModel(Graph(n, frozenset(edges)), tuple(pts))

"""Proximity model validation, precision, and the planarity dichotomy."""

import random
from fractions import Fraction

import pytest

from udgcut.errors import InputError, UndefinedPrecisionError
from udgcut.gadget import h_model
from udgcut.geometry import HALF_DIST2_UNITS, ONE_DIST2_UNITS, Point, dist2_units
from udgcut.graph_core import Graph, graph
from udgcut.udg_model import (NOT_PLANAR_DRAWING, PLANAR_BY_CHECK,
                              PLANAR_BY_THEOREM, ProximityModel, _pairs_within,
                              conflict_gap2, planarity_verdict, precision2,
                              random_precise_model, straight_line_crossings,
                              validate_model)


def test_h_model_validates():
    assert validate_model(h_model()).ok


def test_artificial_edge_fails_with_exact_witness():
    base = h_model()
    g = Graph(8, frozenset(set(base.graph.edges) | {(4, 5)}))  # w0-w1
    report = validate_model(ProximityModel(g, base.points))
    assert not report.ok
    assert (4, 5, Fraction(64, 25)) in report.spurious_edges


def test_missing_edge_fails():
    base = h_model()
    g = Graph(8, frozenset(set(base.graph.edges) - {(0, 1)}))  # drop v0v1
    report = validate_model(ProximityModel(g, base.points))
    assert not report.ok
    assert (0, 1, Fraction(1, 2)) in report.missing_edges


def test_tangent_points_are_adjacent():
    m = ProximityModel(graph(2, [(0, 1)]), (Point.mesh(0, 0), Point.mesh(1, 0)))
    assert validate_model(m).ok
    # and the edge is required: dropping it fails
    m2 = ProximityModel(graph(2), (Point.mesh(0, 0), Point.mesh(1, 0)))
    assert not validate_model(m2).ok


def test_coincident_points_rejected():
    m = ProximityModel(graph(2, [(0, 1)]), (Point.mesh(0, 0), Point.mesh(0, 0)))
    with pytest.raises(InputError):
        validate_model(m)
    # apart in index order, on a bucket corner at negative coordinates
    pts = (Point.mesh(-1, -1), Point.mesh(0, 0), Point.mesh(-1, -1))
    m = ProximityModel(graph(3, [(0, 1), (0, 2), (1, 2)]), pts)
    with pytest.raises(InputError, match="vertices 0 and 2"):
        validate_model(m)


def test_precision2_examples():
    assert precision2(h_model()) == Fraction(1, 2)
    m = ProximityModel(graph(2), (Point.mesh(0, 0), Point.mesh(10, 0)))
    assert precision2(m) == 100
    with pytest.raises(UndefinedPrecisionError):
        precision2(ProximityModel(graph(1), (Point.mesh(0, 0),)))


def test_precision2_is_the_closest_pair():
    rng = random.Random(71)
    inputs = []
    for _ in range(40):
        n = rng.randint(2, 90)
        box = rng.choice([2, 10, 200]) * 20
        inputs.append(tuple({Point(rng.randrange(box), rng.randrange(box))
                             for _ in range(n)}))
    # Negative coordinates, points on bucket boundaries (multiples of one
    # mesh unit), and pairs at exactly 1/sqrt(2) and 1, within one bucket
    # and across buckets: (-40, -40) to (-28, -24) is 12, 16 units.
    lattice = [Point(x, y) for x in range(-40, 21, 10) for y in range(-40, 21, 10)]
    inputs.append(tuple(lattice + [Point(-28, -24), Point(-21, 19), Point(-1, -1)]))
    for pts in inputs:
        if len(pts) < 2:
            continue
        closest = min(dist2_units(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
        m = ProximityModel(graph(len(pts)), pts)
        assert precision2(m) == Fraction(closest, ONE_DIST2_UNITS)
        for limit in (HALF_DIST2_UNITS, ONE_DIST2_UNITS):
            found = list(_pairs_within(pts, limit))
            assert len(found) == len(set(found))
            assert set(found) == {(i, j) for i in range(len(pts))
                                  for j in range(i + 1, len(pts))
                                  if dist2_units(pts[i], pts[j]) <= limit}


def test_straight_line_crossings_of_h_model():
    hits = straight_line_crossings(h_model())
    # the two diagonals of the gadget cycle cross at the center
    assert any(w.edge1 == (0, 2) and w.edge2 == (1, 3) for w in hits)
    w = next(w for w in hits if w.edge1 == (0, 2) and w.edge2 == (1, 3))
    assert w.point == (Fraction(0), Fraction(0))


def test_single_edge_model_has_no_crossings():
    m = ProximityModel(graph(2, [(0, 1)]), (Point.mesh(0, 0), Point.mesh(1, 0)))
    assert straight_line_crossings(m) == []


def test_collinear_overlap_is_a_witness():
    # three collinear points within distance 1: edges (0,2) and (0,1) overlap
    pts = (Point.mesh(0, 0), Point.of(Fraction(1, 2), 0), Point.mesh(1, 0))
    g = graph(3, [(0, 1), (1, 2), (0, 2)])
    m = ProximityModel(g, pts)
    assert validate_model(m).ok
    hits = straight_line_crossings(m)
    assert any(w.point is None for w in hits)
    assert planarity_verdict(m) == NOT_PLANAR_DRAWING


def test_planarity_verdicts():
    assert planarity_verdict(h_model()) == NOT_PLANAR_DRAWING
    one = ProximityModel(graph(1), (Point.mesh(0, 0),))
    assert planarity_verdict(one) == PLANAR_BY_THEOREM
    # min distance 3/4 gives precision2 = 9/16 > 1/2: theorem applies
    pts = (Point.mesh(0, 0), Point.of(Fraction(3, 4), 0),
           Point.of(Fraction(3, 4), Fraction(3, 4)), Point.of(0, Fraction(3, 4)))
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)
             if (Fraction(pts[i].xu - pts[j].xu, 20) ** 2
                 + Fraction(pts[i].yu - pts[j].yu, 20) ** 2) <= 1]
    m = ProximityModel(graph(4, edges), pts)
    assert precision2(m) == Fraction(9, 16)
    assert planarity_verdict(m) == PLANAR_BY_THEOREM


def test_planar_by_check_below_threshold():
    # precision exactly 1/sqrt(2) but no crossing: check-based verdict
    pts = (Point.of(Fraction(1, 2), 0), Point.of(0, Fraction(1, 2)))
    m = ProximityModel(graph(2, [(0, 1)]), pts)
    assert precision2(m) == Fraction(1, 2)
    assert planarity_verdict(m) == PLANAR_BY_CHECK


def test_random_precise_models_are_planar():
    rng = random.Random(71)
    for _ in range(30):
        m = random_precise_model(rng, rng.randint(2, 12))
        assert precision2(m) > Fraction(1, 2)
        assert validate_model(m).ok
        assert straight_line_crossings(m) == []
        assert planarity_verdict(m) == PLANAR_BY_THEOREM


def test_boundary_sharpness_of_the_planarity_bound():
    m = h_model()
    assert precision2(m) == Fraction(1, 2)
    assert straight_line_crossings(m) != []


def test_conflict_gap2_values():
    assert conflict_gap2(1) == 1
    assert conflict_gap2(Fraction(1, 2)) == Fraction(7, 4)
    assert conflict_gap2(Fraction(1, 20)) == Fraction(799, 400)
    with pytest.raises(InputError):
        conflict_gap2(0)
    with pytest.raises(InputError):
        conflict_gap2(Fraction(21, 20))


def test_conflict_gap2_certifies_the_gap_above_one():
    # 2 - x^2 >= 1 on (0, 1], equality only at x = 1; the region gap strictly
    # exceeds this bound, hence is strictly greater than 1 throughout.
    for k in range(1, 21):
        val = conflict_gap2(Fraction(k, 20))
        assert val >= 1
        assert (val > 1) == (k < 20)

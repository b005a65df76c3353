"""Proximity model validation, precision, and the planarity dichotomy."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udgcut.udg_model
from udgcut.errors import DegenerateOverlapError, InputError, UndefinedPrecisionError
from udgcut.gadget import h_model
from udgcut.geometry import (ONE_DIST2_UNITS, Point, Segment, dist2, dist2_units,
                             pairs_within, segments_properly_cross)
from udgcut.graph_core import Graph, complete_graph, cycle_graph, graph
from udgcut.reduction import reduce
from udgcut.udg_model import (NOT_PLANAR_DRAWING, PLANAR_BY_CHECK,
                              PLANAR_BY_THEOREM, CrossingWitness, ProximityModel,
                              conflict_gap2, planarity_verdict, precision2,
                              random_precise_model, require_valid_model,
                              straight_line_crossings, validate_model)


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


def _one_pair_at_most(points, width):
    for k, pair in enumerate(pairs_within(points, width)):
        assert k == 0, "the scan went on past a pair of equal points"
        yield pair


def test_the_first_equal_pair_ends_the_scan(monkeypatch):
    # 3 000 equal points are 4.5M close pairs; only the first may be drawn
    monkeypatch.setattr("udgcut.udg_model.pairs_within", _one_pair_at_most)
    m = ProximityModel(graph(3000), (Point(0, 0),) * 3000)
    with pytest.raises(InputError, match="vertices 0 and 1$"):
        validate_model(m)
    assert precision2(m) == 0


def test_precision2_examples():
    assert precision2(h_model()) == Fraction(1, 2)
    m = ProximityModel(graph(2), (Point.mesh(0, 0), Point.mesh(10, 0)))
    assert precision2(m) == 100
    with pytest.raises(UndefinedPrecisionError):
        precision2(ProximityModel(graph(1), (Point.mesh(0, 0),)))


def _close_pairs_by_all_pairs(pts, limit):
    return {(dist2_units(pts[i], pts[j]), i, j) for i in range(len(pts))
            for j in range(i + 1, len(pts)) if dist2_units(pts[i], pts[j]) <= limit}


def test_precision2_is_the_closest_pair():
    rng = random.Random(71)
    inputs = []
    for _ in range(40):
        n = rng.randint(2, 90)
        box = rng.choice([2, 10, 200]) * 20
        inputs.append(tuple({Point(rng.randrange(box), rng.randrange(box))
                             for _ in range(n)}))
    # Negative coordinates, points on cell boundaries (multiples of one
    # mesh unit), and pairs at exactly 1/sqrt(2) and 1, within one cell
    # and across cells: (-40, -40) to (-28, -24) is 12, 16 units.
    lattice = [Point(x, y) for x in range(-40, 21, 10) for y in range(-40, 21, 10)]
    inputs.append(tuple(lattice + [Point(-28, -24), Point(-21, 19), Point(-1, -1)]))
    for pts in inputs:
        if len(pts) < 2:
            continue
        closest = min(dist2_units(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])
        m = ProximityModel(graph(len(pts)), pts)
        assert precision2(m) == Fraction(closest, ONE_DIST2_UNITS)
        # radii of 14, 20 and 40 units bound 196, 400 and 1 600 units^2:
        # just under 1/2, exactly 1 and 4 squared mesh units
        for width in (14, 20, 40):
            found = list(pairs_within(pts, width))
            assert len(found) == len(set(found))
            assert set(found) == _close_pairs_by_all_pairs(pts, width * width)


def _report_by_all_pairs(m):
    pts, edges = m.points, m.graph.edges
    close = {(i, j) for _, i, j in _close_pairs_by_all_pairs(pts, ONE_DIST2_UNITS)}
    missing = [(u, v, dist2(pts[u], pts[v])) for u, v in sorted(close - edges)]
    spurious = [(u, v, dist2(pts[u], pts[v])) for u, v in sorted(edges - close)]
    return not missing and not spurious, missing, spurious


# offsets in units at exactly one mesh unit (400 units^2) and 1/sqrt(2)
# (200 units^2), and just beyond each
_PARTNER_OFFSETS = [(20, 0), (0, -20), (12, 16), (-16, 12), (10, 10), (14, -2),
                    (-10, 10), (21, 0), (10, -11), (15, 0)]


@st.composite
def _point_sets(draw):
    """Distinct points near cell corners, at negative coordinates and in
    pairs at exactly one unit and 1/sqrt(2), with some pairs made edges."""
    corner = st.integers(-3, 3).map(lambda c: 20 * c) | st.integers(-70, 70)
    jitter = st.sampled_from([0, 0, -1, 1])
    pts = []
    for _ in range(draw(st.integers(0, 14))):
        p = Point(draw(corner) + draw(jitter), draw(corner) + draw(jitter))
        pts.append(p)
        if draw(st.booleans()):
            dx, dy = draw(st.sampled_from(_PARTNER_OFFSETS))
            pts.append(p.translate(dx, dy))
    pts = tuple(dict.fromkeys(pts))
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    close = [(i, j) for i, j in pairs if dist2_units(pts[i], pts[j]) <= ONE_DIST2_UNITS]
    kept = [e for e in close if draw(st.integers(0, 9))]  # drop about one in ten
    added = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return ProximityModel(graph(n, kept + added), pts)


@st.composite
def _sparse_point_sets(draw):
    """Two or more points with no pair within one unit, some far apart."""
    step = draw(st.sampled_from([21, 29, 40, 157, 1000]))
    coords = st.tuples(st.integers(-60, 60), st.integers(-60, 60))
    cells = draw(st.lists(coords, min_size=2, max_size=20, unique=True))
    return ProximityModel(graph(len(cells)),
                          tuple(Point(step * a, step * b) for a, b in cells))


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_scan_matches_all_pairs(m):
    report = validate_model(m)
    assert (report.ok, report.missing_edges, report.spurious_edges) == _report_by_all_pairs(m)
    if m.graph.n >= 2:
        closest = min(d for d, _, _ in _close_pairs_by_all_pairs(m.points, 10 ** 9))
        assert precision2(m) == Fraction(closest, ONE_DIST2_UNITS)
    for width in (14, 20):
        found = list(pairs_within(m.points, width))
        assert len(found) == len(set(found))
        assert set(found) == _close_pairs_by_all_pairs(m.points, width * width)


@settings(max_examples=200, deadline=None)
@given(_sparse_point_sets())
def test_precision2_widens_the_scan_when_no_pair_is_within_one_unit(m):
    assert list(pairs_within(m.points, 20)) == []
    closest = min(dist2_units(p, q) for i, p in enumerate(m.points)
                  for q in m.points[i + 1:])
    assert precision2(m) == Fraction(closest, ONE_DIST2_UNITS)
    assert validate_model(m).ok


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([Point(-20, -20), Point(0, 0), Point(19, 20),
                                 Point(40, 0), Point(400, -400)]),
                min_size=2, max_size=12))
def test_coincident_points_name_the_smallest_pair(pts):
    pts = tuple(pts)
    equal = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
             if pts[i] == pts[j]]
    m = ProximityModel(graph(len(pts)), pts)
    if not equal:
        validate_model(m)
        return
    i, j = min(equal)
    with pytest.raises(InputError, match=f"vertices {i} and {j}$"):
        validate_model(m)
    assert precision2(m) == 0


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


def _crossings_by_all_pairs(m):
    """Every pair of edges tested: the reference for straight_line_crossings.
    Segments that meet have closed bounding boxes that meet, so pairs whose
    boxes are apart are skipped without a crossing test."""
    pts = m.points
    edges = m.graph.sorted_edges()
    segs = [Segment.make(pts[u], pts[v]) for u, v in edges]
    boxes = [(min(a.xu, b.xu), max(a.xu, b.xu), min(a.yu, b.yu), max(a.yu, b.yu))
             for a, b in segs]
    found = []
    for i in range(len(edges)):
        x0, x1, y0, y1 = boxes[i]
        for j in range(i + 1, len(edges)):
            u0, u1, v0, v1 = boxes[j]
            if u0 > x1 or x0 > u1 or v0 > y1 or y0 > v1:
                continue
            try:
                p = segments_properly_cross(segs[i], segs[j])
            except DegenerateOverlapError:
                found.append(CrossingWitness(edges[i], edges[j], None))
                continue
            if p is not None:
                found.append(CrossingWitness(edges[i], edges[j], p))
    return found


def test_straight_line_crossings_match_all_pairs_on_valid_models():
    rng = random.Random(13)
    models = [h_model()] + [random_precise_model(rng, rng.randint(2, 30))
                            for _ in range(40)]
    # dense models on a lattice of 1/4 and 1/5 units: many crossings, and
    # collinear overlaps along the lattice lines
    for _ in range(40):
        step = rng.choice([4, 5])
        lattice = [Point(step * x, step * y) for x in range(12) for y in range(12)]
        pts = tuple(rng.sample(lattice, rng.randint(2, 40)))
        edges = [(i, j) for _, i, j in pairs_within(pts, 20)]
        models.append(ProximityModel(graph(len(pts), edges), pts))
    models += [reduce(g).model for g in (complete_graph(4), cycle_graph(5))]
    crossing = 0
    for m in models:
        assert validate_model(m).ok
        found = straight_line_crossings(m)
        assert found == _crossings_by_all_pairs(m)
        crossing += bool(found)
    assert crossing >= 30  # of the 83 models


def test_straight_line_crossings_match_all_pairs_with_long_edges():
    # edges of any length, ends on a coarse lattice, so long edges cross
    # many others and overlap collinearly
    rng = random.Random(29)
    long_crossings = 0
    for _ in range(100):
        step = rng.choice([1, 7, 20])
        pts = list({Point(step * rng.randrange(-30, 30), step * rng.randrange(-30, 30))
                    for _ in range(rng.randint(2, 24))})
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        m = ProximityModel(graph(len(pts), rng.sample(pairs, min(len(pairs), 30))), tuple(pts))
        found = straight_line_crossings(m)
        assert found == _crossings_by_all_pairs(m)
        long_crossings += any(
            max(dist2_units(pts[u], pts[v]) for u, v in (w.edge1, w.edge2)) > ONE_DIST2_UNITS
            for w in found)
    assert long_crossings >= 50


def test_an_edge_with_equal_ends_is_rejected_by_the_crossing_search():
    pts = (Point(0, 0), Point(0, 0), Point(500, 500))
    with pytest.raises(InputError, match="degenerate segment"):
        straight_line_crossings(ProximityModel(graph(3, [(0, 1)]), pts))


def test_planarity_verdict_rejects_an_invalid_model():
    # edge 01 is two units long: bad input, not a failure of the theorem
    pts = (Point.mesh(0, 0), Point.mesh(2, 0),
           Point.of(1, Fraction(-2, 5)), Point.of(1, Fraction(2, 5)))
    m = ProximityModel(graph(4, [(0, 1), (2, 3)]), pts)
    assert straight_line_crossings(m) != []
    with pytest.raises(InputError, match=r"missing=\[\] spurious=\[\(0, 1\)\]"):
        planarity_verdict(m)


def test_an_invalid_model_names_three_missing_and_three_spurious_pairs(monkeypatch):
    # five points within one unit and no edges among them, and a square of
    # four points ten units apart with its sides as edges
    pts = tuple(Point.of(Fraction(i, 4), 0) for i in range(5))
    pts += (Point.mesh(10, 0), Point.mesh(20, 0), Point.mesh(10, 10), Point.mesh(20, 10))
    m = ProximityModel(graph(9, [(5, 6), (5, 7), (6, 8), (7, 8)]), pts)
    # the pairs come from the scan, without a distance for each
    monkeypatch.setattr(udgcut.udg_model, "dist2", None)
    with pytest.raises(InputError) as error:
        require_valid_model(m)
    assert str(error.value) == ("model edges disagree with its coordinates: "
                                "missing=[(0, 1), (0, 2), (0, 3)] "
                                "spurious=[(5, 6), (5, 7), (6, 8)]")
    m = ProximityModel(graph(3), (Point(0, 0), Point(500, 0), Point(0, 0)))
    with pytest.raises(InputError, match="^coincident points for vertices 0 and 2$"):
        require_valid_model(m)


def test_planarity_verdict_rejects_an_invalid_model_with_a_far_crossing():
    # edge 01 is ten units long and crosses edge 23 nine units from its middle
    pts = (Point.mesh(0, 0), Point.mesh(10, 0),
           Point.of(1, Fraction(-2, 5)), Point.of(1, Fraction(2, 5)))
    m = ProximityModel(graph(4, [(0, 1), (2, 3)]), pts)
    assert [w.point for w in straight_line_crossings(m)] == [(1, 0)]
    with pytest.raises(InputError, match=r"missing=\[\] spurious=\[\(0, 1\)\]"):
        planarity_verdict(m)


def test_one_long_edge_costs_one_pass_over_the_edges(monkeypatch):
    # the C5 model plus one edge between its two extreme points, hundreds
    # of units long: the midpoint scan alone would need a radius that long
    m = reduce(cycle_graph(5)).model
    pts = m.points
    u, v = sorted((pts.index(min(pts)), pts.index(max(pts))))
    bad = ProximityModel(Graph(m.graph.n, m.graph.edges | {(u, v)}), pts)
    calls = 0
    real = udgcut.udg_model.segments_properly_cross

    def counting(s, t):
        nonlocal calls
        calls += 1
        return real(s, t)

    monkeypatch.setattr(udgcut.udg_model, "segments_properly_cross", counting)
    found = straight_line_crossings(bad)
    assert calls <= 4 * bad.graph.m
    assert any((u, v) in (w.edge1, w.edge2) for w in found)
    assert found == _crossings_by_all_pairs(bad)

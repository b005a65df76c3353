"""Mesh drawings: template validity, corridor discipline, standardization."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgcut.drawing import (CrossingReport, MeshDrawing, StandardReport,
                            _placement_order, corridor_lines, crossings,
                            drawing_debug_json, mesh_draw, standardize,
                            validate_drawing, validate_standard)
from udgcut.errors import InputError
from udgcut.geometry import SCALE, Point, dist2_units
from udgcut.graph_core import (adjacency, complete_graph, cycle_graph,
                               disjoint_union, graph, max_degree, path_graph,
                               petersen_graph, random_graph)


def test_edgeless_graph_draws_as_bare_placements():
    d = mesh_draw(graph(3))
    assert len(d.placement) == 3 and not d.routes
    assert validate_drawing(d) == []


def test_single_edge_route_stays_in_its_corridors():
    d = mesh_draw(graph(2, [(0, 1)]))
    assert validate_drawing(d) == []
    _assert_routes_inside_corridors(d)


def test_degree_five_rejected():
    star5 = graph(6, [(0, i) for i in range(1, 6)])
    with pytest.raises(InputError):
        mesh_draw(star5)


def test_placement_spacing_at_least_five():
    d = mesh_draw(complete_graph(5))
    pts = list(d.placement.values())
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(pts[i].xu - pts[j].xu) >= 5 * SCALE
            assert abs(pts[i].yu - pts[j].yu) >= 5 * SCALE


def _assert_routes_inside_corridors(d: MeshDrawing):
    """Interior segments run on corridor lines of the two endpoints; the only
    other lines a route may use are the endpoint port lines (the vertex's own
    row and column, entered within two units of the vertex)."""
    for (u, v), route in d.routes.items():
        s_letter, t_letter = d.corridors[(u, v)]
        pu, pv = d.placement[u], d.placement[v]
        rows = {corridor_lines(pu, s_letter)[0], corridor_lines(pv, t_letter)[0],
                pu.yu, pv.yu}
        cols = {corridor_lines(pu, s_letter)[1], corridor_lines(pv, t_letter)[1],
                pu.xu, pv.xu}
        for a, b in zip(route, route[1:]):
            if a.yu == b.yu:
                assert a.yu in rows
            else:
                assert a.xu in cols


def test_corridors_unique_per_vertex_and_contain_routes():
    rng = random.Random(79)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 10), p=0.5, max_deg=4)
        d = mesh_draw(g)
        assert validate_drawing(d) == []
        _assert_routes_inside_corridors(d)
        used: dict[int, list[str]] = {v: [] for v in range(g.n)}
        for (u, v), (s_letter, t_letter) in d.corridors.items():
            used[u].append(s_letter)
            used[v].append(t_letter)
        for letters in used.values():
            assert len(letters) == len(set(letters))


def test_k5_has_crossings():
    d = standardize(mesh_draw(complete_graph(5)))
    assert validate_drawing(d) == []
    assert len(crossings(d)) >= 1


def test_crossing_report_identifies_roles():
    d = standardize(mesh_draw(complete_graph(5)))
    for cr in crossings(d):
        assert cr.point.is_mesh_cross()
        assert cr.horizontal_edge != cr.vertical_edge
        route_h = d.routes[cr.horizontal_edge]
        assert any(p.yu == q.yu == cr.point.yu
                   and min(p.xu, q.xu) < cr.point.xu < max(p.xu, q.xu)
                   for p, q in zip(route_h, route_h[1:]))


def test_planar_route_set_has_no_crossings():
    d = mesh_draw(graph(2, [(0, 1)]))
    assert len(crossings(d)) == 0


def test_standardize_satisfies_all_conditions():
    rng = random.Random(83)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 12), p=0.4, max_deg=4)
        d = standardize(mesh_draw(g))
        assert validate_drawing(d) == []
        report = validate_standard(d, crossings(d))
        assert report.ok, report.witnesses


def test_standardize_idempotent():
    d = standardize(mesh_draw(complete_graph(5)))
    again = standardize(d)
    assert again.placement == d.placement
    assert again.routes == d.routes


def test_standardize_preserves_the_abstract_graph():
    g = complete_graph(5)
    d = standardize(mesh_draw(g))
    assert set(d.routes) == set(g.edges)
    for (u, v), route in d.routes.items():
        assert route[0] == d.placement[u] and route[-1] == d.placement[v]


def test_standardize_separates_close_vertices():
    # two vertices 3 apart on a shared column: one shift puts them >= 10 apart
    d = MeshDrawing(graph(2), {0: Point.mesh(0, 0), 1: Point.mesh(0, 3)}, {})
    out = standardize(d)
    assert abs(out.placement[0].yu - out.placement[1].yu) >= 10 * SCALE


def _close_crossings_drawing() -> MeshDrawing:
    # two plus-shaped crossing pairs 4 apart in x
    g = graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    placement = {0: Point.mesh(0, -20), 1: Point.mesh(0, 20),
                 2: Point.mesh(-20, 0), 3: Point.mesh(20, 0),
                 4: Point.mesh(4, -20), 5: Point.mesh(4, 20),
                 6: Point.mesh(-20, 40), 7: Point.mesh(20, 40)}
    routes = {
        (0, 1): (placement[0], placement[1]),
        (2, 3): (placement[2], placement[3]),
        (4, 5): (placement[4], placement[5]),
        (6, 7): (placement[6], placement[7]),
    }
    return MeshDrawing(g, placement, routes)


def _vertex_near_crossing_drawing() -> MeshDrawing:
    # vertex on the crossing's mesh line, two units beyond the segment end
    g = graph(5, [(0, 1), (2, 3)])
    placement = {0: Point.mesh(0, -20), 1: Point.mesh(0, 20),
                 2: Point.mesh(-20, 0), 3: Point.mesh(1, 0),
                 4: Point.mesh(2, 0)}
    routes = {(0, 1): (placement[0], placement[1]),
              (2, 3): (placement[2], placement[3])}
    return MeshDrawing(g, placement, routes)


def test_validate_standard_flags_close_crossings():
    d = _close_crossings_drawing()
    assert validate_drawing(d) == []
    report = validate_standard(d, crossings(d))
    assert not report.crossing_pairs_ok
    pts = {p for p in report.witnesses["crossing_pairs"]}
    assert pts == {Point.mesh(0, 0), Point.mesh(4, 0)}


def test_validate_standard_flags_vertex_near_crossing():
    d = _vertex_near_crossing_drawing()
    assert validate_drawing(d) == []
    report = validate_standard(d, crossings(d))
    assert not report.vertex_crossing_ok
    witness_vertex, witness_crossing = report.witnesses["vertex_crossing"]
    assert witness_crossing == Point.mesh(0, 0)
    assert witness_vertex in {Point.mesh(1, 0), Point.mesh(2, 0)}


def _validate_standard_by_all_pairs(d: MeshDrawing, xreport) -> StandardReport:
    """validate_standard as it was before its distance checks used a grid,
    kept verbatim as the reference for its report and first witnesses."""
    xs = [c.point for c in xreport]
    vs = sorted(d.placement.values())
    report = StandardReport(True, True, True, True)

    def far(p: Point, q: Point) -> bool:
        return dist2_units(p, q) >= 100 * SCALE * SCALE

    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not far(xs[i], xs[j]):
                report.crossing_pairs_ok = False
                report.witnesses.setdefault("crossing_pairs", (xs[i], xs[j]))
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not far(vs[i], vs[j]):
                report.vertex_pairs_ok = False
                report.witnesses.setdefault("vertex_pairs", (vs[i], vs[j]))
    for v in vs:
        for x in xs:
            if not far(v, x):
                report.vertex_crossing_ok = False
                report.witnesses.setdefault("vertex_crossing", (v, x))
    carrier_rows = set()
    carrier_cols = set()
    for route in d.routes.values():
        for p, q in zip(route, route[1:]):
            if p.yu == q.yu:
                carrier_rows.add(p.yu)
            else:
                carrier_cols.add(p.xu)
    for lines, name in ((sorted(carrier_rows), "rows"), (sorted(carrier_cols), "cols")):
        for a, b in zip(lines, lines[1:]):
            if b - a < 10 * SCALE:
                report.parallel_lines_ok = False
                report.witnesses.setdefault(f"parallel_{name}", (a, b))
    return report


def test_validate_standard_matches_the_all_pairs_reference():
    rng = random.Random(97)
    drawings = [_close_crossings_drawing(), _vertex_near_crossing_drawing()]
    for g in [complete_graph(5), petersen_graph(), cycle_graph(12), graph(30)] + [
            random_graph(rng, rng.randint(2, 14), p=rng.uniform(0.2, 0.9), max_deg=4)
            for _ in range(40)]:
        drawings += [mesh_draw(g), standardize(mesh_draw(g))]
    failing = 0
    for d in drawings:
        xreport = crossings(d)
        # the witnesses follow the report's order, so try it reversed too
        for report in (xreport, CrossingReport(xreport.items[::-1])):
            got = validate_standard(d, report)
            assert got == _validate_standard_by_all_pairs(d, report)
            failing += not got.ok
    assert failing >= 80


def test_overlapping_routes_are_rejected():
    import pytest as _pytest
    from udgcut.errors import DegenerateOverlapError
    g = graph(4, [(0, 1), (2, 3)])
    placement = {0: Point.mesh(0, 0), 1: Point.mesh(10, 0),
                 2: Point.mesh(4, 0), 3: Point.mesh(14, 0)}
    routes = {(0, 1): (placement[0], placement[1]),
              (2, 3): (placement[2], placement[3])}
    d = MeshDrawing(g, placement, routes)
    assert any("overlap" in p for p in validate_drawing(d))
    with _pytest.raises(DegenerateOverlapError):
        crossings(d)


def test_debug_json_round_trips_mesh_coordinates():
    d = mesh_draw(complete_graph(3))
    payload = json.loads(drawing_debug_json(d))
    assert payload["n"] == 3
    assert len(payload["routes"]) == 3
    for rec in payload["placements"]:
        v = rec["vertex"]
        assert d.placement[v] == Point.mesh(rec["x"], rec["y"])


def test_random_degree4_graphs_draw_validly():
    rng = random.Random(89)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.2, 0.7), max_deg=4)
        assert max_degree(g) <= 4
        d = mesh_draw(g)
        assert validate_drawing(d) == []


def _placement_order_by_full_scan(g):
    """_placement_order as it was before it kept a heap, kept verbatim as the
    reference for its order."""
    adj = adjacency(g)
    placed: set[int] = set()
    order: list[int] = []
    while len(order) < g.n:
        best = None
        for x in range(g.n):
            if x in placed:
                continue
            closing = sum(1 for y in adj[x] if y in placed)
            opening = len(adj[x]) - closing
            key = (opening - closing, opening, x)
            if best is None or key < best[0]:
                best = (key, x)
        order.append(best[1])
        placed.add(best[1])
    return order


@st.composite
def _graphs_with_isolated_vertices(draw):
    n = draw(st.integers(0, 16))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    return disjoint_union(graph(n, edges), graph(draw(st.integers(0, 4))))


@settings(max_examples=300, deadline=None)
@given(_graphs_with_isolated_vertices())
def test_placement_order_matches_the_full_scan(g):
    assert _placement_order(g) == _placement_order_by_full_scan(g)


def test_placement_order_matches_the_full_scan_on_named_graphs():
    named = [graph(0), graph(1), graph(40), path_graph(2), path_graph(17),
             complete_graph(5), cycle_graph(9), petersen_graph(),
             disjoint_union(complete_graph(5), graph(3)),
             disjoint_union(graph(2), path_graph(6))]
    for g in named:
        assert _placement_order(g) == _placement_order_by_full_scan(g)

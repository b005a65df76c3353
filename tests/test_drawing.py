"""Mesh drawings: template validity, corridor discipline, standardization."""

import json
import random

import pytest

from udgcut.drawing import (MeshDrawing, corridor_lines, crossings,
                            drawing_debug_json, mesh_draw, standardize,
                            validate_drawing, validate_standard)
from udgcut.errors import InputError
from udgcut.geometry import SCALE, Point
from udgcut.graph_core import complete_graph, graph, max_degree, random_graph


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


def test_validate_standard_flags_close_crossings():
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
    d = MeshDrawing(g, placement, routes)
    assert validate_drawing(d) == []
    report = validate_standard(d, crossings(d))
    assert not report.crossing_pairs_ok
    pts = {p for p in report.witnesses["crossing_pairs"]}
    assert pts == {Point.mesh(0, 0), Point.mesh(4, 0)}


def test_validate_standard_flags_vertex_near_crossing():
    # vertex on the crossing's mesh line, two units beyond the segment end
    g = graph(5, [(0, 1), (2, 3)])
    placement = {0: Point.mesh(0, -20), 1: Point.mesh(0, 20),
                 2: Point.mesh(-20, 0), 3: Point.mesh(1, 0),
                 4: Point.mesh(2, 0)}
    routes = {(0, 1): (placement[0], placement[1]),
              (2, 3): (placement[2], placement[3])}
    d = MeshDrawing(g, placement, routes)
    assert validate_drawing(d) == []
    report = validate_standard(d, crossings(d))
    assert not report.vertex_crossing_ok
    witness_vertex, witness_crossing = report.witnesses["vertex_crossing"]
    assert witness_crossing == Point.mesh(0, 0)
    assert witness_vertex in {Point.mesh(1, 0), Point.mesh(2, 0)}


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

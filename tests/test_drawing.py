"""Mesh drawings: template validity, one line per vertex, standardization."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udgcut.drawing
from udgcut.drawing import (SPACING, Crossing, MeshDrawing, _axis_lines,
                            _meetings, _placement_order, crossings, mesh_draw,
                            standardize, validate_drawing, validate_standard)
from udgcut.errors import DegenerateOverlapError, InputError
from udgcut.geometry import SCALE, Point, dist2_units
from udgcut.graph_core import (Edge, adjacency, complete_graph, cycle_graph,
                               disjoint_union, graph, max_degree, path_graph,
                               petersen_graph, random_graph)
from udgcut.reduction import _detour_site, _paths_and_gadgets


def test_edgeless_graph_draws_as_bare_placements():
    d = mesh_draw(graph(3))
    assert len(d.placement) == 3 and not d.routes
    assert validate_drawing(d) == []


def test_single_edge_takes_one_bend():
    d = mesh_draw(graph(2, [(0, 1)]))
    assert validate_drawing(d) == []
    assert d.routes[(0, 1)] == (Point.mesh(0, 0), Point.mesh(2, 0), Point.mesh(2, 2))
    _assert_one_line_template(d)


def test_degree_five_rejected():
    star5 = graph(6, [(0, i) for i in range(1, 6)])
    with pytest.raises(InputError):
        mesh_draw(star5)


def test_each_vertex_owns_one_row_and_one_column():
    d = mesh_draw(complete_graph(5))
    placed = [d.placement[v] for v in _placement_order(d.graph)]
    # K5 puts two edges at each of its first and last vertices on private
    # lines, which sit between the vertices' own lines
    assert [(p.xu // SCALE, p.yu // SCALE) for p in placed] == [
        (2, 2), (8, 4), (10, 8), (12, 10), (14, 14)]
    _assert_one_line_template(d)


def _earlier_first(d: MeshDrawing, e: Edge):
    """The route of e from its earlier-placed end, and that end and the other."""
    u, v = e
    if d.placement[u].xu < d.placement[v].xu:
        return d.routes[e], u, v
    return d.routes[e][::-1], v, u


def _shape(d: MeshDrawing, e: Edge):
    """"EN" or "NE" for a one-bend route; for any other, the kinds of the
    private lines its stubs step onto at the earlier and the later end."""
    route, _, _ = _earlier_first(d, e)
    kinds = tuple("col" if a.yu == b.yu else "row" for a, b in (route[:2], route[-2:]))
    if len(route) == 3:
        return "EN" if kinds[0] == "col" else "NE"
    return kinds


def _port(p: Point, nxt: Point) -> str:
    return "E" if nxt.xu > p.xu else "W" if nxt.xu < p.xu else "N" if nxt.yu > p.yu else "S"


def _assert_one_line_template(d: MeshDrawing):
    """The invariants of mesh_draw's drawing before standardization: each
    vertex above and right of the one placed before it, the occupied rows
    and columns at consecutive even coordinates, and every route either
    one bend from the earlier end up and to the right, or two stubs of one
    line each onto lines no other route uses, joined by one bend or one
    more line; at each vertex its routes leave by distinct ports."""
    placed = [d.placement[v] for v in _placement_order(d.graph)]
    assert all(a.xu < b.xu and a.yu < b.yu for a, b in zip(placed, placed[1:]))
    rows = {p.yu for r in d.routes.values() for p in r} | {p.yu for p in d.placement.values()}
    cols = {p.xu for r in d.routes.values() for p in r} | {p.xu for p in d.placement.values()}
    for lines in (rows, cols):
        assert sorted(lines) == list(range(0, 2 * SCALE * len(lines), 2 * SCALE))
    lines_of = {e: ({("row", a.yu) for a, b in zip(r, r[1:]) if a.yu == b.yu}
                    | {("col", a.xu) for a, b in zip(r, r[1:]) if a.xu == b.xu})
                for e, r in d.routes.items()}
    ports = {v: [] for v in d.placement}
    for e, lines in lines_of.items():
        route, p, q = _earlier_first(d, e)
        ports[p].append(_port(route[0], route[1]))
        ports[q].append(_port(route[-1], route[-2]))
        turns = [(a.yu == b.yu) != (b.yu == c.yu) for a, b, c in zip(route, route[1:], route[2:])]
        assert all(turns) and len(route) in (3, 5, 6)
        if len(route) == 3:
            (x0, y0), (x2, y2) = route[0], route[2]
            assert x0 < x2 and y0 < y2 and route[1] in ((x2, y0), (x0, y2))
            continue
        own = {("row", d.placement[v].yu) for v in (p, q)} | {("col", d.placement[v].xu)
                                                               for v in (p, q)}
        others = set().union(*(lines_of[f] for f in d.routes if f != e))
        assert not (lines - own) & others
        for a, b in (route[:2], route[-2:]):
            assert abs(a.xu - b.xu) + abs(a.yu - b.yu) == 2 * SCALE
    for v, used in ports.items():
        assert len(used) == len(set(used))


def test_routes_keep_to_their_ends_and_private_lines():
    rng = random.Random(79)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 10), p=0.5, max_deg=4)
        d = mesh_draw(g)
        assert validate_drawing(d) == []
        _assert_one_line_template(d)


def _conflict_cycles(d: MeshDrawing) -> list[int]:
    """The length of each cycle of one-bend routes in which each route
    shares its earlier end with one neighbour and its later end with the
    other, which mesh_draw must give different ways."""
    one_bend = [e for e, route in d.routes.items() if len(route) == 3]
    sharing: dict[tuple, list[Edge]] = {}
    for e in one_bend:
        _, p, q = _earlier_first(d, e)
        sharing.setdefault(("earlier", p), []).append(e)
        sharing.setdefault(("later", q), []).append(e)
    mates: dict[Edge, list[Edge]] = {e: [] for e in one_bend}
    for pair in sharing.values():
        if len(pair) == 2:
            mates[pair[0]].append(pair[1])
            mates[pair[1]].append(pair[0])
    cycles, seen = [], set()
    for e in one_bend:
        if e in seen:
            continue
        component, stack = [], [e]
        seen.add(e)
        while stack:
            component.append(f := stack.pop())
            for h in mates[f]:
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        if all(len(mates[f]) == 2 for f in component):
            cycles.append(len(component))
    return cycles


def test_every_route_shape_occurs_and_every_path_has_a_detour_site():
    """K5, Petersen and seeded random graphs draw every route shape, and
    the spacing of 8 leaves a parity detour site on every step-2 path, even
    or odd.  Cycles of one-bend routes that must differ alternate a shared
    earlier end and a shared later end, so they are even: an odd one, which
    could not be 2-coloured, never occurs."""
    rng = random.Random(5)
    graphs = [complete_graph(5), petersen_graph()] + [
        random_graph(rng, rng.randint(6, 16), rng.uniform(0.3, 0.9), 4) for _ in range(10)]
    shapes, cycles, four_later, paths = set(), [], 0, 0
    for g in graphs:
        raw = mesh_draw(g)
        _assert_one_line_template(raw)
        shapes |= {_shape(raw, e) for e in raw.routes}
        cycles += _conflict_cycles(raw)
        adj = adjacency(g)
        four_later += sum(len(adj[v]) == 4 and all(raw.placement[w].xu > raw.placement[v].xu
                                                   for w in adj[v]) for v in range(g.n))
        d = standardize(raw)
        points, _, built, step2 = _paths_and_gadgets(d, crossings(d))
        for path in step2.values():
            assert _detour_site(points, built, path) is not None
        paths += len(step2)
    kinds = ("row", "col")
    assert shapes == {"EN", "NE"} | {(a, b) for a in kinds for b in kinds}
    assert cycles and all(c % 2 == 0 for c in cycles)
    assert four_later >= 1 and paths == sum(g.m for g in graphs)


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
        assert validate_standard(d, crossings(d)) == {}


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
    # two vertices 3 apart on a shared column: one shift puts them SPACING apart
    d = MeshDrawing(graph(2), {0: Point.mesh(0, 0), 1: Point.mesh(0, 3)}, {})
    out = standardize(d)
    assert abs(out.placement[0].yu - out.placement[1].yu) >= SPACING * SCALE


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
    witnesses = validate_standard(d, crossings(d))
    assert "crossing_pairs" in witnesses
    pts = {p for p in witnesses["crossing_pairs"]}
    assert pts == {Point.mesh(0, 0), Point.mesh(4, 0)}


def test_validate_standard_flags_vertex_near_crossing():
    d = _vertex_near_crossing_drawing()
    assert validate_drawing(d) == []
    witnesses = validate_standard(d, crossings(d))
    assert "vertex_crossing" in witnesses
    witness_vertex, witness_crossing = witnesses["vertex_crossing"]
    assert witness_crossing == Point.mesh(0, 0)
    assert witness_vertex in {Point.mesh(1, 0), Point.mesh(2, 0)}


def _validate_standard_by_all_pairs(d: MeshDrawing, xreport) -> dict[str, tuple]:
    """validate_standard as it was before its distance checks used a grid,
    kept as the reference for its first witnesses and their order."""
    xs = [c.point for c in xreport]
    vs = sorted(d.placement.values())
    witnesses: dict[str, tuple] = {}

    def far(p: Point, q: Point) -> bool:
        return dist2_units(p, q) >= (SPACING * SCALE) ** 2

    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not far(xs[i], xs[j]):
                witnesses.setdefault("crossing_pairs", (xs[i], xs[j]))
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not far(vs[i], vs[j]):
                witnesses.setdefault("vertex_pairs", (vs[i], vs[j]))
    for v in vs:
        for x in xs:
            if not far(v, x):
                witnesses.setdefault("vertex_crossing", (v, x))
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
            if b - a < SPACING * SCALE:
                witnesses.setdefault(f"parallel_{name}", (a, b))
    return witnesses


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
        for report in (xreport, xreport[::-1]):
            got = validate_standard(d, report)
            want = _validate_standard_by_all_pairs(d, report)
            assert list(got.items()) == list(want.items())  # key order too
            failing += got != {}
    assert failing >= 80


def test_overlapping_routes_are_rejected():
    g = graph(4, [(0, 1), (2, 3)])
    placement = {0: Point.mesh(0, 0), 1: Point.mesh(10, 0),
                 2: Point.mesh(4, 0), 3: Point.mesh(14, 0)}
    routes = {(0, 1): (placement[0], placement[1]),
              (2, 3): (placement[2], placement[3])}
    d = MeshDrawing(g, placement, routes)
    assert any("overlap" in p for p in validate_drawing(d))
    with pytest.raises(DegenerateOverlapError):
        crossings(d)
    _assert_matches_the_pair_loops(d)


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


# -- the pair loops that validate_drawing and crossings used before the sweep,
# kept verbatim (renamed) as the reference for their problems and reports --


def _segments(route):
    return [(route[i], route[i + 1]) for i in range(len(route) - 1)]


def _is_horizontal(a: Point, b: Point) -> bool:
    return a.yu == b.yu


def _closed_axis_intersection(p1: Point, q1: Point, p2: Point, q2: Point):
    """Intersection of two closed axis-aligned segments.

    Returns None, ("point", Point) or ("overlap",).
    """
    h1, h2 = _is_horizontal(p1, q1), _is_horizontal(p2, q2)
    if h1 and h2:
        if p1.yu != p2.yu:
            return None
        lo = max(min(p1.xu, q1.xu), min(p2.xu, q2.xu))
        hi = min(max(p1.xu, q1.xu), max(p2.xu, q2.xu))
        if lo > hi:
            return None
        if lo == hi:
            return ("point", Point(lo, p1.yu))
        return ("overlap",)
    if not h1 and not h2:
        if p1.xu != p2.xu:
            return None
        lo = max(min(p1.yu, q1.yu), min(p2.yu, q2.yu))
        hi = min(max(p1.yu, q1.yu), max(p2.yu, q2.yu))
        if lo > hi:
            return None
        if lo == hi:
            return ("point", Point(p1.xu, lo))
        return ("overlap",)
    if h1:
        (hp, hq), (vp, vq) = (p1, q1), (p2, q2)
    else:
        (hp, hq), (vp, vq) = (p2, q2), (p1, q1)
    x = vp.xu
    y = hp.yu
    if min(hp.xu, hq.xu) <= x <= max(hp.xu, hq.xu) and \
            min(vp.yu, vq.yu) <= y <= max(vp.yu, vq.yu):
        return ("point", Point(x, y))
    return None


def _point_on_segment(pt: Point, a: Point, b: Point) -> bool:
    if a.yu == b.yu:
        return pt.yu == a.yu and min(a.xu, b.xu) <= pt.xu <= max(a.xu, b.xu)
    return pt.xu == a.xu and min(a.yu, b.yu) <= pt.yu <= max(a.yu, b.yu)


def _strictly_interior(pt: Point, a: Point, b: Point) -> bool:
    if a.yu == b.yu:
        return pt.yu == a.yu and min(a.xu, b.xu) < pt.xu < max(a.xu, b.xu)
    return pt.xu == a.xu and min(a.yu, b.yu) < pt.yu < max(a.yu, b.yu)


def _validate_drawing_by_pairs(d: MeshDrawing) -> list[str]:
    """All mesh-drawing invariants; returns a list of problems, [] if valid."""
    problems: list[str] = []
    g = d.graph
    if set(d.placement) != set(range(g.n)):
        problems.append("placement does not cover the vertex set")
        return problems
    seen_points: dict[Point, int] = {}
    for v, p in d.placement.items():
        if not p.is_mesh_cross():
            problems.append(f"vertex {v} not on a mesh cross: {p}")
        if p in seen_points:
            problems.append(f"vertices {seen_points[p]} and {v} coincide at {p}")
        seen_points[p] = v
    if set(d.routes) != set(g.edges):
        problems.append("routes do not cover the edge set exactly")
        return problems
    for (u, v), route in d.routes.items():
        if len(route) < 2:
            problems.append(f"route {(u, v)} has fewer than 2 points")
            continue
        if route[0] != d.placement[u] or route[-1] != d.placement[v]:
            problems.append(f"route {(u, v)} does not join its endpoints")
        for p, q in _segments(route):
            if p == q:
                problems.append(f"zero-length segment on route {(u, v)}")
            elif p.xu != q.xu and p.yu != q.yu:
                problems.append(f"non-axis-aligned segment on route {(u, v)}")
            if not p.is_mesh_cross() or not q.is_mesh_cross():
                problems.append(f"route corner off the mesh on {(u, v)}")
        # no pass through any vertex placement except the terminal contacts
        segs = _segments(route)
        for w, pw in d.placement.items():
            for i, (p, q) in enumerate(segs):
                if not _point_on_segment(pw, p, q):
                    continue
                ok = (w == u and i == 0 and pw == p) or \
                     (w == v and i == len(segs) - 1 and pw == q)
                if not ok:
                    problems.append(
                        f"route {(u, v)} passes through vertex {w} at {pw}")
        # self-intersection: non-adjacent segments disjoint, adjacent share corner
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                inter = _closed_axis_intersection(*segs[i], *segs[j])
                if inter is None:
                    continue
                if j == i + 1:
                    if inter[0] != "point" or inter[1] != segs[i][1]:
                        problems.append(f"route {(u, v)} folds onto itself")
                else:
                    problems.append(f"route {(u, v)} self-intersects")
    # pairwise route interaction
    edges = sorted(d.routes)
    crossing_points: dict[Point, set[Edge]] = {}
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            shared = set(e1) & set(e2)
            shared_pts = {d.placement[w] for w in shared}
            for s1 in _segments(d.routes[e1]):
                for s2 in _segments(d.routes[e2]):
                    inter = _closed_axis_intersection(*s1, *s2)
                    if inter is None:
                        continue
                    if inter[0] == "overlap":
                        problems.append(f"routes {e1} and {e2} overlap collinearly")
                        continue
                    pt = inter[1]
                    if _strictly_interior(pt, *s1) and _strictly_interior(pt, *s2):
                        crossing_points.setdefault(pt, set()).update({e1, e2})
                    elif pt not in shared_pts:
                        problems.append(
                            f"routes {e1} and {e2} touch non-transversally at {pt}")
    for pt, involved in crossing_points.items():
        if len(involved) > 2:
            problems.append(f"three routes meet at {pt}")
        if not pt.is_mesh_cross():
            problems.append(f"crossing off the mesh at {pt}")
        for e3 in edges:
            if e3 in involved:
                continue
            if any(_point_on_segment(pt, p, q) for p, q in _segments(d.routes[e3])):
                problems.append(f"crossing at {pt} lies on a third route {e3}")
    return problems


def _crossings_by_pairs(d: MeshDrawing) -> list[Crossing]:
    """Exhaustive list of proper crossings with horizontal/vertical roles."""
    edges = sorted(d.routes)
    found: dict[Point, Crossing] = {}
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e1, e2 = edges[i], edges[j]
            for p1, q1 in _segments(d.routes[e1]):
                for p2, q2 in _segments(d.routes[e2]):
                    inter = _closed_axis_intersection(p1, q1, p2, q2)
                    if inter is None:
                        continue
                    if inter[0] == "overlap":
                        raise DegenerateOverlapError(
                            f"routes {e1} and {e2} overlap collinearly")
                    pt = inter[1]
                    if _strictly_interior(pt, p1, q1) and _strictly_interior(pt, p2, q2):
                        if _is_horizontal(p1, q1):
                            cr = Crossing(pt, e1, e2)
                        else:
                            cr = Crossing(pt, e2, e1)
                        found[pt] = cr
    return sorted(found.values(), key=lambda c: (c.point.xu, c.point.yu))


def _report_or_error(crossings_fn, d: MeshDrawing):
    try:
        return crossings_fn(d)
    except DegenerateOverlapError as exc:
        return str(exc)


def _assert_matches_the_pair_loops(d: MeshDrawing):
    # the pair loops report a problem once per pair of segments that shows it
    assert validate_drawing(d) == list(dict.fromkeys(_validate_drawing_by_pairs(d)))
    assert _report_or_error(crossings, d) == _report_or_error(_crossings_by_pairs, d)


def test_the_sweep_matches_the_pair_loops_on_drawn_graphs():
    rng = random.Random(101)
    graphs = [complete_graph(4), complete_graph(5), cycle_graph(5), petersen_graph()]
    graphs += [cycle_graph(n) for n in range(3, 61)]
    graphs += [random_graph(rng, rng.randint(1, 24), p=rng.uniform(0.2, 0.9), max_deg=4)
               for _ in range(50)]
    for g in graphs:
        for d in (mesh_draw(g), standardize(mesh_draw(g))):
            _assert_matches_the_pair_loops(d)


def _drawing(n: int, placement: dict, routes: dict) -> MeshDrawing:
    """A drawing of the graph on n vertices with the routes' edges, from
    placements and route corners in mesh units; a Point is taken as it is,
    so it may lie off the mesh."""
    def at(p):
        return p if isinstance(p, Point) else Point.mesh(*p)

    return MeshDrawing(graph(n, list(routes)), {v: at(p) for v, p in placement.items()},
                       {e: tuple(at(p) for p in route) for e, route in routes.items()})


_PLUS = {0: (-10, 0), 1: (10, 0), 2: (0, -10), 3: (0, 10), 4: (5, -5), 5: (5, 5)}
_BAD_DRAWINGS = {
    "passes through vertex": (
        {0: (0, 0), 1: (10, 0), 2: (5, 0)}, {(0, 1): [(0, 0), (10, 0)]},
        ["route (0, 1) passes through vertex 2 at Point(xu=100, yu=0)"]),
    "self-intersects": (
        {0: (0, 0), 1: (5, -10)}, {(0, 1): [(0, 0), (10, 0), (10, 5), (5, 5), (5, -10)]},
        ["route (0, 1) self-intersects"]),
    # a fold turns back along the route, so the next turn meets an earlier segment
    "folds onto itself": (
        {0: (0, 0), 1: (5, 5)}, {(0, 1): [(0, 0), (0, 10), (0, 5), (5, 5)]},
        ["route (0, 1) folds onto itself", "route (0, 1) self-intersects"]),
    # a corner of (2, 3) rests on (0, 1): met by both of its segments, reported once
    "touch non-transversally": (
        {0: (0, 0), 1: (10, 0), 2: (5, 10), 3: (15, -5)},
        {(0, 1): [(0, 0), (10, 0)], (2, 3): [(5, 10), (5, 0), (5, -5), (15, -5)]},
        ["routes (0, 1) and (2, 3) touch non-transversally at Point(xu=100, yu=0)"]),
    # a third route crossing at the same point runs along one of the two
    "three routes meet": (
        _PLUS, {(0, 1): [(-10, 0), (10, 0)], (2, 3): [(0, -10), (0, 10)],
                (4, 5): [(5, -5), (0, -5), (0, 5), (5, 5)]},
        ["routes (2, 3) and (4, 5) touch non-transversally at Point(xu=0, yu=-100)",
         "routes (2, 3) and (4, 5) overlap collinearly",
         "routes (2, 3) and (4, 5) touch non-transversally at Point(xu=0, yu=100)",
         "three routes meet at Point(xu=0, yu=0)"]),
    "crossing off the mesh": (
        {0: (-10, 0), 1: (10, 0), 2: Point(10, -200), 3: Point(10, 200)},
        {(0, 1): [(-10, 0), (10, 0)], (2, 3): [Point(10, -200), Point(10, 200)]},
        ["vertex 2 not on a mesh cross: Point(xu=10, yu=-200)",
         "vertex 3 not on a mesh cross: Point(xu=10, yu=200)",
         "route corner off the mesh on (2, 3)",
         "crossing off the mesh at Point(xu=10, yu=0)"]),
    # a route through a crossing point that does not cross there turns on it
    "crossing on a third route": (
        _PLUS, {(0, 1): [(-10, 0), (10, 0)], (2, 3): [(0, -10), (0, 10)],
                (4, 5): [(5, -5), (0, -5), (0, 0), (5, 0), (5, 5)]},
        ["routes (0, 1) and (4, 5) touch non-transversally at Point(xu=0, yu=0)",
         "routes (0, 1) and (4, 5) overlap collinearly",
         "routes (0, 1) and (4, 5) touch non-transversally at Point(xu=100, yu=0)",
         "routes (2, 3) and (4, 5) touch non-transversally at Point(xu=0, yu=-100)",
         "routes (2, 3) and (4, 5) overlap collinearly",
         "routes (2, 3) and (4, 5) touch non-transversally at Point(xu=0, yu=0)",
         "crossing at Point(xu=0, yu=0) lies on a third route (4, 5)"]),
    "zero-length segment": (
        {0: (0, 0), 1: (10, 0)}, {(0, 1): [(0, 0), (0, 0), (10, 0)]},
        ["zero-length segment on route (0, 1)",
         "route (0, 1) passes through vertex 0 at Point(xu=0, yu=0)"]),
    "non-axis-aligned segment": (
        {0: (0, 0), 1: (10, 10)}, {(0, 1): [(0, 0), (10, 10)]},
        ["non-axis-aligned segment on route (0, 1)"]),
    "corner off the mesh": (
        {0: (0, 0), 1: (10, 10)},
        {(0, 1): [(0, 0), Point(0, 110), Point(200, 110), (10, 10)]},
        ["route corner off the mesh on (0, 1)"]),
    "vertices coincide": (
        {0: (0, 0), 1: (10, 0), 2: (0, 0)}, {(0, 1): [(0, 0), (10, 0)]},
        ["vertices 0 and 2 coincide at Point(xu=0, yu=0)",
         "route (0, 1) passes through vertex 2 at Point(xu=0, yu=0)"]),
    "fewer than 2 points": (
        {0: (0, 0), 1: (10, 0)}, {(0, 1): [(0, 0)]},
        ["route (0, 1) has fewer than 2 points"]),
    "does not join its endpoints": (
        {0: (0, 0), 1: (10, 0)}, {(0, 1): [(0, 0), (0, 10)]},
        ["route (0, 1) does not join its endpoints"]),
}


@pytest.mark.parametrize("name", list(_BAD_DRAWINGS))
def test_each_problem_of_a_bad_drawing_is_reported(name):
    placement, routes, expected = _BAD_DRAWINGS[name]
    d = _drawing(len(placement), placement, routes)
    assert validate_drawing(d) == expected
    _assert_matches_the_pair_loops(d)


@pytest.mark.parametrize("d, expected", [
    (MeshDrawing(graph(2), {0: Point.mesh(0, 0)}, {}),
     ["placement does not cover the vertex set"]),
    (MeshDrawing(graph(2, [(0, 1)]), {0: Point.mesh(0, 0), 1: Point.mesh(1, 0)}, {}),
     ["routes do not cover the edge set exactly"]),
])
def test_a_drawing_that_misses_vertices_or_edges_is_reported(d, expected):
    assert validate_drawing(d) == expected
    _assert_matches_the_pair_loops(d)


def test_the_sweep_looks_at_near_linearly_many_pairs():
    """Counts, not clock time.  The sweep looks only at segment pairs that
    meet, so its candidates are its meetings; and the lines that
    validate_drawing and crossings run in drawing.py stay within
    c * (S + K), where the pair loops looked at S^2 / 2 = 1.0 M pairs."""
    d = standardize(mesh_draw(random_graph(random.Random(300), 300, 0.5, 4)))
    s = sum(len(route) - 1 for route in d.routes.values())
    k = len(crossings(d))
    assert (s, k) == (1428, 6114)
    assert len(_meetings(_axis_lines(list(d.routes.values())))) <= 2 * (s + k)
    lines_run = 0

    def count_lines(frame, event, arg):
        nonlocal lines_run
        lines_run += event == "line"
        return count_lines

    def in_drawing(frame, event, arg):
        return count_lines if frame.f_code.co_filename == udgcut.drawing.__file__ else None

    previous = sys.gettrace()
    sys.settrace(in_drawing)
    try:
        validate_drawing(d)
        crossings(d)
    finally:
        sys.settrace(previous)
    assert lines_run <= 200 * (s + k)

"""The end-to-end reduction: geometry of the output model, the 8k + t cut
identity, parity bookkeeping, doubling, and the JSON contract."""

import ast
import dataclasses
import inspect
import json
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udgcut.reduction
from udgcut.drawing import MeshDrawing
from udgcut.errors import ConstructionError, InconsistencyError, InputError
from udgcut.gadget import build_H, h_model
from udgcut.geometry import SCALE, Point, dist2
from udgcut.graph_core import (adjacency, complete_graph, cycle_graph, graph,
                               path_graph, petersen_graph, random_graph)
from udgcut.reduction import (ROLE_DETOUR_APEX, ROLE_GADGET_W, ROLE_ORIGINAL,
                              ROLE_SUBDIVISION, _HALF, Provenance, _add_vertices,
                              _apply_parity_detour, _detour_site, _link,
                              LoadedOutput, _path_points, _plant_gadget,
                              bisection_double, load_output_json, recover_mc,
                              reduce, to_json, validate_reduction)
from udgcut.solvers import (greedy_tree_decomposition, max_bisection_bruteforce,
                            max_cut_bruteforce, max_cut_treewidth_dp)
from udgcut.udg_model import (ProximityModel, precision2, random_precise_model,
                              validate_model)

ALLOWED_EDGE_DIST2 = {Fraction(1), Fraction(1, 2), Fraction(73, 100),
                      Fraction(13, 16), Fraction(9, 16)}


def test_reduce_k2_is_a_path():
    r = reduce(graph(2, [(0, 1)]))
    assert r.k == 0
    assert r.t % 2 == 0
    assert r.result.m == r.result.n - 1
    assert all(len(nbrs) <= 2 for nbrs in adjacency(r.result))
    # a path is bipartite: its maximum cut is the edge count, so mc = 1 + t
    assert max_cut_treewidth_dp(r.result) == 1 + r.t


def test_reduce_rejects_degree_five():
    with pytest.raises(InputError):
        reduce(graph(6, [(0, i) for i in range(1, 6)]))


def test_reduce_edgeless_and_single_vertex():
    r = reduce(graph(3))
    assert (r.k, r.t, r.result.n) == (0, 0, 3)
    assert validate_model(r.model).ok
    assert reduce(graph(1)).result.n == 1
    assert reduce(graph(0)).result.n == 0


def test_reduce_k4_identity():
    g = complete_graph(4)
    r = reduce(g)
    mc_u = max_cut_treewidth_dp(r.result)
    assert recover_mc(mc_u, r.k, r.t) == max_cut_bruteforce(g)[0] == 4


def test_reduce_k5_identity_and_precision():
    g = complete_graph(5)
    r = reduce(g)
    assert r.k >= 1
    assert precision2(r.model) == Fraction(1, 2)
    mc_u = max_cut_treewidth_dp(r.result)
    assert recover_mc(mc_u, r.k, r.t) == 6


def test_edge_lengths_come_from_the_construction_menu():
    rng = random.Random(7)
    cases = [complete_graph(4), cycle_graph(5),
             random_graph(rng, 7, p=0.5, max_deg=4)]
    for g in cases:
        r = reduce(g)
        for u, v in r.result.edges:
            d = dist2(r.model.points[u], r.model.points[v])
            assert d in ALLOWED_EDGE_DIST2
            assert d <= 1


def test_provenance_roles_and_counters():
    g = complete_graph(4)
    r = reduce(g)
    roles = [r.provenance[v].role for v in range(r.result.n)]
    assert roles[:g.n] == [ROLE_ORIGINAL] * g.n
    assert r.k == sum(1 for x in roles if x == ROLE_GADGET_W) // 4
    on_path = sum(1 for x in roles if x in (ROLE_SUBDIVISION, ROLE_DETOUR_APEX))
    assert on_path == r.t
    assert all(cnt % 2 == 0 for cnt in r.per_edge_subdivisions.values())
    assert sum(r.per_edge_subdivisions.values()) == r.t
    assert set(r.per_edge_subdivisions) == set(g.edges)


def test_route_walk_steps_are_exactly_one_unit():
    from udgcut.drawing import mesh_draw, standardize
    from udgcut.geometry import dist2 as d2
    from udgcut.reduction import _route_mesh_points
    d = standardize(mesh_draw(complete_graph(4)))
    for route in d.routes.values():
        pts = _route_mesh_points(route)
        assert pts[0] == route[0] and pts[-1] == route[-1]
        for a, b in zip(pts, pts[1:]):
            assert d2(a, b) == 1


def test_provenance_origins_point_at_real_objects():
    from udgcut.drawing import crossings, mesh_draw, standardize
    g = complete_graph(5)
    r = reduce(g)
    points = {cr.point for cr in crossings(standardize(mesh_draw(g)))}
    for v in range(r.result.n):
        prov = r.provenance[v]
        if prov.role == ROLE_ORIGINAL:
            assert prov.edge is None and prov.crossing is None
        elif prov.role in (ROLE_SUBDIVISION, ROLE_DETOUR_APEX):
            assert prov.edge in g.edges
        else:
            assert prov.role == ROLE_GADGET_W
            assert prov.crossing in points


def test_nonadjacent_pairs_are_strictly_farther_than_one():
    r = reduce(cycle_graph(4))
    assert validate_model(r.model).ok
    pts = r.model.points
    for i in range(r.result.n):
        for j in range(i + 1, r.result.n):
            if not r.result.has_edge(i, j):
                assert dist2(pts[i], pts[j]) > 1


def test_abstract_surgery_reconstruction():
    """U(G) as an abstract graph equals G with each edge subdivided t_e times
    and the gadget planted per crossing: certify via vertex degrees and the
    counted identity mc computed by the DP both before and after."""
    g = cycle_graph(5)
    r = reduce(g)
    # degree of an original vertex is preserved
    adj_g, adj_u = adjacency(g), adjacency(r.result)
    for v in range(g.n):
        assert len(adj_u[v]) == len(adj_g[v])
    # gadget apexes have degree 2; chain and path vertices degree 2 or more
    for v in range(g.n, r.result.n):
        prov = r.provenance[v]
        if prov.role == ROLE_GADGET_W:
            assert len(adj_u[v]) == 2
        elif prov.role == ROLE_DETOUR_APEX:
            assert len(adj_u[v]) == 2


def test_gadget_layout_matches_the_model_offsets():
    from udgcut.gadget import V_OFFSETS, W_OFFSETS
    r = reduce(complete_graph(5))
    apexes: dict[tuple[int, int], set[Point]] = {}
    for pt, prov in zip(r.model.points, r.provenance):
        if prov.role == ROLE_GADGET_W:
            apexes.setdefault(prov.crossing, set()).add(pt)
    assert len(apexes) == r.k >= 1
    on_model = set(r.model.points)
    for (x, y), ws in apexes.items():
        center = Point(x, y + _HALF)  # half a unit above the crossing
        assert ws == {center.translate(dx, dy) for dx, dy in W_OFFSETS}
        assert {center.translate(dx, dy) for dx, dy in V_OFFSETS} <= on_model


def test_recover_mc_examples():
    assert recover_mc(10, 1, 0) == 2
    assert recover_mc(7, 0, 0) == 7
    assert recover_mc(7, 0, 6) == 1
    with pytest.raises(InconsistencyError):
        recover_mc(7, 1, 0)


def test_bisection_double_trivial_models():
    from udgcut.geometry import Point
    from udgcut.udg_model import ProximityModel
    empty = bisection_double(ProximityModel(graph(0), ()))
    assert empty == ProximityModel(graph(0), ())
    single = ProximityModel(graph(1), (Point.mesh(0, 0),))
    doubled = bisection_double(single)
    assert doubled.graph.n == 2
    assert max_bisection_bruteforce(doubled.graph)[0] == 0
    k2 = ProximityModel(graph(2, [(0, 1)]), (Point.mesh(0, 0), Point.mesh(1, 0)))
    doubled = bisection_double(k2)
    assert max_bisection_bruteforce(doubled.graph)[0] == 2


def test_bisection_double_h_model():
    doubled = bisection_double(h_model())
    assert validate_model(doubled).ok
    assert doubled.graph.n == 16
    assert max_bisection_bruteforce(doubled.graph)[0] == 20
    assert max_cut_bruteforce(build_H())[0] == 10


def test_bisection_double_reduction_output():
    r = reduce(graph(2, [(0, 1)]))
    doubled = bisection_double(r.model)
    assert doubled.graph.n == 2 * r.result.n
    assert validate_model(doubled).ok
    # both copies are paths: max bisection is all edges, twice mc
    assert max_cut_treewidth_dp(doubled.graph) == 2 * (1 + r.t)


def test_json_round_trip_and_determinism():
    g = complete_graph(4)
    text1 = to_json(reduce(g))
    text2 = to_json(reduce(g))
    assert text1 == text2
    loaded = load_output_json(text1)
    r = reduce(g)
    assert loaded.model.graph.edges == r.result.edges
    assert loaded.model.points == r.model.points
    assert (loaded.k, loaded.t) == (r.k, r.t)
    payload = json.loads(text1)
    assert payload["scale"] == 20
    assert all(isinstance(rec["x"], int) and isinstance(rec["y"], int)
               for rec in payload["vertices"])
    assert payload["source"]["n"] == 4
    per_edge = {tuple(e): cnt for e, cnt in payload["per_edge_subdivisions"]}
    assert per_edge == r.per_edge_subdivisions
    assert sum(per_edge.values()) == payload["t"]


def test_model_json_for_standalone_models():
    text = to_json(h_model())
    loaded = load_output_json(text)
    assert loaded.model.graph.edges == build_H().edges
    assert validate_model(loaded.model).ok


def test_load_output_json_rejects_garbage():
    with pytest.raises(InputError):
        load_output_json("{not json")
    with pytest.raises(InputError):
        load_output_json('{"scale": 7}')


@pytest.mark.parametrize("make", [
    lambda: complete_graph(4), lambda: complete_graph(5), lambda: cycle_graph(5),
    petersen_graph, lambda: random_graph(random.Random(8), 8, 0.5, 4),
    lambda: random_graph(random.Random(16), 16, 0.5, 4),
], ids=["K4", "K5", "C5", "Petersen", "random8", "random16"])
def test_load_output_json_gives_back_the_reduction(make):
    r = reduce(make())
    assert load_output_json(to_json(r)) == LoadedOutput(
        r.model, r.k, r.t, [p.role for p in r.provenance])


def _vertex(**fields):
    return {"id": 0, "x": 0, "y": 0, **fields}


@pytest.mark.parametrize("payload, message", [
    ({"vertices": [_vertex(id=0.0)]}, "vertex id must be an integer, got 0.0"),
    ({"vertices": [_vertex(id=True)]}, "vertex id must be an integer, got True"),
    ({"vertices": [_vertex(id=5)]}, "vertex ids must be a permutation of 0..0"),
    ({"vertices": [_vertex(x="1")]}, "x must be an integer, got '1'"),
    ({"vertices": [_vertex(y=1.5)]}, "y must be an integer, got 1.5"),
    ({"vertices": [{"id": 0, "x": 1.5}]}, "x must be an integer, got 1.5"),
    ({"vertices": [{"id": 0, "y": 0}]}, "'x'"),
    ({"vertices": [_vertex(role=3)]}, "role of vertex 0 must be a string"),
    ({"edges": [[0, 1.0]]}, "edge endpoint must be an integer, got 1.0"),
    ({"edges": [[False, 1.0]]}, "edge endpoint must be an integer, got False"),
    ({"edges": ["01"]}, "edge endpoint must be an integer, got '0'"),
    ({"edges": [[0, 1, 2]]}, "too many values to unpack (expected 2)"),
    ({"k": 1.0}, "k must be an integer, got 1.0"),
    ({"t": None}, "t must be an integer, got None"),
], ids=lambda x: "" if isinstance(x, str) else json.dumps(x))
def test_load_output_json_names_the_first_bad_field(payload, message):
    text = json.dumps({"scale": SCALE, "vertices": [_vertex(), _vertex(id=1, x=SCALE)],
                       "edges": [], **payload})
    with pytest.raises(InputError) as info:
        load_output_json(text)
    assert str(info.value) == f"malformed model JSON: {message}"


def test_validate_reduction_accepts_all_outputs():
    rng = random.Random(97)
    for _ in range(5):
        g = random_graph(rng, rng.randint(2, 7), p=0.5, max_deg=4)
        validate_reduction(reduce(g))


def _k5_with_one_fault(fault):
    if fault == "swapped source":  # the same model, but of the 4-cycle 0-2-1-3
        return dataclasses.replace(reduce(cycle_graph(4)),
                                   source=graph(4, [(0, 2), (1, 2), (1, 3), (0, 3)]))
    if fault == "swapped model":
        r = reduce(graph(4, [(0, 1), (2, 3)]))
        return dataclasses.replace(r, model=reduce(graph(2, [(0, 1)])).model,
                                   provenance=r.provenance[:1])
    r = reduce(complete_graph(5))
    points = r.model.points
    on_edge = Provenance(ROLE_SUBDIVISION, edge=min(r.source.edges))

    def relabelled(pick, new):
        return [new if pick(vid, p) else p for vid, p in enumerate(r.provenance)]

    apexes = [vid for vid, p in enumerate(r.provenance) if p.role == ROLE_GADGET_W]
    crossing = r.provenance[apexes[0]].crossing
    faults = {
        "missing edge": dict(model=ProximityModel(
            graph(r.result.n, r.result.edges - {min(r.result.edges)}), r.model.points)),
        "close points": dict(model=ProximityModel(
            graph(2, [(0, 1)]), (Point(0, 0), Point(_HALF, 0)))),
        "loose points": dict(model=reduce(graph(2, [(0, 1)])).model),
        "coincident points": dict(model=ProximityModel(
            r.result, points[:-1] + points[-2:-1])),
        "apex on a path": dict(provenance=relabelled(
            lambda vid, p: vid == apexes[0], on_edge)),
        # four more path vertices and one crossing fewer keep N
        "crossing on a path": dict(provenance=relabelled(
            lambda vid, p: p.crossing == crossing, on_edge)),
        # vertex n, the least point after G's, is a subdivision vertex
        "path vertex original": dict(provenance=relabelled(
            lambda vid, p: vid == r.source.n, Provenance(ROLE_ORIGINAL))),
    }
    return dataclasses.replace(r, **faults[fault])


@pytest.mark.parametrize("fault, words", [
    ("missing edge", "model invalid: missing="),
    ("close points", "precision2 1/4 below 1/2"),
    ("loose points", "not tight despite k >= 1"),
    ("coincident points", "coincident points for vertices 595 and 596"),
    ("swapped model", "1 provenance entries, 18 vertices"),
    ("apex on a path", r"N = 597, not n \+ t \+ 4k = 598"),
    ("crossing on a path", r"kernel constant 620, not 8k \+ t = 616"),
    ("path vertex original", r"N = 597, not n \+ t \+ 4k = 596"),
    ("swapped source", r"kernel of U\(G\) is not G at weight 1: pairs \[\(\(0, 1\), 1\)"),
])
def test_validate_reduction_rejects_each_fault(fault, words):
    with pytest.raises(ConstructionError, match=words):
        validate_reduction(_k5_with_one_fault(fault))


_real_construct_H_on = udgcut.reduction.construct_H_on


def _planted_with(change):
    """construct_H_on with its edge set passed through change."""
    def planted(g, e1, e2):
        h = _real_construct_H_on(g, e1, e2)
        return dataclasses.replace(h, edges=change(h.edges))
    return planted


# each fault a construction check against H or against per-edge parity once
# caught: reduce still refuses it through the model, N or the kernel
@pytest.mark.parametrize("target, stand_in, words", [
    ("construct_H_on", _planted_with(lambda es: es - {(0, 4)}), "model invalid: missing="),
    ("construct_H_on", _planted_with(lambda es: es | {(4, 6)}),
     r"model invalid: missing=\[\] spurious=\[\("),
    ("_apply_parity_detour", lambda *args: None, r"kernel of U\(G\) is not G at weight 1"),
], ids=["apex edge dropped", "spurious gadget edge", "parity detour skipped"])
def test_reduce_refuses_a_broken_gadget_or_detour(monkeypatch, target, stand_in, words):
    monkeypatch.setattr(udgcut.reduction, target, stand_in)
    with pytest.raises(ConstructionError, match=words):
        reduce(complete_graph(5))


def test_every_atlas_graph_up_to_six_vertices_carries_the_kernel_certificate():
    # the graphs of An Atlas of Graphs (Read and Wilson) that reduce accepts
    # with 1-6 vertices; validate_reduction, run by reduce, checks each one's
    # kernel against G and 8k + t.  Each JSON's counts must agree with its
    # own vertex records, the only witness a loaded model carries.
    import networkx as nx

    atlas = [g for g in nx.graph_atlas_g()
             if 1 <= g.number_of_nodes() <= 6 and max(d for _, d in g.degree()) <= 4]
    assert len(atlas) == 174
    for g in atlas:
        payload = json.loads(to_json(reduce(graph(g.number_of_nodes(), list(g.edges())))))
        on_path = [tuple(rec["origin"]) for rec in payload["vertices"]
                   if rec["role"] in (ROLE_SUBDIVISION, ROLE_DETOUR_APEX)]
        per_edge = {tuple(e): cnt for e, cnt in payload["per_edge_subdivisions"]}
        assert per_edge == Counter(on_path)
        assert all(cnt % 2 == 0 for cnt in per_edge.values())
        assert sorted(per_edge) == [tuple(e) for e in payload["source"]["edges"]]
        assert payload["t"] == len(on_path)
        named = [tuple(rec["origin"]) for rec in payload["vertices"]
                 if rec["role"] == ROLE_GADGET_W]
        assert 4 * payload["k"] == len(named)
        assert payload["k"] == len(set(named))


def test_random_identity_suite():
    rng = random.Random(101)
    for _ in range(6):
        g = random_graph(rng, rng.randint(2, 8), p=rng.uniform(0.3, 0.8), max_deg=4)
        r = reduce(g)
        td = greedy_tree_decomposition(r.result)
        assert td.width <= 12
        mc_u = max_cut_treewidth_dp(r.result, td)
        assert recover_mc(mc_u, r.k, r.t) == max_cut_bruteforce(g)[0]


def test_path_graph_reduction():
    g = path_graph(4)
    r = reduce(g)
    mc_u = max_cut_treewidth_dp(r.result)
    assert recover_mc(mc_u, r.k, r.t) == 3


def test_cycles_and_paths_reduce_without_crossings():
    # mesh_draw places a cycle or a path along itself, one step up the
    # diagonal per vertex, so its routes form a staircase that no route
    # crosses; the cycle's closing edge runs round the outside
    for n in range(3, 61):
        for g in (cycle_graph(n), path_graph(n)):
            assert reduce(g).k == 0, (n, g.m)


def test_unstandardized_drawings_return_or_raise_construction_error(monkeypatch):
    # the raw drawing, its lines 2 apart, puts crossings next to each other,
    # next to route ends and near corners; every site precondition must
    # catch that
    monkeypatch.setattr("udgcut.reduction.standardize", lambda d: d)
    monkeypatch.setattr("udgcut.reduction.validate_standard", lambda d, x: {})
    cases = [complete_graph(4), complete_graph(5), cycle_graph(5), petersen_graph()]
    for seed in range(40):
        rng = random.Random(seed)
        cases.append(random_graph(rng, rng.randint(4, 12), rng.uniform(0.05, 1.0), 4))
    returned = 0
    for g in cases:
        try:
            validate_reduction(reduce(g))
            returned += 1
        except ConstructionError:
            pass
    assert returned == 2


def test_an_unstandardized_drawing_fails_the_standardness_gate(monkeypatch):
    monkeypatch.setattr("udgcut.reduction.standardize", lambda d: d)
    with pytest.raises(ConstructionError) as info:
        reduce(complete_graph(5))
    assert str(info.value) == (
        "standardization failed: "
        "{'crossing_pairs': (Point(xu=80, yu=40), Point(xu=160, yu=120)), "
        "'vertex_pairs': (Point(xu=160, yu=80), Point(xu=200, yu=160)), "
        "'vertex_crossing': (Point(xu=40, yu=40), Point(xu=80, yu=40)), "
        "'parallel_rows': (0, 40), 'parallel_cols': (0, 40)}")


def test_an_invalid_drawing_fails_the_drawing_gate(monkeypatch):
    # two routes on one row that overlap; standardizing keeps the overlap
    def overlapping(g):
        placement = {0: Point.mesh(0, 0), 1: Point.mesh(10, 0),
                     2: Point.mesh(5, 0), 3: Point.mesh(15, 0)}
        return MeshDrawing(g, placement, {(0, 1): (placement[0], placement[1]),
                                          (2, 3): (placement[2], placement[3])})

    monkeypatch.setattr("udgcut.reduction.mesh_draw", overlapping)
    with pytest.raises(ConstructionError) as info:
        reduce(graph(4, [(0, 1), (2, 3)]))
    assert str(info.value) == (
        "standardized drawing invalid: ["
        "'route (0, 1) passes through vertex 2 at Point(xu=220, yu=0)', "
        "'route (2, 3) passes through vertex 1 at Point(xu=440, yu=0)', "
        "'routes (0, 1) and (2, 3) overlap collinearly']")


def _path_points_on(corners, crossings):
    """_path_points on one edge routed through the given mesh corners, with
    crossings {mesh point: whether the edge is the horizontal one}."""
    route = tuple(Point.mesh(x, y) for x, y in corners)
    return _path_points((0, 1), route, {Point.mesh(x, y): horizontal
                                        for (x, y), horizontal in crossings.items()})


def test_a_horizontal_crossing_is_laid_out_on_the_row_above_in_route_order():
    chain = [Point(70, 10), Point(90, 10), Point(110, 10), Point(130, 10)]
    east = _path_points_on([(0, 0), (10, 0)], {(5, 0): True})
    assert east == ([Point.mesh(x, 0) for x in range(4)] + chain
                    + [Point.mesh(x, 0) for x in range(7, 11)])
    assert _path_points_on([(10, 0), (0, 0)], {(5, 0): True}) == east[::-1]
    # on the vertical edge the crossing is a plain path point
    assert (_path_points_on([(5, -5), (5, 5)], {(5, 0): False})
            == [Point.mesh(5, y) for y in range(-5, 6)])


@pytest.mark.parametrize("corners, crossings, words", [
    ([(0, 0), (10, 0)], {(1, 0): True}, "next to an end of route"),
    ([(0, 0), (0, 10)], {(0, 9): False}, "next to an end of route"),
    ([(0, 0), (10, 0)], {(4, 0): True, (5, 0): True}, "within two steps"),
    ([(0, 0), (10, 0)], {(3, 0): True, (5, 0): True}, "within two steps"),
    ([(0, 0), (0, 10)], {(0, 4): False, (0, 6): False}, "within two steps"),
    ([(0, 0), (5, 0), (5, 5)], {(4, 0): True}, "is not straight on row 0"),
    ([(0, 0), (4, 0), (4, 5)], {(3, 0): True}, "is not straight on row 0"),
])
def test_site_preconditions_name_the_crossing(corners, crossings, words):
    with pytest.raises(ConstructionError, match=words) as info:
        _path_points_on(corners, crossings)
    assert any(str(Point.mesh(x, y)) in str(info.value) for x, y in crossings)


def test_a_missing_site_vertex_names_the_crossing():
    cp = Point.mesh(5, 0)
    points = [Point(110, 10), Point(100, 20), Point(90, 10)]   # none at cp itself
    prov = [Provenance(ROLE_SUBDIVISION)] * len(points)
    adj = [set() for _ in points]
    node_at = {pt: nid for nid, pt in enumerate(points)}
    with pytest.raises(ConstructionError, match=re.escape(f"near crossing {cp}")):
        _plant_gadget(points, prov, adj, node_at, cp)


def test_the_traced_benchmark_finds_every_callee_it_wraps(monkeypatch):
    # perfbench/tracer.py swaps these names in udgcut.reduction's globals;
    # one that is gone makes `perfbench/run.py --trace 1` fail on getattr,
    # and one that reduce no longer calls silently drops its span
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    callees = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["REDUCTION_CALLEES"])
    missing = [name for name in callees
               if not callable(getattr(udgcut.reduction, name, None))]
    assert callees and missing == []
    calls = dict.fromkeys(callees, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in callees:
        monkeypatch.setattr(udgcut.reduction, name,
                            counted(name, getattr(udgcut.reduction, name)))
    reduce(complete_graph(5))
    assert [name for name, count in calls.items() if count == 0] == []


def test_the_benchmark_finds_every_name_it_calls_on_udgcut():
    # perfbench/child.py reaches the library as `u.<name>`; a name that is
    # gone, or a DP that no longer takes the decomposition and the width
    # ceiling, makes every benchmark run fail
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text()
    names = {node.attr for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "u"}
    assert "max_cut_treewidth_dp" in names
    assert sorted(name for name in names if not hasattr(udgcut, name)) == []
    dp_parameters = inspect.signature(udgcut.max_cut_treewidth_dp).parameters
    assert {"td", "max_width"} <= dp_parameters.keys()


def _site_by_windows(points, adj, path):
    """The detour site chosen by testing every six-vertex window: the
    reference for _detour_site, None where the path has no site."""
    candidates = []
    for i in range(len(path) - 5):
        window = path[i:i + 6]
        pts = [points[nid] for nid in window]
        if any(p.xu % SCALE or p.yu % SCALE for p in pts):
            continue
        if len({p.yu for p in pts}) != 1:
            continue
        dxs = {q.xu - p.xu for p, q in zip(pts, pts[1:])}
        if dxs not in ({SCALE}, {-SCALE}):
            continue
        if any(len(adj[nid]) > 2 for nid in window):
            continue
        left, right = (window[2], window[3]) if pts[2].xu < pts[3].xu else (window[3], window[2])
        candidates.append(((points[left].xu, points[left].yu), left, right))
    if not candidates:
        return None
    _, left, right = min(candidates)
    return left, right


def _path_lists(pts, degree3=()):
    """The point, provenance and adjacency lists of one path through pts,
    and the path; the path vertex at each index in degree3 gets one more
    neighbour, a pendant at its own point."""
    points, prov, adj = [], [], []
    prov_sub = Provenance(ROLE_SUBDIVISION)
    path = list(_add_vertices(points, prov, adj, pts, prov_sub))
    for a, c in zip(path, path[1:]):
        _link(adj, a, c)
    for i in degree3:
        _link(adj, path[i], *_add_vertices(points, prov, adj, [pts[i]], prov_sub))
    return points, prov, adj, path


def _assert_detour_site_matches_the_windows(points, prov, adj, path):
    site = _detour_site(points, adj, path)
    assert site == _site_by_windows(points, adj, path)
    if site is None:
        with pytest.raises(ConstructionError, match="no parity detour site on edge"):
            _apply_parity_detour(points, prov, adj, path, (0, 1))


_STEPS = [(SCALE, 0), (-SCALE, 0), (0, SCALE), (0, -SCALE),
          (_HALF, _HALF), (_HALF, -_HALF), (-_HALF, _HALF), (-_HALF, -_HALF)]


@st.composite
def _detour_paths(draw):
    # legs of unit steps along rows and columns, and half-unit diagonal
    # steps onto and off the mesh, from a mesh or a half-unit start
    x = draw(st.integers(-3, 3)) * SCALE + draw(st.sampled_from([0, 0, _HALF]))
    y = draw(st.integers(-3, 3)) * SCALE + draw(st.sampled_from([0, 0, _HALF]))
    points = [Point(x, y)]
    for _ in range(draw(st.integers(0, 6))):
        dx, dy = draw(st.sampled_from(_STEPS))
        for _ in range(draw(st.integers(1, 7))):
            x, y = x + dx, y + dy
            points.append(Point(x, y))
    degree3 = draw(st.lists(st.integers(0, len(points) - 1), max_size=3))
    return _path_lists(points, degree3)


@settings(max_examples=400, deadline=None)
@given(_detour_paths())
def test_detour_site_matches_the_six_vertex_windows(case):
    _assert_detour_site_matches_the_windows(*case)


def _row(x0, length, step=1, y=0):
    return [Point.mesh(x0 + step * i, y) for i in range(length)]


@pytest.mark.parametrize("points, degree3, has_site", [
    (_row(0, 5), (), False),                        # a run of exactly 5
    (_row(0, 6), (), True),                         # a run of exactly 6
    (_row(0, 6, step=-1), (), True),                # the same, walked west
    (_row(0, 6), (1,), False),                      # a vertex of degree 3
    (_row(0, 7), (0, 0), True),                     # an end of degree 3, 6 after it
    (_row(0, 3) + _row(3, 3, y=1), (), False),      # a corner between rows
    (_row(0, 5) + [Point(90, 10)] + _row(5, 5), (), False),  # a half-unit point
    ([Point.mesh(0, y) for y in range(8)], (), False),       # a column
    (_row(0, 4) + _row(2, 4, step=-1, y=1) + _row(0, 7, y=2), (3, 5), True),
])
def test_detour_site_on_hand_built_paths(points, degree3, has_site):
    case = _path_lists(points, degree3)
    points, _, adj, path = case
    assert (_detour_site(points, adj, path) is not None) == has_site
    _assert_detour_site_matches_the_windows(*case)


def _to_json_by_dumps(r):
    """to_json as a dict dumped with sorted keys: the reference for the
    text to_json writes directly."""
    if isinstance(r, udgcut.reduction.ReductionOutput):
        model, source, k, t = r.model, r.source, r.k, r.t
        provenance, per_edge = r.provenance, r.per_edge_subdivisions
    else:
        model, source, k, t = r, r.graph, 0, 0
        provenance = [Provenance(ROLE_ORIGINAL)] * r.graph.n
        per_edge = {}
    vertices = []
    for vid, pt in enumerate(model.points):
        prov = provenance[vid]
        origin = None
        if prov.edge is not None:
            origin = list(prov.edge)
        elif prov.crossing is not None:
            origin = list(prov.crossing)
        vertices.append({"id": vid, "x": pt.xu, "y": pt.yu,
                         "role": prov.role, "origin": origin})
    payload = {
        "scale": SCALE,
        "vertices": vertices,
        "edges": [list(e) for e in model.graph.sorted_edges()],
        "k": k,
        "t": t,
        "per_edge_subdivisions": [[list(e), cnt] for e, cnt
                                  in sorted(per_edge.items())],
        "source": {"n": source.n,
                   "edges": [list(e) for e in source.sorted_edges()]},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_to_json_matches_json_dumps_on_bare_models():
    h = h_model()
    models = [h, ProximityModel(graph(0), ()), ProximityModel(graph(1), (Point(0, 0),)),
              ProximityModel(h.graph, tuple(p.translate(-517, -303) for p in h.points))]
    rng = random.Random(31)
    models += [random_precise_model(rng, rng.randint(1, 20)) for _ in range(50)]
    for m in models:
        assert to_json(m) == _to_json_by_dumps(m)


def test_to_json_matches_json_dumps_on_reduce_outputs():
    rng = random.Random(37)
    cases = [complete_graph(4), complete_graph(5), cycle_graph(5), petersen_graph()]
    cases += [random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 1.0), 4)
              for _ in range(40)]
    for g in cases:
        r = reduce(g)
        assert to_json(r) == _to_json_by_dumps(r)

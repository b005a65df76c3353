"""The reduction pipeline: a degree-at-most-4 graph becomes a unit disk
graph U(G) with an exact proximity model at squared precision >= 1/2, while
the maximum cut moves by exactly 8k + t (k crossings, t subdivision
vertices), so mc(G) is recoverable from mc(U(G)).

Steps, in construction order:
  1. standard mesh drawing, with occupied parallel lines at least
     drawing.SPACING = 6 mesh units apart (the paper uses 10);
  2. per edge, one walk over its route lays out the path in final form:
     every interior mesh cross is a subdivision vertex, except where the edge
     is the horizontal one of a crossing, whose point and two flanks give way
     to four vertices on the half-integer row above; consecutive path
     vertices are adjacent (at distance 1, or 1/sqrt(2) onto that row);
  3. per crossing, plant the gadget on the two path edges through it, with
     apex coordinates from the gadget model centered half a unit above the
     crossing;
  4. per original edge with an odd subdivision count, bend one straight
     horizontal unit edge into a two-edge detour through a fresh apex,
     restoring even parity.

validate_reduction checks every output, and certifies its cut identity
with the chain-rule kernel (kernel.kernelize_graph, which reads U(G) alone):
eliminating every vertex but G's must leave exactly G at weight 1 and the
constant 8k + t.  That certificate, not the paper's spacing argument, is
what the identity rests on at spacing 6.

U(G) is built in three lists indexed by vertex id: points, provenance and
adjacency sets.  Ids are handed out in creation order, G's vertices first;
one renumbering at the end keeps 0..n-1 and orders the rest by point.

reduce and load_output_json run with the cyclic garbage collector paused
(graph_core.pause_gc): they allocate tens of thousands of sets, tuples and
lists that hold no reference cycles, so a collection during them walks
every one of those objects and frees nothing.  tests/test_gc.py checks
that the pipeline leaves no cyclic garbage.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count

from .drawing import (Crossing, MeshDrawing, crossings, mesh_draw, standardize,
                      validate_drawing, validate_standard)
from .errors import ConstructionError, InconsistencyError, InputError, PreconditionError
from .gadget import construct_H_on, h_model
from .geometry import SCALE, Point
from .graph_core import Edge, Graph, disjoint_union, graph, pause_gc
from .kernel import kernelize_graph
from .udg_model import ProximityModel, precision2, validate_model

ROLE_ORIGINAL = "original"
ROLE_SUBDIVISION = "subdivision"
ROLE_GADGET_W = "gadget_w"
ROLE_DETOUR_APEX = "detour_apex"

_HALF = SCALE // 2       # 1/2 mesh unit
_QUARTER = SCALE // 4    # 1/4 mesh unit


@dataclass(frozen=True)
class Provenance:
    role: str
    edge: Edge | None = None           # originating edge of G, for path vertices
    crossing: tuple[int, int] | None = None  # crossing point in 1/20 units, for w's


@dataclass
class ReductionOutput:
    """U(G) as a model of G, with one Provenance record per vertex.  k, t and
    the per-edge counts are derived from the records, the one witness of
    the construction, so they cannot disagree with it."""

    source: Graph
    model: ProximityModel
    provenance: list[Provenance]  # by vertex id

    @property
    def result(self) -> Graph:
        """U(G), the graph of the model."""
        return self.model.graph

    @cached_property
    def per_edge_subdivisions(self) -> dict[Edge, int]:
        """Path vertices per edge of G; an edge with none is not listed."""
        return Counter(p.edge for p in self.provenance if p.edge is not None)

    @cached_property
    def k(self) -> int:
        """The crossing count: the distinct crossings named by gadget apexes."""
        return len({p.crossing for p in self.provenance if p.role == ROLE_GADGET_W})

    @property
    def t(self) -> int:
        """The path vertex count: subdivision vertices and detour apexes."""
        return sum(self.per_edge_subdivisions.values())


def _route_mesh_points(route) -> list[Point]:
    """Every mesh cross along the polyline, in order, endpoints included."""
    pts = [route[0]]
    for i in range(len(route) - 1):
        p, q = route[i], route[i + 1]
        dx = (q.xu > p.xu) - (q.xu < p.xu)
        dy = (q.yu > p.yu) - (q.yu < p.yu)
        steps = (abs(q.xu - p.xu) + abs(q.yu - p.yu)) // SCALE
        for s in range(1, steps + 1):
            pts.append(Point(p.xu + dx * s * SCALE, p.yu + dy * s * SCALE))
    return pts


@pause_gc
def reduce(g: Graph) -> ReductionOutput:
    """Run the full pipeline on a graph of maximum degree at most 4."""
    drawn = standardize(mesh_draw(g))
    problems = validate_drawing(drawn)
    if problems:
        raise ConstructionError(f"standardized drawing invalid: {problems[:3]}")
    xreport = crossings(drawn)
    witnesses = validate_standard(drawn, xreport)
    if witnesses:
        raise ConstructionError(f"standardization failed: {witnesses}")

    points, prov, adj, paths = _paths_and_gadgets(drawn, xreport)

    # Step 4: restore even parity per original edge (an odd count, an odd-length path).
    for e, path in paths.items():
        if len(path) % 2:
            _apply_parity_detour(points, prov, adj, path, e)

    # the renumbering; the sort is stable, so equal points keep creation order
    order = list(range(g.n)) + sorted(range(g.n, len(points)), key=points.__getitem__)
    remap = [0] * len(order)
    for new_id, nid in enumerate(order):
        remap[nid] = new_id
    edges = frozenset((ra, remap[c]) for ra, a in enumerate(order) for c in adj[a]
                      if ra < remap[c])
    model = ProximityModel(Graph(len(order), edges), tuple(map(points.__getitem__, order)))
    out = ReductionOutput(g, model, list(map(prov.__getitem__, order)))
    validate_reduction(out)
    return out


def _paths_and_gadgets(drawn: MeshDrawing, xreport: list[Crossing]):
    """Steps 2 and 3: U(G) before its parity detours, as the three lists
    (points, provenance, adjacency sets), and the step-2 path of ids of
    every edge of G."""
    # the crossing points on each edge, True where the edge is the horizontal one
    sites: dict[Edge, dict[Point, bool]] = {e: {} for e in drawn.routes}
    for cr in xreport:
        sites[cr.horizontal_edge][cr.point] = True
        sites[cr.vertical_edge][cr.point] = False

    points = [drawn.placement[v] for v in range(drawn.graph.n)]
    prov = [Provenance(ROLE_ORIGINAL)] * drawn.graph.n
    adj: list[set[int]] = [set() for _ in points]

    # Step 2: every path in its final form; its edges are consecutive pairs.
    paths: dict[Edge, list[int]] = {}
    for e in sorted(drawn.routes):
        inner = _path_points(e, drawn.routes[e], sites[e])[1:-1]
        path = [e[0], *_add_vertices(points, prov, adj, inner,
                                     Provenance(ROLE_SUBDIVISION, edge=e)), e[1]]
        for a, c in zip(path, path[1:]):
            _link(adj, a, c)
        paths[e] = path

    # Step 3: the gadget on every crossing.
    node_at = {pt: nid for nid, pt in enumerate(points)}
    for cr in xreport:
        _plant_gadget(points, prov, adj, node_at, cr.point)
    return points, prov, adj, paths


def _add_vertices(points: list[Point], prov: list[Provenance], adj: list[set[int]],
                  pts: list[Point], p: Provenance) -> range:
    """The ids of new vertices at pts, all sharing p (it is frozen)."""
    ids = range(len(points), len(points) + len(pts))
    points += pts
    prov += [p] * len(pts)
    adj += [set() for _ in pts]
    return ids


def _link(adj: list[set[int]], a: int, b: int):
    if a == b or b in adj[a]:
        raise ConstructionError(f"bad edge insertion ({a}, {b})")
    adj[a].add(b)
    adj[b].add(a)


def _path_points(e: Edge, route, sites: dict[Point, bool]) -> list[Point]:
    """Step 2 for one edge: the points of its path, in route order.

    Every mesh cross of the route is a path vertex, except where the edge is
    the horizontal one of a crossing (x, y): there the crossing and its two
    flanks (x -+ 1, y) give way to (x -+ 3/2, y + 1/2) and (x -+ 1/2, y + 1/2)
    on the half-integer row above.  On the vertical edge the crossing is a
    plain subdivision vertex.
    """
    pts = _route_mesh_points(route)
    swap: dict[int, tuple[Point, ...]] = {}
    for j, cp in enumerate(pts):
        if cp not in sites:
            continue
        if not 2 <= j <= len(pts) - 3:
            raise ConstructionError(f"crossing {cp} next to an end of route {e}")
        if any(p in sites for p in (pts[j - 2], pts[j - 1], pts[j + 1], pts[j + 2])):
            raise ConstructionError(f"crossing {cp} within two steps of another on {e}")
        if sites[cp]:
            step = pts[j + 1].xu - cp.xu
            if pts[j - 2:j + 3] != [Point(cp.xu + i * step, cp.yu) for i in range(-2, 3)]:
                raise ConstructionError(
                    f"crossing {cp}: route {e} is not straight on row {cp.yu} there")
            swap[j - 1] = tuple(Point(cp.xu + i * step // 2, cp.yu + _HALF)
                                for i in (-3, -1, 1, 3))
            swap[j] = swap[j + 1] = ()
    return [q for j, p in enumerate(pts) for q in swap.get(j, (p,))]


def _plant_gadget(points: list[Point], prov: list[Provenance], adj: list[set[int]],
                  node_at: dict[Point, int], cp: Point):
    """Step 3: plant H on the two path edges through crossing cp, at the
    points of the gadget model centered half a unit above cp: v0..v3 are
    path vertices, w0..w3 new ones.  construct_H_on runs on the subgraph
    induced by v0..v3, relabelled 0..3, and the edges it adds are linked."""
    model_points = h_model(cp.translate(0, _HALF)).points
    vs = []
    for pt in model_points[:4]:
        nid = node_at.get(pt)
        if nid is None:
            raise ConstructionError(f"expected a vertex at {pt} near crossing {cp}")
        vs.append(nid)
    local = Graph(4, frozenset((i, j) for i in range(4) for j in range(i + 1, 4)
                               if vs[j] in adj[vs[i]]))
    try:
        planted = construct_H_on(local, (0, 2), (1, 3))
    except PreconditionError as exc:
        raise ConstructionError(f"gadget precondition failed at {cp}: {exc}") from exc
    ids = (*vs, *_add_vertices(points, prov, adj, model_points[4:],
                               Provenance(ROLE_GADGET_W, crossing=(cp.xu, cp.yu))))
    for i, j in sorted(planted.edges - local.edges):
        _link(adj, ids[i], ids[j])


def _detour_site(points: list[Point], adj: list[set[int]], path: list[int]
                 ) -> tuple[int, int] | None:
    """The parity detour site of a step-2 path: its left and right vertex,
    or None when the path has none.

    Site rule: six consecutive path vertices on one mesh row, all at integer
    mesh crosses with degree at most 2, the detour applied to the middle
    edge.  This is stricter than requiring low degrees alone, which would
    admit sites one unit from a crossing chain or a route corner where the
    apex would land within distance 1 of a non-neighbor.  The site whose
    left vertex has the least (x, y), then the least ids, is taken.  One
    pass keeps the length of the current run of such vertices, in unit
    steps one way along a row; a run of six or more ending at index j
    holds the six from j - 5.
    """
    candidates = []
    run = 0
    for j, nid in enumerate(path):
        x, y = points[nid]
        if x % SCALE or y % SCALE or len(adj[nid]) > 2:
            run = 0
            continue
        if run and y == py and abs(x - px) == SCALE:
            run = run + 1 if run == 1 or x - px == step else 2
            step = x - px
        else:
            run = 1
        px, py = x, y
        if run >= 6:
            left, right = path[j - 3], path[j - 2]
            if step < 0:
                left, right = right, left
            candidates.append((points[left], left, right))
    if not candidates:
        return None
    _, left, right = min(candidates)
    return left, right


def _apply_parity_detour(points: list[Point], prov: list[Provenance],
                         adj: list[set[int]], path: list[int], e: Edge):
    """Step 4: bend the _detour_site edge of path, the step-2 path of e,
    through an apex."""
    site = _detour_site(points, adj, path)
    if site is None:
        raise ConstructionError(f"no parity detour site on edge {e}")
    left, right = site
    xl, yl = points[left]
    points[left] = Point(xl - _QUARTER, yl)
    points[right] = Point(xl + SCALE + _QUARTER, yl)
    apex, = _add_vertices(points, prov, adj, [Point(xl + _HALF, yl + _HALF)],
                          Provenance(ROLE_DETOUR_APEX, edge=e))
    adj[left].discard(right)
    adj[right].discard(left)
    _link(adj, apex, left)
    _link(adj, apex, right)


def validate_reduction(r: ReductionOutput):
    """Internal consistency of a ReductionOutput, and the certificate of its
    cut identity mc(U(G)) = mc(G) + 8k + t by the chain-rule kernel; raises
    ConstructionError.  The kernel and the N = n + t + 4k count stand in for
    checks of each gadget against H and of each path's parity."""
    try:
        report = validate_model(r.model)
    except InputError as exc:  # two vertices on one point
        raise ConstructionError(f"model invalid: {exc}") from exc
    if not report.ok:
        raise ConstructionError(
            f"model invalid: missing={report.missing_edges[:3]} "
            f"spurious={report.spurious_edges[:3]}")
    if r.result.n >= 2:
        p2 = precision2(r.model)
        if p2 < Fraction(1, 2):
            raise ConstructionError(f"precision2 {p2} below 1/2")
        if r.k >= 1 and p2 != Fraction(1, 2):
            raise ConstructionError(f"precision2 {p2} not tight despite k >= 1")
    if len(r.provenance) != r.result.n:
        raise ConstructionError(f"{len(r.provenance)} provenance entries, {r.result.n} vertices")
    # each path vertex counts once in t, and each gadget adds four w's
    if r.result.n != r.source.n + r.t + 4 * r.k:
        raise ConstructionError(f"N = {r.result.n}, not n + t + 4k = {r.source.n + r.t + 4 * r.k}")
    # the cut identity: eliminating every vertex but G's leaves exactly G at
    # weight 1 and the constant 8k + t
    residual, const = kernelize_graph(r.result, r.source.n)
    wrong = sorted(residual.items() ^ dict.fromkeys(r.source.edges, 1).items())
    if wrong:
        raise ConstructionError(f"kernel of U(G) is not G at weight 1: pairs {wrong[:3]} differ")
    if const != 8 * r.k + r.t:
        raise ConstructionError(f"kernel constant {const}, not 8k + t = {8 * r.k + r.t}")


def recover_mc(mc_u: int, k: int, t: int) -> int:
    """Invert the cut identity: mc(G) = mc(U(G)) - 8k - t."""
    value = mc_u - 8 * k - t
    if value < 0:
        raise InconsistencyError(f"mc_u={mc_u} smaller than 8k+t={8 * k + t}")
    return value


def bisection_double(model: ProximityModel) -> ProximityModel:
    """Two far-apart disjoint copies of the model: its maximum bisection is
    twice the maximum cut of the single copy."""
    g = model.graph
    if model.points:
        xs = [p.xu for p in model.points]
        dxu = (max(xs) - min(xs)) + 3 * SCALE
    else:
        dxu = 3 * SCALE
    doubled = disjoint_union(g, g)
    points = tuple(model.points) + tuple(p.translate(dxu, 0) for p in model.points)
    out = ProximityModel(doubled, points)
    report = validate_model(out)
    if not report.ok:
        raise ConstructionError("doubled model failed validation")
    return out


# -- serialization ---------------------------------------------------------


def to_json(r: "ReductionOutput | ProximityModel") -> str:
    """Deterministic JSON: integer 1/20-unit coordinates, sorted structures.

    The text is written directly, not through a dict, and must match
    json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    byte for byte: keys in sorted order, no spaces, and each vertex record
    {"id", "origin", "role", "x", "y"}, whose "origin" and "role" part is
    formatted once per Provenance object (reduce shares one per edge).

    A bare model is written as its own source with no gadgets and no path
    vertices, so k = t = 0, and every vertex original."""
    if isinstance(r, ProximityModel):
        r = ReductionOutput(r.graph, r, [Provenance(ROLE_ORIGINAL)] * r.graph.n)
    parts: dict[int, str] = {}  # by id(): hashing a Provenance would cost more
    vertices = []
    for vid, (x, y), prov in zip(count(), r.model.points, r.provenance):
        part = parts.get(id(prov))
        if part is None:
            origin = prov.edge if prov.edge is not None else prov.crossing
            part = parts[id(prov)] = json.dumps(
                {"origin": origin, "role": prov.role}, sort_keys=True, separators=(",", ":"))[1:-1]
        vertices.append(f'{{"id":{vid},{part},"x":{x},"y":{y}}}')
    subdivisions = json.dumps(sorted(r.per_edge_subdivisions.items()), separators=(",", ":"))
    return (f'{{"edges":{_edge_list(r.model.graph)},"k":{r.k},'
            f'"per_edge_subdivisions":{subdivisions},"scale":{SCALE},'
            f'"source":{{"edges":{_edge_list(r.source)},"n":{r.source.n}}},'
            f'"t":{r.t},"vertices":[{",".join(vertices)}]}}\n')


def _edge_list(g: Graph) -> str:
    return f"[{','.join(f'[{u},{v}]' for u, v in g.sorted_edges())}]"


@dataclass
class LoadedOutput:
    model: ProximityModel
    k: int
    t: int
    roles: list[str]  # by vertex id


def _json_int(value, what: str) -> int:
    # exact geometry: a float or a bool must not pass for an integer
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


@pause_gc
def load_output_json(text: str) -> LoadedOutput:
    """Decode a model JSON, rejecting anything but integer coordinates, ids
    that are a permutation of 0..n-1 and a simple edge list.  Whether the
    edges match the coordinates is left to validate_model."""
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise InputError("model JSON must be an object")
        if payload.get("scale") != SCALE:
            raise InputError(f"unsupported scale {payload.get('scale')}")
        n = len(payload["vertices"])
        points = [None] * n
        roles = [ROLE_ORIGINAL] * n
        # the checks of _json_int, inline: they run once per vertex
        for rec in payload["vertices"]:
            vid = rec["id"]
            if type(vid) is not int:
                raise InputError(f"vertex id must be an integer, got {vid!r}")
            if not 0 <= vid < n or points[vid] is not None:
                raise InputError(f"vertex ids must be a permutation of 0..{n - 1}")
            x = rec["x"]
            if type(x) is not int:
                raise InputError(f"x must be an integer, got {x!r}")
            y = rec["y"]
            if type(y) is not int:
                raise InputError(f"y must be an integer, got {y!r}")
            points[vid] = Point(x, y)
            roles[vid] = rec.get("role", ROLE_ORIGINAL)
            if not isinstance(roles[vid], str):
                raise InputError(f"role of vertex {vid} must be a string")
        edges = payload["edges"]
        graph_obj = graph(n, edges)
        if graph_obj.m != len(edges):
            raise InputError("duplicate edge")
        model = ProximityModel(graph_obj, tuple(points))
        return LoadedOutput(model, _json_int(payload.get("k", 0), "k"),
                            _json_int(payload.get("t", 0), "t"), roles)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"malformed model JSON: {exc}") from exc

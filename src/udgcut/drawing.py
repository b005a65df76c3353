"""Mesh drawings of degree-at-most-4 graphs.

A mesh drawing places vertices on mesh crosses and routes every edge as an
axis-aligned polyline on the mesh.  Construction uses the four per-vertex
corridors (A: row b+2 / col a-1, B: row b+1 / col a-2, C: row b-2 / col a+1,
D: row b-1 / col a+2 for a vertex at (a, b)); each corridor also owns one of
the four unit approach ports of its vertex (A up, B left, C down, D right),
which keeps routes of distinct edges from sharing line segments.

Standardization re-spaces the occupied mesh lines of each axis so that
distinct parallel lines end up at distance >= 10: a composition of
half-plane shifts (constant 10) that leaves the abstract graph intact
and separates vertices, crossing points and carrier lines all at once.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from .errors import ConstructionError, DegenerateOverlapError, InputError
from .geometry import ONE_DIST2_UNITS, SCALE, Point, pairs_within
from .graph_core import Edge, Graph, adjacency, max_degree

# letter -> (row offset, col offset) of the corridor lines, in mesh units
CORRIDORS = {"A": (2, -1), "B": (1, -2), "C": (-2, 1), "D": (-1, 2)}
_LETTERS = "ABCD"

# minimum separation of the standard regime, squared, in 1/20^2 units
_TEN = 10 * SCALE
_TEN2_UNITS = 100 * ONE_DIST2_UNITS

Route = tuple[Point, ...]


@dataclass
class MeshDrawing:
    graph: Graph
    placement: dict[int, Point]
    routes: dict[Edge, Route]
    corridors: dict[Edge, tuple[str, str]] = field(default_factory=dict)


@dataclass(frozen=True)
class Crossing:
    point: Point
    horizontal_edge: Edge
    vertical_edge: Edge


@dataclass
class CrossingReport:
    items: list[Crossing]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def corridor_lines(p: Point, letter: str) -> tuple[int, int]:
    """(row yu, col xu) of the corridor's two mesh lines for a vertex at p."""
    dr, dc = CORRIDORS[letter]
    return p.yu + dr * SCALE, p.xu + dc * SCALE


def _segments(route: Route) -> list[tuple[Point, Point]]:
    return [(route[i], route[i + 1]) for i in range(len(route) - 1)]


def _is_horizontal(a: Point, b: Point) -> bool:
    return a.yu == b.yu


def _placement_order(g: Graph) -> list[int]:
    """Greedy linear arrangement keeping the running edge cut small.

    The number of routes alive over any column of the drawing is the cut of
    the placement order, and the width of the tree decompositions of the
    reduced graph tracks that cut; appending the vertex that closes the most
    open edges keeps it low.  Deterministic: ties fall to the smaller id.

    A heap holds each unplaced vertex keyed by (opening - closing, opening,
    id).  Placing a vertex lowers each unplaced neighbour's key by (2, 1)
    and pushes the lowered key; the entry it replaces is larger, so it pops
    after the vertex is placed and is dropped then.
    """
    adj = adjacency(g)
    closing = [0] * g.n
    placed = [False] * g.n
    heap = [(len(adj[x]), len(adj[x]), x) for x in range(g.n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        x = heapq.heappop(heap)[2]
        if placed[x]:
            continue
        placed[x] = True
        order.append(x)
        for y in adj[x]:
            if not placed[y]:
                closing[y] += 1
                opening = len(adj[y]) - closing[y]
                heapq.heappush(heap, (opening - closing[y], opening, y))
    return order


def mesh_draw(g: Graph) -> MeshDrawing:
    """Mesh drawing of g with the fixed corridor staircase template.

    Vertices are placed on the diagonal at (6p, 6p), p the vertex's index in
    the placement order, giving every pair x- and y-distance >= 6 and keeping
    corridor lines of distinct vertices disjoint.  Each edge leaves its
    earlier-placed endpoint through that endpoint's corridor (entering via
    the corridor's port), runs along the corridor's horizontal line, and
    descends on the partner corridor's vertical line into the partner's port.
    """
    if max_degree(g) > 4:
        raise InputError(f"mesh drawings need maximum degree 4, got {max_degree(g)}")
    order = _placement_order(g)
    pos = {v: i for i, v in enumerate(order)}
    placement = {v: Point.mesh(6 * pos[v], 6 * pos[v]) for v in range(g.n)}
    adj = adjacency(g)
    letter: dict[tuple[int, int], str] = {}
    for v in range(g.n):
        for rank, w in enumerate(sorted(adj[v])):
            letter[(v, w)] = _LETTERS[rank]
    routes: dict[Edge, Route] = {}
    corridors: dict[Edge, tuple[str, str]] = {}
    for u, v in g.sorted_edges():
        src, dst = (u, v) if pos[u] < pos[v] else (v, u)
        built = _route(placement[src], placement[dst],
                       letter[(src, dst)], letter[(dst, src)])
        routes[(u, v)] = built if src == u else tuple(reversed(built))
        corridors[(u, v)] = (letter[(u, v)], letter[(v, u)])
    return MeshDrawing(g, placement, routes, corridors)


def _route(pu: Point, pv: Point, s_letter: str, t_letter: str) -> Route:
    a, b = pu.xu // SCALE, pu.yu // SCALE
    c, d = pv.xu // SCALE, pv.yu // SCALE
    run_row = b + CORRIDORS[s_letter][0]
    target_col = c + CORRIDORS[t_letter][1]
    m = Point.mesh
    prefix = {
        "A": [m(a, b), m(a, b + 2)],
        "B": [m(a, b), m(a - 2, b), m(a - 2, b + 1)],
        "C": [m(a, b), m(a, b - 2)],
        "D": [m(a, b), m(a + 2, b), m(a + 2, b - 1)],
    }[s_letter]
    x = target_col
    suffix = {
        "A": [m(x, run_row), m(x, d + 2), m(c, d + 2), m(c, d)],
        "B": [m(x, run_row), m(x, d), m(c, d)],
        "C": [m(x, run_row), m(x, d - 2), m(c, d - 2), m(c, d)],
        "D": [m(x, run_row), m(x, d), m(c, d)],
    }[t_letter]
    route = tuple(prefix + suffix)
    for p, q in _segments(route):
        if p == q or (p.xu != q.xu and p.yu != q.yu):
            raise ConstructionError(f"malformed route corner sequence {route}")
    return route


# -- validation ----------------------------------------------------------------


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


def validate_drawing(d: MeshDrawing) -> list[str]:
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


def crossings(d: MeshDrawing) -> CrossingReport:
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
    items = sorted(found.values(), key=lambda c: (c.point.xu, c.point.yu))
    return CrossingReport(items)


# -- standardization -----------------------------------------------------------


def _occupied_lines(d: MeshDrawing) -> tuple[list[int], list[int]]:
    rows = {p.yu for p in d.placement.values()}
    cols = {p.xu for p in d.placement.values()}
    for route in d.routes.values():
        for p in route:
            rows.add(p.yu)
            cols.add(p.xu)
    return sorted(rows), sorted(cols)


def _respace(values: list[int]) -> dict[int, int]:
    """Monotone remap opening every gap below 10 mesh units by exactly 10.

    Equivalent to one half-plane shift of constant c = 10 at each violating
    separating line, applied from the low end upward.
    """
    remap: dict[int, int] = {}
    shift = 0
    prev = None
    for val in values:
        if prev is not None and val - prev < _TEN:
            shift += _TEN
        remap[val] = val + shift
        prev = val
    return remap


def standardize(d: MeshDrawing) -> MeshDrawing:
    """Standard mesh drawing of the same abstract graph.

    Any two occupied mesh lines of one axis end >= 10 apart, which implies
    all four standardness conditions: any two of the relevant objects
    (vertices, crossing points, carrier lines) differ on at least one axis
    line.  Idempotent on already-standard drawings.
    """
    rows, cols = _occupied_lines(d)
    row_map = _respace(rows)
    col_map = _respace(cols)

    def move(p: Point) -> Point:
        return Point(col_map[p.xu], row_map[p.yu])

    placement = {v: move(p) for v, p in d.placement.items()}
    routes = {e: tuple(move(p) for p in route) for e, route in d.routes.items()}
    return MeshDrawing(d.graph, placement, routes, dict(d.corridors))


@dataclass
class StandardReport:
    """Pass/fail per standardness condition with a first witness each."""

    crossing_pairs_ok: bool
    vertex_pairs_ok: bool
    vertex_crossing_ok: bool
    parallel_lines_ok: bool
    witnesses: dict[str, tuple] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.crossing_pairs_ok and self.vertex_pairs_ok
                and self.vertex_crossing_ok and self.parallel_lines_ok)


def _first_pair_closer_than_ten(ps: list[Point], qs: list[Point] | None = None):
    """The first (ps[i], qs[j]) in (i, j) order less than 10 mesh units
    apart, or None; qs=None pairs ps with itself, taking only j > i."""
    pts = ps if qs is None else ps + qs
    lo = 0 if qs is None else len(ps)  # where qs starts in pts
    first = min(((i, j) for d, i, j in pairs_within(pts, _TEN)
                 if d < _TEN2_UNITS and i < len(ps) and j >= lo), default=None)
    return None if first is None else (pts[first[0]], pts[first[1]])


def validate_standard(d: MeshDrawing, xreport: CrossingReport) -> StandardReport:
    """Check conditions: (i) crossing-crossing, (ii) vertex-vertex,
    (iii) vertex-crossing distances >= 10, and (iv) distinct parallel carrier
    lines >= 10 apart (checked for every pair of occupied carrier lines,
    including two lines used by the same edge).  xreport is crossings(d)."""
    xs = [c.point for c in xreport]
    vs = sorted(d.placement.values())
    close = {"crossing_pairs": _first_pair_closer_than_ten(xs),
             "vertex_pairs": _first_pair_closer_than_ten(vs),
             "vertex_crossing": _first_pair_closer_than_ten(vs, xs)}
    report = StandardReport(
        close["crossing_pairs"] is None, close["vertex_pairs"] is None,
        close["vertex_crossing"] is None, True,
        {name: pair for name, pair in close.items() if pair is not None})
    carrier_rows = set()
    carrier_cols = set()
    for route in d.routes.values():
        for p, q in _segments(route):
            if _is_horizontal(p, q):
                carrier_rows.add(p.yu)
            else:
                carrier_cols.add(p.xu)
    for lines, name in ((sorted(carrier_rows), "rows"), (sorted(carrier_cols), "cols")):
        for a, b in zip(lines, lines[1:]):
            if b - a < _TEN:
                report.parallel_lines_ok = False
                report.witnesses.setdefault(f"parallel_{name}", (a, b))
    return report


def drawing_debug_json(d: MeshDrawing) -> str:
    """Debug dump: placements and polylines in integer mesh coordinates."""
    payload = {
        "n": d.graph.n,
        "placements": [
            {"vertex": v, "x": p.xu // SCALE, "y": p.yu // SCALE}
            for v, p in sorted(d.placement.items())
        ],
        "routes": [
            {"edge": [u, v],
             "corners": [[p.xu // SCALE, p.yu // SCALE] for p in route]}
            for (u, v), route in sorted(d.routes.items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

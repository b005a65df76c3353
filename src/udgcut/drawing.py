"""Mesh drawings of degree-at-most-4 graphs.

A mesh drawing places vertices on mesh crosses and routes every edge as an
axis-aligned polyline on the mesh.  mesh_draw gives each vertex one row and
one column on the diagonal and routes most edges with one bend, from the
earlier end's row or column onto the later end's column or row; an edge
that finds both of those ports taken steps onto private lines beside its
ends.  So the drawing occupies about one line per vertex per axis, as the
orthogonal drawings of Biedl and Kant ("A better heuristic for orthogonal
graph drawings", 1998) do, and the size of U(G) follows the route lengths
over those lines.

Validation and the crossing list index the segments by axis line and sweep
the index (Bentley and Ottmann's orthogonal sweep for perpendicular pairs),
so they make O((S + K) log S) comparisons for S segments and K meetings in
place of S^2 pair tests.

Standardization sends the i-th occupied line of each axis to i * SPACING.
A strictly increasing remap of each axis keeps every incidence, crossing
and non-crossing of the drawing, and it separates vertices, crossing
points and carrier lines all at once.  The paper instead opens gaps by
half-plane shifts until parallel lines are 10 apart.  Its spacing argument
is what makes the cut identity hold there; here each reduction output
carries its own certificate instead (kernel.kernelize_graph in
validate_reduction), so the spacing only has to leave room for the
construction's local rules: every route has a horizontal segment at least
SPACING long from an end or a bend, with six row vertices before any
crossing flank, which is a parity detour site.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

from .errors import DegenerateOverlapError, InputError
from .geometry import ONE_DIST2_UNITS, SCALE, Point, pairs_within
from .graph_core import Edge, Graph, adjacency, max_degree

# The distance, in mesh units, between neighbouring occupied parallel lines
# of a standard drawing, and so the least distance between its vertices and
# crossings: room past a crossing's flank for the six row vertices a parity
# detour needs.  A sweep over 243 graphs (K1-K5, Petersen, C3-C60, P2-P40,
# random graphs with 2-24 vertices and certify's with 40 and 64) reduces all
# of them at 8 (total N 332 061) and at 7 (293 021); at 6, 52 fail with "no
# parity detour site".  Each unit of spacing adds about one unit of extent
# per occupied line, and route length, and so N, follows the extent.
SPACING = 8
_GAP = SPACING * SCALE

Route = tuple[Point, ...]


@dataclass
class MeshDrawing:
    graph: Graph
    placement: dict[int, Point]
    routes: dict[Edge, Route]


@dataclass(frozen=True)
class Crossing:
    point: Point
    horizontal_edge: Edge
    vertical_edge: Edge


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


# a stub's private line, as (column offset, row offset) from its vertex's own
# lines: a column for the E and W ports, a row for N and S
_STUB = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}


def mesh_draw(g: Graph) -> MeshDrawing:
    """Mesh drawing of g with one row and one column per vertex.

    Vertex p, the p-th in placement order, owns one row and one column,
    above and right of those of the vertices placed before it, so the
    vertices climb a diagonal.  An edge p -> q, p placed first, takes one
    bend: EN leaves p's E port along p's row and goes up q's column into
    q's S port; NE goes up p's column and along q's row into q's W port.
    Taking the edges in order, an edge takes one bend while p has fewer
    than two such later edges and q fewer than two such earlier ones, and
    two of them that share an end must take different ways.  Each meets at
    most one other at each end, and round a cycle of such meetings shared
    earlier and shared later ends alternate, so every cycle is even and a
    walk 2-colours them all.

    Every other edge takes the first free port at each end (E, N, S, W at
    p; S, W, N, E at q) and steps from it onto a private line next to that
    end.  The two private lines meet at one bend, or, when both are rows or
    both are columns, through one more private line next to p: a row above
    p's, or a column right of p's.  Rows and columns sit at consecutive
    even mesh coordinates, in placement order, with a vertex's private
    lines beside its own (stubs nearest).  standardize reads only their
    order; the 2-unit gaps keep the raw drawing a tight but valid one, on
    which the construction's site checks can be tried.  Distinct routes
    share no line but a vertex's own, and there only on opposite sides of
    the vertex, so they meet in proper crossings alone, at least one line
    from every bend and end.
    """
    if max_degree(g) > 4:
        raise InputError(f"mesh drawings need maximum degree 4, got {max_degree(g)}")
    pos = [0] * g.n
    for i, v in enumerate(_placement_order(g)):
        pos[v] = i
    later: list[list[Edge]] = [[] for _ in range(g.n)]
    earlier: list[list[Edge]] = [[] for _ in range(g.n)]
    left_over: list[Edge] = []
    for p, q in sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in g.edges):
        if len(later[p]) < 2 and len(earlier[q]) < 2:
            later[p].append((p, q))
            earlier[q].append((p, q))
        else:
            left_over.append((p, q))
    en: dict[Edge, bool] = {}  # each one-bend edge: EN (True) or NE
    for first in (e for es in later for e in es):
        if first in en:
            continue
        en[first] = True
        stack = [first]
        while stack:
            e = stack.pop()
            for f in later[e[0]] + earlier[e[1]]:
                if f not in en:
                    en[f] = not en[e]
                    stack.append(f)
    # route corners as (column, row) pairs of line keys: (p, 0) is p's own
    # line, and (p, j) sits beside it, above or right of it when j > 0
    taken = [set() for _ in range(g.n)]
    keyed: dict[Edge, list] = {}
    for (p, q), is_en in en.items():
        taken[p].add("E" if is_en else "N")
        taken[q].add("S" if is_en else "W")
        keyed[(p, q)] = [((p, 0), (p, 0)), ((q, 0), (p, 0)) if is_en else ((p, 0), (q, 0)),
                         ((q, 0), (q, 0))]
    # the outermost line above and right of each vertex so far: stubs take
    # offset 1, one more line for a join 2, 3, ...
    extra_rows, extra_cols = [1] * g.n, [1] * g.n
    for p, q in left_over:
        ends = []
        for v, ports in ((p, "ENSW"), (q, "SWNE")):
            port = next(x for x in ports if x not in taken[v])
            taken[v].add(port)
            dx, dy = _STUB[port]
            ends.append((((v, dx), (v, dy)), port in "EW"))
        (s, s_col), (t, t_col) = ends
        if s_col and t_col:
            extra_rows[p] += 1
            middle = [(s[0], (p, extra_rows[p])), (t[0], (p, extra_rows[p]))]
        elif not (s_col or t_col):
            extra_cols[p] += 1
            middle = [((p, extra_cols[p]), s[1]), ((p, extra_cols[p]), t[1])]
        else:
            middle = [(s[0], t[1]) if s_col else (t[0], s[1])]
        keyed[(p, q)] = [((p, 0), (p, 0)), s, *middle, t, ((q, 0), (q, 0))]
    cols = {(p, 0) for p in range(g.n)}
    rows = set(cols)
    for route in keyed.values():
        for c, r in route:
            cols.add(c)
            rows.add(r)
    col_at = {c: 2 * i for i, c in enumerate(sorted(cols))}
    row_at = {r: 2 * i for i, r in enumerate(sorted(rows))}
    placement = {v: Point.mesh(col_at[(pos[v], 0)], row_at[(pos[v], 0)]) for v in range(g.n)}
    routes: dict[Edge, Route] = {}
    for u, v in g.sorted_edges():
        p, q = sorted((pos[u], pos[v]))
        route = tuple(Point.mesh(col_at[c], row_at[r]) for c, r in keyed[(p, q)])
        routes[(u, v)] = route if pos[u] == p else route[::-1]
    return MeshDrawing(g, placement, routes)


# -- validation ----------------------------------------------------------------

_OVERLAP, _PROPER, _TOUCH = "overlap", "proper", "touch"


def _axis_lines(routes: list[Route]) -> dict[tuple[int, int], list]:
    """Segments by axis line: (0, y) is row y, for segments with equal y at
    both ends (zero-length too), (1, x) the column of the others' first end;
    entries are (lo, hi, (route, segment)), [lo, hi] the span on the line."""
    lines: dict[tuple[int, int], list] = {}
    for r, route in enumerate(routes):
        for i, (p, q) in enumerate(_segments(route)):
            v = 0 if _is_horizontal(p, q) else 1
            lines.setdefault((v, p[1 - v]), []).append((min(p[v], q[v]), max(p[v], q[v]), (r, i)))
    return lines


def _on_line(segs: list, points=()):
    """Sweep one axis line: (lo, hi, is_point, tag, seg_tag) once for each
    pair of segments that meet and each point on a segment, [lo, hi] their
    common part.  Every pair looked at is yielded: an item meets exactly
    the segments still open where it starts."""
    items = sorted([(lo, False, hi, tag) for lo, hi, tag in segs]
                   + [(pos, True, pos, tag) for pos, tag in points])
    open_, ends = {}, []  # open segment tag -> hi; heap of (hi, tag)
    for lo, is_point, hi, tag in items:
        while ends and ends[0][0] < lo:
            del open_[heapq.heappop(ends)[1]]
        for other, other_hi in open_.items():
            yield lo, min(hi, other_hi), is_point, tag, other
        if not is_point:
            open_[tag] = hi
            heapq.heappush(ends, (hi, tag))


def _meetings(lines: dict) -> list[tuple]:
    """Each meeting of two indexed segments once, as (a, b, point, kind), a < b
    their (route, segment) tags, sorted as a loop over route pairs meets them:
    by a's route, b's route, a's segment, b's segment.  kind is _PROPER
    (interior to both), _TOUCH, or _OVERLAP (collinear in more than a point;
    point None).  Collinear meetings come from _on_line; for the others,
    horizontal segments open and close as x grows (Bentley and Ottmann,
    1979) and each vertical one takes the open rows in its y-range."""
    found, events = [], []
    for (v, c), segs in lines.items():
        for lo, hi, _, a, b in _on_line(segs):
            pt, kind = (None, _OVERLAP) if lo < hi else (Point(c, lo) if v else Point(lo, c), _TOUCH)
            found.append((min(a, b), max(a, b), pt, kind))
        for lo, hi, tag in segs:
            events += ([(c, 1, (lo, hi, tag))] if v else
                       [(lo, 0, (c, lo, hi, tag)), (hi, 2, (c, lo, hi, tag))])
    events.sort()  # at equal x: open, then query, then close
    open_rows: list = []  # (y, lo, hi, tag) of the open horizontal segments
    for x, step, seg in events:
        if step == 0:
            bisect.insort(open_rows, seg)
        elif step == 2:
            del open_rows[bisect.bisect_left(open_rows, seg)]
        else:
            lo, hi, tag = seg
            for y, h_lo, h_hi, h_tag in open_rows[bisect.bisect_left(open_rows, (lo,)):
                                                  bisect.bisect_left(open_rows, (hi + 1,))]:
                kind = _PROPER if h_lo < x < h_hi and lo < y < hi else _TOUCH
                found.append((min(h_tag, tag), max(h_tag, tag), Point(x, y), kind))
    found.sort(key=lambda m: (m[0][0], m[1][0], m[0][1], m[1][1]))
    return found


def _stab(lines: dict, points: list[Point]):
    """Yields (k, (route, segment)) for each indexed segment through points[k]."""
    queries: dict[tuple[int, int], list] = {}
    for k, p in enumerate(points):
        for v in (0, 1):
            queries.setdefault((v, p[1 - v]), []).append((p[v], k))
    for key, pts in queries.items():
        for _, _, is_point, k, tag in _on_line(lines.get(key, []), pts):
            if is_point:
                yield k, tag


def validate_drawing(d: MeshDrawing) -> list[str]:
    """All mesh-drawing invariants; returns each problem once, in the order
    first found, or [] if valid."""
    if set(d.placement) != set(range(d.graph.n)):
        return ["placement does not cover the vertex set"]
    problems: list[str] = []
    seen_points: dict[Point, int] = {}
    for v, p in d.placement.items():
        if not p.is_mesh_cross():
            problems.append(f"vertex {v} not on a mesh cross: {p}")
        if p in seen_points:
            problems.append(f"vertices {seen_points[p]} and {v} coincide at {p}")
        seen_points[p] = v
    if set(d.routes) != set(d.graph.edges):
        return problems + ["routes do not cover the edge set exactly"]
    edges = sorted(d.routes)
    lines = _axis_lines([d.routes[e] for e in edges])
    vertices = list(d.placement.items())
    # each route's vertex and self-intersection problems, reported after its
    # segment checks; those between routes come after every route's
    own: dict[Edge, list[str]] = {e: [] for e in edges}
    between: list[str] = []
    # no pass through a vertex but the terminal contacts
    for r, k, i in sorted((r, k, i) for k, (r, i) in _stab(lines, [p for _, p in vertices])):
        (u, v), (w, pw), route = edges[r], vertices[k], d.routes[edges[r]]
        if not ((w == u and i == 0 and pw == route[0]) or
                (w == v and i == len(route) - 2 and pw == route[-1])):
            own[(u, v)].append(f"route {(u, v)} passes through vertex {w} at {pw}")
    crossing_points: dict[Point, set[Edge]] = {}
    for (r1, i), (r2, j), pt, kind in _meetings(lines):
        e1, e2 = edges[r1], edges[r2]
        if r1 == r2:  # non-adjacent segments disjoint, adjacent share a corner
            if j > i + 1:
                own[e1].append(f"route {e1} self-intersects")
            elif pt != d.routes[e1][j]:
                own[e1].append(f"route {e1} folds onto itself")
        elif kind == _OVERLAP:
            between.append(f"routes {e1} and {e2} overlap collinearly")
        elif kind == _PROPER:
            crossing_points.setdefault(pt, set()).update({e1, e2})
        elif pt not in {d.placement[w] for w in set(e1) & set(e2)}:
            between.append(f"routes {e1} and {e2} touch non-transversally at {pt}")
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
        problems += own[(u, v)]
    problems += between
    through: dict[int, set[Edge]] = {}  # the routes through each crossing point
    for k, (r, _) in _stab(lines, list(crossing_points)):
        through.setdefault(k, set()).add(edges[r])
    for k, (pt, involved) in enumerate(crossing_points.items()):
        if len(involved) > 2:
            problems.append(f"three routes meet at {pt}")
        if not pt.is_mesh_cross():
            problems.append(f"crossing off the mesh at {pt}")
        for e3 in sorted(through[k] - involved):
            problems.append(f"crossing at {pt} lies on a third route {e3}")
    return list(dict.fromkeys(problems))


def crossings(d: MeshDrawing) -> list[Crossing]:
    """Exhaustive list of proper crossings with horizontal/vertical roles."""
    edges = sorted(d.routes)
    routes = [d.routes[e] for e in edges]
    found: dict[Point, Crossing] = {}
    for (r1, i1), (r2, _), pt, kind in _meetings(_axis_lines(routes)):
        e1, e2 = edges[r1], edges[r2]
        if r1 == r2 or kind == _TOUCH:
            continue
        if kind == _OVERLAP:
            raise DegenerateOverlapError(f"routes {e1} and {e2} overlap collinearly")
        h_first = _is_horizontal(*routes[r1][i1:i1 + 2])
        found[pt] = Crossing(pt, e1, e2) if h_first else Crossing(pt, e2, e1)
    return sorted(found.values(), key=lambda c: (c.point.xu, c.point.yu))


# -- standardization -----------------------------------------------------------


def standardize(d: MeshDrawing) -> MeshDrawing:
    """Standard mesh drawing of the same abstract graph: the i-th occupied
    row goes to row i * SPACING, the i-th occupied column to column
    i * SPACING.

    Distinct occupied lines of one axis end >= SPACING apart, which implies
    all four standardness conditions: any two of the relevant objects
    (vertices, crossing points, carrier lines) differ on at least one axis
    line.  The cut identity of the reduction rests on the kernel
    certificate each output carries, not on this spacing.  Depends only on
    the order of the lines, so it is idempotent.
    """
    points = [*d.placement.values(), *(p for route in d.routes.values() for p in route)]
    col_at = {x: i * _GAP for i, x in enumerate(sorted({p.xu for p in points}))}
    row_at = {y: i * _GAP for i, y in enumerate(sorted({p.yu for p in points}))}

    def move(p: Point) -> Point:
        return Point(col_at[p.xu], row_at[p.yu])

    placement = {v: move(p) for v, p in d.placement.items()}
    routes = {e: tuple(move(p) for p in route) for e, route in d.routes.items()}
    return MeshDrawing(d.graph, placement, routes)


def validate_standard(d: MeshDrawing, xreport: list[Crossing]) -> dict[str, tuple]:
    """Witnesses of the standardness conditions that fail, {} when all hold:
    (i) crossing-crossing, (ii) vertex-vertex, (iii) vertex-crossing
    distances >= SPACING, each witnessed by its first close pair in (i, j)
    order, and (iv) distinct parallel carrier lines >= SPACING apart
    (checked for every pair of occupied carrier lines, including two lines
    used by the same edge), witnessed by the lowest close pair.  The paper
    asks for 10; the kernel certificate of reduction.validate_reduction
    stands in for its spacing argument.  xreport is crossings(d)."""
    vs = sorted(d.placement.values())
    pts = vs + [c.point for c in xreport]
    first: dict[int, tuple[int, int]] = {}  # by how many ends are crossings
    for dist2, i, j in pairs_within(pts, _GAP):
        if dist2 < SPACING * SPACING * ONE_DIST2_UNITS:
            ends = (i >= len(vs)) + (j >= len(vs))
            first[ends] = min(first.get(ends, (i, j)), (i, j))
    witnesses = {name: (pts[first[ends][0]], pts[first[ends][1]])
                 for ends, name in ((2, "crossing_pairs"), (0, "vertex_pairs"),
                                    (1, "vertex_crossing"))
                 if ends in first}
    carriers = _axis_lines(list(d.routes.values()))
    for v, name in ((0, "rows"), (1, "cols")):
        lines = sorted(c for w, c in carriers if w == v)
        for a, b in zip(lines, lines[1:]):
            if b - a < _GAP:
                witnesses.setdefault(f"parallel_{name}", (a, b))
    return witnesses

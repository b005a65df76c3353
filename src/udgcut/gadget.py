"""The crossing gadget: an 8-vertex graph H (a K4 cycle v0..v3 plus one
degree-2 apex w_i per consecutive cycle pair), its exact proximity model at
squared precision exactly 1/2, and the operation that plants H on two
non-incident edges of a host graph, raising the maximum cut by exactly 8.
"""

from __future__ import annotations

from functools import cache

from .errors import PreconditionError
from .geometry import Point
from .graph_core import Graph, canon_edge, graph
from .udg_model import ProximityModel

# Model offsets in 1/20 units: v's at (+-1/2, 0), (0, +-1/2); w's at (+-4/5, +-4/5).
V_OFFSETS = ((10, 0), (0, 10), (-10, 0), (0, -10))
W_OFFSETS = ((16, 16), (-16, 16), (-16, -16), (16, -16))


@cache
def build_H() -> Graph:
    """H on vertices 0..7: K4 on {0,1,2,3}; w_i = 4+i adjacent to v_i, v_(i+1)."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for i in range(4):
        edges.append((4 + i, i))
        edges.append((4 + i, (i + 1) % 4))
    return graph(8, edges)


def h_model(center: Point = Point.mesh(0, 0)) -> ProximityModel:
    """Exact proximity model of H translated to the given center."""
    pts = [center.translate(dx, dy) for dx, dy in V_OFFSETS]
    pts += [center.translate(dx, dy) for dx, dy in W_OFFSETS]
    return ProximityModel(build_H(), tuple(pts))


def construct_H_on(g: Graph, e1: tuple[int, int], e2: tuple[int, int]) -> Graph:
    """g with a copy of H planted on its edges e1 = v0v2 and e2 = v1v3.

    The tuples fix the cycle roles: v0..v3 are e1[0], e2[0], e1[1], e2[1]
    and keep their ids, and the fresh apexes w0..w3 are g.n..g.n+3.
    Preconditions: both edges present, no shared endpoint, and none of the
    four cycle edges v_i v_(i+1) already in g (otherwise the +8 cut
    identity fails, e.g. on K4).
    """
    v0, v2 = e1
    v1, v3 = e2
    if canon_edge(v0, v2) not in g.edges or canon_edge(v1, v3) not in g.edges:
        raise PreconditionError(f"edges {e1} and {e2} must both be present")
    if len({v0, v1, v2, v3}) != 4:
        raise PreconditionError(f"edges {e1} and {e2} share an endpoint")
    cycle = ((v0, v1), (v1, v2), (v2, v3), (v3, v0))
    for a, b in cycle:
        if canon_edge(a, b) in g.edges:
            raise PreconditionError(
                f"cycle edge ({a}, {b}) already present; the +8 identity "
                f"requires it absent")
    ids = (v0, v1, v2, v3, g.n, g.n + 1, g.n + 2, g.n + 3)
    edges = g.edges | {canon_edge(ids[a], ids[b]) for a, b in build_H().edges}
    return Graph(g.n + 4, edges)

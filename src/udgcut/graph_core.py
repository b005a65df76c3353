"""Simple undirected graphs, cuts, and the pure graph surgeries used by the
reduction: double edge subdivision and disjoint union.

Vertices are dense integer ids 0..n-1; edges are canonical (u, v) pairs with
u < v; surgeries append fresh ids at the end so provenance is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Edge = tuple[int, int]

# The most vertices a graph file may name.  On an edgeless graph, the
# cheapest input of its size, `reduce` is near-linear: 0.01 s at 1 000
# vertices, 0.02 s at 2 000 and 0.14 s at 8 000 (Python 3.11, 2 vCPUs).
# With edges the time follows the size of U(G), which grows with the
# drawing's crossings and route lengths: cycle_graph(300) takes 0.35-0.37 s
# and cycle_graph(1000) 1.5-1.8 s, most of it building U(G) and
# validate_model; the drawing checks, a sweep, take 0.05 s and 0.2 s of that.
MAX_VERTICES = 8000


def canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple loopless graph on vertex ids 0..n-1 with a canonical edge set."""

    n: int
    edges: frozenset[Edge]

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def has_edge(self, u: int, v: int) -> bool:
        return canon_edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)


def graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Validated Graph constructor: rejects loops and out-of-range endpoints."""
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    canon = set()
    for u, v in edges:
        if u == v:
            raise InputError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        canon.add(canon_edge(u, v))
    return Graph(n, frozenset(canon))


def adjacency(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def max_degree(g: Graph) -> int:
    if not g.edges:
        return 0
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


def cut_size(g: Graph, side: Mapping[int, int] | Sequence[int]) -> int:
    """Number of bichromatic edges under the given 0/1 side assignment."""
    try:
        return sum(1 for u, v in g.edges if side[u] != side[v])
    except (KeyError, IndexError) as exc:
        raise InputError(f"side assignment missing a vertex: {exc}") from exc


@dataclass(frozen=True)
class Cut:
    """A two-sided partition given as a side vector, with its certified size."""

    side: tuple[int, ...]
    size: int

    def is_bisection(self) -> bool:
        return self.side.count(0) == self.side.count(1)


def subdivide_edge_twice(g: Graph, e: tuple[int, int]) -> Graph:
    """Replace edge uv by the path u-a-b-v on two fresh vertices a, b."""
    e = canon_edge(*e)
    if e not in g.edges:
        raise InputError(f"edge {e} not in graph")
    u, v = e
    a, b = g.n, g.n + 1
    edges = set(g.edges)
    edges.remove(e)
    edges.update({canon_edge(u, a), canon_edge(a, b), canon_edge(b, v)})
    return Graph(g.n + 2, frozenset(edges))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Union with h's vertex ids shifted up by g.n."""
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, frozenset(g.edges | shifted))


# -- text format: first line "n m", then m lines "u v" ------------------------


def parse_graph_text(text: str) -> Graph:
    """Parse the plain graph format; rejects loops and duplicate edges."""
    tokens = text.split()
    if len(tokens) < 2:
        raise InputError("graph text must start with 'n m'")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"non-integer token in graph text: {exc}") from exc
    n, m = nums[0], nums[1]
    if n > MAX_VERTICES:
        raise InputError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    if len(nums) != 2 + 2 * m:
        raise InputError(f"expected {m} edges, found {(len(nums) - 2) // 2} pairs")
    seen = set()
    edges = []
    for i in range(m):
        u, v = nums[2 + 2 * i], nums[3 + 2 * i]
        if u == v:
            raise InputError(f"loop at vertex {u}")
        e = canon_edge(u, v)
        if e in seen:
            raise InputError(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return graph(n, edges)


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# -- standard small families ---------------------------------------------------


def complete_graph(n: int) -> Graph:
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs >= 3 vertices, got {n}")
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph(10, outer + spokes + inner)


def random_graph(rng: random.Random, n: int, p: float = 0.5,
                 max_deg: int | None = None) -> Graph:
    """Random simple graph; with max_deg set, edges are added greedily in a
    shuffled order while respecting the degree cap."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if rng.random() >= p:
            continue
        if max_deg is not None and (deg[u] >= max_deg or deg[v] >= max_deg):
            continue
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return graph(n, edges)


def subdivide_randomly(rng: random.Random, g: Graph, max_n: int) -> Graph:
    """g with each edge, in sorted order, replaced by a path through 0 to 4
    fresh vertices drawn at random, adding none past max_n vertices."""
    n = g.n
    edges = []
    for u, v in g.sorted_edges():
        k = min(rng.randint(0, 4), max(0, max_n - n))
        path = [u, *range(n, n + k), v]
        n += k
        edges += zip(path, path[1:])
    return graph(n, edges)

"""Simple undirected graphs, cuts, and the pure graph surgeries used by the
reduction: double edge subdivision and disjoint union; and pause_gc, which
the pipeline's entry points share.

Vertices are dense integer ids 0..n-1; edges are canonical (u, v) pairs with
u < v; surgeries append fresh ids at the end so provenance is reproducible.
"""

from __future__ import annotations

import functools
import gc
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .errors import InputError

Edge = tuple[int, int]

# The most vertices a graph file may name.  On an edgeless graph, the
# cheapest input of its size, `reduce` is near-linear: 0.013-0.014 s at
# 1 000 vertices, 0.026-0.030 s at 2 000 and 0.10-0.19 s at 8 000 (three
# to five runs each, taken three times over half an hour; Python 3.11.7,
# 2 vCPUs, whose speed swung by up to 1.7x within that time).  With edges the time follows the size of U(G),
# which grows with the drawing's crossings and route lengths:
# cycle_graph(300) (N = 9 868, no crossing) takes 0.06-0.11 s and
# cycle_graph(1000) (N = 32 968) 0.23-0.41 s, most of it building U(G),
# validate_model and the kernel certificate (0.007-0.012 s and
# 0.03-0.05 s); the drawing checks, a sweep, take 0.009-0.016 s and
# 0.03-0.06 s.  With the collector running in reduce, the same runs took
# 0.15-0.26 s at 8 000 and 0.38-0.62 s on cycle_graph(1000).
MAX_VERTICES = 8000


_F = TypeVar("_F", bound=Callable)


def pause_gc(fn: _F) -> _F:
    """fn with CPython's cyclic garbage collector off while it runs.

    A collector that is on is turned back on when fn returns or raises; one
    that is already off, as in a nested call, is left off.  The pipeline
    builds tens of thousands of sets, tuples and lists that hold no
    reference cycles, so the collections they would trigger free nothing;
    tests/test_gc.py checks that a full run leaves no cyclic garbage.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def canon_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple loopless graph on vertex ids 0..n-1 with a canonical edge set."""

    n: int
    edges: frozenset[Edge]

    def has_edge(self, u: int, v: int) -> bool:
        return canon_edge(u, v) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)


def graph(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """The one validated Graph constructor, which every parsed graph goes
    through: n and both ends of each edge must be exactly int (so bools
    fail), and edges must be loopless and in range.  Each edge is checked
    in full before the next."""
    if type(n) is not int:
        raise InputError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise InputError(f"negative vertex count {n}")
    canon = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            bad = v if type(u) is int else u
            raise InputError(f"edge endpoint must be an integer, got {bad!r}")
        if u == v:
            raise InputError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        canon.add(canon_edge(u, v))
    return Graph(n, frozenset(canon))


def adjacency(g: Graph) -> list[set[int]]:
    """The neighbour set of each vertex, indexed by vertex id."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def max_degree(g: Graph) -> int:
    return max(map(len, adjacency(g)), default=0)


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
        raise InputError(f"expected {2 + 2 * m} tokens for {m} edges, found {len(nums)}")
    seen = set()
    edges = []
    for i in range(m):
        e = canon_edge(nums[2 + 2 * i], nums[3 + 2 * i])
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

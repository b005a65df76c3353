"""Exact max-cut and max-bisection oracles.

Two routes: exhaustive bitmask enumeration for small graphs (Gray-code
incremental edge counting), and dynamic programming over a tree
decomposition, one table per bag and one message per tree edge, for the
large but thin graphs the reduction produces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, ParityError, SizeLimitError, WidthLimitError
from .graph_core import Cut, Graph, adjacency, canon_edge

DEFAULT_BRUTE_LIMIT = 26
DEFAULT_WIDTH_LIMIT = 12


def _side_tuple(key: int, n: int) -> tuple[int, ...]:
    # bit (n-1-i) of the key holds vertex i's side, so numeric key order is
    # lexicographic order of side vectors.
    return tuple((key >> (n - 1 - i)) & 1 for i in range(n))


def _cut_value_of_key(g: Graph, key: int) -> int:
    n = g.n
    return sum(1 for u, v in g.edges
               if ((key >> (n - 1 - u)) ^ (key >> (n - 1 - v))) & 1)


def max_cut_bruteforce(g: Graph, limit: int = DEFAULT_BRUTE_LIMIT) -> tuple[int, Cut]:
    """Exact maximum cut by enumerating all 2^(n-1) side vectors.

    Vertex 0 is fixed to side 0; ties break toward the lexicographically
    smallest side vector.
    """
    n = g.n
    if n > limit:
        raise SizeLimitError(
            f"n={n} exceeds brute-force limit {limit}; use max_cut_treewidth_dp")
    if n == 0:
        return 0, Cut((), 0)
    nbmask = [0] * n
    deg = [0] * n
    for u, v in g.edges:
        nbmask[u] |= 1 << (n - 1 - v)
        nbmask[v] |= 1 << (n - 1 - u)
        deg[u] += 1
        deg[v] += 1
    # Gray code k flips bit j of the key, the lowest set bit of k
    full = (1 << n) - 1
    m = val = best_val = best_key = 0
    for k in range(1, 1 << (n - 1)):
        j = (k & -k).bit_length() - 1
        w = n - 1 - j
        if (m >> j) & 1:
            differing = nbmask[w] & (full ^ m)
        else:
            differing = nbmask[w] & m
        val += deg[w] - 2 * differing.bit_count()
        m ^= 1 << j
        if val > best_val or (val == best_val and m < best_key):
            best_val, best_key = val, m
    return best_val, Cut(_side_tuple(best_key, n), best_val)


def max_bisection_bruteforce(g: Graph, limit: int = DEFAULT_BRUTE_LIMIT) -> tuple[int, Cut]:
    """Exact maximum bisection over balanced side vectors (vertex 0 on side 0)."""
    n = g.n
    if n % 2 != 0:
        raise ParityError(f"bisection needs an even vertex count, got {n}")
    if n > limit:
        raise SizeLimitError(f"n={n} exceeds brute-force limit {limit}")
    if n == 0:
        return 0, Cut((), 0)
    best_val = -1
    best_key = 0
    for ones in combinations(range(1, n), n // 2):
        key = 0
        for i in ones:
            key |= 1 << (n - 1 - i)
        val = _cut_value_of_key(g, key)
        if val > best_val or (val == best_val and key < best_key):
            best_val, best_key = val, key
    return best_val, Cut(_side_tuple(best_key, n), best_val)


# -- tree decomposition --------------------------------------------------------


@dataclass
class TreeDecomposition:
    """Bags plus a tree on bag indices; width is max bag size minus one."""

    bags: list[frozenset[int]]
    tree: list[tuple[int, int]]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def greedy_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from a min-fill elimination ordering.

    Uses a lazy heap keyed by (fill, degree, id); on pop the fill count is
    recomputed and stale entries are pushed back, so each elimination touches
    only the local neighborhood.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])
    adj = adjacency(g)

    def fill_count(v: int) -> int:
        nbrs = list(adj[v])
        return sum(1 for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))
                   if nbrs[j] not in adj[nbrs[i]])

    heap = [(fill_count(v), len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)
    eliminated = [False] * n
    order: list[int] = []
    elim_index: dict[int, int] = {}
    bags: list[frozenset[int]] = []
    bag_neighbors: list[set[int]] = []
    while len(order) < n:
        fill, deg, v = heapq.heappop(heap)
        if eliminated[v]:
            continue
        actual = (fill_count(v), len(adj[v]))
        if actual != (fill, deg):
            heapq.heappush(heap, (actual[0], actual[1], v))
            continue
        elim_index[v] = len(order)
        order.append(v)
        eliminated[v] = True
        nbrs = set(adj[v])
        bags.append(frozenset({v} | nbrs))
        bag_neighbors.append(nbrs)
        for a in nbrs:
            adj[a].discard(v)
        nb_list = sorted(nbrs)
        for i in range(len(nb_list)):
            for j in range(i + 1, len(nb_list)):
                a, b = nb_list[i], nb_list[j]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for a in nbrs:
            heapq.heappush(heap, (fill_count(a), len(adj[a]), a))

    # Connect each bag to the bag of its earliest-eliminated remaining
    # neighbor; bags with no remaining neighbor attach to the next bag.
    tree = []
    for i in range(n - 1):
        nbrs = bag_neighbors[i]
        if nbrs:
            parent = min(elim_index[a] for a in nbrs)
        else:
            parent = i + 1
        tree.append((i, parent))
    return TreeDecomposition(bags, tree)


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> list[str]:
    """Returns [] when td satisfies the three decomposition properties for g."""
    problems = []
    covered = set().union(*td.bags) if td.bags else set()
    if covered != set(range(g.n)):
        problems.append(f"vertices missing from bags: {set(range(g.n)) - covered}")
    for e in g.sorted_edges():
        if not any(e[0] in b and e[1] in b for b in td.bags):
            problems.append(f"edge {e} in no bag")
    # connectivity of each vertex's bag set
    nbags = len(td.bags)
    tree_adj: dict[int, set[int]] = {i: set() for i in range(nbags)}
    for i, j in td.tree:
        tree_adj[i].add(j)
        tree_adj[j].add(i)
    if nbags > 1:
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != nbags:
            problems.append("decomposition tree is not connected")
    for v in range(g.n):
        holding = [i for i, b in enumerate(td.bags) if v in b]
        if not holding:
            continue
        seen = {holding[0]}
        stack = [holding[0]]
        holding_set = set(holding)
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y in holding_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != holding_set:
            problems.append(f"bags containing vertex {v} are not connected")
    return problems


# -- the cut DP -----------------------------------------------------------------


def _projection(bag: list[int], onto: list[int]) -> list[int]:
    """For each side mask over bag, the index of its restriction to onto."""
    bits = {v: 1 << j for j, v in enumerate(onto)}
    proj = [0]
    for v in bag:
        bit = bits.get(v, 0)
        proj += [p + bit for p in proj]
    return proj


def max_cut_treewidth_dp(g: Graph, td: TreeDecomposition | None = None,
                         max_width: int = DEFAULT_WIDTH_LIMIT) -> int:
    """Exact mc(g) by DP over the side assignments of each bag.

    The tree is rooted at bag 0 and its bags are visited in post-order; a
    vertex is forgotten at the highest bag that holds it.  Each edge is
    credited to the bag that forgets its first-forgotten endpoint, which
    holds both endpoints.  A bag's table holds, per side mask of the bag,
    the best cut of the edges credited in its subtree; it sends its parent
    the max over the forgotten vertices.  Raises InputError when the tree
    does not reach every bag from bag 0, when the bags holding a vertex are
    not connected, or when an edge lies in no bag.
    """
    if td is None:
        td = greedy_tree_decomposition(g)
    if td.width > max_width:
        raise WidthLimitError(f"decomposition width {td.width} exceeds {max_width}")
    adj = adjacency(g)
    tree_adj: list[list[int]] = [[] for _ in td.bags]
    for i, j in td.tree:
        tree_adj[i].append(j)
        tree_adj[j].append(i)
    parent = {0: -1} if td.bags else {}
    order = []
    stack = list(parent)
    while stack:
        x = stack.pop()
        order.append(x)
        for y in tree_adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    if len(order) != len(td.bags):
        raise InputError("decomposition tree does not reach every bag from bag 0")

    forgotten: set[int] = set()
    # the root sends its best cut to -1; with no bags the empty cut stands
    inbox: dict[int, list[tuple[list[int], list[int]]]] = {-1: [([], [0])]}
    for x in reversed(order):
        up = td.bags[parent[x]] if parent[x] >= 0 else frozenset()
        shared = sorted(td.bags[x] & up)
        gone = sorted(td.bags[x] - up)
        bag = shared + gone
        pos = {v: i for i, v in enumerate(bag)}
        # shared vertices hold the low bits, forgotten ones the high bits
        table = [0] * (1 << len(shared))
        for i, v in enumerate(gone, len(shared)):
            if v in forgotten:
                raise InputError(f"bags holding vertex {v} are not connected")
            nbm = 0
            for u in adj[v]:
                j = pos.get(u)
                if j is None:
                    if u not in forgotten:
                        raise InputError(f"edge {canon_edge(u, v)} is not in bag {x}, "
                                         f"where vertex {v} is forgotten")
                elif j < i:
                    nbm |= 1 << j
            if nbm:
                crossing = [(m & nbm).bit_count() for m in range(len(table))]
                k = nbm.bit_count()
                table = ([t + c for t, c in zip(table, crossing)]
                         + [t + k - c for t, c in zip(table, crossing)])
            else:
                table += table
        forgotten.update(gone)
        for onto, msg in inbox.pop(x, ()):
            table = [t + msg[p] for t, p in zip(table, _projection(bag, onto))]
        while len(table) > 1 << len(shared):
            half = len(table) // 2
            table = list(map(max, table[:half], table[half:]))
        inbox.setdefault(parent[x], []).append((shared, table))
    stray = [e for e in g.edges if e[0] not in forgotten]
    if stray:
        raise InputError(f"edge {min(stray)} lies in no bag")
    return max(msg[0] for _, msg in inbox[-1])

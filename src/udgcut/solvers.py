"""Exact max-cut and max-bisection oracles.

Two routes: exhaustive bitmask enumeration for small graphs (Gray-code
incremental edge counting), and dynamic programming over a nice tree
decomposition for the large but thin graphs the reduction produces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from .errors import ParityError, SizeLimitError, WidthLimitError
from .graph_core import Cut, Graph, adjacency

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


def _gray(k: int) -> int:
    return k ^ (k >> 1)


def _brute_chunk(g: Graph, nbmask: list[int], deg: list[int],
                 start: int, stop: int) -> tuple[int, int]:
    """Best (value, key) over Gray codes of counters in [start, stop)."""
    n = g.n
    full = (1 << n) - 1
    m = _gray(start)
    val = _cut_value_of_key(g, m)
    best_val, best_key = val, m
    for k in range(start + 1, stop):
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
    return best_val, best_key


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
    best_val, best_key = _brute_chunk(g, nbmask, deg, 0, 1 << (n - 1))
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


# -- nice decomposition and the cut DP -----------------------------------------

_LEAF, _INTRODUCE, _FORGET, _JOIN = range(4)


def _build_nice_nodes(td: TreeDecomposition):
    """Linearize the rooted decomposition into post-ordered nice nodes.

    Each node is (kind, bag_tuple, payload); payloads point at child node
    indices so the DP can run as one flat pass.
    """
    nbags = len(td.bags)
    tree_adj: dict[int, set[int]] = {i: set() for i in range(nbags)}
    for i, j in td.tree:
        tree_adj[i].add(j)
        tree_adj[j].add(i)

    nodes: list[tuple] = []

    def chain_from_empty(bag: tuple[int, ...]) -> int:
        idx = len(nodes)
        nodes.append((_LEAF, (), None))
        cur = ()
        for v in bag:
            cur = tuple(sorted(cur + (v,)))
            nodes.append((_INTRODUCE, cur, (idx, v)))
            idx = len(nodes) - 1
        return idx

    def morph(child_idx: int, child_bag: tuple[int, ...], bag: tuple[int, ...]) -> int:
        cur = child_bag
        idx = child_idx
        for v in child_bag:
            if v not in bag:
                cur = tuple(x for x in cur if x != v)
                nodes.append((_FORGET, cur, (idx, v)))
                idx = len(nodes) - 1
        for v in bag:
            if v not in cur:
                cur = tuple(sorted(cur + (v,)))
                nodes.append((_INTRODUCE, cur, (idx, v)))
                idx = len(nodes) - 1
        return idx

    # iterative post-order over the rooted bag tree (root = bag 0)
    parent = {0: -1}
    post: list[int] = []
    stack = [0]
    while stack:
        x = stack.pop()
        post.append(x)
        for y in tree_adj[x]:
            if y != parent[x]:
                parent[y] = x
                stack.append(y)
    post.reverse()

    result_idx: dict[int, int] = {}
    for x in post:
        bag = tuple(sorted(td.bags[x]))
        child_results = [result_idx[y] for y in tree_adj[x] if y != parent[x]]
        if not child_results:
            result_idx[x] = chain_from_empty(bag)
            continue
        morphed = []
        for ci in child_results:
            morphed.append(morph(ci, nodes[ci][1], bag))
        acc = morphed[0]
        for other in morphed[1:]:
            nodes.append((_JOIN, bag, (acc, other)))
            acc = len(nodes) - 1
        result_idx[x] = acc

    root = result_idx[0]
    root_bag = nodes[root][1]
    cur = root_bag
    idx = root
    for v in root_bag:
        cur = tuple(x for x in cur if x != v)
        nodes.append((_FORGET, cur, (idx, v)))
        idx = len(nodes) - 1
    return nodes, idx


def max_cut_treewidth_dp(g: Graph, td: TreeDecomposition | None = None,
                         max_width: int = DEFAULT_WIDTH_LIMIT) -> int:
    """Exact mc(g) by DP over bag side-assignments of a nice decomposition.

    Edges between a newly introduced vertex and its bag are credited at the
    introduce node; join nodes subtract the doubly counted bag-internal cut.
    """
    if td is None:
        td = greedy_tree_decomposition(g)
    if td.width > max_width:
        raise WidthLimitError(f"decomposition width {td.width} exceeds {max_width}")
    adj = adjacency(g)
    nodes, root = _build_nice_nodes(td)

    tables: dict[int, list[int]] = {}
    for idx, (kind, bag, payload) in enumerate(nodes):
        if kind == _LEAF:
            tables[idx] = [0]
            continue
        if kind == _INTRODUCE:
            child_idx, v = payload
            child = tables[child_idx]
            b = len(bag)
            p = bag.index(v)
            nbm = 0
            for i, u in enumerate(bag):
                if u != v and u in adj[v]:
                    nbm |= 1 << i
            low = (1 << p) - 1
            table = [0] * (1 << b)
            for mask in range(1 << b):
                cm = ((mask >> (p + 1)) << p) | (mask & low)
                if (mask >> p) & 1:
                    differing = nbm & ~mask
                else:
                    differing = nbm & mask
                table[mask] = child[cm] + differing.bit_count()
            tables[idx] = table
            del tables[child_idx]
            continue
        if kind == _FORGET:
            child_idx, v = payload
            child = tables[child_idx]
            child_bag = nodes[child_idx][1]
            p = child_bag.index(v)
            low = (1 << p) - 1
            table = [0] * (1 << len(bag))
            for mask in range(1 << len(bag)):
                expanded = ((mask & ~low) << 1) | (mask & low)
                table[mask] = max(child[expanded], child[expanded | (1 << p)])
            tables[idx] = table
            del tables[child_idx]
            continue
        # join
        left_idx, right_idx = payload
        left, right = tables[left_idx], tables[right_idx]
        pairs = [(i, j) for i in range(len(bag)) for j in range(i + 1, len(bag))
                 if bag[j] in adj[bag[i]]]
        table = [0] * (1 << len(bag))
        for mask in range(1 << len(bag)):
            inner = sum(1 for i, j in pairs if ((mask >> i) ^ (mask >> j)) & 1)
            table[mask] = left[mask] + right[mask] - inner
        tables[idx] = table
        del tables[left_idx], tables[right_idx]

    return tables[root][0]

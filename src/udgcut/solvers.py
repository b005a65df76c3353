"""Exact max-cut and max-bisection oracles.

Two routes: exhaustive enumeration of side vectors for small graphs, which
splits the vertices into a high and a low block, walks the high-block
assignments in Gray order and keeps the scores of every low-block
completion packed in one int, 16 bits each, so that a step of the walk is
a few big-integer operations (broadword computing, Knuth, TAOCP 4A,
section 7.1.3; ties still go to the smallest side vector), and dynamic
programming over a tree decomposition for the large but thin graphs the
reduction produces.  The DP keeps the edges not yet counted as integer
pair weights: a vertex with at most two weighted neighbours is forgotten
by the chain rule in O(1), and only the other bags build a table over
their side masks.

The decomposition and the DP run with the cyclic garbage collector paused
(graph_core.pause_gc): their sets, tuples and lists hold no reference
cycles, so a collection during them walks every one of those objects, the
DP's 2^(w+1)-entry tables included, and frees nothing.  tests/test_gc.py
checks that the pipeline leaves no cyclic garbage.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import add

from .errors import InputError, ParityError, SizeLimitError, WidthLimitError
from .graph_core import Cut, Graph, adjacency, canon_edge, pause_gc
from .kernel import add_weight, chain_rule

DEFAULT_BRUTE_LIMIT = 26
# the bias of a packed brute-force score; see _best_key
_BIAS = 1 << 14
# A bag of w + 1 vertices builds a 2^(w+1)-entry table, so the width ceiling
# is a memory bound.  DP on the min-fill decomposition of the grid P_3k x P_k
# (three runs each, 2 vCPUs, Python 3.11.7): width 13 (k = 10) in 0.12-0.17 s
# and 18 MB of process maxrss, 16 (k = 12) in 1.1-1.2 s and 36 MB, 20
# (k = 14) in 9-12 s and 210-222 MB; an earlier single run took 78 s and
# 3.0 GB at width 24.  Pausing the collector saves little here: with it
# running the same runs took 0.10-0.11 s, 1.2-1.5 s and 8.7-9.2 s.  The
# reduce outputs of random_graph(random.Random(s), n, 0.5, 4) with
# (n, s) = (17, 38), (24, 24) and (32, 32) (N = 3 545, 5 612 and 6 602)
# have width 13, 16 and 15; `solve` takes 0.05, 0.24-0.25 and 0.20 s
# in-process and 21, 32 and 28 MB on them.
DEFAULT_WIDTH_LIMIT = 20


def _side_tuple(key: int, n: int) -> tuple[int, ...]:
    # bit (n-1-i) of the key holds vertex i's side, so numeric key order is
    # lexicographic order of side vectors.
    return tuple((key >> (n - 1 - i)) & 1 for i in range(n))


def _crossing(weights: list[int]) -> list[int]:
    """crossing[m]: the sum of weights[j] over the bits j set in mask m."""
    crossing = [0]
    for wt in weights:
        # repeat() stops the map at the entries crossing had before
        crossing += map(add, crossing, repeat(wt, len(crossing))) if wt else crossing
    return crossing


def _with_vertex(table: list[int], weights: list[int]) -> list[int]:
    """A cut table over side masks extended by one more vertex as the new
    top bit; weights[j] is its edge weight to the vertex at bit j."""
    if not any(weights):
        return table + table
    crossing = _crossing(weights)
    total = sum(weights)
    return (list(map(add, table, crossing))
            + list(map(add, table, map(total.__sub__, crossing))))


def _packed_crossing(weights: list[int]) -> int:
    """_crossing(weights) for non-negative weights, packed: entry m in the
    16-bit field m of one int, bits 16m to 16m + 15."""
    crossing = 0
    for j, wt in enumerate(weights):
        width = 16 << j  # the 2^j fields built so far
        crossing |= (crossing + wt * _field_ones(width)) << width
    return crossing


def _field_ones(width: int) -> int:
    """A 1 in each 16-bit field of the low width bits."""
    return ((1 << width) - 1) // 0xFFFF


def _best_key(g: Graph, ones: int | None = None) -> tuple[int, int]:
    """The best cut and the smallest key that reaches it, over the keys
    with vertex 0 on side 0 and, unless ones is None, exactly ones vertices
    on side 1.

    The low l = min(n // 2, DEFAULT_BRUTE_LIMIT // 2) key bits hold the low
    block, the last l vertices; the other bits hold the high block.  For a
    high mask, val is the cut with the whole low block on side 0 and score
    m is what low mask m adds to it.  The 2^l scores are packed in one int,
    scores: score m plus a bias of 2^14 in the 16-bit field m, bits 16m to
    16m + 15.  A score is a cut minus a cut, so |score| <= |E| <= 325 < 2^14
    for n <= DEFAULT_BRUTE_LIMIT = 26, and no field carries into or borrows
    from its neighbour in any sum below.

    The high masks are walked in Gray order, so each differs from the one
    before in one vertex h.  When h moves to side 1, val changes by h's
    side-0 neighbours minus its side-1 neighbours, and every score drops by
    h's flip vector, twice the number of h's low neighbours in m, packed
    the same way; moving h back undoes both.  A mask can replace the best
    only with a larger total, or an equal one and a smaller high mask (the
    key's high part), so it needs an eligible score of at least t = best -
    val, plus 1 unless its high mask is the smaller.  Adding 2^15 - 2^14 - t
    to every field sets a field's top bit exactly when its score is >= t,
    so the test is one multiply, one add and one AND with the top bits of
    the eligible fields: every field for the cut, and for the bisection
    the low masks with as many vertices on side 1 as the high mask still
    needs.  Only on a hit are the eligible fields unpacked to find the top
    score; the lowest field reaching it is the smallest key within the
    high mask.

    Memory: the scores, one flip vector per high vertex with a low
    neighbour, and one top-bit mask per side-1 count, each 2^l 16-bit
    fields (16 KB at l = 13).
    """
    n = g.n
    low = min(n // 2, DEFAULT_BRUTE_LIMIT // 2)
    high = n - low
    size = 1 << low
    nbmask = [0] * n
    for u, v in g.edges:
        nbmask[u] |= 1 << (n - 1 - v)
        nbmask[v] |= 1 << (n - 1 - u)
    # low mask bit b holds vertex n-1-b; high mask bit b holds vertex high-1-b.
    # The low block's own cut, grown by one vertex at a time as the top bit
    # (as _with_vertex does for a list), plus, with every high vertex on
    # side 0, the high neighbours that a low vertex on side 1 cuts
    scores = 0
    for b in range(low):
        weights = [nbmask[n - 1 - b] >> j & 1 for j in range(b)]
        crossing = _packed_crossing(weights)
        width = 16 << b
        scores = ((scores + crossing)
                  | (scores + sum(weights) * _field_ones(width) - crossing) << width)
    field_ones = _field_ones(16 << low)
    scores += _packed_crossing([(nbmask[n - 1 - b] >> low).bit_count()
                                for b in range(low)]) + _BIAS * field_ones
    moves = []  # by high mask bit: (bit, high neighbours, degree, packed flip vector)
    for b in range(high - 1):
        nb = nbmask[high - 1 - b]
        low_nb = nb & (size - 1)
        flip = _packed_crossing([2 * (low_nb >> j & 1) for j in range(low)]) if low_nb else 0
        moves.append((1 << b, nb >> low, nb.bit_count(), flip))
    # eligible[c]: the top bits of the fields a high mask with c vertices
    # on side 1 may complete, or 0 when it has no completion
    if ones is None:
        eligible = [0x8000 * field_ones] * high
    else:
        pops = bytes(m.bit_count() for m in range(size))
        eligible = []
        for c in range(high):
            top_bits = bytearray(2 * size)
            if 0 <= ones - c <= low:
                top_bits[1::2] = pops.translate(bytes(0x80 * (p == ones - c) for p in range(256)))
            eligible.append(int.from_bytes(top_bits, "little"))
    offset = 0x8000 - _BIAS
    mh = val = 0
    best_val = best_key = -1
    for step in range(1 << (high - 1)):
        if step:
            bit, high_nb, deg, flip = moves[(step & -step).bit_length() - 1]
            mh ^= bit
            gain = deg - 2 * (high_nb & mh).bit_count()
            if mh & bit:
                val += gain
                scores -= flip
            else:
                val -= gain
                scores += flip
        top_bits = eligible[mh.bit_count()]
        t = best_val - val + (mh >= best_key >> low)
        if not (scores + (offset - t) * field_ones) & top_bits:
            continue
        # a hit: unpack the eligible fields, the others cleared, in native
        # order (the order of the fields does not matter to max)
        fields = (scores & (top_bits >> 15) * 0xFFFF).to_bytes(2 * size, sys.byteorder)
        top = max(memoryview(fields).cast("H")) - _BIAS
        hits = (scores + (offset - top) * field_ones) & top_bits
        best_val = val + top
        best_key = mh << low | (hits & -hits).bit_length() // 16 - 1
    return best_val, best_key


def max_cut_bruteforce(g: Graph) -> tuple[int, Cut]:
    """Exact maximum cut by enumerating all 2^(n-1) side vectors.

    Vertex 0 is fixed to side 0; ties break toward the lexicographically
    smallest side vector, although the high-block assignments are walked
    in Gray order.  The scores of the 2^l low-block completions, where l
    is at most DEFAULT_BRUTE_LIMIT // 2, are 16-bit fields of one int with
    a bias of 2^14, which holds because no score exceeds the edge count
    (at most 325 here) in size.  Memory stays within one such int per high
    vertex plus two: 16 KB each at l = 13.  The walk runs in this process.
    """
    n = g.n
    if n > DEFAULT_BRUTE_LIMIT:
        raise SizeLimitError(f"n={n} exceeds brute-force limit {DEFAULT_BRUTE_LIMIT}; "
                             "use max_cut_treewidth_dp")
    if n == 0:
        return 0, Cut((), 0)
    best_val, best_key = _best_key(g)
    return best_val, Cut(_side_tuple(best_key, n), best_val)


def max_bisection_bruteforce(g: Graph) -> tuple[int, Cut]:
    """Exact maximum bisection over balanced side vectors (vertex 0 on side 0).

    Ties break toward the lexicographically smallest balanced side vector,
    although the high-block assignments are walked in Gray order.  The
    packed scores of every low completion are updated at each step of the
    walk, as for max_cut_bruteforce, and tested only at the fields with
    the popcount that balances the high mask; memory adds one packed mask
    per popcount, l + 1 of them.
    """
    n = g.n
    if n % 2 != 0:
        raise ParityError(f"bisection needs an even vertex count, got {n}")
    if n > DEFAULT_BRUTE_LIMIT:
        raise SizeLimitError(f"n={n} exceeds brute-force limit {DEFAULT_BRUTE_LIMIT}")
    if n == 0:
        return 0, Cut((), 0)
    best_val, best_key = _best_key(g, n // 2)
    return best_val, Cut(_side_tuple(best_key, n), best_val)


# -- tree decomposition --------------------------------------------------------


@dataclass
class TreeDecomposition:
    """Bags plus a tree on bag indices; width is max bag size minus one."""

    bags: list[frozenset[int]]
    tree: list[tuple[int, int]]

    @property
    def width(self) -> int:
        return max(map(len, self.bags), default=0) - 1


@pause_gc
def greedy_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from a min-fill elimination ordering.

    A vertex v's key (fill, degree, v) is the integer (fill * n + degree)
    * n + v, which orders the same way and compares faster.  The lazy queue
    has two sources: the initial keys, sorted once and walked by index, and
    a heap of the keys pushed since.  Each pop takes the smaller head, so
    the pops come in the order of one heap holding both.  A popped entry
    that differs from the vertex's current key is pushed back with the
    current key.  Each vertex's exact key is cached, and the cache entry is
    cleared only where the key can change: at the neighbours of an
    eliminated vertex, which are recomputed and pushed at once, and at the
    common neighbours of the two ends of each fill edge, whose fill just
    dropped and is recomputed when they are next popped.  A key equal to
    the last one pushed for its vertex is still queued, so it is not
    pushed again.

    Most vertices of a reduction output subdivide an edge, so the common
    step eliminates a vertex v of degree 2 whose neighbours a and b are not
    adjacent.  The fill edge ab then takes v's place in both neighbourhoods:
    neither degree changes, and the fill of each end drops by exactly the
    number of common neighbours of a and b.  A cached key of a or b then
    falls by n^2 per unit of fill in O(1), or stays, not pushed, when the
    drop is 0; a cleared key is recomputed even then.  Other eliminations
    recompute the keys of all their neighbours.  The elimination order, and
    so the bags and the tree, are the same either way.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])
    adj = adjacency(g)
    nn = n * n  # one unit of fill in a key

    def key(v: int) -> int:
        nbrs = adj[v]
        deg = len(nbrs)
        if deg <= 1:
            return deg * n + v
        if deg == 2:
            a, b = nbrs
            return (0 if b in adj[a] else nn) + 2 * n + v
        links = 0  # twice the number of edges among the neighbours
        for a in nbrs:
            links += len(adj[a] & nbrs)
        return ((deg * (deg - 1) - links) // 2 * n + deg) * n + v

    keys: list[int | None] = [key(v) for v in range(n)]
    pushed = list(keys)
    initial = sorted(keys)
    nxt = 0  # index of the next initial key
    heap: list[int] = []
    heappop, heappush = heapq.heappop, heapq.heappush
    elim_index = [-1] * n  # position in the elimination order
    bags: list[frozenset[int]] = []
    bag_neighbors: list[set[int]] = []
    while len(bags) < n:
        if heap and (nxt == n or heap[0] < initial[nxt]):
            entry = heappop(heap)
        else:
            entry = initial[nxt]
            nxt += 1
        v = entry % n
        if elim_index[v] >= 0:
            continue
        current = keys[v]
        if current is None:
            current = keys[v] = key(v)
        if current != entry:
            if current != pushed[v]:
                pushed[v] = current
                heappush(heap, current)
            continue
        elim_index[v] = len(bags)
        nbrs = adj[v]  # no longer changes: v has left every other set
        bag_neighbors.append(nbrs)
        drop = None  # how far the fill of each neighbour fell, where known
        if len(nbrs) == 2:
            a, b = nbrs
            bags.append(frozenset((v, a, b)))
            adj_a, adj_b = adj[a], adj[b]
            adj_a.discard(v)
            adj_b.discard(v)
            if b not in adj_a:
                common = () if adj_a.isdisjoint(adj_b) else adj_a & adj_b
                for w in common:
                    keys[w] = None
                drop = len(common)
                adj_a.add(b)
                adj_b.add(a)
        else:
            bags.append(frozenset({v} | nbrs))
            for a in nbrs:
                adj[a].discard(v)
            for a, b in combinations(sorted(nbrs), 2):
                if b not in adj[a]:
                    for w in adj[a] & adj[b]:
                        keys[w] = None
                    adj[a].add(b)
                    adj[b].add(a)
        for a in nbrs:
            k = keys[a]
            if k is None or drop is None:
                k = keys[a] = key(a)
            elif drop:
                k = keys[a] = k - drop * nn
            else:
                continue
            if k != pushed[a]:
                pushed[a] = k
                heappush(heap, k)

    # Connect each bag to the bag of its earliest-eliminated remaining
    # neighbor; bags with no remaining neighbor attach to the next bag.
    tree = []
    for i in range(n - 1):
        nbrs = bag_neighbors[i]
        if len(nbrs) == 2:
            a, b = nbrs
            parent = elim_index[a] if elim_index[a] < elim_index[b] else elim_index[b]
        elif nbrs:
            parent = min(map(elim_index.__getitem__, nbrs))
        else:
            parent = i + 1
        tree.append((i, parent))
    return TreeDecomposition(bags, tree)


# -- the cut DP -----------------------------------------------------------------


def _projection(bag: list[int], onto: list[int]) -> list[int]:
    """For each side mask over bag, the index of its restriction to onto."""
    bits = {v: 1 << j for j, v in enumerate(onto)}
    proj = [0]
    for v in bag:
        bit = bits.get(v, 0)
        proj += [p + bit for p in proj]
    return proj


@pause_gc
def max_cut_treewidth_dp(g: Graph, td: TreeDecomposition | None = None,
                         max_width: int = DEFAULT_WIDTH_LIMIT) -> int:
    """Exact mc(g) by DP over the side assignments of each bag.

    The tree is rooted at bag 0 and each bag is visited after all its
    children; a vertex is forgotten at the highest bag that holds it.  The
    terms not yet counted are a constant plus integer weights on vertex
    pairs, starting as g's edges at weight 1.  A bag that forgets one vertex
    v with at most two weighted neighbours, all in the bag, and receives no
    table, forgets v by the chain rule (kernel.chain_rule), so no stored
    weight is 0.  Any other bag builds a table over the side masks of its
    vertices from the weights of its forgotten vertices and the tables of
    its children, and takes the max over the forgotten vertices.  A table
    over three or more vertices goes to the parent; a smaller one,
    symmetric under flipping every side, becomes a constant plus one pair
    weight.  Raises InputError when a bag or tree edge names something that
    does not exist, when the tree does not reach every bag from bag 0 or
    has a cycle, when the bags holding a vertex are not connected, or when
    an edge lies in no bag.
    """
    if td is None:
        td = greedy_tree_decomposition(g)
    if td.width > max_width:
        raise WidthLimitError(f"decomposition width {td.width} exceeds {max_width}")
    n, bags = g.n, td.bags
    held = set().union(*bags)
    if held and not (min(held) >= 0 and max(held) < n):
        x, v = min((x, v) for x, b in enumerate(bags) for v in b if not 0 <= v < n)
        raise InputError(f"bag {x} holds {v}, which is not a vertex of the "
                         f"{n}-vertex graph")
    n_bags = len(bags)
    tree_adj: list[list[int]] = [[] for _ in bags]
    for i, j in td.tree:
        if not (0 <= i < n_bags and 0 <= j < n_bags):
            raise InputError(f"tree edge {(i, j)} names a bag that does not exist; "
                             f"there are {n_bags}")
        tree_adj[i].append(j)
        tree_adj[j].append(i)
    # each parent before its children; parent[y] is None until bag y is
    # reached, and the root's parent is -1
    order = [0] if bags else []
    parent: list[int | None] = [-1] + [None] * (n_bags - 1)
    for x in order:
        for y in tree_adj[x]:
            if parent[y] is None:
                parent[y] = x
                order.append(y)
    if len(order) != n_bags:
        raise InputError("decomposition tree does not reach every bag from bag 0")
    if len(td.tree) > n_bags - 1:
        raise InputError("decomposition tree has a cycle")

    w: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in g.edges:
        w[u][v] = w[v][u] = 1
    const = 0
    forgotten = [False] * n
    inbox: dict[int, list[tuple[list[int], list[int]]]] = {}
    for x in reversed(order):
        p = parent[x]
        bag = bags[x]
        up = bags[p] if p >= 0 else frozenset()
        gone = bag - up
        if len(gone) == 1 and x not in inbox:
            (v,) = gone
            wv = w[v]
            if len(wv) <= 2 and not forgotten[v] and wv.keys() <= bag:
                forgotten[v] = True
                const += chain_rule(w, v)
                continue
        for v in gone:
            if forgotten[v]:
                raise InputError(f"bags holding vertex {v} are not connected")
            if not w[v].keys() <= bag:
                u = min(w[v].keys() - bag)
                what = "edge" if canon_edge(u, v) in g.edges else "weighted pair"
                raise InputError(f"{what} {canon_edge(u, v)} is not in bag {x}, "
                                 f"where vertex {v} is forgotten")
            forgotten[v] = True
        shared = sorted(bag & up)
        vertices = shared + sorted(gone)
        # shared vertices hold the low bits, forgotten ones the high bits
        table = [0] * (1 << len(shared))
        for i in range(len(shared), len(vertices)):
            wv = w[vertices[i]]
            table = _with_vertex(table, [wv.get(u, 0) for u in vertices[:i]])
        for v in gone:
            for u in w[v]:
                if u not in gone:
                    del w[u][v]
        for onto, msg in inbox.pop(x, ()):
            table = list(map(add, table, map(msg.__getitem__, _projection(vertices, onto))))
        while len(table) > 1 << len(shared):
            half = len(table) // 2
            table = list(map(max, table[:half], table[half:]))
        if len(shared) > 2:
            inbox.setdefault(p, []).append((shared, table))
        else:
            const += table[0]
            if len(shared) == 2:
                add_weight(w, *shared, table[1] - table[0])
    stray = [] if all(forgotten) else [e for e in g.edges if not forgotten[e[0]]]
    if stray:
        raise InputError(f"edge {min(stray)} lies in no bag")
    return const

"""Exact max-cut and max-bisection oracles.

Two routes: exhaustive enumeration of side vectors for small graphs, which
splits the vertices into a high and a low block, walks the high-block
assignments in Gray order and keeps the scores of every low-block
completion as one list, updated by one precomputed flip vector per step
(ties still go to the smallest side vector), and dynamic programming
over a tree decomposition for the large but thin graphs the reduction
produces.  From SPLIT_MIN_VERTICES vertices on, the high-block walk is
cut into one part per usable CPU, and every part but the first is walked
in a forked worker process.  The DP keeps the edges not yet counted as
integer pair weights: a vertex with at most two weighted neighbours is
forgotten by the chain rule in O(1), and only the other bags build a table
over their side masks.
"""

from __future__ import annotations

import heapq
import os
import signal
import struct
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import combinations, repeat
from operator import add, sub

from .errors import InputError, ParityError, SizeLimitError, WidthLimitError
from .graph_core import Cut, Graph, canon_edge

DEFAULT_BRUTE_LIMIT = 26
# Below this many vertices brute force walks in one process.  A fork, a
# pipe and the wait cost about 1 ms.  Medians of 15 runs on random degree-4
# graphs (2 vCPUs, Python 3.11.7), serial against two parts, for the cut:
# n = 16 1.5 ms against 2.1 ms, 17 2.3 against 2.4, 18 4.5 against 3.6,
# 20 19 against 11, 22 72 against 44; the bisection crosses over at the
# same n.
SPLIT_MIN_VERTICES = 18
# a worker's result: its best value and smallest key
_RESULT = struct.Struct("<qq")
# A bag of w + 1 vertices builds a 2^(w+1)-entry table, so the width ceiling
# is a memory bound.  DP on the min-fill decomposition of the grid P_3k x P_k
# (one run each, 2 vCPUs, Python 3.11.7): width 13 in 0.14 s and 19 MB of
# process maxrss, 16 in 1.3 s and 36 MB, 20 in 10.6 s and 218 MB, 24 in 78 s
# and 3.0 GB.  The reduce outputs of random degree-4 graphs with n = 14, 24
# and 32 have width 13, 15 and 15; `solve` takes under 1 s and 70 MB on each.
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


def _best_key(g: Graph, ones: int | None = None,
              parts: int | None = None) -> tuple[int, int]:
    """The best cut and the smallest key that reaches it, over the keys
    with vertex 0 on side 0 and, unless ones is None, exactly ones vertices
    on side 1.

    The low l = min(n // 2, DEFAULT_BRUTE_LIMIT // 2) key bits hold the low
    block, the last l vertices; the other bits hold the high block.  For a
    high mask, val is the cut with the whole low block on side 0 and
    scores[m] is what low mask m adds to it.  When a high vertex h moves to
    side 1, val changes by h's side-0 neighbours minus its side-1
    neighbours, and scores drops by h's flip vector: twice the number of
    h's low neighbours in m.  Moving h back undoes both.  A flip vector is
    kept only for a high vertex with a low neighbour, as bytes, so the
    extra memory is at most (n - l - 1) * 2^l one-byte entries beside the
    2^l-entry lists.

    The high masks are split into parts by their top walked bits (see
    _walk_part); parts, a power of two, defaults to _part_count and is
    clamped to the number of high masks.  Every part but part 0 is walked
    in a forked worker (_walk_parts), which inherits the set-up below, so
    each process holds its own score lists.  The largest value wins, and
    among the parts that reach it the smallest key, so the answer does not
    depend on parts.
    """
    n = g.n
    low = min(n // 2, DEFAULT_BRUTE_LIMIT // 2)
    high = n - low
    nbmask = [0] * n
    for u, v in g.edges:
        nbmask[u] |= 1 << (n - 1 - v)
        nbmask[v] |= 1 << (n - 1 - u)
    # low mask bit b holds vertex n-1-b; high mask bit b holds vertex high-1-b
    low_cut = [0]
    for b in range(low):
        low_cut = _with_vertex(low_cut, [nbmask[n - 1 - b] >> j & 1 for j in range(b)])
    # with every high vertex on side 0, a low vertex on side 1 cuts all its
    # high neighbours
    scores = list(map(add, low_cut, _crossing(
        [(nbmask[n - 1 - b] >> low).bit_count() for b in range(low)])))
    moves = []  # by high mask bit: (bit, high neighbours, degree, flip vector)
    for b in range(high - 1):
        nb = nbmask[high - 1 - b]
        low_nb = nb & ((1 << low) - 1)
        flip = bytes(_crossing([2 * (low_nb >> j & 1) for j in range(low)])) if low_nb else b""
        moves.append((1 << b, nb >> low, nb.bit_count(), flip))
    by_ones: list[list[int]] = []  # the low masks of each popcount, ascending
    if ones is not None:
        by_ones = [[] for _ in range(low + 1)]
        for m in range(1 << low):
            by_ones[m.bit_count()].append(m)
    if parts is None:
        parts = _part_count(n)
    parts = min(parts, 1 << (high - 1))
    walk = partial(_walk_part, moves, scores, ones, by_ones, parts.bit_length() - 1)
    # the largest value, then the smallest key
    return max(_walk_parts(walk, parts), key=lambda best: (best[0], -best[1]))


def _walk_part(moves: list[tuple[int, int, int, bytes]], scores: list[int],
               ones: int | None, by_ones: list[list[int]], s: int,
               p: int) -> tuple[int, int]:
    """(best value, smallest key reaching it) over part p of the high
    masks: those whose top s walked bits equal p, or (-1, -1) when none of
    them has a completion with ones vertices on side 1.

    The part's first mask is reached from the all-zero one by flipping its
    set bits; from there the remaining bits are walked in Gray order, so
    each mask differs from the one before in one vertex.  A mask replaces
    the best when its total is larger, or equal with a smaller key; within
    one mask the first index of the maximum is the smallest key.
    """
    low = len(scores).bit_length() - 1
    r = len(moves) - s  # the walked bits below the part's fixed ones
    mh = val = 0
    for b in range(r, len(moves)):
        if p >> (b - r) & 1:
            bit, high_nb, deg, flip = moves[b]
            mh |= bit
            val += deg - 2 * (high_nb & mh).bit_count()
            if flip:
                scores = list(map(sub, scores, flip))
    best_val = best_key = -1
    for step in range(1 << r):
        if step:
            bit, high_nb, deg, flip = moves[(step & -step).bit_length() - 1]
            mh ^= bit
            gain = deg - 2 * (high_nb & mh).bit_count()
            if mh & bit:
                val += gain
                if flip:
                    scores = list(map(sub, scores, flip))
            else:
                val -= gain
                if flip:
                    scores = list(map(add, scores, flip))
        if ones is None:
            top = max(scores)
        else:
            rest = ones - mh.bit_count()
            if not 0 <= rest <= low:
                continue
            top = max(map(scores.__getitem__, by_ones[rest]))
        # the high mask is the key's high part, so a smaller one is a
        # smaller key whatever the low part
        if val + top > best_val or val + top == best_val and mh < best_key >> low:
            best_val = val + top
            i = (scores.index(top) if ones is None
                 else next(m for m in by_ones[rest] if scores[m] == top))
            best_key = mh << low | i
    return best_val, best_key


def _part_count(n: int) -> int:
    """How many parts the high masks of an n-vertex graph are split into:
    the largest power of two at most the number of usable CPUs, or 1 when
    n < SPLIT_MIN_VERTICES, when os.fork is missing, or when another
    thread is alive (a forked child holds a copy of any lock that thread
    held)."""
    if n < SPLIT_MIN_VERTICES or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return 1 << (cpus.bit_length() - 1)


def _walk_parts(walk: Callable[[int], tuple[int, int]],
                parts: int) -> list[tuple[int, int]]:
    """walk(p) for every p < parts, walk(0) in this process and the others
    in forked workers, one each.

    Each worker writes its result to its own pipe as two signed 8-byte
    ints, one write of 16 bytes, and ends with os._exit.  A part whose pipe
    or fork fails, or whose worker ends without writing, is walked here
    instead.
    No worker outlives the call: they are read and reaped before it returns
    and killed first when it raises.
    """
    workers = []  # (part, pid, read end of its pipe)
    results = []
    try:
        for p in range(1, parts):
            try:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
            except OSError:
                results.append(walk(p))
                continue
            if pid == 0:  # the worker
                try:
                    os.close(r)
                    os.write(w, _RESULT.pack(*walk(p)))
                finally:
                    os._exit(0)
            os.close(w)
            workers.append((p, pid, r))
        results.append(walk(0))
        for p, _, r in workers:
            data = os.read(r, _RESULT.size)
            results.append(_RESULT.unpack(data) if len(data) == _RESULT.size else walk(p))
    except BaseException:
        for _, pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pid, r in workers:
            os.close(r)
            os.waitpid(pid, 0)
    return results


def max_cut_bruteforce(g: Graph, limit: int = DEFAULT_BRUTE_LIMIT) -> tuple[int, Cut]:
    """Exact maximum cut by enumerating all 2^(n-1) side vectors.

    Vertex 0 is fixed to side 0; ties break toward the lexicographically
    smallest side vector, although the high-block assignments are walked
    in Gray order.  Memory stays within lists of 2^l entries plus
    (n - l - 1) * 2^l bytes of flip vectors, where the low block's length
    l is at most DEFAULT_BRUTE_LIMIT // 2.

    With n >= SPLIT_MIN_VERTICES the high-block assignments are cut into
    2^s parts by their top s bits, the largest power of two at most the
    number of usable CPUs.  This process walks the first part and a forked
    worker each other one, with its own score lists, so the memory above
    is per process.  The walk stays in one process below that size, where
    os.fork does not exist, and while another thread is alive.  The best
    value of any part wins, and the smallest side vector among the parts
    that reach it, so the answer and its tie-break do not depend on the
    split.
    """
    n = g.n
    if n > limit:
        raise SizeLimitError(
            f"n={n} exceeds brute-force limit {limit}; use max_cut_treewidth_dp")
    if n == 0:
        return 0, Cut((), 0)
    best_val, best_key = _best_key(g)
    return best_val, Cut(_side_tuple(best_key, n), best_val)


def max_bisection_bruteforce(g: Graph, limit: int = DEFAULT_BRUTE_LIMIT) -> tuple[int, Cut]:
    """Exact maximum bisection over balanced side vectors (vertex 0 on side 0).

    Ties break toward the lexicographically smallest balanced side vector,
    although the high-block assignments are walked in Gray order.  The
    scores of every low completion are updated at each step of the walk,
    and read only at the balanced ones.  The walk is split across forked
    processes, and memory is per process, as for max_cut_bruteforce; the
    answer is the same as one process's.
    """
    n = g.n
    if n % 2 != 0:
        raise ParityError(f"bisection needs an even vertex count, got {n}")
    if n > limit:
        raise SizeLimitError(f"n={n} exceeds brute-force limit {limit}")
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
        return max((len(b) for b in self.bags), default=0) - 1


def greedy_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Tree decomposition from a min-fill elimination ordering.

    Uses a lazy heap keyed by (fill, degree, id): a popped entry that differs
    from the vertex's current key is pushed back with the current key.
    Each vertex's exact key is cached, and the cache entry is cleared only
    where the key can change: at the neighbours of an eliminated vertex,
    which are recomputed and pushed at once, and at the common neighbours
    of the two ends of each fill edge, whose fill just dropped and is
    recomputed when they are next popped.  A key equal to the last one
    pushed for its vertex is still in the heap, so it is not pushed again.

    Most vertices of a reduction output subdivide an edge, so the common
    step eliminates a vertex v of degree 2 whose neighbours a and b are not
    adjacent.  The fill edge ab then takes v's place in both neighbourhoods:
    neither degree changes, and the fill of each end drops by exactly the
    number of common neighbours of a and b.  A cached key of a or b is
    lowered by that count in O(1), and is left as it is, not pushed, when
    there are none; a cleared key is recomputed.  Every other elimination
    recomputes the keys of all its neighbours.  The elimination order, and
    so the bags and the tree, are the same either way.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def key(v: int) -> tuple[int, int, int]:
        nbrs = adj[v]
        deg = len(nbrs)
        if deg <= 1:
            return 0, deg, v
        if deg == 2:
            a, b = nbrs
            return (0 if b in adj[a] else 1), 2, v
        links = 0  # twice the number of edges among the neighbours
        for a in nbrs:
            links += len(adj[a] & nbrs)
        return (deg * (deg - 1) - links) // 2, deg, v

    keys: list[tuple[int, int, int] | None] = [key(v) for v in range(n)]
    pushed = list(keys)
    heap = list(keys)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    elim_index = [-1] * n  # position in the elimination order
    bags: list[frozenset[int]] = []
    bag_neighbors: list[set[int]] = []
    while len(bags) < n:
        entry = heappop(heap)
        v = entry[2]
        if elim_index[v] >= 0:
            continue
        current = keys[v]
        if current is None:
            current = keys[v] = key(v)
        if current is not entry and current != entry:
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
                common = adj_a & adj_b
                for w in common:
                    keys[w] = None
                adj_a.add(b)
                adj_b.add(a)
                drop = len(common)
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
                k = keys[a] = (k[0] - drop, k[1], a)
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


def _add_weight(w: list[dict[int, int]], a: int, b: int, d: int) -> None:
    """Adds d to the weight of pair ab, dropping a pair whose weight is 0."""
    if d:
        s = w[a].get(b, 0) + d
        if s:
            w[a][b] = w[b][a] = s
        else:
            del w[a][b], w[b][a]


def max_cut_treewidth_dp(g: Graph, td: TreeDecomposition | None = None,
                         max_width: int = DEFAULT_WIDTH_LIMIT) -> int:
    """Exact mc(g) by DP over the side assignments of each bag.

    The tree is rooted at bag 0 and each bag is visited after all its
    children; a vertex is forgotten at the highest bag that holds it.  The
    terms not yet counted are a constant plus integer weights on vertex
    pairs, starting as g's edges at weight 1.  A bag that forgets one vertex
    v with at most two weighted neighbours, and receives no table, forgets v
    by the chain rule: with neighbour weights w1 and w2 it adds
    c = max(0, w1 + w2) to the constant and max(w1, w2) - c to the pair of
    v's neighbours.  Any other bag builds a table over the side masks of its
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
    tree_adj: list[list[int]] = [[] for _ in bags]
    for i, j in td.tree:
        if not (0 <= i < len(bags) and 0 <= j < len(bags)):
            raise InputError(f"tree edge {(i, j)} names a bag that does not exist; "
                             f"there are {len(bags)}")
        tree_adj[i].append(j)
        tree_adj[j].append(i)
    # (bag, parent) pairs, each parent before its children; the root's
    # parent is -1
    order = [(0, -1)] if bags else []
    reached = {0}
    for x, _ in order:
        for y in tree_adj[x]:
            if y not in reached:
                reached.add(y)
                order.append((y, x))
    if len(order) != len(bags):
        raise InputError("decomposition tree does not reach every bag from bag 0")
    if len(td.tree) > len(bags) - 1:
        raise InputError("decomposition tree has a cycle")

    w: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in g.edges:
        w[u][v] = w[v][u] = 1
    const = 0
    forgotten: set[int] = set()
    inbox: dict[int, list[tuple[list[int], list[int]]]] = {}
    for x, p in reversed(order):
        bag = bags[x]
        up = bags[p] if p >= 0 else frozenset()
        gone = bag - up
        if len(gone) == 1 and x not in inbox:
            (v,) = gone
            wv = w[v]
            if len(wv) <= 2 and v not in forgotten and wv.keys() <= bag:
                forgotten.add(v)
                if len(wv) == 2:
                    (a, w1), (b, w2) = wv.items()
                    del w[a][v], w[b][v]
                    c = max(0, w1 + w2)
                    const += c
                    _add_weight(w, a, b, max(w1, w2) - c)
                elif wv:
                    (a, w1), = wv.items()
                    del w[a][v]
                    const += max(0, w1)
                continue
        for v in gone:
            if v in forgotten:
                raise InputError(f"bags holding vertex {v} are not connected")
            if not w[v].keys() <= bag:
                u = min(w[v].keys() - bag)
                what = "edge" if canon_edge(u, v) in g.edges else "weighted pair"
                raise InputError(f"{what} {canon_edge(u, v)} is not in bag {x}, "
                                 f"where vertex {v} is forgotten")
        forgotten |= gone
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
                _add_weight(w, *shared, table[1] - table[0])
    stray = [e for e in g.edges if e[0] not in forgotten]
    if stray:
        raise InputError(f"edge {min(stray)} lies in no bag")
    return const

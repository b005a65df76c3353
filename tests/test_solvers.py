"""Exact solvers: brute force, balanced brute force, and the treewidth DP."""

import hashlib
import heapq
import os
import random
import re
import threading
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udgcut.solvers
from udgcut.errors import InputError, ParityError, SizeLimitError, WidthLimitError
from udgcut.graph_core import (Cut, adjacency, complete_graph, cut_size,
                               cycle_graph, disjoint_union, graph, path_graph,
                               petersen_graph, random_graph, subdivide_randomly)
from udgcut.solvers import (DEFAULT_BRUTE_LIMIT, SPLIT_MIN_VERTICES,
                            TreeDecomposition, _best_key, _part_count,
                            _side_tuple, greedy_tree_decomposition,
                            max_bisection_bruteforce, max_cut_bruteforce,
                            max_cut_treewidth_dp)


def test_complete_graph_cuts_match_closed_form():
    for n in range(1, 9):
        assert max_cut_bruteforce(complete_graph(n))[0] == n * n // 4


def test_edgeless_and_empty():
    assert max_cut_bruteforce(graph(0))[0] == 0
    assert max_cut_bruteforce(graph(5))[0] == 0
    assert max_bisection_bruteforce(graph(0))[0] == 0
    assert max_bisection_bruteforce(graph(2))[0] == 0


def test_cut_certificate_is_self_certifying():
    rng = random.Random(41)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), p=0.5)
        size, cut = max_cut_bruteforce(g)
        assert cut_size(g, cut.side) == size == cut.size
        assert cut.side[0] == 0


def _naive_optimum(g, balanced=False):
    """(best cut, lexicographically smallest side vector reaching it) over
    the side vectors with vertex 0 on side 0, by plain enumeration."""
    best = None
    for rest in product((0, 1), repeat=max(g.n - 1, 0)):
        side = ((0,) + rest)[:g.n]
        if balanced and 2 * sum(side) != g.n:
            continue
        size = cut_size(g, side)
        if best is None or size > best[0]:
            best = (size, side)
    return best


def test_tie_break_is_lexicographically_smallest():
    rng = random.Random(43)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), p=rng.choice([0.1, 0.4, 1.0]))
        size, cut = max_cut_bruteforce(g)
        assert (size, cut.side) == _naive_optimum(g)
        if g.n % 2 == 0:
            size, cut = max_bisection_bruteforce(g)
            assert (size, cut.side) == _naive_optimum(g, balanced=True)


def test_smallest_graphs():
    assert max_cut_bruteforce(graph(1)) == (0, Cut((0,), 0))
    assert max_cut_bruteforce(graph(2)) == (0, Cut((0, 0), 0))
    assert max_cut_bruteforce(path_graph(2)) == (1, Cut((0, 1), 1))
    assert max_cut_bruteforce(path_graph(3)) == (2, Cut((0, 1, 0), 2))
    assert max_cut_bruteforce(complete_graph(3)) == (2, Cut((0, 0, 1), 2))
    assert max_bisection_bruteforce(graph(2)) == (0, Cut((0, 1), 0))
    assert max_bisection_bruteforce(path_graph(2)) == (1, Cut((0, 1), 1))
    for n in (1, 3, 5):
        with pytest.raises(ParityError):
            max_bisection_bruteforce(graph(n))


def _across_the_split(n):
    """Every edge joins the first n - n // 2 vertices to the last n // 2."""
    return graph(n, [(u, v) for u in range(n - n // 2) for v in range(n - n // 2, n)])


@pytest.mark.parametrize("n", range(1, 12))
def test_graphs_whose_every_edge_crosses_the_split(n):
    g = _across_the_split(n)
    size, cut = max_cut_bruteforce(g)
    assert size == g.m
    assert (size, cut.side) == _naive_optimum(g)
    if n % 2 == 0:
        size, cut = max_bisection_bruteforce(g)
        assert (size, cut.side) == _naive_optimum(g, balanced=True) == (g.m, cut.side)
    _assert_parts_agree(g)


def _complete_bipartite(a, b):
    return graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@pytest.mark.parametrize("cap", [0, 2, 5])
def test_a_low_block_shorter_than_half_the_vertices(monkeypatch, cap):
    # the low block holds at most DEFAULT_BRUTE_LIMIT // 2 vertices; a small
    # cap makes it shorter than n // 2, so some high masks have no balanced
    # completion and are skipped, and cap 0 walks every vertex but vertex 0
    # in Gray order.  The cap is the brute-force size limit too, so the core
    # is called directly
    monkeypatch.setattr(udgcut.solvers, "DEFAULT_BRUTE_LIMIT", cap)
    rng = random.Random(71)
    graphs = [_across_the_split(10), complete_graph(9), graph(8)]
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [_complete_bipartite(a, b) for a in range(1, 7) for b in range(a, 13 - a)]
    graphs += [random_graph(rng, rng.randint(1, 12), p=rng.choice([0.1, 0.2, 0.5, 0.9]))
               for _ in range(30)]
    for g in graphs:
        size, key = _best_key(g)
        assert (size, _side_tuple(key, g.n)) == _naive_optimum(g)
        if g.n % 2 == 0:
            size, key = _best_key(g, g.n // 2)
            assert (size, _side_tuple(key, g.n)) == _naive_optimum(g, balanced=True)
        _assert_parts_agree(g)


def test_edgeless_graphs_keep_the_smallest_side_vector():
    # every side vector ties, and Gray order visits high masks out of
    # ascending order, so only the tie rule picks the smallest
    for n in range(1, 17):
        assert max_cut_bruteforce(graph(n)) == (0, Cut((0,) * n, 0))
        if n % 2 == 0:
            side = (0,) * (n // 2) + (1,) * (n // 2)
            assert max_bisection_bruteforce(graph(n)) == (0, Cut(side, 0))
        # split, every part reaches 0, so the merge alone picks the key
        for parts in (2, 4):
            assert _best_key(graph(n), None, parts) == (0, 0)
            if n % 2 == 0:
                assert _best_key(graph(n), n // 2, parts) == (0, (1 << n // 2) - 1)


def _assert_parts_agree(g):
    """The core gives the serial walk's (size, key) split into 2 or 4 parts."""
    for ones in (None, g.n // 2) if g.n % 2 == 0 else (None,):
        serial = _best_key(g, ones, 1)
        for parts in (2, 4):
            assert _best_key(g, ones, parts) == serial, (parts, ones)


def test_every_part_count_gives_the_serial_answer():
    # n = 1 ... 4 walk fewer high bits than 4 parts need, so the part count
    # is cut down to the number of high masks
    rng = random.Random(73)
    for n in range(1, 23):
        g = random_graph(rng, n, p=rng.choice([0.1, 0.3, 0.5, 0.9]), max_deg=rng.choice([4, n]))
        _assert_parts_agree(g)
        if n <= 12:
            assert _best_key(g, None, 4)[0] == _naive_optimum(g)[0]


def _assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_a_return():
    g = random_graph(random.Random(74), 16, p=0.5, max_deg=4)
    for ones in (None, 8):
        _best_key(g, ones, 4)
        _assert_no_worker_left()


def test_no_worker_outlives_a_parent_part_that_raises(monkeypatch):
    # the workers would take a minute, so a prompt return means they were
    # killed, not waited for
    parent = os.getpid()

    def failing(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise RuntimeError("part 0 fails")

    monkeypatch.setattr(udgcut.solvers, "_walk_part", failing)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="part 0 fails"):
        _best_key(random_graph(random.Random(75), 16, p=0.5, max_deg=4), None, 4)
    assert time.monotonic() - start < 30
    _assert_no_worker_left()


def test_a_part_without_a_result_is_walked_again(monkeypatch):
    parent = os.getpid()
    walk = udgcut.solvers._walk_part

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return walk(*args)

    g = random_graph(random.Random(83), 16, p=0.5, max_deg=4)
    expected = [_best_key(g, ones, 1) for ones in (None, 8)]
    # the answers lie outside part 0, the parent's own: the key's top two
    # walked bits, below vertex 0's, are not both 0
    assert all(key >> 13 for _, key in expected)
    monkeypatch.setattr(udgcut.solvers, "_walk_part", dying)
    assert [_best_key(g, ones, 4) for ones in (None, 8)] == expected
    _assert_no_worker_left()

    def refused():
        raise OSError("refused")

    for call in ("fork", "pipe"):
        monkeypatch.setattr(os, call, refused)
        assert [_best_key(g, ones, 4) for ones in (None, 8)] == expected
        _assert_no_worker_left()


def test_no_fork_on_small_graphs_or_beside_another_thread(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _part_count(SPLIT_MIN_VERTICES) == 4
    rng = random.Random(77)
    small = random_graph(rng, SPLIT_MIN_VERTICES - 1, p=0.5, max_deg=4)
    large = random_graph(rng, SPLIT_MIN_VERTICES, p=0.5, max_deg=4)
    max_cut_bruteforce(small)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10,))
    other.start()
    try:
        max_cut_bruteforce(large)
        max_bisection_bruteforce(large)
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    assert forks == []
    with pytest.raises(AssertionError, match="forked"):
        max_cut_bruteforce(large)
    monkeypatch.delattr(os, "fork")
    assert _part_count(SPLIT_MIN_VERTICES) == 1


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=150, deadline=None)
@given(_small_graphs())
def test_solvers_agree_with_plain_enumeration(g):
    size, cut = max_cut_bruteforce(g)
    assert size == cut.size == cut_size(g, cut.side) == _naive_optimum(g)[0]
    if g.n % 2 == 0:
        size, cut = max_bisection_bruteforce(g)
        assert cut.is_bisection()
        assert size == cut.size == cut_size(g, cut.side)
        assert size == _naive_optimum(g, balanced=True)[0]


def test_size_limit_error():
    # both raise before enumerating; an odd n would fail bisection's parity check
    with pytest.raises(SizeLimitError):
        max_cut_bruteforce(graph(DEFAULT_BRUTE_LIMIT + 1))
    with pytest.raises(SizeLimitError):
        max_bisection_bruteforce(graph(DEFAULT_BRUTE_LIMIT + 2))


def test_bisection_examples():
    assert max_bisection_bruteforce(cycle_graph(4))[0] == 4
    two_edges = disjoint_union(graph(2, [(0, 1)]), graph(2, [(0, 1)]))
    assert max_bisection_bruteforce(two_edges)[0] == 2
    with pytest.raises(ParityError):
        max_bisection_bruteforce(path_graph(3))


def test_bisection_certificate_balanced():
    rng = random.Random(53)
    for _ in range(25):
        g = random_graph(rng, 2 * rng.randint(1, 5), p=0.5)
        size, cut = max_bisection_bruteforce(g)
        assert cut.is_bisection()
        assert cut_size(g, cut.side) == size


def test_doubling_identities():
    rng = random.Random(59)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6), p=0.6)
        doubled = disjoint_union(g, g)
        mc = max_cut_bruteforce(g)[0]
        assert max_cut_bruteforce(doubled)[0] == 2 * mc
        assert max_bisection_bruteforce(doubled)[0] == 2 * mc


def test_tree_decomposition_widths():
    assert greedy_tree_decomposition(path_graph(6)).width == 1
    assert greedy_tree_decomposition(complete_graph(4)).width == 3


def _decomposition_problems(g, td):
    """The ways td fails to be a tree decomposition of g, found by rescanning
    every bag for each vertex and each edge; [] when it is one.  The tree
    is one when it has one edge fewer than there are bags and reaches every
    bag from bag 0."""
    problems = []
    if len(td.tree) != max(len(td.bags) - 1, 0):
        problems.append(f"{len(td.tree)} tree edges join {len(td.bags)} bags")
    covered = set().union(*td.bags) if td.bags else set()
    if covered != set(range(g.n)):
        problems.append(f"vertices missing from bags: {set(range(g.n)) - covered}")
    for e in g.sorted_edges():
        if not any(e[0] in b and e[1] in b for b in td.bags):
            problems.append(f"edge {e} in no bag")
    nbags = len(td.bags)
    tree_adj = {i: set() for i in range(nbags)}
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


def test_tree_decomposition_validity_random():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.8))
        td = greedy_tree_decomposition(g)
        assert _decomposition_problems(g, td) == []


def _min_fill_by_rekeying_every_neighbour(g):
    """greedy_tree_decomposition as it was before its degree-2 shortcut,
    when every elimination recomputed the keys of all of its neighbours:
    the reference for its bags and tree."""
    n = g.n
    if n == 0:
        return TreeDecomposition([frozenset()], [])
    adj = adjacency(g)

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
    eliminated = [False] * n
    order: list[int] = []
    elim_index: dict[int, int] = {}
    bags: list[frozenset[int]] = []
    bag_neighbors: list[set[int]] = []
    while len(order) < n:
        entry = heapq.heappop(heap)
        v = entry[2]
        if eliminated[v]:
            continue
        current = keys[v]
        if current is None:
            current = keys[v] = key(v)
        if current != entry:
            if current != pushed[v]:
                pushed[v] = current
                heapq.heappush(heap, current)
            continue
        elim_index[v] = len(order)
        order.append(v)
        eliminated[v] = True
        nbrs = adj[v]  # no longer changes: v has left every other set
        bags.append(frozenset({v} | nbrs))
        bag_neighbors.append(nbrs)
        for a in nbrs:
            adj[a].discard(v)
        for a, b in combinations(sorted(nbrs), 2):
            if b not in adj[a]:
                for w in adj[a] & adj[b]:
                    keys[w] = None
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            k = keys[a] = key(a)
            if k != pushed[a]:
                pushed[a] = k
                heapq.heappush(heap, k)

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


@st.composite
def _subdivided_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 10))
    g = random_graph(rng, n, p=draw(st.sampled_from([0.2, 0.4, 0.7, 1.0])),
                     max_deg=draw(st.sampled_from([3, 4, None])))
    return subdivide_randomly(rng, g, max_n=draw(st.integers(n, 40)))


def _subdivided_once(g):
    n, edges = g.n, []
    for i, (u, v) in enumerate(g.sorted_edges()):
        edges += [(u, n + i), (n + i, v)]
    return graph(n + g.m, edges)


def _wheel(spokes):
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return graph(spokes + 1, [(0, i) for i in range(1, spokes + 1)] + rim)


def _assert_min_fill_matches_the_reference(g):
    td, ref = greedy_tree_decomposition(g), _min_fill_by_rekeying_every_neighbour(g)
    assert (td.bags, td.tree) == (ref.bags, ref.tree)


@settings(max_examples=300, deadline=None)
@given(_subdivided_graphs())
def test_min_fill_matches_the_reference_on_subdivided_graphs(g):
    _assert_min_fill_matches_the_reference(g)


def test_min_fill_matches_the_reference_where_a_fill_edge_has_common_neighbours():
    # eliminating a subdivision vertex of K4 or of a wheel joins two ends
    # that already share neighbours, so their fill drops by that many.  In
    # the 4-cycle 0-3-4-2 with vertex 1 joined to 0, 2 and 4, subdivided
    # once, an end whose key such a fill edge cleared is the end of a later
    # degree-2 elimination before it is popped again.
    four_cycle_and_hub = graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])
    for g in (complete_graph(4), _wheel(5), four_cycle_and_hub, _wheel(4),
              petersen_graph(), complete_graph(5), _grid_graph(3, 3)):
        _assert_min_fill_matches_the_reference(_subdivided_once(g))
        _assert_min_fill_matches_the_reference(_subdivided_once(_subdivided_once(g)))
    # an end whose key a fill edge cleared is the end of a later degree-2
    # elimination whose ends share no neighbour: it is recomputed all the same
    _assert_min_fill_matches_the_reference(graph(12, [
        (0, 2), (0, 6), (0, 7), (1, 6), (1, 8), (1, 9), (2, 4), (2, 5), (3, 4),
        (3, 7), (3, 8), (4, 11), (5, 6), (9, 10), (10, 11)]))


def test_dp_examples():
    assert max_cut_treewidth_dp(path_graph(10)) == 9
    from udgcut.gadget import build_H
    assert max_cut_treewidth_dp(build_H()) == 10


def test_dp_matches_brute_force():
    rng = random.Random(67)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.9))
        assert max_cut_treewidth_dp(g) == max_cut_bruteforce(g)[0]


def test_dp_width_ceiling():
    with pytest.raises(WidthLimitError):
        max_cut_treewidth_dp(complete_graph(8), max_width=3)


def _grid_graph(rows, cols):
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return graph(rows * cols, edges)


def test_dp_on_structured_families():
    # bipartite graphs cut every edge
    grid = _grid_graph(3, 4)
    assert max_cut_treewidth_dp(grid) == grid.m == 17
    k33 = graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert max_cut_treewidth_dp(k33) == 9
    # odd cycles miss exactly one edge
    assert max_cut_treewidth_dp(cycle_graph(9)) == 8
    # wheel on an odd rim: rim contributes length-1 less, hub takes half
    hub_edges = [(0, i) for i in range(1, 6)]
    rim_edges = [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    wheel = graph(6, hub_edges + rim_edges)
    assert max_cut_treewidth_dp(wheel) == max_cut_bruteforce(wheel)[0] == 7
    assert max_cut_treewidth_dp(petersen_graph()) == 12


def test_dp_on_empty_and_single_vertex_graphs():
    assert max_cut_treewidth_dp(graph(0)) == 0
    assert max_cut_treewidth_dp(graph(1)) == 0


def test_dp_on_a_hand_built_path_decomposition():
    # sliding windows of 5 consecutive ids hold every edge v-(v+1) and v-(v+4)
    grid = _grid_graph(3, 4)
    windows = [frozenset(range(i, i + 5)) for i in range(8)]
    td = TreeDecomposition(windows, [(i, i + 1) for i in range(7)])
    assert _decomposition_problems(grid, td) == []
    assert td.width == 4 > greedy_tree_decomposition(grid).width
    assert max_cut_treewidth_dp(grid, td) == 17


def _rerooted(td, r):
    """td with bag indices 0 and r swapped, so that bag r becomes the root."""
    swap = {0: r, r: 0}
    bags = list(td.bags)
    bags[0], bags[r] = bags[r], bags[0]
    tree = [(swap.get(i, i), swap.get(j, j)) for i, j in td.tree]
    return TreeDecomposition(bags, tree)


def test_dp_answer_does_not_depend_on_the_root_bag():
    g = petersen_graph()
    td = greedy_tree_decomposition(g)
    degree = [sum(b in e for e in td.tree) for b in range(len(td.bags))]
    assert 1 in degree and max(degree) >= 3
    for r in range(len(td.bags)):
        rerooted = _rerooted(td, r)
        assert _decomposition_problems(g, rerooted) == []
        assert max_cut_treewidth_dp(g, rerooted) == 12


def test_dp_rejects_a_tree_that_misses_a_bag():
    two_edges = graph(4, [(0, 1), (2, 3)])
    td = TreeDecomposition([frozenset({0, 1}), frozenset({2, 3})], [])
    with pytest.raises(InputError, match="every bag"):
        max_cut_treewidth_dp(two_edges, td)


def test_dp_rejects_an_edge_in_no_bag():
    two_edges = graph(4, [(0, 1), (2, 3)])
    td = TreeDecomposition([frozenset({0, 1})], [])
    with pytest.raises(InputError, match=r"edge \(2, 3\)"):
        max_cut_treewidth_dp(two_edges, td)
    # the uncovered edge meets a vertex that some bag does hold
    path = path_graph(3)
    td = TreeDecomposition([frozenset({0, 1}), frozenset({2})], [(0, 1)])
    with pytest.raises(InputError, match=r"edge \(1, 2\)"):
        max_cut_treewidth_dp(path, td)


def test_dp_rejects_disconnected_bags_of_a_vertex():
    # vertex 0 sits in bags 0 and 2 but not in bag 1 between them; counting
    # each of its two bags would credit the one edge twice
    edge = graph(2, [(0, 1)])
    td = TreeDecomposition([frozenset({0, 1}), frozenset({1}), frozenset({0, 1})],
                           [(0, 1), (1, 2)])
    with pytest.raises(InputError, match="vertex 0 are not connected"):
        max_cut_treewidth_dp(edge, td)


def test_dp_rejects_a_tree_edge_to_a_missing_bag():
    edge = graph(2, [(0, 1)])
    td = TreeDecomposition([frozenset({0, 1})], [(0, 5)])
    with pytest.raises(InputError, match=r"tree edge \(0, 5\)"):
        max_cut_treewidth_dp(edge, td)


def test_dp_rejects_a_tree_with_a_cycle():
    triangle = cycle_graph(3)
    cyclic = TreeDecomposition([frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
                               [(0, 1), (1, 2), (2, 0)])
    self_loop = TreeDecomposition([frozenset({0, 1, 2})], [(0, 0)])
    for td in (cyclic, self_loop):
        with pytest.raises(InputError, match="decomposition tree has a cycle"):
            max_cut_treewidth_dp(triangle, td)


def test_dp_rejects_a_bag_vertex_outside_the_graph():
    edge = graph(2, [(0, 1)])
    for stray in (7, -1):
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1, stray})], [(0, 1)])
        with pytest.raises(InputError, match=f"bag 1 holds {stray}, which is not a vertex"):
            max_cut_treewidth_dp(edge, td)


def _assert_dp_is_exact_from_every_root(g, td):
    expected = max_cut_bruteforce(g)[0]
    for r in range(len(td.bags)):
        rerooted = _rerooted(td, r)
        assert _decomposition_problems(g, rerooted) == []
        assert max_cut_treewidth_dp(g, rerooted) == expected


def test_dp_on_subdivided_graphs_from_every_root():
    # most vertices have degree 2 and are forgotten by the chain rule; the
    # pair weights it leaves behind must survive any root
    rng = random.Random(73)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.2, 0.7))
        g = subdivide_randomly(rng, g, max_n=18)
        _assert_dp_is_exact_from_every_root(g, greedy_tree_decomposition(g))


def test_dp_chain_rule_cancels_the_edge_between_the_two_neighbours():
    # forgetting vertex 2 of a triangle adds max(0, 1 + 1) = 2 and weight
    # max(1, 1) - 2 = -1 to the pair (0, 1), whose edge then weighs 0
    triangle = graph(3, [(0, 1), (1, 2), (0, 2)])
    td = TreeDecomposition([frozenset({0, 1}), frozenset({0, 1, 2})], [(0, 1)])
    assert max_cut_treewidth_dp(triangle, td) == 2
    _assert_dp_is_exact_from_every_root(triangle, td)
    # a pendant at 0 keeps a weighted neighbour for the root bag to cut
    paw = graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    td = TreeDecomposition([frozenset({0, 3}), frozenset({0, 1}), frozenset({0, 1, 2})],
                           [(0, 1), (1, 2)])
    assert max_cut_treewidth_dp(paw, td) == 3
    _assert_dp_is_exact_from_every_root(paw, td)


def test_dp_bag_forgets_a_degree_2_vertex_and_receives_a_table():
    # K4 on 0..3 plus vertex 4 joined to 0 and 1: bag 1 forgets vertex 4,
    # which has two weighted neighbours, and receives from bag 2 a table
    # over {0, 1, 2}, so it must take the table route
    g = graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)])
    td = TreeDecomposition([frozenset({0, 1, 2}), frozenset({0, 1, 2, 4}),
                            frozenset({0, 1, 2, 3})], [(0, 1), (1, 2)])
    assert max_cut_treewidth_dp(g, td) == max_cut_bruteforce(g)[0] == 6
    _assert_dp_is_exact_from_every_root(g, td)


def _corrupted_decomposition(integer, choose):
    """A small graph, maybe subdivided, and its min-fill decomposition,
    rerooted, with one vertex dropped from a bag, one tree edge dropped, or
    one vertex added to a bag whose tree neighbours do not hold it.
    integer(lo, hi) and choose(options) make every choice."""
    rng = random.Random(integer(0, 2**32))
    g = random_graph(rng, integer(1, 8), p=choose([0.3, 0.6, 0.9]))
    if choose([False, True]):
        g = subdivide_randomly(rng, g, max_n=14)
    td = greedy_tree_decomposition(g)
    td = _rerooted(td, integer(0, len(td.bags) - 1))
    bags, tree = list(td.bags), list(td.tree)
    kind = choose(["drop vertex", "drop tree edge", "add vertex"])
    if kind == "drop vertex":
        i = integer(0, len(bags) - 1)
        if bags[i]:
            bags[i] = bags[i] - {choose(sorted(bags[i]))}
    elif kind == "drop tree edge" and tree:
        del tree[integer(0, len(tree) - 1)]
    elif kind == "add vertex":
        v = integer(0, g.n - 1)
        near = {j for i, j in tree + [(j, i) for i, j in tree] if v in bags[i]}
        far = [i for i, b in enumerate(bags) if v not in b and i not in near]
        if far:
            i = choose(far)
            bags[i] = bags[i] | {v}
    return g, TreeDecomposition(bags, tree)


@st.composite
def _corrupted_decompositions(draw):
    return _corrupted_decomposition(lambda lo, hi: draw(st.integers(lo, hi)),
                                    lambda options: draw(st.sampled_from(options)))


@settings(max_examples=300, deadline=None)
@given(_corrupted_decompositions())
def test_dp_on_a_corrupted_decomposition_raises_or_is_exact(case):
    g, td = case
    try:
        value = max_cut_treewidth_dp(g, td, max_width=20)
    except InputError as exc:
        # a pair the message calls an edge is one
        for u, v in re.findall(r"edge \((\d+), (\d+)\)", str(exc)):
            assert (int(u), int(v)) in g.edges
    else:
        assert value == max_cut_bruteforce(g)[0]


def test_dp_outcomes_on_corrupted_decompositions_are_identical():
    # the value, or the class and exact message of the error, on each of
    # 200 seeded corruptions
    rng = random.Random(2026)
    running = hashlib.sha256()
    for _ in range(200):
        g, td = _corrupted_decomposition(rng.randint, rng.choice)
        try:
            outcome = str(max_cut_treewidth_dp(g, td, max_width=20))
        except InputError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        running.update(f"{outcome}\n".encode("utf-8"))
    assert running.hexdigest() == (
        "c569bef26bd6e8700c1e8d1f1115f9029e5f53cb36367d8340e83bda2c3a651c")

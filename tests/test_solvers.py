"""Exact solvers: brute force, balanced brute force, and the treewidth DP."""

import random

import pytest

from udgcut.errors import ParityError, SizeLimitError, WidthLimitError
from udgcut.graph_core import (complete_graph, cut_size, cycle_graph,
                               disjoint_union, graph, path_graph, random_graph)
from udgcut.solvers import (greedy_tree_decomposition, max_bisection_bruteforce,
                            max_cut_bruteforce, max_cut_treewidth_dp,
                            validate_tree_decomposition)


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


def test_tie_break_is_lexicographically_smallest():
    rng = random.Random(43)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), p=0.4)
        size, cut = max_cut_bruteforce(g)
        optima = []
        for mask in range(1 << max(g.n - 1, 0)):
            side = [0] + [(mask >> (g.n - 2 - i)) & 1 for i in range(g.n - 1)]
            if cut_size(g, side) == size:
                optima.append(tuple(side))
        assert cut.side == min(optima)


def test_size_limit_error():
    with pytest.raises(SizeLimitError):
        max_cut_bruteforce(graph(10), limit=9)
    with pytest.raises(SizeLimitError):
        max_bisection_bruteforce(graph(10), limit=9)


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


def test_tree_decomposition_validity_random():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.8))
        td = greedy_tree_decomposition(g)
        assert validate_tree_decomposition(g, td) == []


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
    from udgcut.graph_core import petersen_graph
    assert max_cut_treewidth_dp(petersen_graph()) == 12

"""Graphs, cuts, and the two surgeries the cut identities rest on."""

import random

import pytest

from udgcut.errors import InputError
from udgcut.graph_core import (MAX_VERTICES, adjacency, complete_graph, cut_size,
                               cycle_graph, disjoint_union, format_graph_text, graph,
                               max_degree, parse_graph_text, path_graph,
                               petersen_graph, random_graph, subdivide_edge_twice,
                               subdivide_randomly)
from udgcut.solvers import max_bisection_bruteforce, max_cut_bruteforce


def test_cut_size_k4_split():
    g = complete_graph(4)
    assert cut_size(g, {0: 0, 1: 0, 2: 1, 3: 1}) == 4


def test_cut_size_trivial_cases():
    assert cut_size(graph(3), [0, 1, 0]) == 0
    assert cut_size(graph(2, [(0, 1)]), [0, 1]) == 1


def test_cut_size_missing_vertex_is_input_error():
    g = complete_graph(3)
    with pytest.raises(InputError):
        cut_size(g, {0: 0, 1: 1})


def test_cut_size_invariant_under_global_flip():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), p=0.4)
        side = [rng.randint(0, 1) for _ in range(g.n)]
        flipped = [1 - s for s in side]
        assert cut_size(g, side) == cut_size(g, flipped)


def test_graph_constructor_validates():
    with pytest.raises(InputError):
        graph(3, [(0, 0)])
    with pytest.raises(InputError):
        graph(3, [(0, 5)])
    # set semantics: duplicates collapse
    assert graph(3, [(0, 1), (1, 0)]).m == 1


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0.5, 1)], "edge endpoint must be an integer, got 0.5"),
    (3, [(True, 2)], "edge endpoint must be an integer, got True"),
    (3, [(0, 1), (2, 1.0)], "edge endpoint must be an integer, got 1.0"),
    (2.5, [], "vertex count must be an integer, got 2.5"),
])
def test_graph_rejects_non_integers(n, edges, message):
    with pytest.raises(InputError) as info:
        graph(n, edges)
    assert str(info.value) == message


def test_subdivide_single_edge_gives_path():
    g = subdivide_edge_twice(graph(2, [(0, 1)]), (0, 1))
    assert g.n == 4 and g.m == 3
    # the path u-a-b-v on fresh ids a=2, b=3
    assert g.has_edge(0, 2) and g.has_edge(2, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 1)


def test_subdivide_triangle_cut_values():
    # brute-force oracle: mc(C3) = 2, subdivided (= C5) has mc 4
    tri = complete_graph(3)
    assert max_cut_bruteforce(tri)[0] == 2
    sub = subdivide_edge_twice(tri, (0, 1))
    assert (sub.n, sub.m) == (5, 5)
    assert max_cut_bruteforce(sub)[0] == 4


def test_subdivide_k4_cut_values():
    k4 = complete_graph(4)
    assert max_cut_bruteforce(k4)[0] == 4
    assert max_cut_bruteforce(subdivide_edge_twice(k4, (0, 1)))[0] == 6


def test_subdivide_missing_edge_is_error():
    with pytest.raises(InputError):
        subdivide_edge_twice(graph(3, [(0, 1)]), (1, 2))


def test_random_subdivision_replaces_edges_by_paths():
    rng = random.Random(19)
    k5 = complete_graph(5)
    for max_n in (0, 5, 9, 14, 60):
        sub = subdivide_randomly(rng, k5, max_n=max_n)
        assert 5 <= sub.n <= max(5, max_n)
        # each added vertex sits inside one path: one more vertex, one more edge
        assert sub.m == k5.m + sub.n - 5
        assert all(len(nbrs) == 2 for nbrs in adjacency(sub)[5:])
    assert subdivide_randomly(rng, k5, max_n=5) == k5


def test_double_subdivision_adds_exactly_two():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), p=0.5)
        if not g.edges:
            continue
        e = rng.choice(g.sorted_edges())
        assert max_cut_bruteforce(subdivide_edge_twice(g, e))[0] == \
            max_cut_bruteforce(g)[0] + 2


def test_max_cuts_of_subdivided_graph_path_contribution():
    """In every maximum cut, the three path edges u-a-b-v contribute exactly
    2 plus one when u and v disagree; cuts with both end edges bichromatic
    always exist, but a maximum cut may leave one end edge monochromatic
    (already on the subdivided triangle)."""
    rng = random.Random(29)
    cases = [(complete_graph(3), (0, 1))]
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6), p=0.6)
        if g.edges:
            cases.append((g, rng.choice(g.sorted_edges())))
    for g, e in cases:
        u, v = e
        a, b = g.n, g.n + 1
        sub = subdivide_edge_twice(g, e)
        best = max_cut_bruteforce(sub)[0]
        seen_both_ends_cut = False
        for mask in range(1 << (sub.n - 1)):
            side = [0] + [(mask >> i) & 1 for i in range(sub.n - 1)]
            if cut_size(sub, side) != best:
                continue
            path_cut = ((side[u] != side[a]) + (side[a] != side[b])
                        + (side[b] != side[v]))
            assert path_cut == 2 + (side[u] != side[v])
            if side[u] != side[a] and side[b] != side[v]:
                seen_both_ends_cut = True
        assert seen_both_ends_cut


def test_disjoint_union_identity_and_counts():
    g = complete_graph(4)
    assert disjoint_union(g, graph(0)).edges == g.edges
    both = disjoint_union(graph(2, [(0, 1)]), graph(2, [(0, 1)]))
    assert (both.n, both.m) == (4, 2)


def test_disjoint_union_additive_mc_and_bisection():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        h = random_graph(rng, rng.randint(1, 6), p=0.5)
        assert max_cut_bruteforce(disjoint_union(g, h))[0] == \
            max_cut_bruteforce(g)[0] + max_cut_bruteforce(h)[0]
    k4 = complete_graph(4)
    assert max_bisection_bruteforce(disjoint_union(k4, k4))[0] == 8


def test_max_degree():
    assert max_degree(complete_graph(4)) == 3
    assert max_degree(complete_graph(5)) == 4
    assert max_degree(path_graph(3)) == 2
    assert max_degree(graph(4)) == 0


def test_petersen_shape():
    g = petersen_graph()
    assert (g.n, g.m) == (10, 15)
    assert max_degree(g) == 3


def test_text_format_round_trip():
    g = cycle_graph(5)
    assert parse_graph_text(format_graph_text(g)).edges == g.edges
    with pytest.raises(InputError):
        parse_graph_text("2 1\n0 0\n")
    with pytest.raises(InputError):
        parse_graph_text("3 2\n0 1\n1 0\n")
    with pytest.raises(InputError):
        parse_graph_text("3 2\n0 1\n")
    with pytest.raises(InputError):
        parse_graph_text("3 one\n")


def test_text_format_vertex_ceiling():
    assert parse_graph_text(f"{MAX_VERTICES} 0").n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 3_000_000_000):
        with pytest.raises(InputError,
                           match=f"{n} vertices exceed the limit of {MAX_VERTICES}"):
            parse_graph_text(f"{n} 0")

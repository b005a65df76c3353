"""The crossing gadget: graph shape, exact model, and the +8 cut identity."""

import random
from fractions import Fraction

import pytest

from udgcut.errors import PreconditionError
from udgcut.gadget import build_H, construct_H_on, h_model
from udgcut.geometry import Point, dist2
from udgcut.graph_core import (adjacency, canon_edge, complete_graph, cut_size,
                               disjoint_union, graph, random_graph)
from udgcut.solvers import max_cut_bruteforce
from udgcut.udg_model import precision2, validate_model


def test_h_shape():
    h = build_H()
    assert (h.n, h.m) == (8, 14)
    adj = adjacency(h)
    for v in range(4):
        assert len(adj[v]) == 5
    for w in range(4, 8):
        assert len(adj[w]) == 2


def test_mc_h_is_ten():
    assert max_cut_bruteforce(build_H())[0] == 10


def test_h_model_exact_distances():
    m = h_model()
    # v0 at (1/2, 0), w0 at (4/5, 4/5), v2 at (-1/2, 0)
    assert dist2(m.points[0], m.points[4]) == Fraction(73, 100)
    assert dist2(m.points[4], m.points[2]) == Fraction(233, 100)
    assert dist2(m.points[0], m.points[2]) == 1


def test_h_model_adjacency_matches_on_all_28_pairs():
    m = h_model()
    for i in range(8):
        for j in range(i + 1, 8):
            assert (dist2(m.points[i], m.points[j]) <= 1) == m.graph.has_edge(i, j)


def test_h_model_minimum_attained_by_consecutive_cycle_vertices():
    m = h_model()
    assert precision2(m) == Fraction(1, 2)
    attained = {(i, j) for i in range(8) for j in range(i + 1, 8)
                if dist2(m.points[i], m.points[j]) == Fraction(1, 2)}
    assert attained == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_h_model_translates():
    m = h_model(Point.mesh(7, -3))
    assert validate_model(m).ok
    assert precision2(m) == Fraction(1, 2)


def test_construct_on_two_disjoint_edges_gives_h():
    g = disjoint_union(graph(2, [(0, 1)]), graph(2, [(0, 1)]))  # edges (0,1), (2,3)
    assert max_cut_bruteforce(g)[0] == 2
    result = construct_H_on(g, (0, 1), (2, 3))
    assert (result.n, result.m) == (8, 14)
    assert max_cut_bruteforce(result)[0] == 10
    # v0..v3 = 0, 2, 1, 3 and w0..w3 = 4..7 span H's edges
    relabel = (0, 2, 1, 3, 4, 5, 6, 7)
    assert result.edges == {canon_edge(relabel[a], relabel[b]) for a, b in build_H().edges}


def test_precondition_errors():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        construct_H_on(g, (0, 1), (1, 2))  # incident edges
    with pytest.raises(PreconditionError):
        construct_H_on(g, (0, 2), (1, 3))  # edges absent
    square_plus = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    with pytest.raises(PreconditionError):
        construct_H_on(square_plus, (0, 2), (1, 3))  # cycle edges present


def test_plus_eight_on_random_precondition_satisfying_instances():
    rng = random.Random(73)
    done = 0
    while done < 30:
        g = random_graph(rng, rng.randint(4, 8), p=0.5, max_deg=4)
        pairs = [(e1, e2)
                 for i, e1 in enumerate(g.sorted_edges())
                 for e2 in g.sorted_edges()[i + 1:]
                 if not set(e1) & set(e2)
                 and not any(canon_edge(a, b) in g.edges for a in e1 for b in e2)]
        if not pairs:
            continue
        e1, e2 = rng.choice(pairs)
        result = construct_H_on(g, e1, e2)
        assert max_cut_bruteforce(result)[0] == max_cut_bruteforce(g)[0] + 8
        done += 1


def test_k4_negative_control():
    """With the cycle edges already present the identity fails: building the
    would-be graph by hand yields mc 10, not mc(K4) + 8 = 12, and the
    construction rejects the instance."""
    k4 = complete_graph(4)
    with pytest.raises(PreconditionError):
        construct_H_on(k4, (0, 2), (1, 3))
    forced = graph(8, list(k4.edges)
                   + [(4 + i, i) for i in range(4)]
                   + [(4 + i, (i + 1) % 4) for i in range(4)])
    assert max_cut_bruteforce(forced)[0] == 10
    assert max_cut_bruteforce(k4)[0] + 8 == 12


def test_every_max_cut_gives_each_triangle_exactly_two():
    """Each apex triangle {w_i, v_i, v_(i+1)} contributes exactly 2 edges to
    every maximum cut of the planted graph."""
    g = disjoint_union(graph(2, [(0, 1)]), graph(2, [(0, 1)]))
    result = construct_H_on(g, (0, 1), (2, 3))
    best = max_cut_bruteforce(result)[0]
    vs, ws = (0, 2, 1, 3), (4, 5, 6, 7)  # v0..v3 = e1[0], e2[0], e1[1], e2[1]
    for mask in range(1 << (result.n - 1)):
        side = [0] + [(mask >> i) & 1 for i in range(result.n - 1)]
        if cut_size(result, side) != best:
            continue
        for i in range(4):
            w, a, b = ws[i], vs[i], vs[(i + 1) % 4]
            contribution = ((side[w] != side[a]) + (side[w] != side[b])
                            + (side[a] != side[b]))
            assert contribution == 2

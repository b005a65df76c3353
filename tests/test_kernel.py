"""The chain-rule kernel: each rule against an exhaustive weighted cut, the
chain walk of kernelize_graph against the rule loop, and the negative
control of the gadget planted without its precondition."""

import random
from itertools import product

import pytest

from udgcut.gadget import build_H
from udgcut.graph_core import Graph, complete_graph, graph
from udgcut.kernel import kernelize, kernelize_graph


def _weighted_mc(n: int, weights: dict) -> int:
    """The maximum over all 2^n side vectors of the weight of the split pairs."""
    return max(sum(x for (u, v), x in weights.items() if side[u] != side[v])
               for side in product((0, 1), repeat=n))


@pytest.mark.parametrize("n, weights, keep, residual, const", [
    # an isolated vertex adds nothing
    (2, {}, 1, {}, 0),
    # degree 1: max(0, w)
    (2, {(0, 1): 3}, 1, {}, 3),
    (2, {(0, 1): -2}, 1, {}, 0),
    # degree 2 with w1 + w2 > 0: c = w1 + w2 and the pair takes max - c
    (3, {(0, 2): 2, (1, 2): -1}, 2, {(0, 1): 1}, 1),
    # degree 2 with w1 + w2 <= 0: c = 0 and the pair takes max(w1, w2)
    (3, {(0, 2): -3, (1, 2): 1}, 2, {(0, 1): 1}, 0),
    # the merged pair weight cancels an existing edge to 0, which is dropped
    (3, {(0, 1): 1, (0, 2): 1, (1, 2): 1}, 2, {}, 2),
    # a protected vertex stays whatever its degree
    (3, {(0, 1): 1, (1, 2): 1}, 0, {}, 2),
    (3, {(0, 1): 1, (1, 2): 1}, 3, {(0, 1): 1, (1, 2): 1}, 0),
])
def test_each_rule(n, weights, keep, residual, const):
    assert kernelize(n, weights, keep) == (residual, const)
    assert _weighted_mc(n, weights) == const + _weighted_mc(n, residual)


def test_the_kernel_keeps_the_weighted_maximum_cut():
    rng = random.Random(11)
    eliminated = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.uniform(0.1, 0.7)
        weights = {(u, v): rng.choice([-3, -2, -1, 1, 1, 2, 3])
                   for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        keep = rng.randint(0, n)
        residual, const = kernelize(n, weights, keep)
        assert _weighted_mc(n, weights) == const + _weighted_mc(n, residual)
        assert 0 not in residual.values()
        # no unprotected vertex with at most two weighted neighbours is left
        degree = [0] * n
        for u, v in residual:
            degree[u] += 1
            degree[v] += 1
        assert all(degree[v] == 0 or degree[v] > 2 for v in range(keep, n))
        eliminated += sum(degree[v] == 0 for v in range(keep, n))
    assert eliminated > 300


def _chained_graph(rng: random.Random) -> Graph:
    """A few anchor vertices joined by chains of 0-4 degree-2 vertices, some
    pairs by two chains (an edge and a one-vertex chain cancel), plus lone
    cycles, lollipops (a cycle through one vertex) and pendant paths, with
    the ids shuffled so that chains interleave with kept vertices."""
    n = rng.randint(1, 6)
    paths = []

    def fresh(k: int) -> list[int]:
        nonlocal n
        n += k
        return list(range(n - k, n))

    for u in range(n):
        for v in range(u + 1, n):
            lengths = rng.choice([(), (), (0,), (rng.randint(1, 4),), (0, 1),
                                  (rng.randint(1, 4), rng.randint(1, 4))])
            paths += [[u, *fresh(j), v] for j in lengths]
    for _ in range(rng.randint(0, 1)):
        cycle = fresh(rng.randint(3, 6))
        paths.append([*cycle, cycle[0]])
    for _ in range(rng.randint(0, 2)):
        a = rng.randrange(n)
        paths.append([a, *fresh(rng.randint(2, 4)), a])
    for _ in range(rng.randint(0, 2)):
        paths.append([rng.randrange(n), *fresh(rng.randint(1, 3))])
    ids = list(range(n))
    rng.shuffle(ids)
    return graph(n, {(ids[a], ids[b]) for p in paths for a, b in zip(p, p[1:])})


def test_the_chain_walk_equals_the_rule_loop():
    rng = random.Random(28)
    partial = brute = 0
    for _ in range(600):
        g = _chained_graph(rng)
        keep = rng.randint(0, g.n)
        weights = dict.fromkeys(g.edges, 1)
        residual, const = kernelize_graph(g, keep)
        assert (residual, const) == kernelize(g.n, weights, keep)
        partial += any(v >= keep for e in residual for v in e)
        if g.n <= 12:
            assert _weighted_mc(g.n, weights) == const + _weighted_mc(g.n, residual)
            brute += 1
    # the family reaches residuals with unprotected vertices, and brute force
    assert partial > 100 and brute > 100


def test_the_gadget_without_its_precondition_leaves_the_diagonals():
    # H is K4 on 0..3 plus four apexes: each apex cancels a cycle edge, so
    # the kernel leaves the two diagonals and 8, not K4 and 8, and
    # mc(H) = 8 + 2 = 10, not mc(K4) + 8 = 12
    h = build_H()
    for residual, const in (kernelize(h.n, dict.fromkeys(h.edges, 1), keep=4),
                            kernelize_graph(h, keep=4)):
        assert residual == {(0, 2): 1, (1, 3): 1}
        assert residual != dict.fromkeys(complete_graph(4).edges, 1)
        assert const == 8

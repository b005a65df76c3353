"""The chain rules of weighted maximum cut (Ferizovic, Hespe, Lamm, Mnich,
Schulz and Strash, "Engineering Kernelization for Maximum Cut", ALENEX
2020), for integer weights.

The terms of a cut are a constant plus an integer weight on each vertex
pair, counted when the pair is split.  A vertex v with at most two weighted
neighbours is eliminated exactly, whatever the sides of the others:
  - with one neighbour, at weight w1, v adds the constant max(0, w1);
  - with neighbours a and b, at weights w1 and w2, v adds the constant
    c = max(0, w1 + w2) and the weight max(w1, w2) - c to the pair ab,
    which merges with any weight ab already has; a pair whose weight
    reaches 0 is dropped, so no stored weight is 0.

On U(G), the output of the reduction, eliminating every vertex but G's
leaves exactly G with weight 1 on every edge and the constant 8k + t, which
certifies mc(U(G)) = mc(G) + 8k + t with no exponential solve.
"""

from __future__ import annotations

from .graph_core import Edge, Graph, adjacency


def add_weight(w: list[dict[int, int]], a: int, b: int, d: int) -> None:
    """Adds d to the weight of pair ab, dropping a pair whose weight is 0."""
    if d:
        s = w[a].get(b, 0) + d
        if s:
            w[a][b] = w[b][a] = s
        else:
            del w[a][b], w[b][a]


def chain_rule(w: list[dict[int, int]], v: int) -> int:
    """Eliminates v, which has at most two weighted neighbours in w (weights
    by vertex, both directions stored), clearing its own weights; returns the
    constant it adds."""
    wv = w[v]
    if len(wv) == 2:
        (a, w1), (b, w2) = wv.items()
        wv.clear()
        del w[a][v], w[b][v]
        c = w1 + w2 if w1 + w2 > 0 else 0
        add_weight(w, a, b, (w1 if w1 > w2 else w2) - c)
        return c
    if wv:
        (a, w1), = wv.items()
        wv.clear()
        del w[a][v]
        return w1 if w1 > 0 else 0
    return 0


def kernelize(n: int, weights: dict[Edge, int], keep: int
              ) -> tuple[dict[Edge, int], int]:
    """Applies the chain rules on the n-vertex graph with the given pair
    weights, (u, v) with u < v, to every vertex with id >= keep until none
    has at most two weighted neighbours.  Returns the residual pair weights
    and the constant: the maximum cut of the input is the constant plus
    that of the residual."""
    w: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), x in weights.items():
        if x:
            w[u][v] = w[v][u] = x
    const = 0
    # degrees never rise, so one ascending scan meets every vertex, and a
    # scanned vertex is looked at again when a neighbour is eliminated
    for s in range(keep, n):
        if len(w[s]) > 2:
            continue
        stack = [s]
        while stack:
            v = stack.pop()
            if len(w[v]) <= 2:
                stack += [a for a in w[v] if keep <= a < s]
                const += chain_rule(w, v)
    residual = {(u, v): x for u in range(n) for v, x in w[u].items() if u < v}
    return residual, const


def kernelize_graph(g: Graph, keep: int) -> tuple[dict[Edge, int], int]:
    """kernelize(g.n, g's edges at weight 1, keep), walking each maximal chain
    of unprotected degree-2 vertices once: j of them between anchors a and b
    (ids < keep, degrees other than 2) add (-1)^j to the pair ab unless a = b,
    and j + (j mod 2) to the constant.  kernelize then runs on the anchors,
    renumbered in order: the rules leave one result in any order."""
    adj = adjacency(g)
    anchors = [v for v in range(g.n) if v < keep or len(adj[v]) != 2]
    rank = [-1] * g.n  # an anchor's position; -1 an unwalked chain vertex
    for i, v in enumerate(anchors):
        rank[v] = i

    def starts():  # the anchors, then a vertex of each cycle with none
        yield from anchors
        for v in range(keep, g.n):
            if rank[v] == -1:
                rank[v] = -2
                yield v

    weights: dict[Edge, int] = {}
    const = 0
    for a in starts():
        for x in adj[a]:
            prev, j = a, 0
            while rank[x] == -1:  # along the chain, marking it walked (-2)
                rank[x] = -2
                p, q = adj[x]
                prev, x = x, (q if p == prev else p)
                j += 1
            const += j + (j & 1)
            if a != x and (j or a < x and rank[x] >= 0):  # an edge: from a < x
                e = (rank[a], rank[x]) if a < x else (rank[x], rank[a])
                weights[e] = weights.get(e, 0) + (-1) ** j
    residual, c = kernelize(len(anchors), weights, keep)
    return {(anchors[u], anchors[v]): x for (u, v), x in residual.items()}, const + c

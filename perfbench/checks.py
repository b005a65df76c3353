"""Independent answer checks for the benchmark.

Nothing here imports udgcut: the optima come from a vectorised enumeration
of every side vector, and the model checks read only the model JSON text.
Each check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

import json

import numpy as np

UNIT2 = 400        # one mesh unit, squared, in (1/20)^2 units
HALF_UNIT2 = 200   # the precision bound 1/2, in the same units
_CHUNK_BITS = 20


def enumerate_optima(n: int, edges) -> tuple[int, int | None]:
    """(max cut, max bisection or None for odd n) of the graph on 0..n-1.

    Vertex 0 stays on side 0; bit i of a mask is the side of vertex i, so
    the masks are the even numbers below 2^n, taken in chunks.
    """
    if n <= 1:
        return 0, (0 if n == 0 else None)
    best_cut, best_bis = 0, -1
    total = 1 << (n - 1)
    step = 1 << min(n - 1, _CHUNK_BITS)
    for start in range(0, total, step):
        masks = np.arange(start, start + step, dtype=np.uint32) << np.uint32(1)
        values = np.zeros(step, dtype=np.uint8)
        for u, v in edges:
            values += (((masks >> np.uint32(u)) ^ (masks >> np.uint32(v)))
                       & np.uint32(1)).astype(np.uint8)
        best_cut = max(best_cut, int(values.max()))
        if n % 2 == 0:
            balanced = np.bitwise_count(masks) == n // 2
            if balanced.any():
                best_bis = max(best_bis, int(values[balanced].max()))
    return best_cut, (best_bis if n % 2 == 0 else None)


def recount(edges, side) -> int:
    return sum(1 for u, v in edges if side[u] != side[v])


def check_value(label: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{label} is {got}, expected {want}"]


def check_side(n: int, edges, size: int, side, optimum: int,
               bisection: bool = False) -> list[str]:
    """A returned side vector must recount to the reported size, that size
    must be the optimum, and a bisection must be balanced."""
    if len(side) != n or any(s not in (0, 1) for s in side):
        return [f"side vector {side!r} is not a 0/1 vector of length {n}"]
    problems = check_value("recounted side", recount(edges, side), size)
    problems += check_value("reported size", size, optimum)
    if bisection and 2 * sum(side) != n:
        problems.append(f"bisection side has {sum(side)} of {n} vertices on side 1")
    return problems


def check_model_json(text: str, n: int, edges) -> list[str]:
    """The model JSON of a reduction of the graph (n, edges).

    Its edge set must equal the pairs at squared distance <= 400 units, its
    minimum squared distance must be exactly 200 when k >= 1 (and never
    below 200), and its role counts must match k and t.
    """
    payload = json.loads(text)
    verts = payload["vertices"]
    k, t = payload["k"], payload["t"]
    problems = []
    if payload["source"] != {"n": n, "edges": [list(e) for e in sorted(edges)]}:
        problems.append("source graph differs from the input graph")
    if sorted(v["id"] for v in verts) != list(range(len(verts))):
        return problems + ["vertex ids are not 0..N-1"]
    pts = [None] * len(verts)
    for v in verts:
        if type(v["x"]) is not int or type(v["y"]) is not int:
            return problems + [f"vertex {v['id']} has non-integer coordinates"]
        pts[v["id"]] = (v["x"], v["y"])

    close, min_d2 = _close_pairs(pts)
    listed = {(min(u, v), max(u, v)) for u, v in payload["edges"]}
    if listed != close:
        problems.append(f"edge set differs from the unit-distance pairs: "
                        f"{len(listed - close)} listed too far apart, "
                        f"{len(close - listed)} close pairs not listed")
    if min_d2 is not None and min_d2 < HALF_UNIT2:
        problems.append(f"minimum squared distance {min_d2} below {HALF_UNIT2}")
    if k >= 1 and min_d2 != HALF_UNIT2:
        problems.append(f"minimum squared distance {min_d2} is not {HALF_UNIT2} with k={k}")
    roles: dict[str, int] = {}
    for v in verts:
        roles[v["role"]] = roles.get(v["role"], 0) + 1
    problems += check_value("gadget_w count", roles.get("gadget_w", 0), 4 * k)
    problems += check_value("subdivision + detour_apex count",
                            roles.get("subdivision", 0) + roles.get("detour_apex", 0), t)
    problems += check_value("original count", roles.get("original", 0), n)
    return problems


def _close_pairs(pts) -> tuple[set[tuple[int, int]], int | None]:
    """Pairs at squared distance <= UNIT2, and the least squared distance
    among them (None when no pair is that close), by bucketing into cells of
    one mesh unit and scanning each cell's eight neighbours."""
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(pts):
        cells.setdefault((x // 20, y // 20), []).append(i)
    close = set()
    min_d2 = None
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    xj, yj = pts[j]
                    for i in members:
                        if i < j:
                            d2 = (pts[i][0] - xj) ** 2 + (pts[i][1] - yj) ** 2
                            if d2 <= UNIT2:
                                close.add((i, j))
                                if min_d2 is None or d2 < min_d2:
                                    min_d2 = d2
    return close, min_d2

"""Randomized certification suites for the cut-arithmetic identities and the
geometric claims: each suite returns a CheckResult with a serialized
counterexample on failure, so violations are reproducible from the report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, PreconditionError
from .gadget import build_H, construct_H_on, h_model
from .graph_core import (Graph, canon_edge, complete_graph, cycle_graph,
                         format_graph_text, graph, petersen_graph, random_graph)
from .reduction import recover_mc, reduce
from .solvers import (greedy_tree_decomposition, max_cut_bruteforce,
                      max_cut_treewidth_dp)
from .udg_model import precision2, random_precise_model, straight_line_crossings, validate_model


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    counterexample: str | None = None

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _fail(name: str, detail: str, data) -> CheckResult:
    return CheckResult(name, False, detail, json.dumps(data, default=str))


def check_double_subdivision(seed: int, iterations: int = 200) -> CheckResult:
    """Subdividing one edge twice raises the maximum cut by exactly 2."""
    name = "double-subdivision (+2)"
    rng = random.Random(seed)
    from .graph_core import subdivide_edge_twice
    for i in range(iterations):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.9))
        if not g.edges:
            continue
        e = rng.choice(g.sorted_edges())
        before = max_cut_bruteforce(g)[0]
        after = max_cut_bruteforce(subdivide_edge_twice(g, e))[0]
        if after != before + 2:
            return _fail(name, f"iteration {i}: {before} -> {after}",
                         {"graph": format_graph_text(g), "edge": e})
    return CheckResult(name, True, f"{iterations} random instances")


def _random_gadget_instance(rng: random.Random):
    """Random graph with a precondition-satisfying pair of edges."""
    while True:
        n = rng.randint(4, 8)
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.8), max_deg=4)
        pairs = []
        edges = g.sorted_edges()
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                e1, e2 = edges[i], edges[j]
                if set(e1) & set(e2):
                    continue
                cross = [canon_edge(a, b) for a in e1 for b in e2]
                if not any(c in g.edges for c in cross):
                    pairs.append((e1, e2))
        if pairs:
            return g, rng.choice(pairs)


def check_gadget_plus_eight(seed: int, iterations: int = 100) -> CheckResult:
    """Planting the gadget on a valid edge pair raises the cut by exactly 8."""
    name = "gadget construction (+8)"
    rng = random.Random(seed)
    for i in range(iterations):
        g, (e1, e2) = _random_gadget_instance(rng)
        before = max_cut_bruteforce(g)[0]
        after = max_cut_bruteforce(construct_H_on(g, e1, e2)[0])[0]
        if after != before + 8:
            return _fail(name, f"iteration {i}: {before} -> {after}",
                         {"graph": format_graph_text(g), "edges": [e1, e2]})
    return CheckResult(name, True, f"{iterations} random instances")


def check_gadget_negative_control() -> CheckResult:
    """On K4 the cycle edges are present: the +8 identity fails (10 != 12)
    and the construction rejects the instance."""
    name = "gadget negative control (K4)"
    k4 = complete_graph(4)
    try:
        construct_H_on(k4, (0, 2), (1, 3))
        return _fail(name, "precondition violation not rejected", {})
    except PreconditionError:
        pass
    # build the would-be result by hand: K4 plus the four apexes is exactly H
    forced = graph(8, list(k4.edges)
                   + [(4 + i, i) for i in range(4)]
                   + [(4 + i, (i + 1) % 4) for i in range(4)])
    mc_forced = max_cut_bruteforce(forced)[0]
    expected_if_identity_held = max_cut_bruteforce(k4)[0] + 8
    if mc_forced == expected_if_identity_held:
        return _fail(name, "identity unexpectedly held on K4", {})
    return CheckResult(
        name, True,
        f"rejected; forcing it gives mc {mc_forced} != {expected_if_identity_held}")


def named_instances() -> list[tuple[str, Graph]]:
    return [("K4", complete_graph(4)), ("K5", complete_graph(5)),
            ("C5", cycle_graph(5)), ("Petersen", petersen_graph())]


def check_reduction_identity(seed: int, random_count: int = 20,
                             max_width: int = 12) -> CheckResult:
    """End-to-end: reduce (which validates the model and its precision)
    and mc(U) - 8k - t = mc(G)."""
    name = "reduction identity (8k + t)"
    rng = random.Random(seed)
    cases = named_instances()
    for i in range(random_count):
        cases.append((f"random{i}", random_graph(rng, rng.randint(2, 8),
                                                 p=rng.uniform(0.3, 0.8), max_deg=4)))
    for label, g in cases:
        try:
            r = reduce(g)
        except ConstructionError as exc:
            return _fail(name, f"{label}: {exc}", {"graph": format_graph_text(g)})
        td = greedy_tree_decomposition(r.result)
        if td.width > max_width:
            return _fail(name, f"{label}: width {td.width} over {max_width}",
                         {"graph": format_graph_text(g)})
        recovered = recover_mc(max_cut_treewidth_dp(r.result, td), r.k, r.t)
        expected = max_cut_bruteforce(g)[0]
        if recovered != expected:
            return _fail(name, f"{label}: recovered {recovered} != {expected}",
                         {"graph": format_graph_text(g), "k": r.k, "t": r.t})
    return CheckResult(name, True, f"{len(cases)} instances (4 named)")


def check_precise_models_planar(seed: int, iterations: int = 100) -> CheckResult:
    """Models with squared precision above 1/2 draw with straight lines and
    no crossings; the gadget model sits exactly on the boundary and crosses."""
    name = "precision above 1/sqrt(2) is planar"
    rng = random.Random(seed)
    for i in range(iterations):
        m = random_precise_model(rng, rng.randint(2, 12))
        if straight_line_crossings(m):
            return _fail(name, f"iteration {i}: crossing found",
                         {"points": [(p.xu, p.yu) for p in m.points]})
    hm = h_model()
    if precision2(hm) != Fraction(1, 2) or not straight_line_crossings(hm):
        return _fail(name, "boundary witness failed", {})
    return CheckResult(name, True,
                       f"{iterations} random models; boundary witness crossed")


def check_oracle_agreement(seed: int, iterations: int = 200) -> CheckResult:
    """Treewidth DP equals brute force on random graphs."""
    name = "oracle cross-check (dp = brute)"
    rng = random.Random(seed)
    for i in range(iterations):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.9))
        by_dp = max_cut_treewidth_dp(g)
        by_brute = max_cut_bruteforce(g)[0]
        if by_dp != by_brute:
            return _fail(name, f"iteration {i}: dp {by_dp} != brute {by_brute}",
                         {"graph": format_graph_text(g)})
    return CheckResult(name, True, f"{iterations} random graphs")


def check_h_exactness() -> CheckResult:
    """The gadget model realizes exactly the gadget graph, 28 pairs checked."""
    name = "gadget model exactness"
    m = h_model()
    report = validate_model(m)
    if not report.ok:
        return _fail(name, "adjacency mismatch",
                     {"missing": report.missing_edges, "spurious": report.spurious_edges})
    if precision2(m) != Fraction(1, 2):
        return _fail(name, f"precision2 {precision2(m)} != 1/2", {})
    if max_cut_bruteforce(build_H())[0] != 10:
        return _fail(name, "mc(H) != 10", {})
    return CheckResult(name, True, "28 pairs, precision2 = 1/2, mc(H) = 10")


def run_all(seed: int, subdivisions: int = 200, gadgets: int = 100,
            reductions: int = 20, models: int = 100,
            oracle: int = 200) -> list[CheckResult]:
    return [
        check_h_exactness(),
        check_double_subdivision(seed, subdivisions),
        check_gadget_plus_eight(seed + 1, gadgets),
        check_gadget_negative_control(),
        check_reduction_identity(seed + 2, reductions),
        check_precise_models_planar(seed + 3, models),
        check_oracle_agreement(seed + 4, oracle),
    ]

"""Certification suites: exact proofs of the gadget model, the +2 and +8
lemmas, the K4 control, the kernel certificate and planarity, and two
sampled cross-checks, the identity through the DP and dp = brute, which the
seed moves.  A failing suite serializes its counterexample.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (ConstructionError, InconsistencyError, PreconditionError,
                     WidthLimitError)
from .gadget import build_H, construct_H_on, h_model
from .graph_core import (Edge, Graph, complete_graph, cycle_graph, format_graph_text, graph,
                         petersen_graph, random_graph, subdivide_edge_twice,
                         subdivide_randomly)
from .kernel import kernelize_graph
from .reduction import recover_mc, reduce
from .solvers import max_cut_bruteforce, max_cut_treewidth_dp
from .udg_model import precision2, straight_line_crossings, validate_model


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


def _prove_gain(name: str, edges: list[Edge], surgery, gain: int) -> CheckResult:
    """Proves that surgery raises the maximum cut of every host graph with
    these edges by exactly gain.  The chain rules are exact for every side
    of the kept vertices, so the kernel of the surgery on the bare host,
    whose new vertices meet no other, carries over to any host."""
    host = graph(2 * len(edges), edges)
    after = surgery(host)
    residual, const = kernelize_graph(after, host.n)
    if residual != dict.fromkeys(host.edges, 1) or const != gain:
        kept = sorted(residual.items())
        return _fail(name, f"kernel keeps {kept} + {const}, not the host + {gain}",
                     {"graph": format_graph_text(host), "edges": edges,
                      "residual": kept, "constant": const})
    return CheckResult(name, True, f"proved for every host: the kernel is the host + {gain}")


def check_double_subdivision() -> CheckResult:
    """Subdividing uv twice adds 2: the path u-x-y-v is the edge uv plus 2."""
    return _prove_gain("double-subdivision (+2)", [(0, 1)],
                       lambda g: subdivide_edge_twice(g, (0, 1)), 2)


def check_gadget_plus_eight() -> CheckResult:
    """Planting the gadget adds 8: each apex adds 2 and cancels the cycle
    edge it spans, which the precondition keeps out of the host."""
    return _prove_gain("gadget construction (+8)", [(0, 2), (1, 3)],
                       lambda g: construct_H_on(g, (0, 2), (1, 3)), 8)


def check_gadget_negative_control() -> CheckResult:
    """On K4 the cycle edges are present: the +8 identity fails (10 != 12)
    and the construction rejects the instance."""
    name = "gadget negative control (K4)"
    k4 = complete_graph(4)
    data = {"graph": format_graph_text(k4), "edges": [(0, 2), (1, 3)]}
    try:
        construct_H_on(k4, (0, 2), (1, 3))
        return _fail(name, "precondition violation not rejected", data)
    except PreconditionError:
        pass
    forced = build_H()  # the would-be result: K4 plus the four apexes
    mc_forced = max_cut_bruteforce(forced)[0]
    expected_if_identity_held = max_cut_bruteforce(k4)[0] + 8
    if mc_forced == expected_if_identity_held:
        return _fail(name, "identity unexpectedly held on K4", data)
    return CheckResult(
        name, True,
        f"rejected; forcing it gives mc {mc_forced} != {expected_if_identity_held}")


def named_instances() -> list[tuple[str, Graph]]:
    return [("K4", complete_graph(4)), ("K5", complete_graph(5)),
            ("C5", cycle_graph(5)), ("Petersen", petersen_graph())]


def check_reduction_identity(seed: int) -> CheckResult:
    """End-to-end: reduce (which validates the model and its precision)
    and mc(U) - 8k - t = mc(G)."""
    name = "reduction identity (8k + t)"
    rng = random.Random(seed)
    cases = named_instances()
    for i in range(20):
        cases.append((f"random{i}", random_graph(rng, rng.randint(2, 8),
                                                 p=rng.uniform(0.3, 0.8), max_deg=4)))
    for label, g in cases:
        try:
            r = reduce(g)
            recovered = recover_mc(max_cut_treewidth_dp(r.result), r.k, r.t)
        except (ConstructionError, InconsistencyError, WidthLimitError) as exc:
            return _fail(name, f"{label}: {exc}", {"graph": format_graph_text(g)})
        expected = max_cut_bruteforce(g)[0]
        if recovered != expected:
            return _fail(name, f"{label}: recovered {recovered} != {expected}",
                         {"graph": format_graph_text(g), "k": r.k, "t": r.t})
    return CheckResult(name, True, f"{len(cases)} instances (4 named)")


def check_kernel_certificate() -> CheckResult:
    """The kernel certificate of mc(U) = mc(G) + 8k + t, which reduce checks
    on every output (validate_reduction), on random graphs with 40 and 64
    vertices: there U(G) has width 24 and 33, past the DP's ceiling."""
    name = "kernel certificate (8k + t)"
    sizes = []
    for n in (40, 64):
        g = random_graph(random.Random(n), n, 0.5, 4)
        try:
            r = reduce(g)
        except ConstructionError as exc:
            return _fail(name, f"n={n}: {exc}", {"graph": format_graph_text(g)})
        sizes.append(f"n={n} k={r.k} t={r.t} N={r.result.n}")
    return CheckResult(name, True, "; ".join(sizes))


def check_precise_models_planar() -> CheckResult:
    """The identity behind the planarity lemma (see udg_model) for edges ab
    and cd crossing at O, with x1 = |Oa|, x2 = |Ob|, y1 = |Oc|, y2 = |Od| and
    cos = cos(angle aOc).  Both sides have degree at most 2 in each length and
    1 in cos, so equality on the grid {0, 1, 2}^4 x {0, 1} makes them equal
    polynomials.  The gadget model sits on the bound and crosses."""
    name = "precision above 1/sqrt(2) is planar"
    for x1, x2, y1, y2, cos in product(range(3), range(3), range(3), range(3), range(2)):
        weighted = (x2 * y2 * (x1 * x1 + y1 * y1 - 2 * x1 * y1 * cos)  # |ac|^2
                    + x1 * y2 * (x2 * x2 + y1 * y1 + 2 * x2 * y1 * cos)  # |cb|^2
                    + x1 * y1 * (x2 * x2 + y2 * y2 - 2 * x2 * y2 * cos)  # |bd|^2
                    + x2 * y1 * (x1 * x1 + y2 * y2 + 2 * x1 * y2 * cos))  # |da|^2
        if weighted != (x1 + x2) * (y1 + y2) * (x1 * x2 + y1 * y2):
            return _fail(name, "weighted identity fails",
                         {"x1": x1, "x2": x2, "y1": y1, "y2": y2, "cos": cos})
    hm = h_model()
    if precision2(hm) != Fraction(1, 2) or not straight_line_crossings(hm):
        return _fail(name, "boundary witness failed",
                     {"points": [(p.xu, p.yu) for p in hm.points]})
    return CheckResult(name, True, "weighted identity on 162 grid points; boundary witness crossed")


def check_oracle_agreement(seed: int) -> CheckResult:
    """Treewidth DP equals brute force on random graphs; every second one
    has its edges subdivided, so that the DP forgets chains of degree-2
    vertices by the chain rule."""
    name = "oracle cross-check (dp = brute)"
    rng = random.Random(seed)
    for i in range(200):
        if i % 2:
            g = subdivide_randomly(rng, random_graph(rng, rng.randint(2, 8),
                                                     p=rng.uniform(0.2, 0.8)), max_n=14)
        else:
            g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.9))
        by_dp = max_cut_treewidth_dp(g)
        by_brute = max_cut_bruteforce(g)[0]
        if by_dp != by_brute:
            return _fail(name, f"iteration {i}: dp {by_dp} != brute {by_brute}",
                         {"graph": format_graph_text(g)})
    return CheckResult(name, True, "200 random graphs, 100 of them subdivided")


def check_h_exactness() -> CheckResult:
    """The gadget model realizes exactly the gadget graph, 28 pairs checked."""
    name = "gadget model exactness"
    m = h_model()
    data = {"graph": format_graph_text(m.graph), "points": [(p.xu, p.yu) for p in m.points]}
    report = validate_model(m)
    if not report.ok:
        return _fail(name, "adjacency mismatch",
                     {**data, "missing": report.missing_edges, "spurious": report.spurious_edges})
    if precision2(m) != Fraction(1, 2):
        return _fail(name, f"precision2 {precision2(m)} != 1/2", data)
    if max_cut_bruteforce(build_H())[0] != 10:
        return _fail(name, "mc(H) != 10", data)
    return CheckResult(name, True, "28 pairs, precision2 = 1/2, mc(H) = 10")


def run_all(seed: int) -> list[CheckResult]:
    return [
        check_h_exactness(),
        check_double_subdivision(),
        check_gadget_plus_eight(),
        check_gadget_negative_control(),
        check_reduction_identity(seed + 2),
        check_kernel_certificate(),
        check_precise_models_planar(),
        check_oracle_agreement(seed + 4),
    ]

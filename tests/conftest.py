"""Shared fixtures: the end-to-end reduction instance set is expensive, so
it is built once per session and reused by the acceptance criteria.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, so a failure repeats, and its report prints the blob
that reproduces it with @reproduce_failure."""

import random
import time
from dataclasses import dataclass

import pytest
from hypothesis import settings

from udgcut.graph_core import Graph, random_graph
from udgcut.reduction import ReductionOutput, reduce
from udgcut.solvers import TreeDecomposition, greedy_tree_decomposition, max_cut_treewidth_dp
from udgcut.certify import named_instances

settings.register_profile("reproducible", derandomize=True, print_blob=True)
settings.load_profile("reproducible")


@dataclass
class ReducedCase:
    label: str
    source: Graph
    output: ReductionOutput
    td: TreeDecomposition
    mc_u: int
    elapsed: float


@pytest.fixture(scope="session")
def reduced_instances() -> list[ReducedCase]:
    rng = random.Random(2024)
    cases = named_instances()
    for i in range(20):
        cases.append((f"random{i}",
                      random_graph(rng, rng.randint(2, 8),
                                   p=rng.uniform(0.3, 0.8), max_deg=4)))
    out = []
    for label, g in cases:
        start = time.monotonic()
        r = reduce(g)
        td = greedy_tree_decomposition(r.result)
        mc_u = max_cut_treewidth_dp(r.result, td)
        elapsed = time.monotonic() - start
        out.append(ReducedCase(label, g, r, td, mc_u, elapsed))
    return out

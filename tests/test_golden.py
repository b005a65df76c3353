"""Golden hashes: the SHA-256 of the model JSON that `reduce` emits, of its
SVG rendering, of the min-fill tree decomposition of that model, of the model
checks' reports and of the brute-force oracles' answers are pinned, so a
change to how the reduction, the rendering, the decomposition, the model scan
or the enumeration is built cannot change its output by a single byte without
this file changing too."""

import hashlib
import json
import random

import pytest

from udgcut.cli import model_svg
from udgcut.gadget import h_model
from udgcut.graph_core import (Graph, complete_graph, cycle_graph, graph,
                               petersen_graph, random_graph)
from udgcut.reduction import load_output_json, reduce, to_json
from udgcut.solvers import (greedy_tree_decomposition, max_bisection_bruteforce,
                            max_cut_bruteforce)
from udgcut.udg_model import (ProximityModel, precision2, random_precise_model,
                              validate_model)

# label: (graph, SHA-256 of to_json(reduce(g)), SHA-256 of
# greedy_tree_decomposition(reduce(g).result))
GOLDEN = {
    "K4": (lambda: complete_graph(4),
           "dbb09fe08ea088020c95b064f6b15b84029b2024e10e60a5c182dfb6242edfc8",
           "691793c52e8b91422492cf72f77aeb03f2eb3cdaead3c20304eec7ac346d2910"),
    "K5": (lambda: complete_graph(5),
           "0ef3f5bb26ceb2cdf3565d7ad523efdba883dda4cd9990984d2058e8b538ac42",
           "9b78a639b74c9541bcb6626b1f0cb789781e153fd135e9e9a0c1937c689bcb05"),
    "C5": (lambda: cycle_graph(5),
           "820f9d2243eb37b39ed07e8a7310dfbabfa6255c5dc19ea260ceaa005560fb5f",
           "2b117467b2ea5e933d8986f44b1c3a8d63f804d8b538196b91e9197364515d58"),
    "Petersen": (petersen_graph,
                 "3787cc0bc5c98d65a8e99fab29bc6d4a35de09f04d1c0c025028d0b7a6a3292c",
                 "3e3050ac129089524e25af2f8b197f421c149faa78fa76e9dc15f9ce61891194"),
    "random8": (lambda: random_graph(random.Random(8), 8, 0.5, 4),
                "4e8063d5c3357e0d88ac577f994c765269f7c79f982388f070893ed106f935c3",
                "5abc0840b9cb4102828817bba09bb1b4db8d67516ba7f2789f76471715f0d6b4"),
    # k = 93 crossings, N = 7 714 model vertices
    "random16": (lambda: random_graph(random.Random(16), 16, 0.5, 4),
                 "3678a11ae2e7e29350eab44aa9862fbdef04825ffd5bca0d31fce1c39fbed254",
                 "071fe41aaddd8793cf9b9b7f8a623495be43bd2d93cbb95918f9dd38be29fe09"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _td_json(td) -> str:
    return json.dumps({"bags": [sorted(b) for b in td.bags],
                       "tree": [list(e) for e in td.tree]}, separators=(",", ":"))


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_reduce_output_is_byte_identical(label):
    make, digest, td_digest = GOLDEN[label]
    out = reduce(make())
    assert _sha256(to_json(out)) == digest
    assert _sha256(_td_json(greedy_tree_decomposition(out.result))) == td_digest


# label: SHA-256 of the SVG that `render` draws from to_json(reduce(g))
SVG_GOLDEN = {
    "K4": "2e18cdc9cacb92a505a974ee6d1e97d29339a065b1666cd1e7b03c6fd634eee2",
    "K5": "90b072d6b730134ff85ed7b23e9974b7139b92baea66caf4f1b3dd522b33ce5f",
    "C5": "ffb5cd379e1bc342cad4b86f4c41d8110939ebbab6fe280ecfb56c7c0daa6424",
    "Petersen": "e32b6fff3910c4d12ea6b95d1be1a097f0c17ff1b467cc29de2f37cab25199da",
}


@pytest.mark.parametrize("label", sorted(SVG_GOLDEN))
def test_rendered_svg_is_byte_identical(label):
    loaded = load_output_json(to_json(reduce(GOLDEN[label][0]())))
    assert _sha256(model_svg(loaded.model, loaded.roles)) == SVG_GOLDEN[label]


def test_reduce_outputs_on_random_graphs_are_identical():
    # 876 crossings and 266 parity detours in all
    running = hashlib.sha256()
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, p=rng.uniform(0.05, 1.0), max_deg=4)
        running.update(to_json(reduce(g)).encode("utf-8"))
    assert running.hexdigest() == (
        "b9494ee4882d08bb8b2c916f6df24b4d237645ab8e001119336bf6c990af166b")


def test_decompositions_of_random_graphs_are_identical():
    running = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        g = random_graph(rng, n, p=rng.random(), max_deg=rng.choice([2, 3, 4, 8]))
        running.update(_td_json(greedy_tree_decomposition(g)).encode("utf-8"))
    assert running.hexdigest() == (
        "d00efe9217bbe260a0afc202ec1884b04a7e22ff7c6f4d173dc764efd1c797b9")


def test_bare_model_json_is_byte_identical():
    assert _sha256(to_json(h_model())) == (
        "cb0095be606d44049f496c182cd68de77b789749b177fdd44820e6c8de798640")
    assert to_json(ProximityModel(graph(0), ())) == (
        '{"edges":[],"k":0,"per_edge_subdivisions":[],"scale":20,'
        '"source":{"edges":[],"n":0},"t":0,"vertices":[]}\n')


def _model_report_json(m: ProximityModel) -> str:
    report = validate_model(m)
    return json.dumps([report.ok,
                       [[u, v, str(d)] for u, v, d in report.missing_edges],
                       [[u, v, str(d)] for u, v, d in report.spurious_edges],
                       str(precision2(m))], separators=(",", ":"))


def test_model_reports_are_identical():
    # sparse boxes leave no pair within one unit, so precision2 looks farther
    running = hashlib.sha256()
    rng = random.Random(77)
    for _ in range(60):
        m = random_precise_model(rng, rng.randint(2, 16), box=rng.choice([4, 10, 40]))
        running.update(_model_report_json(m).encode("utf-8"))
    # reduction outputs with one edge dropped, then one far pair made an edge
    for _ in range(12):
        n = rng.randint(3, 8)
        model = reduce(random_graph(rng, n, p=rng.uniform(0.3, 1.0), max_deg=4)).model
        edges = model.graph.sorted_edges()
        if not edges:
            continue
        dropped = Graph(model.graph.n, frozenset(edges) - {rng.choice(edges)})
        running.update(_model_report_json(ProximityModel(dropped, model.points)).encode("utf-8"))
        u, v = sorted(rng.sample(range(model.graph.n), 2))
        while (u, v) in model.graph.edges:
            u, v = sorted(rng.sample(range(model.graph.n), 2))
        added = Graph(model.graph.n, model.graph.edges | {(u, v)})
        running.update(_model_report_json(ProximityModel(added, model.points)).encode("utf-8"))
    assert running.hexdigest() == (
        "aa1c2551c42c52b55ba8e122cf6734b58de36adabbe350287fd176b81782d666")


def _answer_json(result) -> str:
    size, cut = result
    return json.dumps([size, list(cut.side)], separators=(",", ":"))


def test_brute_force_answers_on_random_graphs_are_identical():
    # p runs from sparse to complete, so edgeless and complete graphs, with
    # their many tied optima, are among the inputs
    running = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(0, 16)
        g = random_graph(rng, n, p=rng.choice([0.05, 0.2, 0.4, 0.6, 0.8, 1.0]))
        running.update(_answer_json(max_cut_bruteforce(g)).encode("utf-8"))
        if n % 2 == 0:
            running.update(_answer_json(max_bisection_bruteforce(g)).encode("utf-8"))
    assert running.hexdigest() == (
        "c64b2979b28505f5b4519031e9c1412a5102d878746db30dab9e65e859c2bd69")


# the brute-direct benchmark inputs of seeds 0 and 3:
# (solver, seed, n, SHA-256 of the answer)
BRUTE_DIRECT = [
    (max_cut_bruteforce, 0, 20, "9e4168f9b35300c038c15067903d2c1c581f97b0ffe2be18b53b65464a971584"),
    (max_cut_bruteforce, 0, 22, "01f7d3993916dd1f0fd20eb55595e79f329f9516101892839f33f31f2f51f5b6"),
    (max_cut_bruteforce, 0, 24, "95875595203a188f20f6e7b8a85cfc4a1b8c7bc6060ed81dab381c82beb7bfdb"),
    (max_bisection_bruteforce, 0, 18, "fceeeb3afafd7a97cc8c0fb7580cdaec31b5d9fe0f10ce1457b58aa329034692"),
    (max_bisection_bruteforce, 0, 20, "bc61928f40f84b98f3865a98e2fb2658189fdd85c920d99c8ea59f827bf7869b"),
    (max_cut_bruteforce, 3, 20, "bb05fcd5b2f7b876b2aa56467ddde5720f9ba5481c9e33571ad092e2cba8c65f"),
    (max_cut_bruteforce, 3, 22, "f255a1968e8f5857862a200fbc00b91168806ca5fb6355789a34531f50b9c48b"),
    (max_cut_bruteforce, 3, 24, "f98deaf4b9286602ea5e68cb2add0127b77999ef009301f80f414dded99b7a33"),
    (max_bisection_bruteforce, 3, 18, "a59df3f0bba3fced63d2835042934e0b7034c1088e23628d0fdbfad5af078d06"),
    # the seed-3 graph on 20 vertices has a maximum cut that is balanced
    (max_bisection_bruteforce, 3, 20, "bb05fcd5b2f7b876b2aa56467ddde5720f9ba5481c9e33571ad092e2cba8c65f"),
]


def _brute_direct_id(solve, seed, n):
    return f"{solve.__name__}-{n}" if seed == 0 else f"{solve.__name__}-seed{seed}-{n}"


@pytest.mark.parametrize("solve, seed, n, digest", BRUTE_DIRECT,
                         ids=[_brute_direct_id(*case[:3]) for case in BRUTE_DIRECT])
def test_brute_force_answers_on_benchmark_graphs_are_identical(solve, seed, n, digest):
    g = random_graph(random.Random(f"brute-direct:{seed}:{n}"), n, 0.5, 4)
    assert _sha256(_answer_json(solve(g))) == digest

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
           "02826780bd4fff0acf601b8f4d99e59bddb2d245556830a78e38c1a3430147f3",
           "96bd3104c173790e0b1aa1e2ccdff5ae5fb5813e2c10cb015903a30ad8310256"),
    "K5": (lambda: complete_graph(5),
           "127142c0213c6c88a12bf46d3598b75b676e54309df3276390d5962f22919e0f",
           "c5e23decec7beb5fcdae3620d270e5ec74e24b9e5b70bd5433e963d362d4223f"),
    "C5": (lambda: cycle_graph(5),
           "f1c4d19c4ff1e77d08c23c0c9a2eca0c6e25829e05e830b2ac2325e72bf56fa9",
           "33af379d1f72906c1b690b07db63911d7d8fc51d9c679ffaa4c755875aaef98f"),
    "Petersen": (petersen_graph,
                 "94decbb1ab910444fcdac7dc8aa468c7db124a9f3ec82559524d8ddf5d35b8ff",
                 "b644f6a9af6a2cf65fffd00275a6096c835033e74866a33e711e2283ca2e64dc"),
    "random8": (lambda: random_graph(random.Random(8), 8, 0.5, 4),
                "f0f55f63bda2625ea86bc1f852ec2842345ca30baf57860598123e0cc33812a0",
                "7863f80e3e3769582201fc1cafb1ae3da41a44a4fe6be796f56823186e73c938"),
    # k = 31 crossings, N = 2 452 model vertices
    "random16": (lambda: random_graph(random.Random(16), 16, 0.5, 4),
                 "dc12395751d878e254d296cb3338bda44beeb020c084bcdfb757c3a21da63293",
                 "76c547ba73c7a83ba1ab3234a4046c1948d83342e54f9233c9e83b0ea5de4549"),
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
    "K4": "1d04f50a99b834be2f94eca2d5281ad3880eb6e2ba63c52db6ff20aece8c4adb",
    "K5": "d9933eb9bfc4f32662a3a091bb718a7819cf58b1ea49d2d160915e3a85779fda",
    "C5": "7d166f761dad80de04e978f1fca94ae4a038663530d262a6ab6dd4a66de783c4",
    "Petersen": "65d58dc0017cc808e80ba6f4a27ec9489d6bc784ad08b674258fd405b1556d4f",
}


@pytest.mark.parametrize("label", sorted(SVG_GOLDEN))
def test_rendered_svg_is_byte_identical(label):
    loaded = load_output_json(to_json(reduce(GOLDEN[label][0]())))
    assert _sha256(model_svg(loaded.model, loaded.roles)) == SVG_GOLDEN[label]


def test_reduce_outputs_on_random_graphs_are_identical():
    # 249 crossings and 343 parity detours in all
    running = hashlib.sha256()
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, p=rng.uniform(0.05, 1.0), max_deg=4)
        running.update(to_json(reduce(g)).encode("utf-8"))
    assert running.hexdigest() == (
        "9092f07aa0d573753d8aee75ef9b4fcb3d1cace679385e0c1bc0c5a6e4839312")


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
        "fcd375f453f53c1526107674316ef9c119499761d2b24c08ba7f6c8476cc642b")


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

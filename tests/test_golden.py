"""Golden hashes: the SHA-256 of the model JSON that `reduce` emits is
pinned, so a change to how the reduction is built cannot change its output
by a single byte without this file changing too."""

import hashlib
import random

import pytest

from udgcut.gadget import h_model
from udgcut.graph_core import (complete_graph, cycle_graph, graph, petersen_graph,
                               random_graph)
from udgcut.reduction import reduce, to_json
from udgcut.udg_model import ProximityModel

GOLDEN = {
    "K4": (lambda: complete_graph(4),
           "6d0792d2a895d6769cb87df8cd0743fe4821a17f0cdb359bf615e0d274210a69"),
    "K5": (lambda: complete_graph(5),
           "888ddbb1c0fbe20909a07a3140be598443db8238707bc2d2c73ae0b43a88d6a3"),
    "C5": (lambda: cycle_graph(5),
           "e543c53ba15d2f45af3dabd1d6166a4a130698c81d7c256c0963bac13592d828"),
    "Petersen": (petersen_graph,
                 "0422e2bab32e963dc9b71d780a3762caa9884be3b87526c25a991a11e8a83dd0"),
    "random8": (lambda: random_graph(random.Random(8), 8, 0.5, 4),
                "40e536f39f8a778cbbda359994413444c5eb36294987e4b6ce858ce513a6ae81"),
    # k = 93 crossings, N = 11 606 model vertices
    "random16": (lambda: random_graph(random.Random(16), 16, 0.5, 4),
                 "2cded4e3a888302e70092f9a52aca45ca1d4e7e8a9bd9110d3145d95efe9f29b"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_reduce_output_is_byte_identical(label):
    make, digest = GOLDEN[label]
    assert _sha256(to_json(reduce(make()))) == digest


def test_bare_model_json_is_byte_identical():
    assert _sha256(to_json(h_model())) == (
        "cb0095be606d44049f496c182cd68de77b789749b177fdd44820e6c8de798640")
    assert to_json(ProximityModel(graph(0), ())) == (
        '{"edges":[],"k":0,"per_edge_subdivisions":[],"scale":20,'
        '"source":{"edges":[],"n":0},"t":0,"vertices":[]}\n')

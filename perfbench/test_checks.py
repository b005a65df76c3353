"""Each independent check must pass a right answer and fail a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import udgcut  # noqa: E402

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
PETERSEN = sorted(udgcut.petersen_graph().edges)


@pytest.mark.parametrize("n, edges, cut, bisection", [
    (4, K4, 4, 4), (5, C5, 4, None), (10, PETERSEN, 12, 11), (2, [], 0, 0),
    (3, [(0, 1), (1, 2)], 2, None)])
def test_enumerate_optima(n, edges, cut, bisection):
    assert checks.enumerate_optima(n, edges) == (cut, bisection)


def test_enumeration_spans_several_chunks(monkeypatch):
    monkeypatch.setattr(checks, "_CHUNK_BITS", 2)
    assert checks.enumerate_optima(10, PETERSEN) == (12, 11)


def test_side_check():
    side = [0, 1, 0, 1]
    assert checks.check_side(4, K4, 4, side, 4) == []
    assert checks.check_side(4, K4, 4, side, 4, bisection=True) == []
    assert checks.check_side(4, K4, 5, side, 5)            # recount differs
    assert checks.check_side(4, K4, 3, [0, 1, 1, 1], 4)    # not the optimum
    assert checks.check_side(4, K4, 3, [0, 1, 1, 1], 3, bisection=True)  # unbalanced
    assert checks.check_side(4, K4, 4, [0, 1, 0], 4)       # too short
    assert checks.check_side(4, K4, 4, [0, 2, 0, 2], 4)    # not 0/1


def test_value_check():
    assert checks.check_value("mc", 12, 12) == []
    assert checks.check_value("mc", 13, 12)


@pytest.fixture(scope="module")
def k5_json():
    g = udgcut.complete_graph(5)
    return udgcut.to_json(udgcut.reduce(g)), 5, sorted(g.edges)


def _mutated(text, change):
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload)


def test_model_json_accepts_the_reduction(k5_json):
    text, n, edges = k5_json
    assert json.loads(text)["k"] >= 1
    assert checks.check_model_json(text, n, edges) == []


def _drop_edge(p):
    p["edges"].pop(0)


def _far_edge(p):
    far = max(p["vertices"], key=lambda v: (v["x"], v["y"]))["id"]
    p["edges"].append([0, far])


def _role(p):
    next(v for v in p["vertices"] if v["role"] == "gadget_w")["role"] = "subdivision"


def _float_coordinate(p):
    p["vertices"][0]["x"] += 0.0


def _other_source(p):
    p["source"]["edges"].pop()


@pytest.mark.parametrize("change, problem", [
    (_drop_edge, "edge set differs"), (_far_edge, "edge set differs"),
    (_role, "gadget_w count"), (_float_coordinate, "non-integer"),
    (_other_source, "source graph"),
    (lambda p: p.update(k=p["k"] + 1), "gadget_w count"),
    (lambda p: p.update(t=p["t"] + 2), "subdivision + detour_apex")])
def test_model_json_rejects_a_wrong_model(k5_json, change, problem):
    text, n, edges = k5_json
    found = checks.check_model_json(_mutated(text, change), n, edges)
    assert any(problem in f for f in found), found


def _two_vertex_model(d2_x, k):
    """Vertices 0 and 1 at (0, 0) and (d2_x, 0) joined by an edge, plus 4k
    isolated gadget apexes far from everything."""
    verts = [{"id": 0, "x": 0, "y": 0, "role": "original", "origin": None},
             {"id": 1, "x": d2_x, "y": 0, "role": "original", "origin": None}]
    verts += [{"id": 2 + i, "x": 100 * (i + 1), "y": 100, "role": "gadget_w",
               "origin": None} for i in range(4 * k)]
    return json.dumps({"scale": 20, "vertices": verts, "edges": [[0, 1]], "k": k,
                       "t": 0, "per_edge_subdivisions": [[[0, 1], 0]],
                       "source": {"n": 2, "edges": [[0, 1]]}})


def test_model_json_minimum_distance():
    assert checks.check_model_json(_two_vertex_model(20, 0), 2, [(0, 1)]) == []
    found = checks.check_model_json(_two_vertex_model(20, 1), 2, [(0, 1)])
    assert found and all("is not 200" in f for f in found), found
    found = checks.check_model_json(_two_vertex_model(10, 0), 2, [(0, 1)])
    assert found and all("below 200" in f for f in found), found


def test_close_pairs_min_distance():
    close, min_d2 = checks._close_pairs([(0, 0), (10, 10), (40, 0)])
    assert close == {(0, 1)} and min_d2 == 200
    assert checks._close_pairs([(0, 0), (21, 0)]) == (set(), None)


def _pipeline_instance(k5_json, **changes):
    text, _, _ = k5_json
    payload = json.loads(text)
    mc = 6
    out = {"mc": mc, "mc_u": mc + 8 * payload["k"] + payload["t"],
           "k": payload["k"], "t": payload["t"]}
    out.update(changes)
    return {"name": "K5", "op": "pipeline", "ok": 1, "output": out, "json": text,
            "text": udgcut.format_graph_text(udgcut.complete_graph(5))}


def test_instance_check_on_the_pipeline(k5_json):
    assert run.check_instance(_pipeline_instance(k5_json)) == []
    assert run.check_instance(_pipeline_instance(k5_json, mc=7))
    assert run.check_instance(_pipeline_instance(k5_json, mc_u=0))


def test_instance_check_on_brute_force():
    text = udgcut.format_graph_text(udgcut.complete_graph(4))
    good = {"name": "K4", "op": "cut", "ok": 1, "text": text,
            "output": {"cut": [4, [0, 0, 1, 1], 4]}}
    assert run.check_instance(good) == []
    wrong = dict(good, output={"cut": [5, [0, 0, 1, 1], 5]})
    assert run.check_instance(wrong)
    unbalanced = dict(good, output={"bisection": [3, [0, 1, 1, 1], 3]})
    assert run.check_instance(unbalanced)

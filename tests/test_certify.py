"""The certify suites' failure paths: each suite reports a broken oracle as a
FAIL line whose counterexample names the input the suite checked."""

import json
from fractions import Fraction

import pytest

import udgcut.certify as certify
from udgcut.errors import ConstructionError
from udgcut.graph_core import parse_graph_text
from udgcut.udg_model import ModelReport, ProximityModel

_real_construct_H_on = certify.construct_H_on


def _checked_but_unplanted(g, e1, e2):
    _real_construct_H_on(g, e1, e2)  # keeps the precondition
    return g


def _kernel_rejects(g):
    raise ConstructionError("kernel constant 0, not 8k + t = 1")


# (suite, its name, the oracle it calls through udgcut.certify, a broken
# stand-in, the counterexample key of the oracle's further arguments)
FAULTS = {
    "no +2": (certify.check_double_subdivision, "double-subdivision (+2)",
              "subdivide_edge_twice", lambda g, e: g, "edges"),
    "no +8": (certify.check_gadget_plus_eight, "gadget construction (+8)",
              "construct_H_on", _checked_but_unplanted, "edges"),
    "K4 accepted": (certify.check_gadget_negative_control, "gadget negative control (K4)",
                    "construct_H_on", lambda g, e1, e2: g, "edges"),
    "identity on K4": (certify.check_gadget_negative_control, "gadget negative control (K4)",
                       "max_cut_bruteforce", lambda g: (12 if g.n == 8 else 4, None), None),
    "wrong mc(G)": (lambda: certify.check_reduction_identity(2), "reduction identity (8k + t)",
                    "max_cut_bruteforce", lambda g: (-1, None), None),
    "kernel rejects": (certify.check_kernel_certificate, "kernel certificate (8k + t)",
                       "reduce", _kernel_rejects, None),
    "boundary without crossing": (certify.check_precise_models_planar,
                                  "precision above 1/sqrt(2) is planar",
                                  "straight_line_crossings", lambda m: [], None),
    "H model mismatch": (certify.check_h_exactness, "gadget model exactness", "validate_model",
                         lambda m: ModelReport(False, [(0, 1, Fraction(1))]), None),
    "H model imprecise": (certify.check_h_exactness, "gadget model exactness", "precision2",
                          lambda m: Fraction(1), None),
    "mc(H) wrong": (certify.check_h_exactness, "gadget model exactness", "max_cut_bruteforce",
                    lambda g: (9, None), None),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_broken_oracle_fails_its_suite_with_the_input_named(monkeypatch, fault):
    suite, name, oracle, broken, more = FAULTS[fault]
    calls = []

    def spy(*args):
        calls.append(args)
        return broken(*args)

    monkeypatch.setattr(certify, oracle, spy)
    res = suite()
    assert not res.ok
    assert res.line().startswith(f"FAIL {name}: ")
    # the failing call is the oracle's last; its first argument is the input
    cex = json.loads(res.counterexample)
    checked, *rest = calls[-1]
    if isinstance(checked, ProximityModel):
        assert [tuple(p) for p in cex["points"]] == [(p.xu, p.yu) for p in checked.points]
    else:
        assert parse_graph_text(cex["graph"]) == checked
    if more == "edges":
        assert [tuple(e) for e in cex["edges"]] == rest


def test_a_broken_surgery_fails_its_proof_with_the_kernel_it_left(monkeypatch):
    # the edge uv kept, but nothing added: the kernel is the bare host + 0
    monkeypatch.setattr(certify, "subdivide_edge_twice", lambda g, e: g)
    res = certify.check_double_subdivision()
    assert res.line() == ("FAIL double-subdivision (+2): "
                          "kernel keeps [((0, 1), 1)] + 0, not the host + 2")
    assert json.loads(res.counterexample) == {
        "graph": "2 1\n0 1\n", "edges": [[0, 1]], "residual": [[[0, 1], 1]], "constant": 0}

"""Acceptance suite: every constructive claim of the artifact, certified at
desk scale with exact arithmetic.  One printed pass line per criterion."""

import random
from fractions import Fraction

import pytest

from udgcut.certify import check_precise_models_planar
from udgcut.cli import main
from udgcut.errors import PreconditionError
from udgcut.gadget import build_H, construct_H_on, h_model
from udgcut.geometry import dist2
from udgcut.graph_core import (canon_edge, complete_graph, format_graph_text,
                               graph, random_graph, subdivide_edge_twice)
from udgcut.reduction import bisection_double, recover_mc
from udgcut.solvers import (max_bisection_bruteforce, max_cut_bruteforce,
                            max_cut_treewidth_dp)
from udgcut.udg_model import (precision2, random_precise_model, straight_line_crossings,
                              validate_model)
from udgcut.drawing import crossings, mesh_draw, standardize, validate_drawing, validate_standard


def _report(number: int, text: str):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_gadget_exactness():
    m = h_model()
    for i in range(8):
        for j in range(i + 1, 8):
            assert (dist2(m.points[i], m.points[j]) <= 1) == m.graph.has_edge(i, j)
    assert precision2(m) == Fraction(1, 2)
    assert dist2(m.points[0], m.points[4]) == Fraction(73, 100)
    assert dist2(m.points[4], m.points[2]) == Fraction(233, 100)
    _report(1, "gadget model exact on all 28 pairs, precision2 = 1/2")


def test_criterion_02_double_subdivision_plus_two():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        g = random_graph(rng, rng.randint(2, 9), p=rng.uniform(0.2, 0.9))
        if not g.edges:
            continue
        e = rng.choice(g.sorted_edges())
        before = max_cut_bruteforce(g)[0]
        after = max_cut_bruteforce(subdivide_edge_twice(g, e))[0]
        assert after == before + 2, f"{format_graph_text(g)} edge {e}"
        checked += 1
    _report(2, "200 random double subdivisions raise mc by exactly 2")


def test_criterion_03_gadget_plus_eight_with_negative_control():
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        g = random_graph(rng, rng.randint(4, 8), p=rng.uniform(0.2, 0.8), max_deg=4)
        pairs = [(e1, e2)
                 for i, e1 in enumerate(g.sorted_edges())
                 for e2 in g.sorted_edges()[i + 1:]
                 if not set(e1) & set(e2)
                 and not any(canon_edge(a, b) in g.edges for a in e1 for b in e2)]
        if not pairs:
            continue
        e1, e2 = rng.choice(pairs)
        result = construct_H_on(g, e1, e2)
        assert max_cut_bruteforce(result)[0] == max_cut_bruteforce(g)[0] + 8
        checked += 1
    # negative control: K4 has the cycle edges, identity fails and is rejected
    k4 = complete_graph(4)
    with pytest.raises(PreconditionError):
        construct_H_on(k4, (0, 2), (1, 3))
    forced = graph(8, list(k4.edges)
                   + [(4 + i, i) for i in range(4)]
                   + [(4 + i, (i + 1) % 4) for i in range(4)])
    assert max_cut_bruteforce(forced)[0] == 10 != max_cut_bruteforce(k4)[0] + 8
    _report(3, "100 gadget plantings raise mc by exactly 8; K4 control rejected")


def test_criterion_04_reference_cut_values():
    assert max_cut_bruteforce(build_H())[0] == 10
    assert max_cut_bruteforce(complete_graph(4))[0] == 4
    assert max_cut_bruteforce(complete_graph(5))[0] == 6
    for n in range(1, 9):
        assert max_cut_bruteforce(complete_graph(n))[0] == n * n // 4
    _report(4, "mc(H) = 10, mc(K4) = 4, mc(K5) = 6, mc(Kn) = floor(n^2/4)")


def test_criterion_05_model_validity_and_precision(reduced_instances):
    for case in reduced_instances:
        assert validate_model(case.output.model).ok, case.label
        if case.output.result.n >= 2:
            p2 = precision2(case.output.model)
            assert p2 >= Fraction(1, 2), case.label
            if case.output.k >= 1:
                assert p2 == Fraction(1, 2), case.label
    _report(5, f"{len(reduced_instances)} reductions validate with precision2 >= 1/2"
               " (tight whenever a gadget is present)")


def test_criterion_06_cut_identity_end_to_end(reduced_instances):
    for case in reduced_instances:
        assert case.td.width <= 12, f"{case.label}: width {case.td.width}"
        recovered = recover_mc(case.mc_u, case.output.k, case.output.t)
        expected = max_cut_bruteforce(case.source)[0]
        assert recovered == expected, case.label
        assert case.elapsed < 60, f"{case.label}: {case.elapsed:.1f}s"
    _report(6, f"mc(U) - 8k - t = mc(G) on {len(reduced_instances)} instances, "
               "dp width <= 12, each under 60 s")


def test_criterion_07_bisection_doubling(reduced_instances):
    from udgcut.geometry import Point
    from udgcut.udg_model import ProximityModel
    small_models = [
        ProximityModel(graph(1), (Point.mesh(0, 0),)),
        ProximityModel(graph(2, [(0, 1)]), (Point.mesh(0, 0), Point.mesh(1, 0))),
        h_model(),
    ]
    for m in small_models:
        doubled = bisection_double(m)
        assert validate_model(doubled).ok
        mc = max_cut_bruteforce(m.graph)[0]
        assert max_bisection_bruteforce(doubled.graph)[0] == 2 * mc
    assert max_bisection_bruteforce(bisection_double(h_model()).graph)[0] == 20
    _report(7, "doubled models have maximum bisection exactly 2 mc, up to H (20)")


def test_criterion_08_precision_above_bound_is_planar():
    rng = random.Random(17)
    for _ in range(100):
        m = random_precise_model(rng, rng.randint(2, 12))
        assert precision2(m) > Fraction(1, 2)
        assert straight_line_crossings(m) == []
    boundary = h_model()
    assert precision2(boundary) == Fraction(1, 2)
    assert straight_line_crossings(boundary) != []
    _report(8, "100 models above the bound have no crossings; the boundary "
               "model crosses, so strictness is necessary")


def test_criterion_09_the_planarity_lemma_holds_for_all_real_points():
    """The weighted law-of-cosines identity behind the planarity lemma holds
    as a polynomial identity, so precision above 1/sqrt(2) rules out every
    straight-line crossing; the gadget model is the boundary witness."""
    res = check_precise_models_planar()
    assert res.ok, res.counterexample
    _report(9, "|ac|^2 x2y2 + |cb|^2 x1y2 + |bd|^2 x1y1 + |da|^2 x2y1 = "
               "(x1+x2)(y1+y2)(x1x2 + y1y2) on all 162 points of "
               "{0,1,2}^4 x {0,1}, so it holds for all real points")


def test_criterion_10_drawing_validity_and_idempotence():
    rng = random.Random(19)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.2, 0.7), max_deg=4)
        d = mesh_draw(g)
        assert validate_drawing(d) == []
        sd = standardize(d)
        assert validate_drawing(sd) == []
        assert validate_standard(sd, crossings(sd)) == {}
        again = standardize(sd)
        assert again.placement == sd.placement and again.routes == sd.routes
    _report(10, "50 random drawings standardize validly; standardize is idempotent")


def test_criterion_11_oracle_cross_check():
    rng = random.Random(23)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12), p=rng.uniform(0.1, 0.9))
        assert max_cut_treewidth_dp(g) == max_cut_bruteforce(g)[0]
    _report(11, "dp equals brute force on 200 random graphs up to n = 12")


def test_criterion_12_reduce_determinism(tmp_path):
    src = tmp_path / "k5.txt"
    src.write_text(format_graph_text(complete_graph(5)))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reduce", "--in", str(src), "--out", str(out1)]) == 0
    assert main(["reduce", "--in", str(src), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _report(12, "two reduce runs on K5 produce byte-identical JSON")

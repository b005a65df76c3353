"""The cyclic garbage collector is paused inside the pipeline's entry points
(pause_gc), which is safe because the pipeline makes no cyclic garbage, and
the collector's state is the same after each call as before it."""

import gc
import random

import pytest

from udgcut.cli import main
from udgcut.errors import InputError
from udgcut.graph_core import (complete_graph, cycle_graph, pause_gc, petersen_graph,
                               random_graph)
from udgcut.reduction import load_output_json, reduce, to_json
from udgcut.solvers import greedy_tree_decomposition, max_cut_treewidth_dp

PAUSED = [reduce, load_output_json, greedy_tree_decomposition, max_cut_treewidth_dp]


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def _seen_inside(fn):
    """fn paused, and a list that records gc.isenabled() at each call."""
    seen = []

    def probe(*args):
        seen.append(gc.isenabled())
        return fn(*args)
    return pause_gc(probe), seen


@pytest.mark.parametrize("fn", PAUSED, ids=lambda fn: fn.__name__)
def test_entry_points_keep_their_names(fn):
    assert fn.__wrapped__.__name__ == fn.__name__
    assert fn.__doc__ == fn.__wrapped__.__doc__


def test_on_stays_on_after_a_return(collector_on):
    paused, seen = _seen_inside(len)
    assert paused("abc") == 3
    assert seen == [False]
    assert gc.isenabled()
    td = greedy_tree_decomposition(complete_graph(4))
    assert td.width == 3
    assert gc.isenabled()


def test_on_stays_on_after_a_raise(collector_on):
    with pytest.raises(InputError, match="must be an object"):
        load_output_json("[1]")
    assert gc.isenabled()
    paused, seen = _seen_inside(int)
    with pytest.raises(ValueError):
        paused("x")
    assert seen == [False]
    assert gc.isenabled()


def test_off_stays_off_after_a_return(collector_off):
    paused, seen = _seen_inside(len)
    assert paused("ab") == 2
    assert seen == [False]
    assert not gc.isenabled()
    assert max_cut_treewidth_dp(cycle_graph(5)) == 4
    assert not gc.isenabled()


def test_a_nested_call_leaves_the_collector_off_until_the_outer_one_ends(
        collector_on, monkeypatch):
    import udgcut.solvers as solvers
    seen = []

    def decompose(g):
        seen.append(gc.isenabled())
        td = greedy_tree_decomposition(g)
        seen.append(gc.isenabled())
        return td
    monkeypatch.setattr(solvers, "greedy_tree_decomposition", decompose)
    assert max_cut_treewidth_dp(complete_graph(4)) == 4  # td=None: the DP decomposes
    assert seen == [False, False]
    assert gc.isenabled()


def test_solve_on_a_bad_model_json_exits_2_with_the_collector_on(collector_on, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"edges":[],"scale":20,"vertices":[{"id":0,"x":1.5,"y":0}]}')
    assert main(["solve", "--in", str(bad)]) == 2
    assert gc.isenabled()


def _pipeline(g):
    """reduce -> to_json -> load -> decomposition -> DP, keeping nothing."""
    loaded = load_output_json(to_json(reduce(g)))
    td = greedy_tree_decomposition(loaded.model.graph)
    return max_cut_treewidth_dp(loaded.model.graph, td)


@pytest.mark.parametrize("make", [
    lambda: complete_graph(4), lambda: complete_graph(5), lambda: cycle_graph(5),
    petersen_graph, lambda: random_graph(random.Random(8), 8, 0.5, 4),
    lambda: random_graph(random.Random(16), 16, 0.5, 4),
], ids=["K4", "K5", "C5", "Petersen", "random8", "random16"])
def test_the_pipeline_makes_no_cyclic_garbage(make, collector_off):
    g = make()
    gc.collect()
    assert _pipeline(g) > 0
    assert gc.collect() == 0

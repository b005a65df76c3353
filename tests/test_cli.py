"""The command-line surface: exit codes, formats, determinism."""

import argparse
import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import udgcut
from udgcut import errors
from udgcut.cli import build_parser, main, model_svg
from udgcut.gadget import h_model
from udgcut.geometry import pairs_within
from udgcut.graph_core import (complete_graph, cycle_graph, format_graph_text, graph,
                               path_graph, random_graph)
from udgcut.reduction import ROLE_ORIGINAL, load_output_json, reduce, to_json
from udgcut.solvers import greedy_tree_decomposition, max_cut_bruteforce


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(format_graph_text(complete_graph(5)))
    return str(path)


def test_reduce_k2(tmp_path, capsys):
    src = tmp_path / "k2.txt"
    src.write_text("2 1\n0 1\n")
    out = tmp_path / "k2.json"
    assert main(["reduce", "--in", str(src), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "k=0" in captured.out
    payload = json.loads(out.read_text())
    assert payload["k"] == 0
    assert payload["t"] % 2 == 0


def test_reduce_k5_has_crossings(tmp_path, k5_file, capsys):
    out = tmp_path / "k5.json"
    assert main(["reduce", "--in", k5_file, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k"] >= 1


def test_reduce_degree5_star_exits_2(tmp_path):
    src = tmp_path / "star.txt"
    src.write_text(format_graph_text(graph(6, [(0, i) for i in range(1, 6)])))
    assert main(["reduce", "--in", str(src)]) == 2


def test_reduce_malformed_input_exits_2(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("2 1\n0 0\n")
    assert main(["reduce", "--in", str(src)]) == 2


@pytest.mark.parametrize("out", [[], ["--out", "-"]])
def test_reduce_to_stdout_pipes_into_solve(tmp_path, capsys, monkeypatch, out):
    src = tmp_path / "k3.txt"
    src.write_text(format_graph_text(complete_graph(3)))
    assert main(["reduce", "--in", str(src)] + out) == 0
    captured = capsys.readouterr()
    k, t = map(int, re.match(r"k=(\d+) t=(\d+) ", captured.err).groups())
    monkeypatch.setattr("sys.stdin", io.StringIO(captured.out))
    assert main(["solve", "--in", "-"]) == 0
    mc_u = int(capsys.readouterr().out.split()[1])
    assert mc_u - 8 * k - t == 2


def test_reduce_determinism_byte_identical(tmp_path, k5_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["reduce", "--in", k5_file, "--out", str(out1)]) == 0
    assert main(["reduce", "--in", k5_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_svg_shows_gadget_clusters(tmp_path, k5_file, capsys):
    out = tmp_path / "k5.json"
    svg_path = tmp_path / "k5.svg"
    assert main(["reduce", "--in", k5_file, "--out", str(out)]) == 0
    assert main(["render", "--in", str(out), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    payload = json.loads(out.read_text())
    # one crimson disk per gadget apex, four per crossing
    assert svg.count('#dc143c') == 2 * 4 * payload["k"]  # fill + stroke
    assert svg.count("<circle") == len(payload["vertices"])


def test_solve_cut_k5(tmp_path, k5_file, capsys):
    assert main(["solve", "--in", k5_file]) == 0
    out = capsys.readouterr().out
    assert "max-cut 6" in out
    assert "side 0" in out


def test_solve_bisection_c4(tmp_path, capsys):
    src = tmp_path / "c4.txt"
    src.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["solve", "--in", str(src), "--bisection"]) == 0
    assert "max-bisection 4" in capsys.readouterr().out


def test_solve_bisection_odd_parity_exits_2(tmp_path):
    src = tmp_path / "p3.txt"
    src.write_text(format_graph_text(path_graph(3)))
    assert main(["solve", "--in", str(src), "--bisection"]) == 2


def _recovered_mc(capsys, model_path) -> int:
    """solve on a model JSON, less 8k + t: mc of the graph it was reduced from."""
    assert main(["solve", "--in", str(model_path)]) == 0
    printed = capsys.readouterr().out
    assert "not produced by the dp" in printed
    payload = json.loads(model_path.read_text())
    size = int(re.search(r"max-cut (\d+)", printed).group(1))
    return size - 8 * payload["k"] - payload["t"]


def test_solve_methods_agree(tmp_path, k5_file, capsys):
    assert main(["solve", "--in", k5_file]) == 0
    brute_out = capsys.readouterr().out
    assert "max-cut 6" in brute_out and "side 0" in brute_out
    # K5's model has thousands of vertices, so solve takes the treewidth DP
    out = tmp_path / "k5.json"
    assert main(["reduce", "--in", k5_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _recovered_mc(capsys, out) == 6


def test_solve_takes_a_width_13_model_within_the_dp_ceiling(tmp_path, capsys):
    g = random_graph(random.Random(38), 17, 0.5, 4)
    src, out = tmp_path / "g.txt", tmp_path / "g.json"
    src.write_text(format_graph_text(g))
    assert main(["reduce", "--in", str(src), "--out", str(out)]) == 0
    assert "vertices=3545 " in capsys.readouterr().out
    assert greedy_tree_decomposition(load_output_json(out.read_text()).model.graph).width == 13
    assert _recovered_mc(capsys, out) == max_cut_bruteforce(g)[0]


def test_solve_reads_model_json(tmp_path, capsys):
    src = tmp_path / "k2.txt"
    src.write_text("2 1\n0 1\n")
    out = tmp_path / "k2.json"
    main(["reduce", "--in", str(src), "--out", str(out)])
    capsys.readouterr()
    assert main(["solve", "--in", str(out)]) == 0
    printed = capsys.readouterr().out
    payload = json.loads(out.read_text())
    expected = 1 + payload["t"]
    assert f"max-cut {expected}" in printed


def test_render_h_model(tmp_path):
    src = tmp_path / "h.json"
    src.write_text(to_json(h_model()))
    out = tmp_path / "h.svg"
    assert main(["render", "--in", str(src), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<circle") == 8
    assert svg.count("<line") == 14


def test_render_empty_model(tmp_path):
    from udgcut.udg_model import ProximityModel
    src = tmp_path / "empty.json"
    src.write_text(to_json(ProximityModel(graph(0), ())))
    out = tmp_path / "empty.svg"
    assert main(["render", "--in", str(src), "--out", str(out)]) == 0
    svg = out.read_text()
    assert "<svg" in svg and "<circle" not in svg


def test_render_malformed_json_exits_2(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text("{broken")
    assert main(["render", "--in", str(src)]) == 2


def test_render_svg_exact_coordinates():
    svg = model_svg(h_model(), [ROLE_ORIGINAL] * 8)
    # disk radius is half a mesh unit: 10 in 1/20 units
    assert 'r="10"' in svg
    # w0 at (16, 16) units renders with the y axis flipped
    assert 'cx="16" cy="-16"' in svg


def test_certify_passes_every_suite_on_another_seed(capsys):
    rc = main(["certify", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_missing_file_exits_2():
    assert main(["reduce", "--in", "/nonexistent/file.txt"]) == 2


def test_config_invariants_enforced(tmp_path, k5_file, capsys, monkeypatch):
    assert main(["reduce", "--in", k5_file, "--out", k5_file]) == 2
    capsys.readouterr()
    # the same file named two ways is still one path, and stays unchanged
    before = Path(k5_file).read_text()
    monkeypatch.chdir(tmp_path)
    assert main(["reduce", "--in", "k5.txt", "--out", "./k5.txt"]) == 2
    assert Path(k5_file).read_text() == before


def test_certify_failure_prints_counterexample(capsys, monkeypatch):
    import udgcut.cli as cli_mod
    from udgcut.certify import CheckResult

    def fake_run_all(*args, **kwargs):
        return [CheckResult("demo suite", False, "violated on purpose",
                            counterexample='{"graph": "2 1\\n0 1"}')]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    assert main(["certify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL demo suite" in out
    assert "counterexample" in out


def test_certify_reports_a_construction_error_with_the_graph(capsys, monkeypatch):
    import udgcut.certify as certify_mod
    from udgcut.errors import ConstructionError

    def failing_reduce(g):
        raise ConstructionError("model invalid: planted on purpose")

    monkeypatch.setattr(certify_mod, "reduce", failing_reduce)
    res = certify_mod.check_reduction_identity(seed=0)
    assert not res.ok
    assert "planted on purpose" in res.detail
    assert json.loads(res.counterexample)["graph"] == format_graph_text(complete_graph(4))
    rc = main(["certify"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL reduction identity" in out
    assert "counterexample" in out


_EXIT_CODES = {
    errors.UdgcutError: 1, errors.InputError: 2, errors.PreconditionError: 2,
    errors.ParityError: 2, errors.UndefinedPrecisionError: 2,
    errors.DegenerateOverlapError: 1, errors.SizeLimitError: 2,
    errors.WidthLimitError: 2, errors.InconsistencyError: 1,
    errors.ConstructionError: 1,
}


def test_the_exit_code_table_names_every_error_class():
    defined = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.UdgcutError)}
    assert set(_EXIT_CODES) == defined


@pytest.mark.parametrize("cls", list(_EXIT_CODES), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code_and_one_line(capsys, monkeypatch, cls):
    import udgcut.cli as cli_mod

    def raising_run_all(seed):
        raise cls("raised on purpose")

    monkeypatch.setattr(cli_mod, "run_all", raising_run_all)
    assert main(["certify"]) == _EXIT_CODES[cls]
    captured = capsys.readouterr()
    assert captured.err == "error: raised on purpose\n" and captured.out == ""


def test_certify_reports_a_negative_cut_identity_with_the_graph(capsys, monkeypatch):
    import udgcut.certify as certify_mod

    monkeypatch.setattr(certify_mod, "max_cut_treewidth_dp", lambda g: 0)
    res = certify_mod.check_reduction_identity(seed=0)
    assert not res.ok
    assert re.fullmatch(r"K4: mc_u=0 smaller than 8k\+t=\d+", res.detail)
    assert json.loads(res.counterexample)["graph"] == format_graph_text(complete_graph(4))
    assert main(["certify"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 10   # eight suite lines, two of them with a counterexample
    assert "FAIL reduction identity (8k + t): K4: mc_u=0 smaller than" in out


def test_certify_proves_both_lemmas_for_every_host():
    from udgcut.certify import check_double_subdivision, check_gadget_plus_eight
    assert check_double_subdivision().line() == (
        "PASS double-subdivision (+2): proved for every host: the kernel is the host + 2")
    assert check_gadget_plus_eight().line() == (
        "PASS gadget construction (+8): proved for every host: the kernel is the host + 8")


def test_certify_prints_the_same_proofs_on_every_seed(capsys):
    # only the identity through the DP and the dp = brute cross-check sample
    lines = []
    for seed in (0, 1):
        assert main(["certify", "--seed", str(seed)]) == 0
        lines.append(capsys.readouterr().out.splitlines())
    sampled = ("PASS reduction identity (8k + t): ", "PASS oracle cross-check (dp = brute): ")
    assert len(lines[0]) == len(lines[1]) == 8
    for a, b in zip(*lines):
        if not a.startswith(sampled):
            assert a == b


def test_certify_reports_the_dp_width_limit_with_the_graph(monkeypatch):
    import udgcut.certify as certify_mod
    from udgcut.solvers import max_cut_treewidth_dp

    monkeypatch.setattr(certify_mod, "max_cut_treewidth_dp",
                        lambda g: max_cut_treewidth_dp(g, max_width=1))
    res = certify_mod.check_reduction_identity(seed=0)
    assert not res.ok
    assert res.detail.startswith("K4: decomposition width ")
    assert res.detail.endswith(" exceeds 1")
    assert json.loads(res.counterexample)["graph"] == format_graph_text(complete_graph(4))


def test_solve_bisection_over_limit_exits_2(tmp_path, k5_file, capsys):
    out = tmp_path / "k5.json"
    assert main(["reduce", "--in", k5_file, "--out", str(out)]) == 0
    capsys.readouterr()
    # the reduced graph has thousands of vertices: enumeration refuses
    assert main(["solve", "--in", str(out), "--bisection"]) == 2


def _two_vertex_model(**changes) -> dict:
    """A valid model JSON on two points one unit apart, with changes applied."""
    payload = {"scale": 20, "k": 0, "t": 0, "edges": [[0, 1]],
               "vertices": [{"id": 0, "x": 0, "y": 0, "role": "original"},
                            {"id": 1, "x": 20, "y": 0, "role": "original"}]}
    payload.update(changes)
    return payload


def _exits_2_with_one_error_line(capsys, argv) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_solve_accepts_the_valid_two_vertex_model(tmp_path, capsys):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(_two_vertex_model()))
    assert main(["solve", "--in", str(src)]) == 0
    assert "max-cut 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "render"])
def test_model_json_top_level_array_exits_2(tmp_path, capsys, command):
    src = tmp_path / "m.json"
    src.write_text(json.dumps([_two_vertex_model()]))
    _exits_2_with_one_error_line(capsys, [command, "--in", str(src)])


@pytest.mark.parametrize("changes", [{"k": 0.5}, {"t": True}], ids=["k", "t"])
def test_model_json_non_integer_counts_exit_2(tmp_path, capsys, changes):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(_two_vertex_model(**changes)))
    _exits_2_with_one_error_line(capsys, ["render", "--in", str(src)])


@pytest.mark.parametrize("ids", [(0, 5), (1, 1), (-1, 0)],
                         ids=["out_of_range", "repeated", "negative"])
def test_model_json_ids_not_a_permutation_exit_2(tmp_path, capsys, ids):
    payload = _two_vertex_model()
    for rec, vid in zip(payload["vertices"], ids):
        rec["id"] = vid
    src = tmp_path / "m.json"
    src.write_text(json.dumps(payload))
    _exits_2_with_one_error_line(capsys, ["solve", "--in", str(src)])


@pytest.mark.parametrize("key,value", [("x", 0.5), ("y", 20.0), ("x", True),
                                       ("y", "0"), ("id", 1.0), ("role", [1])])
def test_model_json_non_integer_fields_exit_2(tmp_path, capsys, key, value):
    payload = _two_vertex_model()
    payload["vertices"][0][key] = value
    src = tmp_path / "m.json"
    src.write_text(json.dumps(payload))
    _exits_2_with_one_error_line(capsys, ["render", "--in", str(src)])


@pytest.mark.parametrize("edges", [[[0, 0]], [[0, 7]], [[0, 1], [1, 0]],
                                   [[0, 1], [0, 1]], [[0, 1.0]], [[0, True]]],
                         ids=["loop", "out_of_range", "reversed_duplicate",
                              "duplicate", "float_endpoint", "bool_endpoint"])
def test_model_json_bad_edges_exit_2(tmp_path, capsys, edges):
    src = tmp_path / "m.json"
    src.write_text(json.dumps(_two_vertex_model(edges=edges)))
    _exits_2_with_one_error_line(capsys, ["solve", "--in", str(src)])


def test_solve_validates_model_edges_against_coordinates(tmp_path, capsys):
    payload = _two_vertex_model()
    payload["vertices"][1]["x"] = 500   # 25 units apart, yet edge [0, 1] listed
    src = tmp_path / "m.json"
    src.write_text(json.dumps(payload))
    err = _exits_2_with_one_error_line(capsys, ["solve", "--in", str(src)])
    assert "spurious=[(0, 1)]" in err


@pytest.mark.parametrize("command", ["reduce", "solve", "render"])
def test_undecodable_input_file_exits_2(tmp_path, capsys, command):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"\xff\xfe2 1\n0 1\n")
    err = _exits_2_with_one_error_line(capsys, [command, "--in", str(src)])
    assert str(src) in err


@pytest.mark.parametrize("command", ["reduce", "solve", "render"])
def test_undecodable_stdin_exits_2(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe2 1\n0 1\n"),
                                                      encoding="utf-8"))
    err = _exits_2_with_one_error_line(capsys, [command])
    assert "stdin" in err


@pytest.mark.parametrize("command", ["solve", "render"])
def test_deeply_nested_model_json_exits_2(tmp_path, capsys, command):
    src = tmp_path / "deep.json"
    src.write_text('{"a":' * 100000)
    _exits_2_with_one_error_line(capsys, [command, "--in", str(src)])


def test_a_model_of_equal_points_exits_2_at_the_first_pair(tmp_path, capsys, monkeypatch):
    def one_pair_at_most(points, width):
        for k, pair in enumerate(pairs_within(points, width)):
            assert k == 0, "the scan went on past a pair of equal points"
            yield pair

    monkeypatch.setattr("udgcut.udg_model.pairs_within", one_pair_at_most)
    payload = _two_vertex_model(edges=[], vertices=[
        {"id": i, "x": 0, "y": 0, "role": "original"} for i in range(3000)])
    src = tmp_path / "m.json"
    src.write_text(json.dumps(payload))
    err = _exits_2_with_one_error_line(capsys, ["solve", "--in", str(src)])
    assert "coincident points for vertices 0 and 1" in err


@pytest.mark.parametrize("text, message", [
    ("5", "graph text must start with 'n m'"),
    ("-1 0", "negative vertex count -1"),
    # an odd token count: the message names both counts, not "5 edges, 5 pairs"
    ("5 5 0 1 0 4 1 2 2 3 3 4 -1", "expected 12 tokens for 5 edges, found 13"),
    ("3 2\n0 1\n", "expected 6 tokens for 2 edges, found 4"),
])
def test_a_malformed_graph_header_exits_2(tmp_path, capsys, text, message):
    src = tmp_path / "bad.txt"
    src.write_text(text)
    err = _exits_2_with_one_error_line(capsys, ["reduce", "--in", str(src)])
    assert err.endswith(f"{message}\n")


@pytest.mark.parametrize("command", ["reduce", "solve"])
def test_a_graph_over_the_vertex_ceiling_exits_2(tmp_path, capsys, monkeypatch, command):
    # 13 bytes naming 3e9 vertices: refused while parsing, before any work
    def refuse(*args, **kwargs):
        raise AssertionError("a graph over the ceiling reached a solver")

    for name in ("reduce", "max_cut_bruteforce", "max_cut_treewidth_dp"):
        monkeypatch.setattr(f"udgcut.cli.{name}", refuse)
    src = tmp_path / "huge.txt"
    src.write_text("3000000000 0")
    err = _exits_2_with_one_error_line(capsys, [command, "--in", str(src)])
    assert "3000000000 vertices exceed the limit" in err


@pytest.mark.parametrize("command, flags", [
    ("reduce", ["--out", "{missing}"]),
    ("render", ["--out", "{missing}"]),
])
def test_an_unwritable_output_path_exits_2(tmp_path, capsys, command, flags):
    src = tmp_path / "in.txt"
    src.write_text("2 1\n0 1\n" if command == "reduce" else to_json(h_model()))
    missing = tmp_path / "missing" / "out"
    argv = [command, "--in", str(src)] + [
        f.format(missing=missing) for f in flags]
    err = _exits_2_with_one_error_line(capsys, argv)
    assert f"cannot write {missing}: " in err


_C5_TOKENS = format_graph_text(cycle_graph(5)).split()
_K4_MODEL_JSON = to_json(reduce(complete_graph(4)))
# small integers keep every mutated graph within brute force's reach
_TOKENS = st.sampled_from([str(i) for i in range(-1, 9)]
                          + ["", "x", "1.5", "0x1", "\u0663"])
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 30), st.floats(),
                    st.text(max_size=3), st.lists(st.integers(-1, 4), max_size=3),
                    st.just({}))


@st.composite
def _mutated_graph_text(draw) -> str:
    tokens = list(_C5_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        # most edits keep the token count, which any other edit breaks
        action = draw(st.sampled_from(["replace", "replace", "replace", "delete", "insert"]))
        if action == "insert" or i == len(tokens):
            tokens.insert(i, draw(_TOKENS))
        elif action == "delete":
            del tokens[i]
        else:
            tokens[i] = draw(_TOKENS)
    return " ".join(tokens)


@st.composite
def _mutated_model_json(draw) -> str:
    """The K4 model JSON with 1-3 entries, anywhere in it, deleted or
    replaced by a value of any JSON type."""
    payload = json.loads(_K4_MODEL_JSON)
    for _ in range(draw(st.integers(1, 3))):
        node = payload
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            elif draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = draw(_VALUES)
                break
    return json.dumps(payload)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_mutated_graph_text(), _mutated_model_json()))
def test_every_command_answers_a_mutated_input_with_an_exit_code(tmp_path, text):
    # the inputs a user can hand over: no exception may escape main, and
    # every refusal is a validation failure (1) or a malformed input (2)
    src = tmp_path / "in"
    src.write_text(text)
    for argv in (["reduce", "--out", str(tmp_path / "out.json")], ["solve"],
                 ["solve", "--bisection"], ["render", "--out", str(tmp_path / "out.svg")]):
        assert main([*argv, "--in", str(src)]) in (0, 1, 2)


def _readme_usage_options() -> dict[str, set[str]]:
    """{subcommand: the options its lines name} from the README's
    command-line block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["udgcut"]:
            command = words[1]
            options[command] = set()
        options[command].update(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_readme_usage_names_exactly_the_parser_options():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {name: {option for action in sub._actions
                      for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
               for name, sub in subparsers.choices.items()}
    assert _readme_usage_options() == defined


def test_importing_udgcut_loads_no_optional_dependency():
    # udgcut has no runtime dependencies; a stray import of a test or
    # benchmark tool would show in every command's start-up time and memory
    src = str(Path(udgcut.__file__).resolve().parents[1])
    probe = ("import sys, udgcut, udgcut.cli; "
             "print(sorted({'numpy', 'networkx', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out == "[]\n"

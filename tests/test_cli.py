"""The command-line surface: exit codes, formats, determinism."""

import json

import pytest

from udgcut.cli import main, model_svg
from udgcut.gadget import h_model
from udgcut.graph_core import complete_graph, format_graph_text, graph, path_graph
from udgcut.reduction import to_json


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


def test_reduce_determinism_byte_identical(tmp_path, k5_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["reduce", "--in", k5_file, "--out", str(out1)]) == 0
    assert main(["reduce", "--in", k5_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_svg_shows_gadget_clusters(tmp_path, k5_file, capsys):
    out = tmp_path / "k5.json"
    svg_path = tmp_path / "k5.svg"
    assert main(["reduce", "--in", k5_file, "--out", str(out),
                 "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text()
    payload = json.loads(out.read_text())
    # one crimson disk per gadget apex, four per crossing
    assert svg.count('#dc143c') == 2 * 4 * payload["k"]  # fill + stroke
    assert svg.count("<circle") == len(payload["vertices"])


def test_solve_cut_k5(tmp_path, k5_file, capsys):
    assert main(["solve", "--in", k5_file, "--cut"]) == 0
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


def test_solve_methods_agree(tmp_path, k5_file, capsys):
    assert main(["solve", "--in", k5_file, "--method", "brute"]) == 0
    brute_out = capsys.readouterr().out
    assert main(["solve", "--in", k5_file, "--method", "dp"]) == 0
    dp_out = capsys.readouterr().out
    assert "max-cut 6" in brute_out and "max-cut 6" in dp_out


def test_solve_reads_model_json(tmp_path, capsys):
    src = tmp_path / "k2.txt"
    src.write_text("2 1\n0 1\n")
    out = tmp_path / "k2.json"
    main(["reduce", "--in", str(src), "--out", str(out)])
    capsys.readouterr()
    assert main(["solve", "--in", str(out), "--method", "dp"]) == 0
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
    svg = model_svg(h_model())
    # disk radius is half a mesh unit: 10 in 1/20 units
    assert 'r="10"' in svg
    # w0 at (16, 16) units renders with the y axis flipped
    assert 'cx="16" cy="-16"' in svg


def test_certify_zero_iterations_vacuous_pass(capsys):
    rc = main(["certify", "--seed", "1", "--subdivisions", "0", "--gadgets", "0",
               "--reductions", "0", "--models", "0", "--oracle", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 7


def test_missing_file_exits_2():
    assert main(["reduce", "--in", "/nonexistent/file.txt"]) == 2


def test_config_invariants_enforced(tmp_path, k5_file):
    assert main(["reduce", "--in", k5_file, "--out", k5_file]) == 2
    assert main(["solve", "--in", k5_file, "--brute-limit", "0"]) == 2
    assert main(["solve", "--in", k5_file, "--max-width", "-1"]) == 2


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
    res = certify_mod.check_reduction_identity(seed=0, random_count=0)
    assert not res.ok
    assert "planted on purpose" in res.detail
    assert json.loads(res.counterexample)["graph"] == format_graph_text(complete_graph(4))
    rc = main(["certify", "--subdivisions", "0", "--gadgets", "0", "--reductions", "0",
               "--models", "0", "--oracle", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL reduction identity" in out
    assert "counterexample" in out


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

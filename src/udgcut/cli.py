"""Command-line frontend: reduce a graph to a unit disk model, solve
max-cut or max-bisection exactly, render a model as SVG, and run the
certification suites.

Exit codes: 0 success, 1 validation or certification failure, 2 malformed
or unsupported input, or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certify import run_all
from .errors import InputError, UdgcutError
from .geometry import SCALE
from .graph_core import Graph, parse_graph_text
from .reduction import (ROLE_DETOUR_APEX, ROLE_GADGET_W, ROLE_ORIGINAL,
                        ROLE_SUBDIVISION, load_output_json, reduce, to_json)
from .solvers import (DEFAULT_BRUTE_LIMIT, max_bisection_bruteforce,
                      max_cut_bruteforce, max_cut_treewidth_dp)
from .udg_model import ProximityModel, require_valid_model

ROLE_COLORS = {
    ROLE_ORIGINAL: "#000000",
    ROLE_SUBDIVISION: "#4682b4",
    ROLE_GADGET_W: "#dc143c",
    ROLE_DETOUR_APEX: "#ff8c00",
}


def _read_input(path: str | None) -> str:
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {'stdin' if stdin else path}: {exc}") from exc


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def model_svg(model: ProximityModel, roles: list[str]) -> str:
    """SVG with one unit-diameter disk per vertex (radius 10 in 1/20 units),
    colored by roles[id], and one line per edge; y grows upward."""
    pts = model.points
    if pts:
        xs = [p.xu for p in pts]
        ys = [-p.yu for p in pts]
        minx, maxx = min(xs) - 2 * SCALE, max(xs) + 2 * SCALE
        miny, maxy = min(ys) - 2 * SCALE, max(ys) + 2 * SCALE
    else:
        minx = miny = 0
        maxx = maxy = 2 * SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{minx} {miny} {maxx - minx} {maxy - miny}">'
    ]
    for u, v in model.graph.sorted_edges():
        p, q = pts[u], pts[v]
        parts.append(
            f'<line x1="{p.xu}" y1="{-p.yu}" x2="{q.xu}" y2="{-q.yu}" '
            f'stroke="#555555" stroke-width="2"/>')
    for i, p in enumerate(pts):
        color = ROLE_COLORS.get(roles[i], "#000000")
        parts.append(
            f'<circle cx="{p.xu}" cy="{-p.yu}" r="{SCALE // 2}" '
            f'fill="{color}" fill-opacity="0.35" stroke="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_reduce(args) -> int:
    g = parse_graph_text(_read_input(args.input))
    out = reduce(g)
    text = to_json(out)
    stats = (f"k={out.k} t={out.t} vertices={out.result.n} "
             f"edges={out.result.m}\n")
    _write_output(args.out, text)
    # the stats line goes to stderr when the JSON goes to stdout
    (sys.stderr if args.out in (None, "-") else sys.stdout).write(stats)
    return 0


def _load_graph_or_model(text: str) -> Graph:
    """A graph file, or the graph of a model JSON whose edges match its
    coordinates."""
    if not text.lstrip().startswith("{"):
        return parse_graph_text(text)
    model = load_output_json(text).model
    require_valid_model(model)
    return model.graph


def cmd_solve(args) -> int:
    g = _load_graph_or_model(_read_input(args.input))
    if args.bisection:
        size, cut = max_bisection_bruteforce(g)
        print(f"max-bisection {size}")
        print("side " + "".join(map(str, cut.side)))
    elif g.n <= DEFAULT_BRUTE_LIMIT:
        size, cut = max_cut_bruteforce(g)
        print(f"max-cut {size}")
        print("side " + "".join(map(str, cut.side)))
    else:
        size = max_cut_treewidth_dp(g)
        print(f"max-cut {size}")
        print("side (not produced by the dp method)")
    return 0


def cmd_render(args) -> int:
    loaded = load_output_json(_read_input(args.input))
    _write_output(args.out, model_svg(loaded.model, loaded.roles))
    return 0


def cmd_certify(args) -> int:
    results = run_all(args.seed)
    failed = False
    for res in results:
        print(res.line())
        if not res.ok:
            failed = True
            if res.counterexample:
                print(f"counterexample {res.counterexample}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udgcut",
        description="Exact max-cut to unit-disk-graph reduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="compile a graph into a unit disk model")
    p_reduce.add_argument("--in", dest="input", help="graph file (default stdin)")
    p_reduce.add_argument("--out", help="model JSON output path (default stdout)")
    p_reduce.set_defaults(func=cmd_reduce)

    p_solve = sub.add_parser("solve", help="exact max-cut / max-bisection")
    p_solve.add_argument("--in", dest="input", help="graph file or model JSON")
    p_solve.add_argument("--bisection", action="store_true",
                         help="maximum bisection instead of maximum cut")
    p_solve.set_defaults(func=cmd_solve)

    p_render = sub.add_parser("render", help="model JSON to SVG")
    p_render.add_argument("--in", dest="input", help="model JSON (default stdin)")
    p_render.add_argument("--out", help="SVG output path (default stdout)")
    p_render.set_defaults(func=cmd_render)

    p_cert = sub.add_parser("certify", help="run the certification suites")
    p_cert.add_argument("--seed", type=int, default=0,
                        help="picks the sample of the two sampled suites (the "
                             "identity through the DP, dp = brute)")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def _check_config(args):
    named = [getattr(args, name, None) for name in ("input", "out")]
    paths = [os.path.realpath(p) for p in named if p and p != "-"]  # ./g.txt is g.txt
    if len(paths) != len(set(paths)):
        raise InputError("input and output paths must be distinct")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_config(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UdgcutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

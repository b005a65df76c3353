"""One workload in one process.

    python3 perfbench/child.py --src SRC --workload NAME --seed N
                               --seconds S --trace 0|1 [--probe]

Imports udgcut from SRC, builds the workload's inputs from the seed, then
runs whole rounds over them until S seconds have passed and prints one JSON
object: per-instance times, the outputs of the first successful round (for
the checks in run.py), and, with --trace 1, the per-layer metrics of a
traced pass.  With --probe it stops at the first timed call, which is how
run.py samples the set-up time.  run.py starts this script; it is not meant
to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import statistics
import sys
import time
from math import comb
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import REDUCTION_CALLEES, Tracer, self_times  # noqa: E402

# The DP's default ceiling of 12 refuses widths of 13 and above, which the
# min-fill decomposition of U(G) reaches for random graphs with n >= 18.
MAX_WIDTH = 20

PIPELINE_SIZES = (16, 18)
SMALL_RANDOM_SIZES = tuple(range(2, 11))
BRUTE_CUT_SIZES = (20, 22, 24)
BRUTE_BISECTION_SIZES = (18, 20)

# The machine's speed drifts by a third and more over minutes, and the same
# instance's time drifts with it.  So a fixed pure-Python loop that does not
# touch udgcut is timed right before each instance, and the instance's time
# is scaled by REFERENCE_LOOP_S / (that loop's time): seconds on a machine
# where the loop takes REFERENCE_LOOP_S, about the median of both loops on
# the 2-core machine the benchmark was written on.  See README.md.
REFERENCE_LOOP_S = 0.04

DRAWING_SPANS = ("mesh_draw", "standardize", "validate_drawing",
                 "validate_standard", "crossings")


# For each size, the indices j of pool_graph(u, n, j) that make_pool.py kept:
# graphs whose reduction work is near the median of their size.  Fixed, so
# that the inputs never depend on the version of udgcut being measured.
POOL = {
    2: (0, 1, 2, 4, 6, 7, 8, 9, 12, 14, 15, 18),
    3: (0, 3, 8, 10, 20, 23, 25, 27, 34, 36, 38, 39),
    4: (6, 17, 20, 36, 48, 56, 83, 103, 111, 136, 147, 186),
    5: (2, 41, 73, 82, 105, 159, 162),
    6: (9, 10, 32, 35, 140, 143, 176, 183),
    7: (1, 5, 33, 45, 52, 57, 71, 98, 147, 150, 169, 178),
    8: (8, 13, 38, 48, 52, 57, 83, 97, 101, 103, 108, 115),
    9: (13, 18, 21, 49, 62, 72, 115, 116, 127, 129, 130, 160),
    10: (5, 16, 43, 46, 59, 78, 83, 86, 95, 98, 102, 109),
    16: (6, 9, 14, 26, 31, 34, 38),
    18: (0, 6, 9, 14, 18, 21, 22),
}


def pool_graph(u, n: int, j: int):
    return u.random_graph(random.Random(f"pool:{n}:{j}"), n, p=0.5, max_deg=4)


def bit_loop():
    """Integer bit tricks, like the brute-force enumeration loops."""
    m = best = v = 0
    for k in range(1, 90000):
        m ^= 1 << ((k & -k).bit_length() - 1)
        v += (m >> 3) & 7
        best = max(best, v)


def graph_loop():
    """Adjacency sets and a frozenset of canonical edges, like the
    construction's graph building."""
    for _ in range(3):
        adj = {i: set() for i in range(6000)}
        for i in range(6000):
            for d in (1, 77):
                j = (i + d) % 6000
                adj[i].add(j)
                adj[j].add(i)
        frozenset((a, b) if a < b else (b, a) for a, nb in adj.items() for b in nb)


# The loop each workload's times are scaled by: the one whose speed follows
# the workload's own when the machine's speed changes.
REFERENCE_LOOPS = {"pipeline-random": graph_loop, "small-batch": graph_loop,
                   "brute-direct": bit_loop}


def time_loop(loop) -> float:
    gc.collect()
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def make_inputs(u, workload: str, seed: int) -> list[dict]:
    """Instances as {"name", "op", "text"}: op is "pipeline", "pipeline+brute",
    "cut" or "bisection"; text is the graph in udgcut's text format."""
    def rng(n: int) -> random.Random:
        return random.Random(f"{workload}:{seed}:{n}")

    def pooled(n: int):
        return pool_graph(u, n, rng(n).choice(POOL[n]))

    if workload == "pipeline-random":
        cases = [(f"random{n}", "pipeline", pooled(n)) for n in PIPELINE_SIZES]
    elif workload == "small-batch":
        cases = [("K4", u.complete_graph(4)), ("K5", u.complete_graph(5)),
                 ("C5", u.cycle_graph(5)), ("petersen", u.petersen_graph())]
        cases += [(f"random{n}", pooled(n)) for n in SMALL_RANDOM_SIZES]
        cases = [(name, "pipeline+brute", g) for name, g in cases]
    elif workload == "brute-direct":
        def rnd(n):
            return u.random_graph(rng(n), n, p=0.5, max_deg=4)
        cases = [(f"cut{n}", "cut", rnd(n)) for n in BRUTE_CUT_SIZES]
        cases += [(f"bisection{n}", "bisection", rnd(n)) for n in BRUTE_BISECTION_SIZES]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return [{"name": name, "op": op, "text": u.format_graph_text(g)}
            for name, op, g in cases]


def plain_calls(u) -> SimpleNamespace:
    return SimpleNamespace(
        parse=u.parse_graph_text, reduce=u.reduce, to_json=u.to_json,
        load_json=u.load_output_json, td=u.greedy_tree_decomposition,
        dp=u.max_cut_treewidth_dp, recover=u.recover_mc,
        brute_cut=u.max_cut_bruteforce, brute_bisection=u.max_bisection_bruteforce)


def traced_calls(u, tracer: Tracer) -> SimpleNamespace:
    counters = {
        "reduce": lambda r: {"N": r.result.n, "M": r.result.m},
        "to_json": lambda text: {"bytes": len(text)},
        "td": lambda td: {"width": td.width,
                          "bag_states": sum(1 << len(b) for b in td.bags)},
        "brute_cut": lambda res: {"n": len(res[1].side)},
        "brute_bisection": lambda res: {"n": len(res[1].side)},
    }
    plain = vars(plain_calls(u))
    return SimpleNamespace(**{name: tracer.wrap(name, fn, counters.get(name))
                              for name, fn in plain.items()})


def run_op(c, inst: dict):
    """The timed calls of one instance, as the reduce and solve commands
    make them.  Returns the raw results; nothing here is checked."""
    g = c.parse(inst["text"])
    if inst["op"] == "cut":
        return {"cut": c.brute_cut(g)}
    if inst["op"] == "bisection":
        return {"bisection": c.brute_bisection(g)}
    r = c.reduce(g)
    text = c.to_json(r)
    loaded = c.load_json(text)
    td = c.td(loaded.model.graph)
    mc_u = c.dp(loaded.model.graph, td, max_width=MAX_WIDTH)
    out = {"mc": c.recover(mc_u, loaded.k, loaded.t), "mc_u": mc_u,
           "text": text, "loaded": loaded, "td": td}
    if inst["op"] == "pipeline+brute":
        out["cut"] = c.brute_cut(g)
    return out


def summarize(raw: dict) -> dict:
    """The small, comparable part of an instance's raw results."""
    out = {}
    for key in ("cut", "bisection"):
        if key in raw:
            size, cut = raw[key]
            out[key] = [size, list(cut.side), cut.size]
    if "text" in raw:
        model = raw["loaded"].model.graph
        out.update(mc=raw["mc"], mc_u=raw["mc_u"], k=raw["loaded"].k,
                   t=raw["loaded"].t, N=model.n, M=model.m,
                   width=raw["td"].width,
                   sha256=hashlib.sha256(raw["text"].encode()).hexdigest())
    return out


class Rounds:
    """Per-instance times and the failure tally of a series of rounds."""

    def __init__(self, insts: list[dict], loop):
        self.insts = insts
        self.loop = loop
        self.times: list[list[float]] = [[] for _ in insts]
        self.loops: list[list[float]] = [[] for _ in insts]
        self.reference: list[dict | None] = [None] * len(insts)
        self.texts: list[str | None] = [None] * len(insts)
        self.ok = [0] * len(insts)
        self.errors: list[str] = []
        self.rounds = 0

    def run(self, calls, seconds: float, after_instance=None):
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < seconds:
            for i, inst in enumerate(self.insts):
                self.loops[i].append(time_loop(self.loop))
                gc.collect()
                t0 = time.perf_counter()
                try:
                    raw = run_op(calls, inst)
                except Exception as exc:  # a failed operation, counted below
                    raw = None
                    error = f"{inst['name']}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                self.times[i].append(elapsed)
                if after_instance is not None:
                    after_instance(i, elapsed)
                if raw is None:
                    self.errors.append(error)
                    continue
                summary = summarize(raw)
                if self.reference[i] is None:
                    self.reference[i] = summary
                    self.texts[i] = raw.get("text")
                if summary == self.reference[i]:
                    self.ok[i] += 1
                else:
                    self.errors.append(f"{inst['name']}: output differs between rounds")
                del raw
            self.rounds += 1

    def wall_s(self) -> float:
        """Sum over instances of each instance's median time, each time
        scaled by the reference loop timed just before it."""
        return sum(statistics.median(t * REFERENCE_LOOP_S / c for t, c in zip(ts, cs))
                   for ts, cs in zip(self.times, self.loops))

    def raw_wall_s(self) -> float:
        """Sum over instances of each instance's median time, as measured."""
        return sum(statistics.median(t) for t in self.times)


def peak_rss_kib() -> int:
    """VmHWM, the peak resident set of this process's own address space.
    getrusage's ru_maxrss would also count the parent's pages that the
    child shared between fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced instance."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for s, own in zip(spans, selfs):
        name, d = s.name, s.duration
        if name in DRAWING_SPANS:
            add("drawing.s", d)
        if name == "crossings":
            add("drawing.crossings", s.counters["k"])
        elif name == "reduce":
            add("reduction.reduce_s", d)
            add("reduction.construct_s", own)
            add("reduction.model_vertices", s.counters["N"])
            add("reduction.model_edges", s.counters["M"])
        elif name == "validate_reduction":
            add("reduction.validate_s", d)
        elif name == "validate_model":
            add("udg_model.validate_model_s", d)
        elif name == "precision2":
            add("udg_model.precision2_s", d)
        elif name == "to_json":
            add("reduction.to_json_s", d)
            add("reduction.json_bytes", s.counters["bytes"])
        elif name == "load_json":
            add("reduction.load_json_s", d)
        elif name == "construct_H_on":
            add("gadget.construct_H_on_s", d)
            add("gadget.construct_H_on_calls", 1)
        elif name == "td":
            add("solvers.td_s", d)
            m["solvers.width"] = max(m.get("solvers.width", 0), s.counters["width"])
            add("solvers.bag_states", s.counters["bag_states"])
        elif name == "dp":
            add("solvers.dp_s", d)
        elif name == "brute_cut":
            add("solvers.brute_cut_s", d)
            add("solvers.brute_states", 1 << (s.counters["n"] - 1))
        elif name == "brute_bisection":
            add("solvers.brute_bisection_s", d)
            n = s.counters["n"]
            add("solvers.brute_states", comb(n - 1, n // 2))
        if s.parent is None:
            add("top_spans_s", d)
    return m


LAYER_KEYS = (
    "drawing.s", "drawing.crossings", "reduction.reduce_s",
    "reduction.construct_s", "reduction.validate_s", "udg_model.validate_model_s",
    "udg_model.precision2_s", "reduction.to_json_s", "reduction.load_json_s",
    "reduction.json_bytes", "reduction.model_vertices", "reduction.model_edges",
    "gadget.construct_H_on_s", "gadget.construct_H_on_calls", "solvers.td_s",
    "solvers.width", "solvers.bag_states", "solvers.dp_s",
    "solvers.brute_cut_s", "solvers.brute_bisection_s", "solvers.brute_states")


def traced_pass(u, rounds: Rounds, seconds: float) -> tuple[dict, list[dict]]:
    """Run rounds with every layer wrapped.  Returns the per-layer figures
    (each instance's median over the traced rounds, summed over instances;
    the width is the maximum, and trace.span_coverage is the share of the
    traced instances' wall time that their top-level spans cover) and every
    span recorded, with its parent as an index into its instance's spans."""
    tracer = Tracer()
    calls = traced_calls(u, tracer)
    per_instance: list[list[dict]] = [[] for _ in rounds.insts]
    coverage: list[tuple[float, float]] = []
    records: list[dict] = []

    def collect(i, elapsed):
        spans = tracer.take()
        records.extend({"instance": rounds.insts[i]["name"], "round": rounds.rounds,
                        "name": s.name, "parent": s.parent, "start": s.start,
                        "end": s.end, "counters": s.counters} for s in spans)
        m = layer_metrics(spans)
        coverage.append((m.pop("top_spans_s", 0.0), elapsed))
        per_instance[i].append(m)

    counters = {"crossings": lambda report: {"k": len(report)}}
    with tracer.patched(u.reduction, REDUCTION_CALLEES, counters):
        rounds.run(calls, seconds, after_instance=collect)

    totals = {key: 0.0 for key in LAYER_KEYS}
    for figures in per_instance:
        for key in LAYER_KEYS:
            values = [f.get(key, 0) for f in figures]
            if key == "solvers.width":
                totals[key] = max(totals[key], max(values))
            else:
                totals[key] += statistics.median(values)
    top = sum(c for c, _ in coverage)
    wall = sum(w for _, w in coverage)
    totals["trace.span_coverage"] = top / wall
    return totals, records


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, args.src)
    import udgcut as u
    if not Path(u.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"udgcut imported from {u.__file__}, not from {args.src}")
    insts = make_inputs(u, args.workload, args.seed)
    first_call = time.monotonic()
    loop = REFERENCE_LOOPS[args.workload]
    setup_loop = time_loop(loop)
    if args.probe:
        print(json.dumps({"first_call": first_call, "setup_loop": setup_loop}))
        return 0

    rounds = Rounds(insts, loop)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    rounds.run(plain_calls(u), untraced_seconds)
    wall = rounds.wall_s()
    peak_rss_mb = peak_rss_kib() / 1024
    result = {"first_call": first_call, "setup_loop": setup_loop,
              "rounds": rounds.rounds, "wall_s": wall,
              "raw_wall_s": rounds.raw_wall_s(), "peak_rss_mb": peak_rss_mb}
    if args.trace:
        traced = Rounds(insts, loop)
        traced.reference, traced.texts = rounds.reference, rounds.texts
        layers, result["spans"] = traced_pass(u, traced, args.seconds / 2)
        layers["trace.overhead_s"] = traced.wall_s() - wall
        result["layers"] = layers
        result["rounds"] += traced.rounds
        rounds.errors += traced.errors
        rounds.ok = [a + b for a, b in zip(rounds.ok, traced.ok)]
    result.update(
        instances=[{"name": inst["name"], "op": inst["op"], "text": inst["text"],
                    "ok": ok, "output": ref, "json": text, "times": times,
                    "loops": loops}
                   for inst, ok, ref, text, times, loops in zip(
                       insts, rounds.ok, rounds.reference, rounds.texts,
                       rounds.times, rounds.loops)],
        errors=rounds.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

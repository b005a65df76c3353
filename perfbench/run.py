"""The udgcut benchmark.

    python3 perfbench/run.py --workload pipeline-random|small-batch|brute-direct|all
                             [--seed N] [--seconds S] [--trace 0|1]

Runs the workload in a child process (perfbench/child.py) that imports
udgcut from the src/ directory next to perfbench/, checks every answer the
child returns against the benchmark's own computation (perfbench/checks.py),
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Exits 0 when every operation succeeded
and passed its check, 1 when one failed, 2 when udgcut cannot be found.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import child

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RESULTS = Path(__file__).resolve().parent / "results"   # one record per run
WORKLOADS = ("pipeline-random", "small-batch", "brute-direct")
SETUP_PROBES = 9
RUN_LIMIT_S = 160.0   # every child of one run ends within this budget

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "drawing.s": "s", "drawing.crossings": "count",
    "reduction.reduce_s": "s", "reduction.construct_s": "s",
    "reduction.validate_s": "s", "udg_model.validate_model_s": "s",
    "udg_model.precision2_s": "s", "reduction.to_json_s": "s",
    "reduction.load_json_s": "s", "reduction.json_bytes": "bytes",
    "reduction.model_vertices": "count", "reduction.model_edges": "count",
    "gadget.construct_H_on_s": "s", "gadget.construct_H_on_calls": "count",
    "solvers.td_s": "s", "solvers.width": "count", "solvers.bag_states": "count",
    "solvers.dp_s": "s", "solvers.dp_bag_states_per_s": "1/s",
    "solvers.brute_cut_s": "s", "solvers.brute_bisection_s": "s",
    "solvers.brute_states": "count", "solvers.brute_states_per_s": "1/s",
    "trace.overhead_s": "s", "trace.span_coverage": "ratio",
}


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start child.py, wait for it until the deadline, and return the
    monotonic time it was started at with the JSON object it printed.

    The child runs in a session of its own; on a timeout, an interrupt or
    any other exit from here its whole process group is killed and reaped.
    """
    env = {k: v for k, v in os.environ.items() if k != "UDG_REDUCE_THREADS"}
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "--src", str(ROOT / "src"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {' '.join(args)} exceeded its time limit")
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(args)} exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return started, json.loads(out.splitlines()[-1])


def check_instance(inst: dict) -> list[str]:
    """The benchmark's own verdict on one instance's reference output."""
    out = inst["output"]
    if out is None:   # every round raised; the child counted those
        return []
    lines = inst["text"].split("\n")
    n = int(lines[0].split()[0])
    edges = [tuple(map(int, line.split())) for line in lines[1:] if line]
    mc, mb = checks.enumerate_optima(n, edges)
    problems = []
    if "cut" in out:
        size, side, cut_size = out["cut"]
        problems += checks.check_value("Cut.size", cut_size, size)
        problems += checks.check_side(n, edges, size, side, mc)
    if "bisection" in out:
        size, side, cut_size = out["bisection"]
        problems += checks.check_value("Cut.size", cut_size, size)
        problems += checks.check_side(n, edges, size, side, mb, bisection=True)
    if "mc" in out:
        problems += checks.check_value("recover_mc", out["mc"], mc)
        problems += checks.check_value("mc(U(G))", out["mc_u"],
                                       mc + 8 * out["k"] + out["t"])
        problems += checks.check_model_json(inst["json"], n, edges)
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []   # (measured set-up time, reference loop time right after it)
    for _ in range(SETUP_PROBES):
        started, probe = run_child([*common, "--probe"], deadline)
        setups.append((probe["first_call"] - started, probe["setup_loop"]))
    started, res = run_child([*common, "--trace", str(trace)], deadline)
    setups.append((res["first_call"] - started, res["setup_loop"]))

    attempted = res["rounds"] * len(res["instances"])
    failed = len(res["errors"])
    table = []
    for inst in res["instances"]:
        problems = check_instance(inst)
        if problems:
            failed += inst["ok"]
        head = inst["text"].split("\n", 1)[0].split()
        out = inst["output"] or {}
        table.append({"name": inst["name"], "op": inst["op"], "n": int(head[0]),
                      "m": int(head[1]), **{key: out[key] for key in
                                           ("k", "t", "N", "M", "width") if key in out},
                      "problems": problems, "times_s": inst["times"],
                      "reference_loop_s": inst["loops"]})
    for row in table:
        print(f"{name}: " + " ".join(f"{k}={v}" for k, v in row.items()
                                     if k not in ("problems", "times_s", "reference_loop_s")),
              file=sys.stderr)
        for problem in row["problems"]:
            print(f"{name}: FAILED {row['name']}: {problem}", file=sys.stderr)
    for err in res["errors"]:
        print(f"{name}: FAILED {err}", file=sys.stderr)

    if trace:
        layers = dict(res["layers"])
        layers["solvers.dp_bag_states_per_s"] = (
            layers["solvers.bag_states"] / layers["solvers.dp_s"]
            if layers["solvers.dp_s"] else 0.0)
        brute_s = layers["solvers.brute_cut_s"] + layers["solvers.brute_bisection_s"]
        layers["solvers.brute_states_per_s"] = (
            layers["solvers.brute_states"] / brute_s if brute_s else 0.0)
        values, units = layers, PER_LAYER_UNITS
    else:
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(s * child.REFERENCE_LOOP_S / c
                                               for s, c in setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END_UNITS
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "python": sys.version.split()[0], "cpus": os.cpu_count(),
         "rounds": res["rounds"], "raw_wall_s": res["raw_wall_s"],
         "setup_samples": setups, "result": result,
         "instances": table, "errors": res["errors"]}, indent=1) + "\n")
    if trace:
        (RESULTS / f"{stem}.spans.jsonl").write_text(
            "".join(json.dumps(span) + "\n" for span in res["spans"]))
    return dict(result, rounds=res["rounds"], raw_wall_s=res["raw_wall_s"])


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "udgcut" / "__init__.py").is_file():
        print(f"error: no udgcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, deadline)
        except ChildFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}, "rounds": 0, "raw_wall_s": 0.0}
        r = results[name]
        shown = " ".join(f"{k}={m['value']:.6g} {m['unit']}"
                         for k, m in r["metrics"].items())
        print(f"{name} seed={args.seed}: rounds={r.pop('rounds')} "
              f"attempted={r['attempted']} failed={r['failed']} {shown} "
              f"(measured wall {r.pop('raw_wall_s'):.6g} s)")

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{key}": m for name, r in results.items()
                             for key, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt as exc:
        print(f"interrupted ({exc or 'SIGINT'}); every child was stopped", file=sys.stderr)
        sys.exit(130)

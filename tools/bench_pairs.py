"""Compare two checkouts with alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --seconds 30 --claim corridor_goal:ticks_per_s --trace-seed 0 \\
        --test tests/test_acceptance.py::test_criterion_08_goal_conditioned_improvement \\
        --what "one line on the change" --out BENCH_x.json

Each checkout is a full source tree with its own ``perfbench/run.py``. For
every workload in the change's ``BENCHMARK.json``, pair i runs
``perfbench/run.py --workload W --seed (first_seed + i) --seconds S
--trace 0`` once in each checkout, one process at a time; the parent runs
first in even pairs and the change in odd ones. The output holds every run's
end-to-end metrics and, per metric, each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the change's wins (ties count for
neither side), the relative change of the medians, whether that change is
within the benchmark's bound and the parent's interquartile range. With
``--claim W:M`` a claim block applies the paired rule: the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range; it is not met while any untraced run of either
side printed ``correct`` other than true or ``failed`` above 0, and each
workload records, per side, how many runs did (``wrong_runs``). Each run also
records ``minflt``, the minor page faults of its process tree (the
``RUSAGE_CHILDREN`` delta, set-up processes included), and the summary gives
each side's median of it.
``--trace-seed`` adds one traced run per side and workload; each ``--test``
is a pytest node id run once per side, and its call duration is recorded.
``--fault-steps N`` counts, per side, the minor page faults of N
``native_replay`` steps (seed 0) in one process after three warm-up
cycles, and records the faults per step. ``--pairs`` below 2 and a
``--claim`` that does not name a workload being run and an end-to-end
metric are refused before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

LAYER_FIELDS = ("calls", "self_ms", "us_p50", "share")

# Steady-state minor faults of native_replay steps, run inside a checkout.
FAULTS_CODE = """\
import resource, sys
sys.path[:0] = ["src", "perfbench"]
import workloads as wl
plan = wl.replay_plan(0, wl.load_reference())
wl.replay_pass(plan, 3 * sum(map(len, plan)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
wl.replay_pass(plan, {steps})
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / {steps})
"""


def children_minflt() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One perfbench run: its result line, the environment it printed and
    the minor page faults of its process tree."""
    before = children_minflt()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    minflt = children_minflt() - before
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env, minflt


def replay_faults_per_step(checkout: Path, steps: int) -> float:
    """Minor page faults per native_replay step in steady state, in one process."""
    done = subprocess.run([sys.executable, "-c", FAULTS_CODE.format(steps=steps)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return round(float(done.stdout.split()[-1]), 3)


def flat_row(result: dict, minflt: int) -> dict:
    row = {"correct": result["correct"], "failed": result["failed"]}
    row.update({k: round(m["value"], 4) for k, m in result["metrics"].items()})
    row["minflt"] = minflt
    return row


def layer_row(result: dict) -> dict:
    """A traced run's metrics, the four per-layer fields grouped under their
    layer; layers the workload never called are left out."""
    row = {"correct": result["correct"], "failed": result["failed"]}
    for name, metric in result["metrics"].items():
        layer, _, field = name.rpartition(".")
        value = round(metric["value"], 4)
        if field in LAYER_FIELDS:
            row.setdefault(layer, {})[field] = value
        else:
            row[name] = value
    return {k: v for k, v in row.items() if not (isinstance(v, dict) and v["calls"] == 0)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    wins = sum(sign * (c - b) > 0 for b, c in zip(parent, change))
    before, after = quartiles(parent), quartiles(change)
    ratio = after["median"] / before["median"] - 1.0
    return {"better": metric["better"], "bound": metric["bound"],
            "parent": before, "change": after,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_change": round(ratio, 4),
            "within_bound": bool(sign * ratio >= -metric["bound"]),
            "parent_iqr": round(before["q3"] - before["q1"], 4)}


def claim_block(workloads: dict, workload: str, name: str) -> dict:
    summary = workloads[workload]["summary"][name]
    wins, total = map(int, summary["change_wins"].split("/"))
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    wrong = sum(n for w in workloads.values() for n in w["wrong_runs"].values())
    return {"metric": f"{workload} {name}", "parent_median": parent,
            "change_median": change, "ratio": round(change / parent, 4),
            "change_wins": summary["change_wins"], "parent_iqr": summary["parent_iqr"],
            "wrong_runs": wrong,
            "met": bool(wrong == 0 and wins >= 0.9 * total
                        and abs(change - parent) > summary["parent_iqr"])}


def time_test(checkout: Path, node: str) -> float:
    """Call duration of one pytest node id, run in its own process."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--durations=0", "--durations-min=0", node],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{node} failed in {checkout}:\n{done.stdout[-2000:]}")
    name = re.escape(node.split("::")[-1])
    found = re.search(rf"([\d.]+)s call\s+\S*::{name}\b", done.stdout)
    if not found:
        sys.exit(f"no call duration for {node} in {checkout}")
    return float(found.group(1))


def ordered(i: int, sides: dict) -> list:
    names = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    return [(name, sides[name]) for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", nargs="+", help="default: every benchmark workload")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--trace-seed", type=int, help="add one traced run per side")
    parser.add_argument("--test", action="append", default=[], help="pytest node id to time")
    parser.add_argument("--fault-steps", type=int, default=0,
                        help="count minor faults over this many native_replay steps")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    # Quartiles need two values, and the claim is read after every run.
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    if args.claim:
        claimed = args.claim.partition(":")[::2]
        metrics = [m["name"] for m in spec["end_to_end"]]
        if claimed[0] not in names or claimed[1] not in metrics:
            parser.error(f"--claim must be WORKLOAD:METRIC with WORKLOAD one of {names} "
                         f"and METRIC one of {metrics}, got {args.claim!r}")
    env = None
    workloads = {}
    for workload in names:
        pairs = []
        for i in range(args.pairs):
            pair = {"seed": args.first_seed + i, "first": ordered(i, sides)[0][0]}
            for side, checkout in ordered(i, sides):
                result, env, minflt = run_bench(checkout, workload, pair["seed"],
                                                args.seconds, 0)
                pair[side] = flat_row(result, minflt)
                print(workload, pair["seed"], side, pair[side], file=sys.stderr, flush=True)
            pairs.append(pair)
        workloads[workload] = {"pairs": pairs, "summary": {
            m["name"]: summarize(pairs, m) for m in spec["end_to_end"]},
            "minflt_median": {side: statistics.median(p[side]["minflt"] for p in pairs)
                              for side in sides},
            "wrong_runs": {side: sum(not (p[side]["correct"] is True and p[side]["failed"] == 0)
                                     for p in pairs) for side in sides}}

    out = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "method": f"Alternating pairs: in pair i (seed {args.first_seed} + i) the parent ran "
                  "first when i is even and the change first when i is odd. Each side ran "
                  "from its own checkout, one run at a time. Medians and quartiles as "
                  "statistics.quantiles(values, n=4); ties count as a win for neither side.",
        "environment": env,
        "workloads": workloads,
    }
    if args.claim:
        out["claim"] = claim_block(workloads, *claimed)
    if args.fault_steps:
        out["replay_faults_per_step"] = {"steps": args.fault_steps, **{
            side: replay_faults_per_step(checkout, args.fault_steps)
            for side, checkout in sides.items()}}
    if args.trace_seed is not None:
        out[f"trace_seed{args.trace_seed}"] = {workload: {
            side: layer_row(run_bench(checkout, workload, args.trace_seed, args.seconds, 1)[0])
            for side, checkout in sides.items()} for workload in names}
    if args.test:
        out["test_call_s"] = {node: {side: time_test(checkout, node)
                                     for side, checkout in ordered(k, sides)}
                              for k, node in enumerate(args.test)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

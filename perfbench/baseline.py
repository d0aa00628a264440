"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py                       # 10 seeds, every workload
    python3 perfbench/baseline.py --workloads native_replay --seeds 5
    python3 perfbench/baseline.py --trace-seed 0 --out perfbench/baseline.json
    python3 perfbench/baseline.py --against perfbench/baseline.json

Run from the repository root, with nothing else loading the machine. Runs
are sequential, one workload process at a time. For each workload and
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``. ``--against`` compares the medians with a recorded
baseline and flags every metric that got worse by more than its bound.
``--out`` writes the summary, with the environment and sample counts behind
every percentile, as JSON. Exits 1 if any run was incorrect or out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    parser.add_argument("--against", type=Path, help="compare medians with this summary")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    against = json.loads(args.against.read_text()) if args.against else None
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        samples: dict[str, list[str]] = {name: [] for name in bounds}
        outcomes: dict[str, list] = {}
        for seed in seeds:
            result, detail = run_once(workload, seed, args.seconds, 0)
            summary["environment"] = detail["environment"]
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
                samples[name].append(detail["end_to_end"][name]["samples"])
            for name, metric in detail["outcomes"].items():
                outcomes.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"end_to_end": {},
                 "outcomes": {name: {"median": statistics.median(vals), "values": vals}
                              for name, vals in outcomes.items()}}
        for name, vals in values.items():
            stats = summarise(vals)
            stats["unit"] = bounds[name]["unit"]
            stats["samples"] = samples[name]
            entry["end_to_end"][name] = stats
            line = (f"  {workload:16s} {name:12s} median {stats['median']:.6g} "
                    f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                    f"(bound {bounds[name]['bound']})")
            if stats["spread"] > bounds[name]["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            if against is not None:
                old = against["workloads"][workload]["end_to_end"][name]["median"]
                change = (stats["median"] - old) / old
                worse = -change if bounds[name]["better"] == "higher" else change
                line += f"  vs {old:.6g}: {change:+.4f}"
                if worse > bounds[name]["bound"]:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line, flush=True)
        if args.trace_seed is not None:
            result, detail = run_once(workload, args.trace_seed, args.seconds, 1)
            ok &= result["correct"]
            entry["per_layer"] = {"seed": args.trace_seed, **detail["per_layer"]}
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

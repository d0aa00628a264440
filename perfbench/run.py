"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corridor_goal --seed 0 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same tree. The workload runs in this single process with BLAS/OpenMP
threads pinned to 1; run one workload at a time. Human-readable lines (every
metric with its unit and sample count, and the environment) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the workload first runs the work of
half the time untraced, then the same inputs traced, and the metrics are the
per-layer ones. A run's work is fixed by the workload, the seed and
``--seconds``: it lasts about ``--seconds`` at the seed commit's speed, and a
faster program does the same work in less time. The full result (and, when
traced, every span) is also written under ``.perfbench_out/``.

Exit codes: 0 after a completed run (even an incorrect one, which reports
``"correct": false``), 2 when the program or the reference is missing or an
argument is invalid.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform as host  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is sampled in fresh processes at evenly spread points of the run:
# before the measured work, between its chunks and after it, so that one slow
# stretch of the host does not set the median.
SETUP_SAMPLES = 12
# The replay's fixed steps are measured in this many chunks (closed loops:
# one chunk per case).
REPLAY_CHUNKS = 5
# The host's speed drifts in phases of a few seconds; a p99 over the whole
# run moves with the share of ticks that land in one slow phase. The p99 is
# therefore taken per window of this many consecutive operations (10 beyond
# it in each window), and the median over the run's windows is reported.
P99_WINDOW = 1000

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import repshield
from repshield.harness import resolve_world
worlds = [resolve_world(name) for name in {worlds!r}]
configs = [repshield.get_platform(name).config() for name in {platforms!r}]
print(repr(time.perf_counter() - t0))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": host.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def measure_setup(workload: str, wl, repeats: int) -> list[float]:
    """Fresh-process time to import repshield, load the worlds, build configs."""
    if workload == "dynamic_crossing":
        worlds = [f"dynamic_{sc}" for sc in wl.SCENARIOS]
    else:
        worlds = list(wl.CORRIDORS)
    platforms = list(wl.PLATFORM_NAMES) if workload == "native_replay" else ["locobot"]
    code = SETUP_CODE.format(src=str(SRC), worlds=worlds, platforms=platforms)
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def percentile_ms(latencies_ns: list[int], q: int) -> float:
    """q-th percentile (inclusive method) in ms."""
    if len(latencies_ns) < 2:
        return latencies_ns[0] / 1e6
    return statistics.quantiles(latencies_ns, n=100, method="inclusive")[q - 1] / 1e6


def windowed_p99_ms(latencies_ns: list[int]) -> tuple[float, int]:
    """Median over whole P99_WINDOW-op windows of each window's p99, and the window count."""
    windows = [latencies_ns[i:i + P99_WINDOW]
               for i in range(0, len(latencies_ns) - P99_WINDOW + 1, P99_WINDOW)]
    if not windows:
        return percentile_ms(latencies_ns, 99), 1
    return statistics.median(percentile_ms(w, 99) for w in windows), len(windows)


def plan_work(args, wl, reference: dict, seconds: float):
    """The run's fixed work: measured chunks, a rerun of all of it, and its inputs."""
    if args.workload == "native_replay":
        plan = wl.replay_plan(args.seed, reference)
        wl.replay_pass(plan, 3 * len(plan))  # first-call allocations
        steps = wl.replay_steps(plan, seconds)
        cuts = [round(steps * i / REPLAY_CHUNKS) for i in range(REPLAY_CHUNKS + 1)]
        chunks = [partial(wl.replay_pass, plan, b - a, a) for a, b in zip(cuts, cuts[1:])]
        rerun = partial(wl.replay_pass, plan, steps)
        inputs = [f"{f.platform}#{f.index}" for group in plan for f in group]
    else:
        inputs = wl.case_plan(args.workload, args.seed, seconds, reference)
        chunks = [partial(wl.closed_loop_pass, args.workload, [case], reference)
                  for case in inputs]
        rerun = partial(wl.closed_loop_pass, args.workload, inputs, reference)
    return chunks, rerun, inputs


def run_passes(args, wl, chunks, rerun, trace: bool):
    """Untraced pass over the chunks with set-up samples around them, then
    (if tracing) the same inputs traced."""
    repeats = math.ceil(SETUP_SAMPLES / (len(chunks) + 1))
    setup_samples = measure_setup(args.workload, wl, repeats)
    untraced = wl.Measurement()
    for chunk in chunks:
        untraced.add(chunk())
        setup_samples += measure_setup(args.workload, wl, repeats)
    if not trace:
        return setup_samples, untraced, None, None
    tracer = wl.Tracer()
    wl.install_tracing(tracer)
    tracer.start()
    try:
        traced = rerun()
    finally:
        tracer.stop()
        tracer.restore()
    return setup_samples, untraced, traced, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repshield" / "__init__.py").is_file():
        fail(f"no repshield package under {SRC}; run from a full source tree")
    sys.path.insert(0, str(SRC))
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    if not wl.REFERENCE_PATH.is_file():
        fail(f"missing reference outputs {wl.REFERENCE_PATH}")
    reference = wl.load_reference()
    env = environment()

    seconds = args.seconds / 2 if args.trace else args.seconds
    chunks, rerun, inputs = plan_work(args, wl, reference, seconds)
    setup_samples, untraced, traced, tracer = run_passes(args, wl, chunks, rerun,
                                                         bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = [untraced] + ([traced] if traced else [])
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    lat = untraced.latencies_ns
    p99, n_windows = windowed_p99_ms(lat)
    e2e = {
        "ticks_per_s": (untraced.ticks_per_s, "1/s", f"{untraced.ops} ops in "
                        f"{untraced.busy_ns / 1e9:.3f} s"),
        "tick_ms_p99": (p99, "ms", f"n={len(lat)}, median over {n_windows} windows of "
                                   f"{min(P99_WINDOW, len(lat))}"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "peak_rss_mb": (peak_rss_mb, "MB", "workload process"),
    }
    # Printed, not in the JSON metrics: fail_rate and the outcomes can be 0,
    # and the p50 flips between the host's fast and slow phases.
    info = {
        "fail_rate": (failed / attempted, "ratio", f"{failed}/{attempted} ops"),
        "tick_ms_p50": (percentile_ms(lat, 50), "ms", f"n={len(lat)}"),
    }
    if args.workload != "native_replay":
        info["collisions"] = (untraced.collisions, "count", f"{untraced.trials} trials")
        info["arrival_rate"] = (untraced.arrivals / max(untraced.trials, 1), "ratio",
                                f"{untraced.trials} trials")
    layer_units = {name: unit for name, unit, _ in wl.per_layer_metrics()}
    per_layer = wl.per_layer_values(tracer, untraced, traced) if tracer else {}

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs {len(inputs)}: {' '.join(inputs)}")
    for name, (value, unit, note) in {**e2e, **info}.items():
        print(f"metric {name} {value!r} {unit} ({note})")
    for name, value in per_layer.items():
        print(f"layer {name} {value!r} {layer_units[name]}")
    for err in (untraced.errors + (traced.errors if traced else []))[:20]:
        print(f"error {err}")

    chosen = ({k: layer_units[k] for k in per_layer} if args.trace
              else {k: v[1] for k, v in e2e.items()})
    values = per_layer if args.trace else {k: v[0] for k, v in e2e.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": unit} for k, unit in chosen.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "seed": args.seed, "seconds": args.seconds, "environment": env,
              "end_to_end": {k: {"value": v[0], "unit": v[1], "samples": v[2]}
                             for k, v in e2e.items()},
              "outcomes": {k: {"value": v[0], "unit": v[1], "samples": v[2]}
                           for k, v in info.items()},
              "setup_samples_s": setup_samples, "inputs": inputs,
              "per_layer": per_layer, "errors": untraced.errors[:100]}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.write(OUT_DIR / f"spans-{stem}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run once, from the repository root, at the commit whose behaviour is the
contract. It runs every closed-loop case in the pools untimed and steps every
replay pose, then writes ``perfbench/reference.json``: per closed-loop case
the digests of ``report.csv``/``trials.csv`` text and of each trial's
trajectory and decision logs with its collisions and arrival (and, apart, the
case's tick count, which sizes a run's work), and per replay
pose the digest of the bitwise ``(v, omega, theta_des, adjusted waypoints)``
and whether the step passed through. Re-recording after a behaviour change
hides that change from the benchmark; do it only for an intended change.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

import workloads as wl  # noqa: E402
from repshield import avoidance_step  # noqa: E402


def source_commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    ref = {"source_commit": source_commit(), "ticks": {}}
    for workload in ("corridor_goal", "dynamic_crossing"):
        ref[workload], ref["ticks"][workload] = {}, {}
        for case in wl.closed_loop_pool(workload):
            t0 = time.perf_counter()
            report = wl.run_case(workload, case)
            seconds = time.perf_counter() - t0
            ref[workload][case] = wl.case_outcome(report)
            ticks = wl.logged_ticks(report)
            ref["ticks"][workload][case] = ticks
            print(f"{workload} {case} {ticks} ticks {seconds:.2f}s", flush=True)
    worlds = wl.corridor_worlds()
    ref["native_replay"] = {}
    for p, name in enumerate(wl.PLATFORM_NAMES):
        entries = []
        for j in range(wl.REPLAY_POOL):
            frame, traj, cfg = wl.replay_case(p, j, worlds)
            decision = avoidance_step(frame, traj, cfg)
            entries.append({"digest": wl.decision_digest(decision),
                            "passthrough": decision.passthrough})
        ref["native_replay"][name] = entries
        print(f"native_replay {name}: {sum(e['passthrough'] for e in entries)}"
              f"/{len(entries)} passthrough", flush=True)
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They check that every metric named in BENCHMARK.json is reported with its
unit and a positive value (per-layer metrics of layers a workload never
calls are exactly 0), that a run's work depends on its seed and seconds
only, that tracing puts every wrapped function back and leaves the logs
byte-identical, that per-layer self times account for the traced wall time,
and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 1.0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(wl.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        wl.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    idle = set(wl.NOT_EXERCISED[workload]) if trace else set()
    assert all(v["value"] == 0 if k in idle else v["value"] > 0
               for k, v in result["metrics"].items()), result["metrics"]
    if not trace:
        for name in ("fail_rate", "tick_ms_p50", "collisions", "arrival_rate"):
            if workload != "native_replay" or name in ("fail_rate", "tick_ms_p50"):
                assert f"metric {name} " in done.stdout


def test_tracing_restores_functions_and_keeps_logs_identical():
    reference = wl.load_reference()
    case = "side_appear/s0"
    plain = wl.case_outcome(wl.run_case("dynamic_crossing", case))
    tracer = Tracer()
    wl.install_tracing(tracer)
    patched = list(tracer._patched)
    try:
        tracer.start()
        traced = wl.case_outcome(wl.run_case("dynamic_crossing", case))
        tracer.stop()
    finally:
        tracer.restore()
    assert plain == traced == reference["dynamic_crossing"][case]
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, attr
    # Self times of the layers, the harness included, cover the traced wall.
    summary = tracer.summary()
    self_ns = sum(entry["self_ns"] for entry in summary.values())
    assert set(summary) <= set(wl.LAYERS)
    assert all(entry["self_ns"] >= 0 for entry in summary.values())
    assert 0.99 * tracer.wall_ns <= self_ns <= tracer.wall_ns


def test_replay_self_times_account_for_wall():
    reference = wl.load_reference()
    plan = wl.replay_plan(3, reference)
    untraced = wl.replay_pass(plan, 6)
    tracer = Tracer()
    wl.install_tracing(tracer)
    try:
        tracer.start()
        traced = wl.replay_pass(plan, 30)
        tracer.stop()
    finally:
        tracer.restore()
    assert untraced.failed == traced.failed == 0
    values = wl.per_layer_values(tracer, untraced, traced)
    assert values["pipeline.avoidance_step.calls"] == 30
    assert 0.0 <= values["trace.unaccounted_share"] < 0.05
    assert all(values[name] == 0 for name in wl.NOT_EXERCISED["native_replay"])
    assert all(values[f"projection.back_project.us_p50.{p}"] > 0 for p in wl.PLATFORM_NAMES)


def test_reference_spec_seed_0_matches_criteria_08_and_09():
    # Criterion 08 with the shield: 0 collisions, 10/10 arrivals over the
    # corridors; criterion 09: 0/10 collision trials in each scenario.
    reference = wl.load_reference()
    corridor = [t for case, out in reference["corridor_goal"].items()
                if case.endswith("/s0") for t in out["trials"]]
    assert len(corridor) == 10
    assert sum(t[2] for t in corridor) == 0 and sum(t[3] for t in corridor) == 10
    for scenario in wl.SCENARIOS:
        trials = reference["dynamic_crossing"][f"{scenario}/s0"]["trials"]
        assert len(trials) == 10 and not any(t[2] for t in trials)


def test_seed_fixes_the_inputs():
    reference = wl.load_reference()
    assert wl.replay_indices(1) == wl.replay_indices(1) != wl.replay_indices(2)
    assert [[f.index for f in group] for group in wl.replay_plan(1, reference)] == \
        wl.replay_indices(1)
    for workload in ("corridor_goal", "dynamic_crossing"):
        plans = [wl.case_plan(workload, seed, 20, reference) for seed in range(10)]
        assert plans[1] == wl.case_plan(workload, 1, 20, reference) != plans[2]
        # Each plan lasts about 20 s at the planned rate: within half a case.
        ticks = reference["ticks"][workload]
        longest = max(ticks.values())
        for plan in plans:
            planned = sum(ticks[case] for case in plan)
            assert abs(planned - 20 * wl.PLANNED_RATE[workload]) <= longest / 2 or len(plan) == 1


def test_replay_frames_follow_the_pool():
    # Frames are drawn uniformly, so over many seeds the passthrough share of
    # the drawn frames matches the pool's own.
    reference = wl.load_reference()
    draws = [wl.replay_indices(seed) for seed in range(300)]
    for p, name in enumerate(wl.PLATFORM_NAMES):
        entries = reference["native_replay"][name]
        pool = sum(e["passthrough"] for e in entries) / len(entries)
        drawn = [entries[j]["passthrough"] for d in draws for j in d[p]]
        assert abs(sum(drawn) / len(drawn) - pool) < 0.02


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "native_replay", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

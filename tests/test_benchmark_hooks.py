"""The benchmark under ``perfbench/`` wraps functions by the attribute names
its callers look them up under. Its own self-test is not part of this
suite, so this check runs one short traced case and requires every traced
layer, and the per-tick clock, to still be reached. It also replays the
shortest goal and dynamic-obstacle cases the benchmark recorded, and a spread
of its native-resolution replay poses, and requires their reference output
digests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repshield import pipeline
from repshield.harness import ExperimentSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    return workloads


def test_perfbench_hooks_reach_every_layer(workloads):
    from tracing import Tracer
    tracer = Tracer()
    workloads.install_tracing(tracer)
    clock = workloads.TickClock()
    clock.install()
    try:
        report = workloads.experiments.run_dynamic(
            ExperimentSpec(task="dynamic_obstacle", trials=1, max_time_s=10.0),
            scenario="side_appear")
    finally:
        clock.restore()
        tracer.restore()
    summary = tracer.summary()
    calls = {layer: summary.get(layer, {"calls": 0})["calls"] for layer in workloads.LAYERS}
    assert all(n > 0 for n in calls.values()), calls
    ticks = workloads.logged_ticks(report)
    assert len(clock.stamps) == ticks > 0
    # One shielded tick steps, latches and logs exactly once.
    per_tick = ("safety.RotationLatch.apply", "pipeline.avoidance_step",
                "pipeline.decision_log_row")
    assert {layer: calls[layer] for layer in per_tick} == dict.fromkeys(per_tick, ticks)


@pytest.mark.parametrize("workload, case", [
    ("corridor_goal", "corridor_08/s2"),
    ("dynamic_crossing", "front_approach/s9"),
])
def test_recorded_case_matches_reference(workloads, workload, case):
    """The shortest recorded goal and dynamic-obstacle cases reproduce the
    benchmark's reference digests of every report and log byte."""
    expected = workloads.load_reference()[workload][case]
    assert workloads.case_outcome(workloads.run_case(workload, case)) == expected


@pytest.mark.parametrize("platform", ["locobot", "turtlebot4", "robomaster"])
def test_native_replay_matches_reference(workloads, platform):
    """Every 40th replay pool pose at the platform's native resolution gives
    the benchmark's reference command, heading and adjusted waypoints; the
    sample holds passthrough frames (robomaster 0 and 160, turtlebot4 200)."""
    p = workloads.PLATFORM_NAMES.index(platform)
    entries = workloads.load_reference()["native_replay"][platform]
    worlds = workloads.corridor_worlds()
    for j in range(0, workloads.REPLAY_POOL, 40):
        decision = pipeline.avoidance_step(*workloads.replay_case(p, j, worlds))
        assert workloads.decision_digest(decision) == entries[j]["digest"], j
        assert decision.passthrough == entries[j]["passthrough"], j

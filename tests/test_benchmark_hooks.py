"""The benchmark under ``perfbench/`` wraps functions by the attribute names
its callers look them up under. Its own self-test is not part of this
suite, so this check runs one short traced case and requires every traced
layer, and the per-tick clock, to still be reached. It also replays the
shortest goal and dynamic-obstacle cases the benchmark recorded and requires
their reference output digests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

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
    assert len(clock.stamps) == workloads.logged_ticks(report) > 0


@pytest.mark.parametrize("workload, case", [
    ("corridor_goal", "corridor_08/s2"),
    ("dynamic_crossing", "front_approach/s9"),
])
def test_recorded_case_matches_reference(workloads, workload, case):
    """The shortest recorded goal and dynamic-obstacle cases reproduce the
    benchmark's reference digests of every report and log byte."""
    expected = workloads.load_reference()[workload][case]
    assert workloads.case_outcome(workloads.run_case(workload, case)) == expected

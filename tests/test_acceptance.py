"""Acceptance checks, one per shipped guarantee, each printing a single
PASS/FAIL line with its headline number.

The closed-loop checks (07 to 09, 11) run the bundled benchmark worlds at
their documented configurations, so this file doubles as the reproduction
script for the packaged results. The printed lines surface in pytest's
PASSES summary, enabled through ``-rP`` in the project's addopts.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import oracle_cut, oracle_dominant, oracle_obstacle_map, random_cloud, windowed
from repshield import (AvoidanceConfig, CameraMount, DepthFrame, SafetyParams,
                       Trajectory, avoidance_step, construct_obstacle_map,
                       estimate_repulsive_direction, gate_command, intrinsics_for_fov)
from repshield.harness import (ExperimentSpec, report_csv, run_dynamic,
                               run_exploration, run_goal_conditioned)
from repshield.sim import WorldModel
from repshield.worldgen import DYNAMIC_SCENARIOS


def _line(number: int, ok: bool, detail: str) -> str:
    status = "PASS" if ok else "FAIL"
    text = f"criterion {number:02d} {status} {detail}"
    print(text, flush=True)
    return text


def _cfg(**overrides) -> AvoidanceConfig:
    base = dict(mount=CameraMount(fov_deg=90.0))
    base.update(overrides)
    return AvoidanceConfig(**base)


def _force_instance(rng, max_obstacles=64):
    k = int(rng.integers(1, 9))
    wps = rng.uniform(-2.0, 2.0, size=(k, 2))
    n = int(rng.integers(0, max_obstacles + 1))
    obs = rng.uniform(-3.0, 3.0, size=(n, 2))
    if n:
        # Keep waypoints off the singularity while still spanning the
        # near-field clamp region.
        d = np.linalg.norm(wps[:, None, :] - obs[None, :, :], axis=2)
        obs = obs[d.min(axis=0) > 1e-3]
    return wps, obs


def test_criterion_01_force_oracle_equivalence():
    rng = np.random.default_rng(1001)
    cfg = _cfg()
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        wps, obs = _force_instance(rng)
        res = estimate_repulsive_direction(Trajectory(wps), obs, cfg)
        ref_forces, ref_k = oracle_dominant(wps, obs)
        assert res.dominant_index == ref_k
        scale = max(float(np.abs(ref_forces).max()), 1.0)
        err = float(np.abs(res.forces - ref_forces).max()) / scale
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    assert _line(1, ok, f"1000 instances, worst rel err {worst:.2e}, "
                        f"{elapsed:.2f}s") and ok


def test_criterion_02_binning_oracle_equivalence():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    for case in range(500):
        cfg = windowed(_cfg(mount=CameraMount(x_offset_m=float(rng.uniform(-0.1, 0.1)),
                                              depth_offset_m=float(rng.uniform(-0.2, 0.2))),
                            tau_z=float(rng.uniform(0.5, 2.0)),
                            bin_count=int(rng.integers(1, 64))),
                       float(rng.uniform(0.3, 2.0)))
        n = int(rng.integers(2000, 10001)) if case % 10 == 0 else int(rng.integers(0, 400))
        pts = random_cloud(rng, n, cfg)
        omap = construct_obstacle_map(oracle_cut(pts, cfg), cfg)
        ref_pts, ref_bins = oracle_obstacle_map(pts, cfg)
        assert omap.bins.tolist() == ref_bins.tolist()
        np.testing.assert_array_equal(omap.points, ref_pts)
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    assert _line(2, ok, f"500 clouds, {elapsed:.2f}s") and ok


# One representative property test per Invariants & Properties bullet,
# re-invoked here so the invariant roll call is a single gate.
_INVARIANT_TESTS = {
    "test_projection": [
        "test_property_mask_survivors_reproduce_the_map",
        "test_property_oracle_equivalence",
        "test_property_tau_monotonicity_with_pinned_window",
        "test_property_emitted_ranges",
        "test_frontal_wall_depth_recovered",
        "test_cut_tables_are_monotone",
    ],
    "test_repulsion": [
        "test_property_force_strictly_decreases_with_distance",
        "test_property_superposition",
        "test_property_rotation_equivariance",
        "test_property_oracle_equivalence_small",
        "test_property_argmax_invariant_under_uniform_scaling",
        "test_property_theta_rot_clipped",
    ],
    "test_safety": [
        "test_gate_boundary_strictness_table",
        "test_property_branch_exhaustive_and_limits",
        "test_property_closed_loop_heading_converges",
    ],
    "test_pipeline": [
        "test_step_determinism_bitwise",
        "test_property_passthrough_exactness",
        "test_property_bounded_deviation",
        "test_property_single_obstacle_clearance_improves",
        "test_step_equals_manual_stage_composition",
    ],
    "test_simulator": [
        "test_property_raycast_translation_invariance",
        "test_property_displacement_bounded_by_speed",
        "test_property_collision_monotone_in_radius",
        "test_property_collision_oracle_equivalence",
        "test_closed_loop_empty_world_reaches_goal",
    ],
    "test_harness": [
        "test_exploration_rerun_is_byte_identical",
        "test_shield_and_baseline_arms_share_start_poses",
        "test_metrics_recomputable_from_trajectory_logs",
    ],
}


def test_criterion_03_invariant_suite():
    import importlib

    count = 0
    for module_name, names in _INVARIANT_TESTS.items():
        module = importlib.import_module(module_name)
        for name in names:
            getattr(module, name)()
            count += 1
    assert _line(3, True, f"{count} invariant property tests re-ran green")


def test_criterion_04_passthrough_exactness():
    rng = np.random.default_rng(1004)
    cfg = _cfg()
    empty = DepthFrame(np.zeros((8, 32)), intrinsics_for_fov(32, 8, 90.0), cfg.mount)
    for _ in range(1000):
        wps = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 12)), 2))
        traj = Trajectory(wps)
        decision = avoidance_step(empty, traj, cfg)
        assert decision.passthrough
        assert decision.adjusted_trajectory is traj
        np.testing.assert_array_equal(decision.adjusted_trajectory.waypoints, wps)
    assert _line(4, True, "1000 random trajectories unchanged under empty map")


def test_criterion_05_clipping_bound():
    rng = np.random.default_rng(1005)
    cfg = _cfg()
    assert cfg.theta_clip == math.pi / 4
    worst = 0.0
    for _ in range(1000):
        wps, obs = _force_instance(rng, max_obstacles=32)
        res = estimate_repulsive_direction(Trajectory(wps), obs, cfg)
        worst = max(worst, abs(res.theta_rot))
        assert abs(res.theta_rot) <= math.pi / 4
    assert _line(5, True, f"1000 randomized inputs, max |theta_rot| {worst:.6f}")


def test_criterion_06_gating_boundary():
    safety = SafetyParams()
    thres = math.pi / 6
    assert safety.theta_thres == thres
    sweep = list(np.linspace(-math.pi, math.pi, 721)[1:])
    sweep += [-thres, thres,
              math.nextafter(thres, 0.0), math.nextafter(-thres, 0.0),
              math.nextafter(thres, 4.0), math.nextafter(-thres, -4.0)]
    for theta in sweep:
        cmd = gate_command(float(theta), safety)
        if abs(theta) > thres:
            assert cmd.v == 0.0, theta
        else:
            assert cmd.v == safety.v_fwd, theta
        assert cmd.omega == pytest.approx(
            float(np.clip(safety.k_omega * theta, -safety.omega_max, safety.omega_max)))
    assert _line(6, True, f"{len(sweep)} headings, strict branch at +/-pi/6")


def test_criterion_07_exploration_improvement():
    start = time.monotonic()
    means = {}
    for shield in (True, False):
        spec = ExperimentSpec(task="exploration", world="exploration_boxes",
                              shield=shield, trials=20, seed=0)
        means[shield] = run_exploration(spec).distance_before_collision_mean
    elapsed = time.monotonic() - start
    ratio = means[True] / means[False]
    ok = ratio >= 2.0 and elapsed < 120.0
    assert _line(7, ok, f"distance-before-collision ratio {ratio:.2f} "
                        f"({means[True]:.2f}m vs {means[False]:.2f}m), "
                        f"{elapsed:.0f}s") and ok


def test_criterion_08_goal_conditioned_improvement():
    start = time.monotonic()
    totals = {True: [0, 0], False: [0, 0]}
    for shield in (True, False):
        for instance in range(1, 11):
            spec = ExperimentSpec(task="goal_conditioned",
                                  world=f"corridor_{instance:02d}", shield=shield,
                                  trials=1, seed=0, max_distance_m=60.0,
                                  max_time_s=900.0)
            rep = run_goal_conditioned(spec)
            totals[shield][0] += sum(r.collisions for r in rep.per_trial)
            totals[shield][1] += sum(r.arrived for r in rep.per_trial)
    elapsed = time.monotonic() - start
    ok = (totals[True][0] < totals[False][0]
          and totals[True][1] >= totals[False][1]
          and elapsed < 300.0)
    assert _line(8, ok, f"collisions {totals[True][0]} vs {totals[False][0]}, "
                        f"arrivals {totals[True][1]}/10 vs {totals[False][1]}/10, "
                        f"{elapsed:.0f}s") and ok


def test_criterion_09_dynamic_scenarios():
    start = time.monotonic()
    details = []
    ok = True
    for scenario in DYNAMIC_SCENARIOS:
        counts = {}
        for shield in (True, False):
            spec = ExperimentSpec(task="dynamic_obstacle", shield=shield,
                                  trials=10, seed=0, max_time_s=120.0)
            counts[shield] = run_dynamic(spec, scenario=scenario).collision_trials
        ok = ok and counts[True] == 0 and counts[False] >= 5
        details.append(f"{scenario} {counts[True]}/10 vs {counts[False]}/10")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    assert _line(9, ok, f"collision trials {'; '.join(details)}, {elapsed:.0f}s") and ok


def test_criterion_10_determinism():
    arena = WorldModel(bounds=(0.0, 0.0, 6.0, 4.0), bounds_solid=False,
                       start=(1.0, 2.0, 0.0), goals=np.array([[3.0, 2.0]]))
    specs = [
        ("exploration", run_exploration,
         ExperimentSpec(task="exploration", world=arena, trials=3, seed=4,
                        max_time_s=3.0)),
        ("goal", run_goal_conditioned,
         ExperimentSpec(task="goal_conditioned", world=arena, trials=2, seed=4,
                        max_time_s=20.0)),
        ("dynamic", run_dynamic,
         ExperimentSpec(task="dynamic_obstacle", world="dynamic_side_appear",
                        trials=2, seed=4, max_time_s=10.0)),
    ]
    for label, runner, spec in specs:
        a, b = runner(spec), runner(spec)
        assert report_csv(a) == report_csv(b), label
        for ra, rb in zip(a.per_trial, b.per_trial):
            assert ra.trajectory_log == rb.trajectory_log, label
            assert ra.decision_log == rb.decision_log, label
    assert _line(10, True, "3 tasks rerun byte-identical (reports and logs)")


def test_criterion_11_empty_corridor_sanity():
    spec = ExperimentSpec(task="goal_conditioned", world="corridor_empty",
                          trials=10, seed=0, shield=True)
    rep = run_goal_conditioned(spec)
    arrivals = sum(r.arrived for r in rep.per_trial)
    collisions = sum(r.collisions for r in rep.per_trial)
    ok = arrivals == 10 and collisions == 0
    assert _line(11, ok, f"{arrivals}/10 arrivals, {collisions} collisions, "
                         f"mean time {rep.completion_time_mean:.1f}s") and ok

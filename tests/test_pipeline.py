"""Tests for the composed per-frame avoidance step and its file interfaces."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repshield import (AvoidanceConfig, CameraMount, DepthFrame, InputFormatError,
                       PointCloud, SafetyParams, Trajectory, avoidance_step,
                       back_project, construct_obstacle_map, decision_log_row,
                       estimate_repulsive_direction, gate_command,
                       intrinsics_for_fov, load_config, rotate_trajectory,
                       save_config)
from repshield.config import CONFIG_KEYS
from repshield.pipeline import DECISION_LOG_HEADER
from repshield.platforms import get_platform
from repshield.safety import compute_desired_heading


def _cfg(**overrides) -> AvoidanceConfig:
    mount = overrides.pop("mount", CameraMount(height_m=0.3))
    return AvoidanceConfig(mount=mount, **overrides)


def _ahead_traj(k: int = 8, step: float = 0.25) -> Trajectory:
    xs = step * np.arange(1, k + 1)
    return Trajectory(np.column_stack((xs, np.zeros(k))))


def _ground_cloud(rng, cfg, n):
    """Random points below the camera axis, inside range and window."""
    from repshield.projection import bin_half_range
    half = bin_half_range(cfg)
    x = rng.uniform(-half, half, size=n)
    y = rng.uniform(max(-cfg.epsilon, -0.2), 0.4, size=n)
    z = rng.uniform(0.05, cfg.tau_z, size=n) + cfg.mount.depth_offset_m
    return PointCloud(np.column_stack((x, y, z)))


# ---------------------------------------------------------------------------
# Composition and passthrough
# ---------------------------------------------------------------------------

def test_step_equals_manual_stage_composition():
    rng = np.random.default_rng(41)
    cfg = _cfg(mount=CameraMount(height_m=0.3, x_offset_m=0.02,
                                 depth_offset_m=0.05, fov_deg=120.0))
    for _ in range(100):
        cloud = _ground_cloud(rng, cfg, int(rng.integers(1, 200)))
        traj = Trajectory(rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 9)), 2)))
        decision = avoidance_step(cloud, traj, cfg)

        omap = construct_obstacle_map(cloud, cfg)
        if omap.empty:
            assert decision.passthrough
            continue
        rep = estimate_repulsive_direction(traj, omap.points, cfg)
        adjusted = rotate_trajectory(traj, rep.theta_rot)
        theta_des = compute_desired_heading(adjusted, rep.dominant_index)
        cmd = gate_command(theta_des, cfg.safety)

        assert not decision.passthrough
        assert decision.repulsive.dominant_index == rep.dominant_index
        assert decision.repulsive.theta_rot == rep.theta_rot
        np.testing.assert_array_equal(decision.adjusted_trajectory.waypoints,
                                      adjusted.waypoints)
        assert decision.theta_des == theta_des
        assert decision.command == cmd


def test_passthrough_returns_the_same_trajectory_object():
    cfg = _cfg()
    traj = _ahead_traj()
    out_of_range = PointCloud(np.array([[0.0, 0.2, 4.0]]))
    decision = avoidance_step(out_of_range, traj, cfg)
    assert decision.passthrough
    assert decision.adjusted_trajectory is traj
    assert decision.repulsive is None
    assert decision.obstacle_map.empty


def test_property_passthrough_exactness():
    rng = np.random.default_rng(42)
    cfg = _cfg()
    empty = PointCloud(np.empty((0, 3)))
    for _ in range(150):
        wps = rng.uniform(-2, 2, size=(int(rng.integers(1, 9)), 2))
        traj = Trajectory(wps)
        decision = avoidance_step(empty, traj, cfg)
        assert decision.passthrough
        np.testing.assert_array_equal(decision.adjusted_trajectory.waypoints, wps)


def test_passthrough_still_gates_velocity():
    # An empty map with a first waypoint far off-axis: the trajectory is
    # untouched but the gate still suppresses forward motion.
    cfg = _cfg()
    traj = Trajectory(np.array([[0.0, 0.5], [0.0, 1.0]]))
    decision = avoidance_step(PointCloud(np.empty((0, 3))), traj, cfg)
    assert decision.passthrough
    assert decision.theta_des == pytest.approx(math.pi / 2)
    assert decision.command.v == 0.0
    assert decision.command.omega == cfg.safety.omega_max


def test_property_bounded_deviation():
    # The dominant waypoint never swings by more than theta_clip.
    rng = np.random.default_rng(43)
    cfg = _cfg()
    for _ in range(150):
        cloud = _ground_cloud(rng, cfg, int(rng.integers(1, 100)))
        traj = Trajectory(rng.uniform(-1.5, 1.5, size=(8, 2)))
        decision = avoidance_step(cloud, traj, cfg)
        if decision.passthrough:
            continue
        k = decision.repulsive.dominant_index
        a = traj.waypoints[k]
        b = decision.adjusted_trajectory.waypoints[k]
        if np.hypot(*a) < 1e-12:
            continue
        cosang = np.dot(a, b) / (np.hypot(*a) * np.hypot(*b))
        ang = math.acos(float(np.clip(cosang, -1.0, 1.0)))
        assert ang <= cfg.theta_clip + 1e-9


def test_property_single_obstacle_clearance_improves():
    # One obstacle within range, near the forward path: rotating away
    # never brings the trajectory's nearest waypoint closer to it.
    rng = np.random.default_rng(44)
    cfg = _cfg()
    traj = _ahead_traj()
    for _ in range(150):
        ox = float(rng.uniform(0.3, cfg.tau_z))
        oy = float(rng.uniform(-0.2, 0.2))
        cloud = PointCloud(np.array([[-oy, 0.2, ox - cfg.mount.x_offset_m]]))
        decision = avoidance_step(cloud, traj, cfg)
        assert not decision.passthrough
        obstacle = decision.obstacle_map.points[0]
        before = np.hypot(*(traj.waypoints - obstacle).T).min()
        after = np.hypot(*(decision.adjusted_trajectory.waypoints - obstacle).T).min()
        assert after >= before - 1e-12


def test_degenerate_trajectory_commands_stop():
    cfg = _cfg()
    zeros = Trajectory(np.zeros((4, 2)))
    # Passthrough branch: dominant waypoint 0 sits at the origin.
    d1 = avoidance_step(PointCloud(np.empty((0, 3))), zeros, cfg)
    assert d1.degenerate
    assert d1.command.v == 0.0 and d1.command.omega == 0.0
    # Obstacle branch: rotation keeps the zeros at the origin.
    d2 = avoidance_step(PointCloud(np.array([[0.0, 0.2, 0.5]])), zeros, cfg)
    assert d2.degenerate
    assert d2.command.v == 0.0 and d2.command.omega == 0.0


def test_step_determinism_bitwise():
    rng = np.random.default_rng(45)
    cfg = _cfg()
    cloud = _ground_cloud(rng, cfg, 80)
    traj = Trajectory(rng.uniform(-1, 1, size=(6, 2)))
    a = avoidance_step(cloud, traj, cfg)
    b = avoidance_step(cloud, traj, cfg)
    assert a.command == b.command
    assert a.theta_des == b.theta_des
    np.testing.assert_array_equal(a.adjusted_trajectory.waypoints,
                                  b.adjusted_trajectory.waypoints)
    np.testing.assert_array_equal(a.obstacle_map.points, b.obstacle_map.points)


def test_step_accepts_depth_frame():
    intr = intrinsics_for_fov(32, 8, 90.0)
    mount = CameraMount(height_m=0.3, fov_deg=90.0)
    cfg = _cfg(mount=mount)
    frame = DepthFrame(np.full((8, 32), 0.6), intr, mount)
    via_frame = avoidance_step(frame, _ahead_traj(), cfg)
    via_cloud = avoidance_step(back_project(frame), _ahead_traj(), cfg)
    assert via_frame.command == via_cloud.command
    np.testing.assert_array_equal(via_frame.obstacle_map.points,
                                  via_cloud.obstacle_map.points)


def test_step_rejects_unknown_observation():
    with pytest.raises(InputFormatError):
        avoidance_step(np.zeros((4, 3)), _ahead_traj(), _cfg())


# ---------------------------------------------------------------------------
# Decision log
# ---------------------------------------------------------------------------

def test_decision_log_row_fields():
    cfg = _cfg()
    decision = avoidance_step(PointCloud(np.array([[0.1, 0.2, 0.5]])),
                              _ahead_traj(), cfg)
    row = decision_log_row(0.3, decision, decision.command)
    parts = row.split(",")
    assert len(parts) == len(DECISION_LOG_HEADER.split(","))
    assert float(parts[0]) == 0.3
    assert float(parts[1]) == decision.command.v
    assert float(parts[2]) == decision.command.omega
    assert float(parts[4]) == decision.repulsive.theta_rot
    assert parts[6] == "0"
    assert int(parts[7]) == len(decision.obstacle_map)


def test_decision_log_row_with_override_command():
    cfg = _cfg()
    decision = avoidance_step(PointCloud(np.array([[0.1, 0.2, 0.5]])),
                              _ahead_traj(), cfg)
    from repshield import ControlCommand
    row = decision_log_row(0.0, decision, ControlCommand(0.0, 0.55))
    parts = row.split(",")
    assert float(parts[1]) == 0.0 and float(parts[2]) == 0.55


def test_decision_log_passthrough_zeros():
    cfg = _cfg()
    decision = avoidance_step(PointCloud(np.empty((0, 3))), _ahead_traj(), cfg)
    parts = decision_log_row(0.0, decision, decision.command).split(",")
    assert parts[3] == "0.0" and parts[4] == "0.0"
    assert parts[6] == "1" and parts[7] == "0"


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = _cfg(mount=CameraMount(height_m=0.34, x_offset_m=0.01,
                                 fov_deg=170.0, depth_offset_m=0.05),
               tau_z=1.0, bin_count=32, theta_clip=math.pi / 4,
               safety=SafetyParams(theta_thres=math.pi / 6, v_fwd=0.2,
                                   omega_max=0.8, k_omega=2.0),
               x_half_range_m=0.9)
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    # The base shares several values with cfg, so check every key was written.
    assert [line.split(" = ")[0] for line in path.read_text().splitlines()] == list(CONFIG_KEYS)
    assert load_config(path, base=get_platform("robomaster").config()) == cfg


def test_config_round_trip_with_numpy_scalars(tmp_path):
    # Values are written by declared type, not by repr, which for a numpy
    # scalar reads "np.int64(7)" and would not load back.
    cfg = _cfg(mount=CameraMount(height_m=np.float64(0.3), fov_deg=np.float32(90.0)),
               bin_count=np.int64(7), tau_z=np.float64(1.25), x_half_range_m=np.float64(0.7))
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert "bin_count = 7\n" in path.read_text()
    assert "height_m = 0.3\n" in path.read_text()
    assert load_config(path, base=_cfg()) == cfg


def test_config_partial_override(tmp_path):
    base = _cfg()
    path = tmp_path / "cfg.txt"
    path.write_text("tau_z = 1.7\nomega_max = 0.5\n")
    out = load_config(path, base=base)
    assert out.tau_z == 1.7
    assert out.safety.omega_max == 0.5
    assert out.bin_count == base.bin_count
    assert out.mount == base.mount


def test_config_errors(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("nonsense = 1\n")
    with pytest.raises(InputFormatError):
        load_config(path, base=_cfg())
    path.write_text("tau_z = 1.0\ntau_z = 2.0\n")
    with pytest.raises(InputFormatError):
        load_config(path, base=_cfg())
    path.write_text("tau_z 1.0\n")
    with pytest.raises(InputFormatError):
        load_config(path, base=_cfg())
    path.write_text("tau_z = banana\n")
    with pytest.raises(InputFormatError):
        load_config(path, base=_cfg())
    # Keys of deleted settings are unknown, not silently ignored.
    for key, value in (("v_max", "0.2"), ("direction_mode", "attract")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(InputFormatError,
                           match=f"{re.escape(str(path))}:1: unknown key '{key}'"):
            load_config(path, base=_cfg())


_FLOAT_CONFIG_KEYS = [k for k in CONFIG_KEYS if k != "bin_count"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_CONFIG_KEYS)
def test_config_rejects_non_finite_floats(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"# override\n{key} = {value}\n")
    with pytest.raises(InputFormatError, match=re.escape(f"{path}:2: {key} must be finite")):
        load_config(path, base=get_platform("locobot").config())


_RECORD_FLOAT_FIELDS = {
    "tau_z": lambda v: _cfg(tau_z=v),
    "epsilon": lambda v: _cfg(epsilon=v),
    "x_half_range_m": lambda v: _cfg(x_half_range_m=v),
    "height_m": lambda v: CameraMount(height_m=v),
    "x_offset_m": lambda v: CameraMount(height_m=0.3, x_offset_m=v),
    "depth_offset_m": lambda v: CameraMount(height_m=0.3, depth_offset_m=v),
    "v_fwd": lambda v: SafetyParams(v_fwd=v),
    "omega_max": lambda v: SafetyParams(omega_max=v),
    "k_omega": lambda v: SafetyParams(k_omega=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", list(_RECORD_FLOAT_FIELDS))
def test_config_records_reject_non_finite(field, value):
    """The records themselves, not only load_config, refuse nan and inf."""
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        _RECORD_FLOAT_FIELDS[field](value)


@pytest.mark.parametrize("fov", [180.0, 180.5])
def test_camera_mount_rejects_fov_of_180_or_more(fov):
    # A pinhole camera cannot span 180 degrees: at 180, fx is about 1e-15
    # and a wall 0.5 m ahead would map about 8e15 m to the side.
    with pytest.raises(ValueError, match=r"^fov_deg must be in \(0, 180\)"):
        CameraMount(height_m=0.3, fov_deg=fov)
    assert CameraMount(height_m=0.3, fov_deg=179.9).fov_deg == 179.9


@pytest.mark.parametrize("value", [2.5, 32.0, True, "32"])
def test_config_rejects_non_integer_bin_count(value):
    with pytest.raises(ValueError, match=r"^bin_count must be an integer"):
        _cfg(bin_count=value)
    # numpy integers are integers.
    assert _cfg(bin_count=np.int64(7)).bin_count == 7


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\n\ntau_z = 0.8  # trailing\n")
    assert load_config(path, base=_cfg()).tau_z == 0.8

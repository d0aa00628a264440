"""Tests for the composed per-frame avoidance step and its file interfaces."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import oracle_lifted
from repshield import (AvoidanceConfig, CameraIntrinsics, CameraMount, DepthFrame,
                       InputFormatError, SafetyParams, Shield,
                       Trajectory, avoidance_step,
                       back_project, construct_obstacle_map, decision_log_row,
                       estimate_repulsive_direction, gate_command,
                       intrinsics_for_fov, load_config, rotate_trajectory,
                       save_config)
from repshield.config import CONFIG_KEYS, require_points
from repshield.harness import resolve_world
from repshield.pipeline import DECISION_LOG_HEADER
from repshield.platforms import PLATFORMS, get_platform
from repshield.safety import compute_desired_heading
from repshield.sim import RobotState, raycast_depth


def _cfg(**overrides) -> AvoidanceConfig:
    mount = overrides.pop("mount", CameraMount())
    return AvoidanceConfig(mount=mount, **overrides)


def _ahead_traj(k: int = 8, step: float = 0.25) -> Trajectory:
    xs = step * np.arange(1, k + 1)
    return Trajectory(np.column_stack((xs, np.zeros(k))))


def _frame(depths, cfg) -> DepthFrame:
    """A depth frame whose intrinsics span the config's field of view."""
    height, width = np.shape(depths)
    return DepthFrame(depths, intrinsics_for_fov(width, height, cfg.mount.fov_deg),
                      cfg.mount)


def _ground_frame(rng, cfg, n):
    """n random pixels below the principal point, corrected depth in (0, tau_z];
    every other pixel is invalid."""
    depths = np.zeros((24, 40))
    below = depths[12:]
    below.flat[rng.choice(below.size, size=n, replace=False)] = (
        rng.uniform(0.05, cfg.tau_z, size=n) + cfg.mount.depth_offset_m)
    return _frame(depths, cfg)


# Row 1 sits at Y = d, below the default height cut, and column u at
# X = (u - 100) * d / 100.
_PIXEL_INTRINSICS = CameraIntrinsics(fx=100.0, fy=1.0, cx=100.0, cy=0.0, width=201, height=2)


def _single_pixel_frame(cfg, u, d) -> DepthFrame:
    """One return at column u and depth d; every other pixel is invalid."""
    depths = np.zeros((2, 201))
    depths[1, u] = d
    return DepthFrame(depths, _PIXEL_INTRINSICS, cfg.mount)


def _by_hand(points, traj, cfg):
    """The step's stages composed by hand on camera-frame obstacle candidates."""
    omap = construct_obstacle_map(points, cfg)
    if omap.empty:
        rep, adjusted, dominant = None, traj, 0
    else:
        rep = estimate_repulsive_direction(traj, omap.points, cfg)
        adjusted = rotate_trajectory(traj, rep.theta_rot)
        dominant = rep.dominant_index
    theta_des = compute_desired_heading(adjusted, dominant)
    return omap, rep, adjusted, theta_des, gate_command(theta_des, cfg.safety)


# ---------------------------------------------------------------------------
# Composition and passthrough
# ---------------------------------------------------------------------------

def test_step_equals_manual_stage_composition():
    rng = np.random.default_rng(41)
    cfg = _cfg(mount=CameraMount(x_offset_m=0.02,
                                 depth_offset_m=0.05, fov_deg=120.0))
    for _ in range(100):
        frame = _ground_frame(rng, cfg, int(rng.integers(1, 200)))
        traj = Trajectory(rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 9)), 2)))
        decision = avoidance_step(frame, traj, cfg)

        omap, rep, adjusted, theta_des, cmd = _by_hand(back_project(frame, cfg), traj, cfg)
        if omap.empty:
            assert decision.passthrough
            continue
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
    out_of_range = _frame(np.full((8, 32), cfg.tau_z + 3.0), cfg)
    decision = avoidance_step(out_of_range, traj, cfg)
    assert decision.passthrough
    assert decision.adjusted_trajectory is traj
    assert decision.repulsive is None
    assert decision.obstacle_map.empty


def test_property_passthrough_exactness():
    rng = np.random.default_rng(42)
    cfg = _cfg()
    empty = _frame(np.zeros((8, 32)), cfg)
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
    decision = avoidance_step(_frame(np.zeros((8, 32)), cfg), traj, cfg)
    assert decision.passthrough
    assert decision.theta_des == pytest.approx(math.pi / 2)
    assert decision.command.v == 0.0
    assert decision.command.omega == cfg.safety.omega_max


def test_property_bounded_deviation():
    # The dominant waypoint never swings by more than theta_clip.
    rng = np.random.default_rng(43)
    cfg = _cfg()
    for _ in range(150):
        frame = _ground_frame(rng, cfg, int(rng.integers(1, 100)))
        traj = Trajectory(rng.uniform(-1.5, 1.5, size=(8, 2)))
        decision = avoidance_step(frame, traj, cfg)
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
        # Depth in (0.3, tau_z), column within 0.2 m of the axis.
        d = float(rng.uniform(0.3, cfg.tau_z))
        reach = math.floor(0.2 * _PIXEL_INTRINSICS.fx / d)
        u = int(rng.integers(100 - reach, 100 + reach + 1))
        decision = avoidance_step(_single_pixel_frame(cfg, u, d), traj, cfg)
        assert not decision.passthrough
        obstacle = decision.obstacle_map.points[0]
        before = np.hypot(*(traj.waypoints - obstacle).T).min()
        after = np.hypot(*(decision.adjusted_trajectory.waypoints - obstacle).T).min()
        assert after >= before - 1e-12


def test_degenerate_trajectory_commands_stop():
    cfg = _cfg()
    zeros = Trajectory(np.zeros((4, 2)))
    # Passthrough branch: dominant waypoint 0 sits at the origin.
    d1 = avoidance_step(_frame(np.zeros((8, 32)), cfg), zeros, cfg)
    assert d1.degenerate
    assert d1.command.v == 0.0 and d1.command.omega == 0.0
    # Obstacle branch: rotation keeps the zeros at the origin.
    d2 = avoidance_step(_single_pixel_frame(cfg, 100, 0.5), zeros, cfg)
    assert d2.degenerate
    assert d2.command.v == 0.0 and d2.command.omega == 0.0


def test_step_determinism_bitwise():
    rng = np.random.default_rng(45)
    cfg = _cfg()
    frame = _ground_frame(rng, cfg, 80)
    traj = Trajectory(rng.uniform(-1, 1, size=(6, 2)))
    a = avoidance_step(frame, traj, cfg)
    b = avoidance_step(frame, traj, cfg)
    assert a.command == b.command
    assert a.theta_des == b.theta_des
    np.testing.assert_array_equal(a.adjusted_trajectory.waypoints,
                                  b.adjusted_trajectory.waypoints)
    np.testing.assert_array_equal(a.obstacle_map.points, b.obstacle_map.points)


def test_step_accepts_depth_frame():
    intr = intrinsics_for_fov(32, 8, 90.0)
    mount = CameraMount(fov_deg=90.0)
    cfg = _cfg(mount=mount)
    frame = DepthFrame(np.full((8, 32), 0.6), intr, mount)
    via_frame = avoidance_step(frame, _ahead_traj(), cfg)
    omap, _, _, _, cmd = _by_hand(back_project(frame, cfg), _ahead_traj(), cfg)
    assert not via_frame.passthrough
    assert via_frame.command == cmd
    np.testing.assert_array_equal(via_frame.obstacle_map.points, omap.points)


def _decision_bytes(command, theta_des, adjusted, omap) -> tuple:
    return (np.array([command.v, command.omega, theta_des]).tobytes(),
            adjusted.waypoints.tobytes(), omap.points.tobytes(), omap.bins.tobytes())


def test_native_frames_decide_as_the_full_cloud():
    # The step on a frame must decide exactly as the stages composed by hand
    # on every valid pixel lifted and cut with the oracle's arithmetic. Poses
    # looking down the corridor leave columns blank beyond FAR_LIMIT_M.
    world = resolve_world("corridor_03")
    poses = [(1.0, 0.0, 0.0), (2.0, 0.5, 0.2), (7.5, -0.6, -0.3), (12.0, 0.9, 1.4),
             (20.0, 0.0, math.pi), (16.0, -0.9, -2.0)]
    for plat in PLATFORMS.values():
        cfg = plat.config()
        blanked = shielded = 0
        for x, y, heading in poses:
            frame = raycast_depth(world, RobotState(x, y, heading), plat.intrinsics(),
                                  plat.mount())
            blanked += bool(np.any(frame.depths == 0))
            step = avoidance_step(frame, _ahead_traj(), cfg)
            omap, _, adjusted, theta_des, cmd = _by_hand(
                oracle_lifted(frame, cfg), _ahead_traj(), cfg)
            assert (_decision_bytes(step.command, step.theta_des,
                                    step.adjusted_trajectory, step.obstacle_map)
                    == _decision_bytes(cmd, theta_des, adjusted, omap))
            shielded += not step.passthrough
        assert blanked > 0 and shielded > 0


def test_step_rejects_unknown_observation():
    # The shield's one observation is a depth frame: points, which skipped
    # back_project's cuts, are refused like any other type.
    for observation in (np.zeros((4, 3)), np.array([[0.0, 0.2, 0.5]])):
        with pytest.raises(InputFormatError, match="unsupported observation type"):
            avoidance_step(observation, _ahead_traj(), _cfg())
        with pytest.raises(InputFormatError, match="unsupported observation type"):
            Shield(_cfg()).step(observation, _ahead_traj())


# ---------------------------------------------------------------------------
# Decision log
# ---------------------------------------------------------------------------

def test_decision_log_row_fields():
    cfg = _cfg()
    decision = avoidance_step(_single_pixel_frame(cfg, 110, 0.5), _ahead_traj(), cfg)
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
    decision = avoidance_step(_single_pixel_frame(cfg, 110, 0.5), _ahead_traj(), cfg)
    from repshield import ControlCommand
    row = decision_log_row(0.0, decision, ControlCommand(0.0, 0.55))
    parts = row.split(",")
    assert float(parts[1]) == 0.0 and float(parts[2]) == 0.55


def test_decision_log_passthrough_zeros():
    cfg = _cfg()
    decision = avoidance_step(_frame(np.zeros((8, 32)), cfg), _ahead_traj(), cfg)
    parts = decision_log_row(0.0, decision, decision.command).split(",")
    assert parts[3] == "0.0" and parts[4] == "0.0"
    assert parts[6] == "1" and parts[7] == "0"


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = _cfg(mount=CameraMount(x_offset_m=0.01,
                                 fov_deg=170.0, depth_offset_m=0.05),
               tau_z=1.0, bin_count=32, theta_clip=math.pi / 4,
               safety=SafetyParams(theta_thres=math.pi / 6, v_fwd=0.2,
                                   omega_max=0.8, k_omega=2.0))
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    # The base shares several values with cfg, so check every key was written.
    assert [line.split(" = ")[0] for line in path.read_text().splitlines()] == list(CONFIG_KEYS)
    assert load_config(path, base=get_platform("robomaster").config()) == cfg


def test_config_round_trip_with_numpy_scalars(tmp_path):
    # Values are written by declared type, not by repr, which for a numpy
    # scalar reads "np.int64(7)" and would not load back.
    cfg = _cfg(mount=CameraMount(fov_deg=np.float32(90.0)),
               bin_count=np.int64(7), tau_z=np.float64(1.25))
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert "bin_count = 7\n" in path.read_text()
    assert "tau_z = 1.25\n" in path.read_text()
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
    for key, value in (("v_max", "0.2"), ("direction_mode", "attract"), ("height_m", "0.3"),
                       ("x_half_range_m", "0.7")):
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
    "x_offset_m": lambda v: CameraMount(x_offset_m=v),
    "depth_offset_m": lambda v: CameraMount(depth_offset_m=v),
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


def test_require_points_returns_float64_arrays_as_is_and_shapes_empty_input():
    # back_project returns a column-major view, and the map's check keeps
    # that view; a copy would cost a pass over every point of a frame.
    view = np.arange(12.0).reshape(3, 4).T
    assert require_points("p", view, 3) is view
    plat = get_platform("locobot")
    frame = raycast_depth(resolve_world("corridor_03"), RobotState(1.0, 0.0, 0.0),
                          plat.intrinsics(), plat.mount())
    points = back_project(frame, plat.config())
    assert len(points) > 0
    assert require_points("point cloud", points, 3) is points
    assert require_points("p", [], 3).shape == (0, 3)
    assert require_points("p", np.empty((0, 5)), 2).shape == (0, 2)
    ints = require_points("p", [[1, 2]], 2, 1)
    assert ints.dtype == np.float64 and ints.tolist() == [[1.0, 2.0]]
    message = "p must have shape (N, 2) with N >= 1, got (0, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_points("p", [], 2, 1)


@pytest.mark.parametrize("fov", [180.0, 180.5])
def test_camera_mount_rejects_fov_of_180_or_more(fov):
    # A pinhole camera cannot span 180 degrees: at 180, fx is about 1e-15
    # and a wall 0.5 m ahead would map about 8e15 m to the side.
    with pytest.raises(ValueError, match=r"^fov_deg must be in \(0, 180\)"):
        CameraMount(fov_deg=fov)
    assert CameraMount(fov_deg=179.9).fov_deg == 179.9


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

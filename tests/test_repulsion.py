"""Tests for the repulsive-force model and trajectory rotation.

Single-obstacle hand values: an obstacle at distance d exerts magnitude
exactly d^-3 on the waypoint, pointing away from the obstacle.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import oracle_dominant, oracle_force
from repshield import (AvoidanceConfig, CameraMount, InputFormatError, Trajectory,
                       estimate_repulsive_direction, load_trajectory,
                       repulsive_force, rotate_trajectory, save_trajectory)
from repshield.repulsion import MIN_OBSTACLE_DISTANCE_M


def _cfg(**overrides) -> AvoidanceConfig:
    return AvoidanceConfig(mount=CameraMount(), **overrides)


def _rand_instance(rng, max_obstacles=64):
    k = int(rng.integers(1, 9))
    wps = rng.uniform(-2.0, 2.0, size=(k, 2))
    n = int(rng.integers(0, max_obstacles + 1))
    obs = rng.uniform(-2.0, 2.0, size=(n, 2))
    return wps, obs


# ---------------------------------------------------------------------------
# repulsive_force
# ---------------------------------------------------------------------------

def test_force_single_obstacle_hand_computed():
    # Obstacle at (1, 0), waypoint at origin, d = 1: the force is exactly
    # (-1, 0).
    f = repulsive_force(np.zeros(2), np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(f, [-1.0, 0.0])


def test_force_magnitude_is_inverse_cube():
    # Distances with exact reciprocal cubes: 1/8 at d=2, 8 at d=0.5.
    f2 = repulsive_force(np.zeros(2), np.array([[2.0, 0.0]]))
    assert f2[0] == -0.125 and f2[1] == 0.0
    fh = repulsive_force(np.zeros(2), np.array([[0.5, 0.0]]))
    assert fh[0] == -8.0


def test_force_symmetric_obstacles_cancel_exactly():
    obs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    f = repulsive_force(np.zeros(2), obs)
    np.testing.assert_array_equal(f, [0.0, 0.0])


def test_force_empty_obstacles_is_zero():
    np.testing.assert_array_equal(repulsive_force(np.zeros(2), np.empty((0, 2))),
                                  [0.0, 0.0])


def test_force_coincident_obstacle_adds_nothing():
    # At distance 0 there is no direction away: the pair adds exactly 0, so
    # the force is the one without that obstacle, bit for bit.
    obs = np.array([[1.0, 1.0], [0.25, -0.5], [2.0, 0.0]])
    wp = np.array([0.25, -0.5])
    f = repulsive_force(wp, obs)
    assert f.tobytes() == repulsive_force(wp, obs[[0, 2]]).tobytes()
    assert repulsive_force(wp, obs[[1]]).tobytes() == np.zeros(2).tobytes()


def test_force_near_singularity_is_clamped_finite():
    d = 1e-9
    f = repulsive_force(np.zeros(2), np.array([[d, 0.0]]))
    assert math.isfinite(f[0])
    assert f[0] == pytest.approx(-1.0 / MIN_OBSTACLE_DISTANCE_M**3)


def test_property_force_strictly_decreases_with_distance():
    rng = np.random.default_rng(21)
    for _ in range(150):
        d1 = float(rng.uniform(0.01, 3.0))
        d2 = d1 + float(rng.uniform(1e-6, 2.0))
        ang = float(rng.uniform(-math.pi, math.pi))
        u = np.array([math.cos(ang), math.sin(ang)])
        f1 = repulsive_force(np.zeros(2), (d1 * u)[None, :])
        f2 = repulsive_force(np.zeros(2), (d2 * u)[None, :])
        assert np.hypot(*f1) > np.hypot(*f2)


def test_property_superposition():
    # Exact in real arithmetic; in floats the two sides differ only by
    # the final roundings, so a tight relative bound is the honest check.
    rng = np.random.default_rng(22)
    for _ in range(150):
        wp = rng.uniform(-2, 2, size=2)
        a = rng.uniform(-2, 2, size=(int(rng.integers(1, 20)), 2))
        b = rng.uniform(-2, 2, size=(int(rng.integers(1, 20)), 2))
        fa = repulsive_force(wp, a)
        fb = repulsive_force(wp, b)
        fab = repulsive_force(wp, np.vstack((a, b)))
        scale = max(np.abs(fab).max(), 1.0)
        np.testing.assert_allclose(fab, fa + fb, rtol=0, atol=1e-13 * scale)


def test_property_rotation_equivariance():
    # Obstacles are placed at least 0.05 m from the waypoint so the
    # inverse-cube magnitudes stay small enough for the absolute bound.
    rng = np.random.default_rng(23)
    for _ in range(150):
        wp = rng.uniform(-2, 2, size=2)
        n = int(rng.integers(1, 30))
        r = rng.uniform(0.05, 3.0, size=n)
        ang = rng.uniform(-math.pi, math.pi, size=n)
        obs = wp + np.column_stack((r * np.cos(ang), r * np.sin(ang)))
        phi = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        f = repulsive_force(wp, obs)
        f_rot = repulsive_force(rot @ wp, obs @ rot.T)
        np.testing.assert_allclose(f_rot, rot @ f, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# estimate_repulsive_direction
# ---------------------------------------------------------------------------

def test_estimate_hand_computed_two_waypoints():
    # Obstacle at (1, 0): waypoint 1 at (0.5, 0) is nearer (d = 0.5,
    # mag = 8) than waypoint 0 at (0, 0.5) (d = sqrt(1.25)), so k* = 1.
    # Its repel force points along -x: theta_rep = pi, clipped to pi/4.
    traj = Trajectory(np.array([[0.0, 0.5], [0.5, 0.0]]))
    res = estimate_repulsive_direction(traj, np.array([[1.0, 0.0]]), _cfg())
    assert res.dominant_index == 1
    assert res.theta_rep == pytest.approx(math.pi)
    assert res.theta_rot == pytest.approx(math.pi / 4)


def test_estimate_empty_obstacles_zero_convention():
    traj = Trajectory(np.array([[0.25, 0.0], [0.5, 0.0]]))
    res = estimate_repulsive_direction(traj, np.empty((0, 2)), _cfg())
    assert res.dominant_index == 0
    assert res.theta_rep == 0.0
    assert res.theta_rot == 0.0
    np.testing.assert_array_equal(res.forces, np.zeros((2, 2)))


def test_estimate_duplicate_waypoints_tie_to_lowest_index():
    wp = np.array([0.4, 0.1])
    traj = Trajectory(np.vstack((wp, wp, wp)))
    res = estimate_repulsive_direction(traj, np.array([[1.0, 0.2]]), _cfg())
    assert res.dominant_index == 0


def test_estimate_waypoints_on_obstacles_give_a_finite_rotation():
    # Waypoint 2 sits on obstacle 3 and waypoint 5 on obstacle 1: each gets
    # no push from its own obstacle, and its neighbours get the 1/d^3 push.
    wps = np.column_stack((np.arange(1.0, 9.0), np.full(8, 0.5)))
    obs = np.array([[0.0, -1.0], wps[5], [0.0, -2.0], wps[2], [0.0, -3.0]])
    res = estimate_repulsive_direction(Trajectory(wps), obs, _cfg())
    assert np.isfinite(res.forces).all() and math.isfinite(res.theta_rot)
    # Waypoint 6, one step past waypoint 5, with nothing behind it.
    assert res.dominant_index == 6
    np.testing.assert_array_equal(res.forces[2], repulsive_force(wps[2], np.delete(obs, 3, 0)))


def test_property_oracle_equivalence_small():
    rng = np.random.default_rng(25)
    cfg = _cfg()
    for _ in range(150):
        wps, obs = _rand_instance(rng, max_obstacles=30)
        res = estimate_repulsive_direction(Trajectory(wps), obs, cfg)
        ref_forces, ref_k = oracle_dominant(wps, obs)
        assert res.dominant_index == ref_k
        scale = max(np.abs(ref_forces).max(), 1.0)
        np.testing.assert_allclose(res.forces, ref_forces, rtol=0, atol=1e-12 * scale)


def test_property_argmax_invariant_under_uniform_scaling():
    # Scaling every coordinate by a power of two scales all distances
    # exactly, so the dominant index cannot change.
    rng = np.random.default_rng(26)
    cfg = _cfg()
    factors = [0.25, 0.5, 2.0, 4.0, 8.0]
    for _ in range(120):
        wps, obs = _rand_instance(rng, max_obstacles=20)
        if obs.shape[0] == 0:
            continue
        c = factors[int(rng.integers(len(factors)))]
        base = estimate_repulsive_direction(Trajectory(wps), obs, cfg)
        scaled = estimate_repulsive_direction(Trajectory(wps * c), obs * c, cfg)
        assert base.dominant_index == scaled.dominant_index


def test_property_theta_rot_clipped(num_cases: int = 200):
    rng = np.random.default_rng(27)
    cfg = _cfg()
    for _ in range(num_cases):
        wps, obs = _rand_instance(rng)
        res = estimate_repulsive_direction(Trajectory(wps), obs, cfg)
        assert abs(res.theta_rot) <= math.pi / 4
        if abs(res.theta_rep) <= math.pi / 4:
            assert res.theta_rot == res.theta_rep


def test_clip_idempotence():
    rng = np.random.default_rng(28)
    c = math.pi / 4
    thetas = rng.uniform(-math.pi, math.pi, size=500)
    once = np.clip(thetas, -c, c)
    np.testing.assert_array_equal(np.clip(once, -c, c), once)


# ---------------------------------------------------------------------------
# rotate_trajectory
# ---------------------------------------------------------------------------

def test_rotate_hand_computed_quarter_turn():
    traj = Trajectory(np.array([[1.0, 0.0], [0.0, 2.0]]))
    out = rotate_trajectory(traj, math.pi / 2)
    np.testing.assert_allclose(out.waypoints, [[0.0, 1.0], [-2.0, 0.0]], atol=1e-15)


def test_rotate_zero_angle_is_exact_identity_values():
    traj = Trajectory(np.array([[0.3, -0.7], [1.1, 0.2]]))
    out = rotate_trajectory(traj, 0.0)
    np.testing.assert_array_equal(out.waypoints, traj.waypoints)


def test_rotate_preserves_norms():
    rng = np.random.default_rng(29)
    for _ in range(100):
        wps = rng.uniform(-3, 3, size=(int(rng.integers(1, 9)), 2))
        theta = float(rng.uniform(-math.pi, math.pi))
        out = rotate_trajectory(Trajectory(wps), theta)
        np.testing.assert_allclose(np.hypot(*out.waypoints.T), np.hypot(*wps.T),
                                   rtol=0, atol=1e-12)


def test_rotate_rejects_out_of_range_angle():
    with pytest.raises(ValueError):
        rotate_trajectory(Trajectory(np.array([[1.0, 0.0]])), 3.5)


@pytest.mark.parametrize("obstacles, message", [
    # Unchecked, a nan obstacle would make every force nan.
    ([[math.nan, 0.0]], "obstacles must be finite"),
    ([[0.5, 0.0], [math.inf, 1.0]], "obstacles must be finite"),
    ([[0.5, 0.0, 1.0]], "obstacles must have shape (N, 2) with N >= 0, got (1, 3)"),
], ids=["nan", "inf", "three_columns"])
def test_force_rejects_bad_obstacles(obstacles, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        repulsive_force(np.array([[1.0, 0.0]]), obstacles)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.empty((0, 2)))
    with pytest.raises(ValueError):
        Trajectory(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Trajectory files
# ---------------------------------------------------------------------------

def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    wps = rng.normal(size=(8, 2))
    path = tmp_path / "traj.tj1"
    save_trajectory(Trajectory(wps), path)
    loaded = load_trajectory(path)
    np.testing.assert_array_equal(loaded.waypoints, wps)


def test_trajectory_load_errors(tmp_path):
    p = tmp_path / "bad.tj1"
    p.write_text("TJ1 3\n1 2\n3 4\n")
    with pytest.raises(Exception):
        load_trajectory(p)
    p.write_text("QQ 1\n1 2\n")
    with pytest.raises(Exception):
        load_trajectory(p)


@pytest.mark.parametrize("text, message", [
    ("TJ1 2\n1 2 3\n", "expected 2 waypoints (4 values), found 3 values"),
    ("TJ1 3\n1 2\n3 4\n", "expected 3 waypoints (6 values), found 4 values"),
    ("TJ1 0\n", "waypoints must have shape (N, 2) with N >= 1, got (0, 2)"),
    ("TJ1 -1\n", "count of waypoints must be at least 0, got -1"),
], ids=["odd_value_count", "too_few_values", "zero_count", "negative_count"])
def test_trajectory_load_names_the_value_count(tmp_path, text, message):
    # An odd value count is no whole number of waypoints: the message counts
    # values, never "1.5 waypoints".
    p = tmp_path / "bad.tj1"
    p.write_text(text)
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_trajectory(p)

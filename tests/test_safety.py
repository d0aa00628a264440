"""Tests for desired-heading computation and the forward-motion gate.

The gate's branch rule: v = v_fwd iff |theta_des| <= theta_thres, with the
comparison strict on the rotate side, so theta_des exactly at the threshold
still moves forward. omega = clip(k_omega * theta_des, +/- omega_max) in
both branches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repshield import (ControlCommand, SafetyParams, Trajectory, compute_desired_heading,
                       gate_command)
from repshield.safety import RotationLatch
from repshield.sim import RobotState, step_kinematics


# ---------------------------------------------------------------------------
# compute_desired_heading
# ---------------------------------------------------------------------------

def test_heading_hand_computed():
    traj = Trajectory(np.array([[1.0, 1.0], [0.0, -2.0]]))
    assert compute_desired_heading(traj, 0) == pytest.approx(math.pi / 4)
    assert compute_desired_heading(traj, 1) == pytest.approx(-math.pi / 2)


def test_heading_range_is_half_open():
    # atan2 on (-1, -0.0) gives -pi; the convention maps it to +pi so the
    # result always lies in (-pi, pi].
    traj = Trajectory(np.array([[-1.0, -0.0]]))
    assert compute_desired_heading(traj, 0) == math.pi
    traj = Trajectory(np.array([[-1.0, 0.0]]))
    assert compute_desired_heading(traj, 0) == math.pi


def test_heading_origin_waypoint_is_none():
    traj = Trajectory(np.zeros((2, 2)))
    assert compute_desired_heading(traj, 0) is None


def test_heading_index_out_of_range():
    traj = Trajectory(np.array([[1.0, 0.0]]))
    with pytest.raises(IndexError):
        compute_desired_heading(traj, 1)
    with pytest.raises(IndexError):
        compute_desired_heading(traj, -1)


# ---------------------------------------------------------------------------
# gate_command
# ---------------------------------------------------------------------------

def test_gate_hand_computed_forward():
    p = SafetyParams()
    cmd = gate_command(0.1, p)
    assert cmd.v == 0.2
    assert cmd.omega == pytest.approx(0.2)   # 2.0 * 0.1, below the 0.8 cap


def test_gate_hand_computed_rotate_saturated():
    p = SafetyParams()
    cmd = gate_command(-2.0, p)
    assert cmd.v == 0.0
    assert cmd.omega == -0.8                  # clip(2 * -2.0) hits -omega_max


def test_gate_boundary_strictness_table():
    # Sweep (-pi, pi] including the exact threshold and its neighbors in
    # every float direction; the rotate branch requires strictly greater.
    p = SafetyParams()
    thres = p.theta_thres
    cases = list(np.linspace(-math.pi + 1e-9, math.pi, 721))
    cases += [thres, -thres,
              np.nextafter(thres, 4.0), np.nextafter(-thres, -4.0),
              np.nextafter(thres, 0.0), np.nextafter(-thres, 0.0), 0.0]
    for theta in cases:
        cmd = gate_command(float(theta), p)
        expect_forward = abs(theta) <= thres
        assert (cmd.v == p.v_fwd) == expect_forward, theta
        assert (cmd.v == 0.0) == (not expect_forward), theta


def test_property_branch_exhaustive_and_limits():
    rng = np.random.default_rng(31)
    p = SafetyParams()
    for _ in range(300):
        theta = float(rng.uniform(-math.pi, math.pi))
        cmd = gate_command(theta, p)
        assert cmd.v in (0.0, p.v_fwd)
        assert abs(cmd.omega) <= p.omega_max
        if theta != 0.0:
            assert math.copysign(1.0, cmd.omega) == math.copysign(1.0, theta)


def test_gate_omega_is_clip_bit_for_bit():
    # Signed zeros and the exact saturation boundaries included; omega is
    # always a Python float so the logs print plain reprs.
    p = SafetyParams()
    edge = p.omega_max / p.k_omega
    rng = np.random.default_rng(33)
    thetas = [0.0, -0.0, edge, -edge, math.pi, -math.pi, *rng.uniform(-math.pi, math.pi, 500)]
    for theta in thetas:
        omega = gate_command(theta, p).omega
        expected = float(np.clip(p.k_omega * theta, -p.omega_max, p.omega_max))
        assert type(omega) is float
        assert (omega, math.copysign(1.0, omega)) == (expected, math.copysign(1.0, expected))


def test_gate_zero_heading_goes_straight():
    cmd = gate_command(0.0, SafetyParams())
    assert cmd.v == 0.2 and cmd.omega == 0.0


def test_property_closed_loop_heading_converges():
    # Rotating (and then driving) toward a fixed world target under the
    # gate: the bearing magnitude never increases step to step.
    rng = np.random.default_rng(32)
    p = SafetyParams()
    for _ in range(120):
        theta0 = float(rng.uniform(-math.pi, math.pi))
        dist = float(rng.uniform(3.0, 6.0))
        target = np.array([dist * math.cos(theta0), dist * math.sin(theta0)])
        state = RobotState(0.0, 0.0, 0.0)
        prev = abs(theta0)
        for _ in range(60):
            dx = target[0] - state.x
            dy = target[1] - state.y
            bearing = math.atan2(dy, dx) - state.heading
            bearing = (bearing + math.pi) % (2 * math.pi) - math.pi
            assert abs(bearing) <= prev + 1e-9
            prev = abs(bearing)
            state = step_kinematics(state, gate_command(bearing, p), 0.1)


def test_safety_params_validation():
    with pytest.raises(ValueError):
        SafetyParams(theta_thres=0.0)
    with pytest.raises(ValueError):
        SafetyParams(v_fwd=0.0)
    with pytest.raises(ValueError):
        SafetyParams(omega_max=0.0)
    with pytest.raises(ValueError):
        SafetyParams(k_omega=-1.0)


def test_control_command_validation():
    with pytest.raises(ValueError):
        ControlCommand(-0.1, 0.0)
    with pytest.raises(ValueError):
        ControlCommand(float("nan"), 0.0)


# ---------------------------------------------------------------------------
# RotationLatch
# ---------------------------------------------------------------------------

def test_latch_keeps_first_turn_direction():
    latch = RotationLatch()
    assert latch.apply(ControlCommand(0.0, 0.5)) == ControlCommand(0.0, 0.5)
    # Sign flip while still rotating in place: overridden, magnitude kept.
    out = latch.apply(ControlCommand(0.0, -0.7))
    assert out == ControlCommand(0.0, 0.7)


def test_latch_resets_on_forward_motion():
    latch = RotationLatch()
    latch.apply(ControlCommand(0.0, -0.4))
    fwd = ControlCommand(0.2, 0.1)
    assert latch.apply(fwd) is fwd
    # After driving, a new rotation phase may pick the other direction.
    out = latch.apply(ControlCommand(0.0, 0.3))
    assert out == ControlCommand(0.0, 0.3)


def test_latch_ignores_pure_stop():
    latch = RotationLatch()
    stop = ControlCommand(0.0, 0.0)
    assert latch.apply(stop) is stop
    # A stop neither sets nor clears the direction.
    latch.apply(ControlCommand(0.0, 0.6))
    assert latch.apply(ControlCommand(0.0, 0.0)).omega == 0.0
    assert latch.apply(ControlCommand(0.0, -0.6)) == ControlCommand(0.0, 0.6)

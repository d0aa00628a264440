"""Velocity gating: move forward only when the desired heading is safe."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SafetyParams
from .repulsion import Trajectory


@dataclass(frozen=True)
class ControlCommand:
    """A (v, omega) pair; v is linear m/s, omega angular rad/s (CCW > 0)."""

    v: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.omega)):
            raise ValueError(f"command must be finite, got ({self.v}, {self.omega})")
        if self.v < 0:
            raise ValueError(f"reverse motion is never commanded, got v={self.v}")


def compute_desired_heading(adjusted: Trajectory, dominant_index: int) -> float | None:
    """Bearing of the dominant adjusted waypoint, in (-pi, pi], or None
    when that waypoint sits exactly at the origin and has no bearing."""
    if not (0 <= dominant_index < len(adjusted)):
        raise IndexError(f"dominant_index {dominant_index} out of range for K={len(adjusted)}")
    x, y = adjusted.waypoints[dominant_index]
    if x == 0.0 and y == 0.0:
        return None
    theta = math.atan2(y, x)
    if theta == -math.pi:
        theta = math.pi
    return theta


def turn_rate(heading: float, params: SafetyParams) -> float:
    """Angular velocity k_omega * heading, clipped to [-omega_max, omega_max]."""
    return float(min(max(params.k_omega * heading, -params.omega_max), params.omega_max))


def gate_command(theta_des: float, params: SafetyParams) -> ControlCommand:
    """Issue (v, omega) from the desired heading.

    Angular velocity is proportional to the heading error, clipped to
    omega_max. Forward speed is v_fwd only while |theta_des| stays within
    the safe cone; strictly beyond theta_thres the robot rotates in place.
    """
    omega = turn_rate(theta_des, params)
    if abs(theta_des) > params.theta_thres:
        return ControlCommand(0.0, omega)
    return ControlCommand(params.v_fwd, omega)


class RotationLatch:
    """Holds the in-place rotation direction until forward motion resumes.

    The desired heading is re-evaluated every frame, and near symmetric
    obstacles its saturated sign can alternate tick to tick, pinning the
    robot in a two-frame spin cycle. In-place rotation is meant to
    continue until the deviation falls back inside the safe cone, so
    while v = 0 the first commanded turn direction is kept; magnitude
    still tracks the fresh command. State resets whenever v > 0.
    """

    def __init__(self):
        self._direction = 0

    def apply(self, cmd: ControlCommand) -> ControlCommand:
        if cmd.v > 0.0:
            self._direction = 0
            return cmd
        if cmd.omega == 0.0:
            return cmd
        if self._direction == 0:
            self._direction = 1 if cmd.omega > 0 else -1
            return cmd
        return ControlCommand(0.0, self._direction * abs(cmd.omega))

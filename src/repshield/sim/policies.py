"""Stub navigation policies standing in for a learned waypoint model.

Both emit short robot-frame waypoint trajectories and are deliberately
blind to obstacles; any safety has to come from the avoidance shield
wrapped around them.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import require_int
from ..errors import InputFormatError
from ..repulsion import Trajectory
from .kinematics import RobotState


def world_to_local(robot: RobotState, point) -> np.ndarray:
    """Express a world point in the robot frame (x forward, y left)."""
    dx = point[0] - robot.x
    dy = point[1] - robot.y
    c, s = np.cos(robot.heading), np.sin(robot.heading)
    return np.array([c * dx + s * dy, -s * dx + c * dy])


class GoalSeeker:
    """Straight-line waypoints toward a world goal, saturating at it."""

    def __init__(self, waypoint_count: int = 8, step_len_m: float = 0.25):
        require_int("waypoint_count", waypoint_count, 1)
        if not 0 < step_len_m < math.inf:
            raise ValueError(f"step_len_m must be finite and positive, got {step_len_m}")
        self.waypoint_count = waypoint_count
        self.step_len_m = step_len_m

    def trajectory(self, robot: RobotState, goal=None) -> Trajectory:
        if goal is None:
            raise InputFormatError("goal_seeker requires a goal")
        local = world_to_local(robot, goal)
        dist = float(np.hypot(*local))
        if dist == 0.0:
            # Sitting on the goal: all waypoints collapse to the origin,
            # which downstream treats as the degenerate stop case.
            return Trajectory(np.zeros((self.waypoint_count, 2)))
        direction = local / dist
        steps = np.minimum(self.step_len_m * np.arange(1, self.waypoint_count + 1), dist)
        return Trajectory(steps[:, None] * direction[None, :])


def _wrap_angle(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


class Wanderer:
    """Waypoints bending toward a slowly drifting world-frame heading.

    The drift target performs a seeded random walk, one increment per call.
    Emitting waypoints toward a world-anchored target (clamped near the
    current heading) means the intended direction persists while the robot
    turns, the way a routed navigation stack behaves, instead of always
    resetting to dead ahead.
    """

    drift_step = 0.09  # std of the target's per-call random-walk step, rad
    max_bend = 0.7     # clamp on the target's offset from the heading, rad

    def __init__(self, waypoint_count: int = 8, step_len_m: float = 0.25, seed: int = 0):
        require_int("waypoint_count", waypoint_count, 1)
        if not 0 < step_len_m < math.inf:
            raise ValueError(f"step_len_m must be finite and positive, got {step_len_m}")
        self.waypoint_count = waypoint_count
        self.step_len_m = step_len_m
        self._rng = np.random.default_rng(seed)
        self._target: float | None = None

    def trajectory(self, robot: RobotState, goal=None) -> Trajectory:
        if self._target is None:
            self._target = robot.heading
        self._target = _wrap_angle(self._target + self._rng.normal(0.0, self.drift_step))
        bend = float(np.clip(_wrap_angle(self._target - robot.heading),
                             -self.max_bend, self.max_bend))
        k = np.arange(1, self.waypoint_count + 1)
        angles = bend * k / self.waypoint_count
        deltas = self.step_len_m * np.column_stack((np.cos(angles), np.sin(angles)))
        return Trajectory(np.cumsum(deltas, axis=0))


def policy_trajectory(policy, robot: RobotState, goal=None) -> Trajectory:
    """Uniform entry point for querying either stub policy."""
    return policy.trajectory(robot, goal)

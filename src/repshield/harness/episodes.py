"""Closed-loop episode execution with full-precision logging.

One episode couples a stub policy, optionally wrapped in the avoidance
shield, to the simulator at a fixed control rate. ``episode_ticks`` is the
simulation: it yields one ``Tick`` per control period. ``run_episode``
folds that stream into metrics and logs. Collisions never stop the robot
physically (there is no contact response); they are recorded, and
optionally end the episode when the caller asks for that.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..config import require_points
# avoidance_step is unused here, but a benchmark's tracer looks it up on this module.
from ..pipeline import (DECISION_LOG_HEADER, AvoidanceDecision, Shield,  # noqa: F401
                        avoidance_step, decision_log_row)
from ..platforms import PlatformSpec
from ..repulsion import Trajectory
from ..safety import ControlCommand, turn_rate
from ..sim import (RobotState, WorldModel, check_collision, policy_trajectory,
                   raycast_depth, step_kinematics)

TRAJECTORY_LOG_HEADER = "t,x,y,heading,v,omega,collided"

GOAL_RADIUS_M = 0.3
CONTROL_PERIOD_S = 0.1


@dataclass
class EpisodeResult:
    arrived: bool
    completion_time_s: float
    distance_m: float
    distance_before_collision_m: float
    collisions: int
    trajectory_log: str
    decision_log: str | None


def check_caps(max_time_s: float, max_distance_m: float) -> None:
    """Reject an episode time cap below one tick or not finite, and a
    distance cap that is not positive (inf means no distance cap)."""
    if not (math.isfinite(max_time_s) and max_time_s >= CONTROL_PERIOD_S):
        raise ValueError(f"max_time_s must be finite and at least {CONTROL_PERIOD_S}, "
                         f"got {max_time_s}")
    if not max_distance_m > 0:
        raise ValueError(f"max_distance_m must be positive, got {max_distance_m}")


class Tick(NamedTuple):
    """One control period: its start time, the shield's decision (None
    without the shield), the executed command, the pose after the step,
    and whether that pose is in contact."""

    t: float
    decision: AvoidanceDecision | None
    command: ControlCommand
    state: RobotState
    collided: bool


def follow_waypoint_command(traj: Trajectory, safety) -> ControlCommand:
    """Baseline control without the shield: chase the second waypoint.

    The first waypoint sits too close to give a stable bearing at speed, so
    the raw policy is tracked through waypoint 2 (or the only waypoint when
    K = 1), always driving forward at v_fwd.
    """
    wp = traj.waypoints[min(1, len(traj) - 1)]
    if wp[0] == 0.0 and wp[1] == 0.0:
        return ControlCommand(0.0, 0.0)
    theta = math.atan2(wp[1], wp[0])
    return ControlCommand(safety.v_fwd, turn_rate(theta, safety))


def episode_ticks(world: WorldModel, policy, *, platform: PlatformSpec, shield: Shield | None,
                  start: RobotState, goals: np.ndarray | None = None) -> Iterator[Tick]:
    """Simulate the closed loop, one tick per ``CONTROL_PERIOD_S``.

    ``shield`` (its latch serves this episode alone) steps on the platform
    camera's frames; None follows the waypoints and renders nothing. Goals are
    visited in order; one within ``GOAL_RADIUS_M`` is consumed at a tick's
    start, and consuming the last ends the stream. Without goals it never ends.
    """
    safety = platform.config().safety
    mount = platform.mount()
    intr = platform.intrinsics()
    goals = require_points("goals", () if goals is None else goals, 2)
    gi = 0
    state = start
    for k in itertools.count():
        t = k * CONTROL_PERIOD_S
        while gi < len(goals) and math.dist(goals[gi], (state.x, state.y)) <= GOAL_RADIUS_M:
            gi += 1
        if len(goals) and gi == len(goals):
            return
        # Looked up per tick on this module: a benchmark stamps ticks by patching it.
        traj = policy_trajectory(policy, state, goals[gi] if len(goals) else None)
        if shield is not None:
            decision, cmd = shield.step(raycast_depth(world, state, intr, mount, t=t), traj)
        else:
            decision, cmd = None, follow_waypoint_command(traj, safety)
        state = step_kinematics(state, cmd, CONTROL_PERIOD_S)
        # Stamped as the next tick's render, so one instant places each agent once.
        yield Tick(t, decision, cmd, state,
                   check_collision(world, state, t=(k + 1) * CONTROL_PERIOD_S))


def run_episode(world: WorldModel, policy, *, platform: PlatformSpec,
                shield: Shield | None, start: RobotState, goals: np.ndarray | None = None,
                max_distance_m: float = math.inf, max_time_s: float = 300.0,
                stop_on_collision: bool = False) -> EpisodeResult:
    """Fold the ticks of one episode into its metrics and logs.

    The episode ends at arrival (``episode_ticks`` runs out), after the
    tick that reaches the time cap (k ticks take k * 0.1 s) or the
    distance cap, or, with ``stop_on_collision``, after the first colliding
    tick; it runs at least one tick unless it starts at its last goal.
    Collisions do not block arrival. Distance is the commanded odometer
    (sum of v * dt), which for arc integration equals true path length.
    """
    check_caps(max_time_s, max_distance_m)
    traj_rows = [TRAJECTORY_LOG_HEADER]
    dec_rows = [DECISION_LOG_HEADER] if shield is not None else None
    distance = clear_distance = 0.0
    collisions, collided_prev = 0, False
    arrived, completion_time = False, math.nan
    ticks = episode_ticks(world, policy, platform=platform, shield=shield,
                          start=start, goals=goals)
    for k, tick in enumerate(ticks, start=1):
        # Formatted inside the tick, so a per-tick clock charges each row to its own tick.
        if dec_rows is not None:
            dec_rows.append(decision_log_row(tick.t, tick.decision, tick.command))
        state, cmd = tick.state, tick.command
        traj_rows.append(f"{tick.t + CONTROL_PERIOD_S!r},{state.x!r},{state.y!r},"
                         f"{state.heading!r},{cmd.v!r},{cmd.omega!r},{int(tick.collided)}")
        distance += cmd.v * CONTROL_PERIOD_S
        if not collisions:
            clear_distance = distance
        if tick.collided and not collided_prev:
            collisions += 1
        collided_prev = tick.collided
        if (k * CONTROL_PERIOD_S >= max_time_s or distance >= max_distance_m
                or (stop_on_collision and tick.collided)):
            break
    else:
        arrived, completion_time = True, (len(traj_rows) - 1) * CONTROL_PERIOD_S

    return EpisodeResult(
        arrived=arrived, completion_time_s=completion_time, distance_m=distance,
        distance_before_collision_m=clear_distance, collisions=collisions,
        trajectory_log="\n".join(traj_rows) + "\n",
        decision_log="\n".join(dec_rows) + "\n" if dec_rows is not None else None)

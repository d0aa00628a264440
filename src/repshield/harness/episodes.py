"""Closed-loop episode execution with full-precision logging.

One episode couples a stub policy, optionally wrapped in the avoidance
shield, to the simulator at a fixed control rate. Collisions never stop
the robot physically (there is no contact response); they are recorded,
and optionally end the episode when the caller asks for that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# avoidance_step is unused here, but a benchmark's tracer looks it up on this module.
from ..pipeline import DECISION_LOG_HEADER, Shield, avoidance_step, decision_log_row  # noqa: F401
from ..platforms import SIM_FRAME_ROWS, PlatformSpec
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
    final_state: RobotState
    trajectory_log: str
    decision_log: str | None


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


def run_episode(world: WorldModel, policy, *, platform: PlatformSpec,
                shield: bool, start: RobotState, goals: np.ndarray | None = None,
                max_distance_m: float = math.inf, max_time_s: float = 300.0,
                stop_on_collision: bool = False) -> EpisodeResult:
    """Run one episode at the platform's default config; return metrics and logs.

    Ticks are ``CONTROL_PERIOD_S`` apart. Goals are visited in order; a goal
    within ``GOAL_RADIUS_M`` is consumed at the start of a tick, and consuming
    the last one ends the episode as an arrival. Collisions do not block
    arrival. Distance is the commanded odometer (sum of v * dt), which for
    arc integration equals true path length.
    """
    cfg = platform.config()
    intr = platform.intrinsics(SIM_FRAME_ROWS)
    mount = cfg.mount
    dt = CONTROL_PERIOD_S

    goal_list = [np.asarray(g, dtype=np.float64) for g in (goals if goals is not None else [])]
    gi = 0

    state = start
    traj_rows = [TRAJECTORY_LOG_HEADER]
    dec_rows = [DECISION_LOG_HEADER] if shield else None
    avoider = Shield(cfg)

    distance = 0.0
    collisions = 0
    collided_prev = False
    first_collision_distance = None
    arrived = False
    completion_time = math.nan

    max_ticks = int(round(max_time_s / dt))
    for k in range(max_ticks):
        t = k * dt
        while gi < len(goal_list) and math.hypot(state.x - goal_list[gi][0],
                                                 state.y - goal_list[gi][1]) <= GOAL_RADIUS_M:
            gi += 1
        if goal_list and gi == len(goal_list):
            arrived = True
            completion_time = t
            break

        goal = goal_list[gi] if goal_list else None
        # Looked up per tick on this module: a benchmark stamps ticks by patching it.
        traj = policy_trajectory(policy, state, goal)
        if shield:
            frame = raycast_depth(world, state, intr, mount, t=t)
            decision, cmd = avoider.step(frame, traj)
            dec_rows.append(decision_log_row(t, decision, cmd))
        else:
            cmd = follow_waypoint_command(traj, cfg.safety)

        state = step_kinematics(state, cmd, dt)
        sim_time = t + dt
        distance += cmd.v * dt
        collided = check_collision(world, state, t=sim_time)
        if collided and not collided_prev:
            collisions += 1
            if first_collision_distance is None:
                first_collision_distance = distance
        collided_prev = collided
        traj_rows.append(f"{sim_time!r},{state.x!r},{state.y!r},{state.heading!r},"
                         f"{cmd.v!r},{cmd.omega!r},{int(collided)}")

        if stop_on_collision and collided:
            break
        if distance >= max_distance_m:
            break

    return EpisodeResult(
        arrived=arrived,
        completion_time_s=completion_time,
        distance_m=distance,
        distance_before_collision_m=(first_collision_distance
                                     if first_collision_distance is not None else distance),
        collisions=collisions,
        final_state=state,
        trajectory_log="\n".join(traj_rows) + "\n",
        decision_log="\n".join(dec_rows) + "\n" if dec_rows is not None else None,
    )

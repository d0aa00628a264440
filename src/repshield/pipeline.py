"""The per-frame avoidance step: observation in, velocity command out.

The step is pure. The one piece of state carried between frames, the
rotation latch, lives in ``Shield``, which wraps the step for one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AvoidanceConfig
from .errors import InputFormatError
from .projection import (DepthFrame, ObstacleMap, PointCloud, back_project,
                         construct_obstacle_map)
from .repulsion import (RepulsiveResult, Trajectory, estimate_repulsive_direction,
                        rotate_trajectory)
from .safety import ControlCommand, RotationLatch, compute_desired_heading, gate_command


@dataclass(frozen=True, eq=False)
class AvoidanceDecision:
    """Everything one avoidance step concluded, for control and logging.

    passthrough is True exactly when the obstacle map came out empty; the
    trajectory is then the input object, unmodified. repulsive is None in
    that case. degenerate marks the stop issued when the control waypoint
    sat at the origin.
    """

    adjusted_trajectory: Trajectory
    command: ControlCommand
    obstacle_map: ObstacleMap
    repulsive: RepulsiveResult | None
    theta_des: float
    degenerate: bool = False

    @property
    def passthrough(self) -> bool:
        return self.obstacle_map.empty


def avoidance_step(observation: DepthFrame | PointCloud, traj: Trajectory,
                   cfg: AvoidanceConfig) -> AvoidanceDecision:
    """Run one reactive avoidance cycle.

    A depth frame is back-projected first; a point cloud is used as-is.
    When no obstacle survives filtering the trajectory passes through
    untouched and heading control falls back to the first waypoint, which
    is where a zero-force argmax would land. Velocity gating applies in
    every case.

    Args:
        observation: depth frame or camera-frame point cloud.
        traj: candidate waypoints from the navigation policy, robot frame.
        cfg: pipeline configuration.

    Returns:
        AvoidanceDecision carrying the adjusted trajectory and the command.
    """
    if isinstance(observation, DepthFrame):
        cloud = back_project(observation)
    elif isinstance(observation, PointCloud):
        cloud = observation
    else:
        raise InputFormatError(f"unsupported observation type {type(observation).__name__}")

    omap = construct_obstacle_map(cloud, cfg)
    if omap.empty:
        adjusted = traj
        repulsive = None
        dominant = 0
    else:
        repulsive = estimate_repulsive_direction(traj, omap.points, cfg)
        adjusted = rotate_trajectory(traj, repulsive.theta_rot)
        dominant = repulsive.dominant_index

    theta_des = compute_desired_heading(adjusted, dominant)
    if theta_des is None:
        return AvoidanceDecision(adjusted, ControlCommand(0.0, 0.0), omap, repulsive,
                                 theta_des=0.0, degenerate=True)
    command = gate_command(theta_des, cfg.safety)
    return AvoidanceDecision(adjusted, command, omap, repulsive, theta_des)


class Shield:
    """The avoidance step for one stream of frames, plus its rotation latch;
    step returns the decision and the command to execute."""

    def __init__(self, cfg: AvoidanceConfig):
        self.cfg = cfg
        self._latch = RotationLatch()

    def step(self, observation: DepthFrame | PointCloud,
             traj: Trajectory) -> tuple[AvoidanceDecision, ControlCommand]:
        decision = avoidance_step(observation, traj, self.cfg)
        return decision, self._latch.apply(decision.command)


# ---------------------------------------------------------------------------
# Decision log
# ---------------------------------------------------------------------------

DECISION_LOG_HEADER = "t,v,omega,theta_rep,theta_rot,theta_des,passthrough,n_obstacles"


def decision_log_row(t: float, decision: AvoidanceDecision, cmd: ControlCommand) -> str:
    """One CSV row per avoidance step with the executed cmd; full-precision floats."""
    rep = decision.repulsive
    theta_rep = rep.theta_rep if rep is not None else 0.0
    theta_rot = rep.theta_rot if rep is not None else 0.0
    return (f"{t!r},{cmd.v!r},{cmd.omega!r},"
            f"{theta_rep!r},{theta_rot!r},{decision.theta_des!r},"
            f"{int(decision.passthrough)},{len(decision.obstacle_map)}")

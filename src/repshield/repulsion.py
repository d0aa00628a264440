"""Repulsive-force estimation and trajectory rotation.

Obstacles exert an inverse-cube force on every candidate waypoint. The
waypoint with the strongest response is the dominant one; the direction of
its force, clipped to a configurable bound, becomes a rigid rotation applied
to the whole trajectory about the robot center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import AvoidanceConfig, require_count, require_points
from .errors import InputFormatError, SingularityError
from .projection import _read_tagged

# Distances below this are clamped before cubing so a near-contact point
# produces a large but finite force.
MIN_OBSTACLE_DISTANCE_M = 1e-6


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered waypoints in the robot frame, shape (K, 2), K >= 1."""

    waypoints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "waypoints", require_points("waypoints", self.waypoints, 2, 1))

    def __len__(self) -> int:
        return self.waypoints.shape[0]


@dataclass(frozen=True, eq=False)
class RepulsiveResult:
    """Per-waypoint forces plus the rotation they imply.

    theta_rep is the force direction at the dominant waypoint; theta_rot is
    that angle clipped to the configured bound. When every force is exactly
    zero both angles are 0 by convention and dominant_index is 0.
    """

    forces: np.ndarray
    dominant_index: int
    theta_rep: float
    theta_rot: float


def repulsive_force(waypoint: np.ndarray, obstacles: np.ndarray) -> np.ndarray:
    """Summed obstacle force on one waypoint, shape (2,), or on K, shape (K, 2).

    ``obstacles`` is a (B, 2) array of points. Each obstacle at distance d
    pushes the waypoint directly away from it with magnitude 1/d^3.
    Components are accumulated with math.fsum so the result does not depend
    on summation blocking.

    Raises:
        SingularityError: a waypoint coincides exactly with an obstacle;
            the first such waypoint reports its lowest obstacle index.
    """
    pts = require_points("obstacles", obstacles, 2)
    p = np.asarray(waypoint, dtype=np.float64)
    diffs = p.reshape(-1, 1, 2) - pts
    dists = np.hypot(diffs[..., 0], diffs[..., 1])
    zero = np.nonzero(dists == 0.0)[1]
    if zero.size:
        raise SingularityError(int(zero[0]))
    units = diffs / dists[..., None]
    scale = 1.0 / np.maximum(dists, MIN_OBSTACLE_DISTANCE_M)**3
    contrib = scale[..., None] * units
    return np.array([[math.fsum(xs), math.fsum(ys)]
                     for xs, ys in contrib.transpose(0, 2, 1).tolist()]).reshape(p.shape)


def estimate_repulsive_direction(traj: Trajectory, obstacles: np.ndarray,
                                 cfg: AvoidanceConfig) -> RepulsiveResult:
    """Find the dominant waypoint and the clipped rotation it calls for.

    ``obstacles`` is a (B, 2) points array, such as ``ObstacleMap.points``.
    The dominant waypoint maximizes force magnitude; ties resolve to the
    smallest index, which also covers the all-zero case of an empty
    obstacle set.
    """
    forces = repulsive_force(traj.waypoints, obstacles)
    magnitudes = np.hypot(forces[:, 0], forces[:, 1])
    k = int(np.argmax(magnitudes))
    fx, fy = forces[k]
    if fx == 0.0 and fy == 0.0:
        theta_rep = 0.0
    else:
        theta_rep = math.atan2(fy, fx)
    theta_rot = float(min(max(theta_rep, -cfg.theta_clip), cfg.theta_clip))
    return RepulsiveResult(forces=forces, dominant_index=k,
                           theta_rep=theta_rep, theta_rot=theta_rot)


def rotate_trajectory(traj: Trajectory, theta_rot: float) -> Trajectory:
    """Rotate every waypoint about the origin by theta_rot (CCW positive)."""
    if not (-math.pi <= theta_rot <= math.pi):
        raise ValueError(f"|theta_rot| must not exceed pi, got {theta_rot}")
    c, s = math.cos(theta_rot), math.sin(theta_rot)
    x, y = traj.waypoints[:, 0], traj.waypoints[:, 1]
    return Trajectory(np.column_stack((c * x - s * y, s * x + c * y)))


def save_trajectory(traj: Trajectory, path: str | Path) -> None:
    """Write a TJ1 file: count header, then one ``x y`` line per waypoint."""
    lines = [f"TJ1 {len(traj)}"]
    for x, y in traj.waypoints:
        lines.append(f"{float(x)!r} {float(y)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory(path: str | Path) -> Trajectory:
    (count,), values = _read_tagged(path, "TJ1", (int,))
    try:
        require_count("waypoints", count, 2, values.size)
        return Trajectory(values.reshape(count, 2))
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

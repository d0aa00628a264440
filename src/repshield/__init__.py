"""Reactive collision avoidance for waypoint-based navigation policies.

The per-frame pipeline turns a depth observation and a candidate waypoint
trajectory into a safe velocity command in three stages: top-down obstacle
extraction, repulsive trajectory rotation, and forward-motion gating. A
deterministic planar simulator and a benchmark harness reproduce the
supported evaluation protocols at desk scale.
"""

from .config import AvoidanceConfig, CameraMount, SafetyParams, load_config, save_config
from .errors import InputFormatError
from .pipeline import AvoidanceDecision, Shield, avoidance_step, decision_log_row
from .platforms import PLATFORMS, PlatformSpec, get_platform
from .projection import (CameraIntrinsics, DepthFrame, ObstacleMap, back_project,
                         construct_obstacle_map, intrinsics_for_fov, load_depth_frame,
                         save_depth_frame)
from .repulsion import (RepulsiveResult, Trajectory, estimate_repulsive_direction,
                        load_trajectory, repulsive_force, rotate_trajectory,
                        save_trajectory)
from .safety import ControlCommand, compute_desired_heading, gate_command

__version__ = "0.1.0"

__all__ = [
    "AvoidanceConfig", "SafetyParams",
    "InputFormatError",
    "AvoidanceDecision", "Shield", "avoidance_step", "decision_log_row",
    "load_config", "save_config",
    "PLATFORMS", "PlatformSpec", "get_platform",
    "CameraIntrinsics", "CameraMount", "DepthFrame", "ObstacleMap",
    "back_project", "construct_obstacle_map", "intrinsics_for_fov",
    "load_depth_frame", "save_depth_frame",
    "RepulsiveResult", "Trajectory", "estimate_repulsive_direction",
    "repulsive_force", "rotate_trajectory", "load_trajectory", "save_trajectory",
    "ControlCommand", "compute_desired_heading", "gate_command",
    "__version__",
]

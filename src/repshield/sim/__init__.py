"""Deterministic planar simulator: world geometry, depth raycasting,
differential-drive kinematics, and the stub navigation policies."""

from .kinematics import RobotState, step_kinematics
from .policies import GoalSeeker, Wanderer, policy_trajectory
from .raycast import FAR_LIMIT_M, column_depths, raycast_depth
from .world import (AgentTrack, Circle, Polygon, WorldModel, check_collision,
                    load_world, perturb_agent, save_world)

__all__ = [
    "AgentTrack", "Circle", "Polygon", "WorldModel", "check_collision",
    "load_world", "save_world", "perturb_agent",
    "RobotState", "step_kinematics",
    "FAR_LIMIT_M", "column_depths", "raycast_depth",
    "GoalSeeker", "Wanderer", "policy_trajectory",
]

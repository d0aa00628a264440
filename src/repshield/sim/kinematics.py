"""Differential-drive kinematics with exact arc integration."""

from __future__ import annotations

from dataclasses import dataclass

import math

from ..config import require_positive
from ..safety import ControlCommand


@dataclass(frozen=True)
class RobotState:
    """Planar pose plus the disc footprint used for collision tests."""

    x: float
    y: float
    heading: float
    footprint_radius: float = 0.1705
    platform: str = "locobot"

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError(f"pose must be finite, got ({self.x}, {self.y}, {self.heading})")
        require_positive("footprint radius", self.footprint_radius)


def step_kinematics(robot: RobotState, cmd: ControlCommand, dt: float) -> RobotState:
    """Advance one control period holding (v, omega) constant.

    The update is the closed-form unicycle solution, not an Euler step:
    with omega = 0 the robot translates along its heading; otherwise it
    follows a circular arc of radius v / omega. Pure rotation (v = 0)
    leaves the position bit-identical.
    """
    require_positive("dt", dt)
    v, w = cmd.v, cmd.omega
    h = robot.heading
    if w == 0.0:
        return RobotState(robot.x + v * dt * math.cos(h),
                          robot.y + v * dt * math.sin(h),
                          h, robot.footprint_radius, robot.platform)
    h2 = h + w * dt
    r = v / w
    return RobotState(robot.x + r * (math.sin(h2) - math.sin(h)),
                      robot.y + r * (math.cos(h) - math.cos(h2)),
                      h2, robot.footprint_radius, robot.platform)

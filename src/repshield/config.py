"""Configuration records for the avoidance pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .projection import CameraMount

DIRECTION_MODES = ("repel", "attract")


@dataclass(frozen=True)
class SafetyParams:
    """Velocity limits and the forward/rotate gating threshold.

    theta_thres is the half-angle of the safe forward cone: when the desired
    heading magnitude exceeds it, forward motion is suppressed and the robot
    rotates in place. k_omega is the proportional gain mapping heading error
    to angular velocity.
    """

    theta_thres: float = math.pi / 6
    v_fwd: float = 0.2
    omega_max: float = 0.8
    k_omega: float = 2.0

    def __post_init__(self):
        if not (0 < self.theta_thres < math.pi):
            raise ValueError(f"theta_thres must be in (0, pi), got {self.theta_thres}")
        if not 0 < self.v_fwd < math.inf:
            raise ValueError(f"v_fwd must be finite and positive, got {self.v_fwd}")
        if not 0 < self.omega_max < math.inf:
            raise ValueError(f"omega_max must be finite and positive, got {self.omega_max}")
        if not 0 < self.k_omega < math.inf:
            raise ValueError(f"k_omega must be finite and positive, got {self.k_omega}")


@dataclass(frozen=True)
class AvoidanceConfig:
    """Everything the per-frame avoidance step needs besides its inputs.

    direction_mode selects the sign convention of the obstacle force:
    ``repel`` pushes waypoints away from obstacles; ``attract`` keeps the
    raw negative-sign convention of classical potential fields, in which
    the summed vector points from the waypoint toward the obstacles.

    x_half_range_m optionally pins the lateral binning window; when None it
    is derived as tan(fov/2) * tau_z.
    """

    mount: CameraMount
    tau_z: float = 1.0
    epsilon: float = -0.05
    bin_count: int = 32
    theta_clip: float = math.pi / 4
    direction_mode: str = "repel"
    safety: SafetyParams = field(default_factory=SafetyParams)
    x_half_range_m: float | None = None

    def __post_init__(self):
        if not 0 < self.tau_z < math.inf:
            raise ValueError(f"tau_z must be finite and positive, got {self.tau_z}")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.bin_count < 1:
            raise ValueError(f"bin_count must be at least 1, got {self.bin_count}")
        if not (0 < self.theta_clip <= math.pi):
            raise ValueError(f"theta_clip must be in (0, pi], got {self.theta_clip}")
        if self.direction_mode not in DIRECTION_MODES:
            raise ValueError(
                f"direction_mode must be one of {DIRECTION_MODES}, got {self.direction_mode!r}"
            )
        if self.x_half_range_m is not None and not 0 < self.x_half_range_m < math.inf:
            raise ValueError(
                f"x_half_range_m must be finite and positive, got {self.x_half_range_m}")

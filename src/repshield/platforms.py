"""Per-robot defaults: sensing range, camera geometry, body size, speed limits.

All three supported bases share the same velocity envelope; they differ in
depth sensor placement, calibration bias, field of view and footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import AvoidanceConfig, CameraMount
from .projection import CameraIntrinsics, intrinsics_for_fov


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one robot base and its depth camera."""

    name: str
    tau_z_m: float
    image_width: int
    image_height: int
    length_m: float
    width_m: float
    camera: CameraMount

    @property
    def footprint_radius_m(self) -> float:
        """Disc radius covering the rectangular footprint's larger side."""
        return max(self.length_m, self.width_m) / 2.0

    @property
    def default_bin_count(self) -> int:
        return math.ceil(self.image_width / 10)

    def mount(self) -> CameraMount:
        return self.camera

    def intrinsics(self) -> CameraIntrinsics:
        return intrinsics_for_fov(self.image_width, self.image_height, self.camera.fov_deg)

    def config(self) -> AvoidanceConfig:
        return AvoidanceConfig(mount=self.camera, tau_z=self.tau_z_m,
                               bin_count=self.default_bin_count)


PLATFORMS = {
    "locobot": PlatformSpec(
        name="locobot", tau_z_m=1.0, image_width=320, image_height=240,
        length_m=0.341, width_m=0.339,
        camera=CameraMount(x_offset_m=0.010, fov_deg=170.0, depth_offset_m=0.05),
    ),
    "turtlebot4": PlatformSpec(
        name="turtlebot4", tau_z_m=1.2, image_width=320, image_height=200,
        length_m=0.341, width_m=0.339,
        camera=CameraMount(x_offset_m=-0.060, fov_deg=89.5, depth_offset_m=0.2),
    ),
    "robomaster": PlatformSpec(
        name="robomaster", tau_z_m=1.0, image_width=640, image_height=360,
        length_m=0.320, width_m=0.240,
        camera=CameraMount(x_offset_m=0.070, fov_deg=120.0, depth_offset_m=-0.1),
    ),
}


def get_platform(name: str) -> PlatformSpec:
    try:
        return PLATFORMS[name]
    except KeyError:
        raise ValueError(f"unknown platform {name!r}; choose from {sorted(PLATFORMS)}") from None

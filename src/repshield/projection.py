"""Top-down obstacle extraction from metric depth images.

Conventions used throughout:

* Camera frame: X right, Y down, Z forward along the optical axis (meters).
* Robot frame: x forward, y left, origin at the robot center (meters).
* A depth value of exactly 0 marks an invalid pixel and produces no point.

The obstacle map summarizes the scene as at most one point per lateral bin
(uniform in camera X), keeping the nearest return in each bin after range
and height filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import AvoidanceConfig, CameraMount, require_int
from .errors import InputFormatError


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError(
                f"focal lengths must be finite and positive, got fx={self.fx} fy={self.fy}"
            )
        require_int("width", self.width, 1)
        require_int("height", self.height, 1)
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}"
            )


def intrinsics_for_fov(width: int, height: int, fov_deg: float) -> CameraIntrinsics:
    """Square-pixel intrinsics whose outermost pixel centers span ``fov_deg``.

    The principal point sits at the grid center ((width-1)/2, (height-1)/2),
    and fx is chosen so the leftmost and rightmost pixel centers subtend
    exactly fov_deg/2 on each side of the optical axis (so width >= 2).
    """
    require_int("width", width, 2)
    require_int("height", height, 1)
    if not (0 < fov_deg < 180):
        raise ValueError(f"fov_deg must be in (0, 180), got {fov_deg}")
    half = math.radians(fov_deg) / 2.0
    f = ((width - 1) / 2.0) / math.tan(half)
    return CameraIntrinsics(fx=f, fy=f, cx=(width - 1) / 2.0, cy=(height - 1) / 2.0,
                            width=width, height=height)


@dataclass(frozen=True, eq=False)
class DepthFrame:
    """A single metric depth image plus the geometry needed to interpret it."""

    depths: np.ndarray
    intrinsics: CameraIntrinsics
    mount: CameraMount

    def __post_init__(self):
        depths = np.asarray(self.depths, dtype=np.float64)
        object.__setattr__(self, "depths", depths)
        expected = (self.intrinsics.height, self.intrinsics.width)
        if depths.shape != expected:
            raise InputFormatError(
                f"depth grid shape {depths.shape} does not match intrinsics {expected}"
            )
        if not np.all(np.isfinite(depths)) or np.any(depths < 0):
            raise InputFormatError("depth values must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Points in the camera frame, shape (N, 3), columns X, Y, Z; ``points``
    may be a column-major view, as ``back_project`` returns."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InputFormatError(f"point cloud must have shape (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputFormatError("point cloud values must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class ObstacleMap:
    """Per-bin nearest obstacle points in the robot frame (x forward, y left).

    Only ``construct_obstacle_map`` builds one, and it guarantees that
    ``points`` is (B, 2) float64 with B <= the config's ``bin_count`` and
    that ``bins`` holds the strictly increasing int64 bin index of each entry.
    """

    points: np.ndarray
    bins: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


def back_project(frame: DepthFrame) -> PointCloud:
    """Lift every valid depth pixel to a 3D point in the camera frame.

    Uses the pinhole model: X = (u - cx) * d / fx, Y = (v - cy) * d / fy,
    Z = d. Points come out in row-major pixel order, so ties elsewhere can
    be broken by lowest pixel index.
    """
    intr = frame.intrinsics
    d = frame.depths
    valid = np.flatnonzero(d > 0)
    pts = np.empty((3, valid.size))
    # ((u - cx) * d) / fx on the full grid, gathered into a row of pts; the
    # indices are in range, and mode="clip" spares take a copy of ``out``.
    grid = np.multiply(np.arange(intr.width) - intr.cx, d)
    grid /= intr.fx
    np.take(grid, valid, out=pts[0], mode="clip")
    np.multiply((np.arange(intr.height) - intr.cy)[:, None], d, out=grid)
    grid /= intr.fy
    np.take(grid, valid, out=pts[1], mode="clip")
    np.take(d, valid, out=pts[2], mode="clip")
    return PointCloud(pts.T)


def bin_half_range(cfg: AvoidanceConfig) -> float:
    """Lateral half-extent of the binning window, in camera X meters."""
    if cfg.x_half_range_m is not None:
        return cfg.x_half_range_m
    return math.tan(math.radians(cfg.mount.fov_deg) / 2.0) * cfg.tau_z


def construct_obstacle_map(cloud: PointCloud, cfg: AvoidanceConfig) -> ObstacleMap:
    """Reduce a camera-frame cloud to per-bin nearest ground obstacles.

    Steps, in order:

    1. Subtract the mount's depth offset from Z.
    2. Keep points with corrected Z in (0, tau_z] and Y >= -epsilon
       (Y points down, so the Y test drops ceiling / overhead returns).
    3. Partition camera X into ``bin_count`` uniform bins across the lateral
       window and keep the minimum-Z point per bin; equal Z resolves to the
       lowest point index.
    4. Transform survivors to the robot frame:
       x = Z + x_offset_m, y = -X.

    Args:
        cloud: back-projected camera-frame points.
        cfg: pipeline configuration supplying mount, tau_z, epsilon and
            bin geometry.

    Returns:
        ObstacleMap with entries ordered by bin index.
    """
    pts = cloud.points
    m = cfg.mount
    tau = cfg.tau_z
    half = bin_half_range(cfg)
    bin_count = cfg.bin_count

    z = pts[:, 2] - m.depth_offset_m
    keep = (z > 0) & (z <= tau) & (pts[:, 1] >= -cfg.epsilon)
    x = pts[:, 0][keep]
    z = z[keep]
    inside = (x >= -half) & (x <= half)
    x = x[inside]
    z = z[inside]

    width = 2.0 * half / bin_count
    bins = np.minimum((np.floor((x + half) / width)).astype(np.int64), bin_count - 1)

    # Nearest z per bin, then the lowest index reaching it: the scan winner.
    best = np.full(bin_count, np.inf)
    np.minimum.at(best, bins, z)
    tied = np.flatnonzero(z == best[bins])
    first = np.full(bin_count, z.size)
    np.minimum.at(first, bins[tied], tied)
    occupied = np.flatnonzero(first < z.size)
    sel = first[occupied]

    robot_x = z[sel] + m.x_offset_m
    robot_y = -x[sel]
    return ObstacleMap(np.column_stack((robot_x, robot_y)), occupied)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _read_tagged(path: str | Path, tag: str, header: tuple) -> tuple[list, np.ndarray]:
    """Read a whitespace-separated ``TAG h1 .. hn v1 v2 ...`` text file.

    ``header`` holds one parser (``int`` or ``float``) per header token.
    Returns the parsed header values and the body as a float64 vector.
    """
    tokens = Path(path).read_text().split()
    if not tokens or tokens[0] != tag:
        raise InputFormatError(f"{path}: expected {tag} header")
    if len(tokens) <= len(header):
        raise InputFormatError(f"{path}: truncated {tag} header")
    try:
        values = [parse(t) for parse, t in zip(header, tokens[1:])]
        body = np.array([float(t) for t in tokens[len(header) + 1:]], dtype=np.float64)
    except ValueError as exc:
        raise InputFormatError(f"{path}: malformed {tag} value: {exc}") from exc
    return values, body


def save_depth_frame(frame: DepthFrame, path: str | Path) -> None:
    """Write a DF1 file: header line, then one row of depths per image row."""
    intr = frame.intrinsics
    header = " ".join(["DF1", str(intr.width), str(intr.height),
                       repr(float(intr.fx)), repr(float(intr.fy)),
                       repr(float(intr.cx)), repr(float(intr.cy))])
    lines = [header]
    for row in frame.depths:
        lines.append(" ".join(repr(float(val)) for val in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_depth_frame(path: str | Path, mount: CameraMount) -> DepthFrame:
    """Read a DF1 file; the mount is supplied separately by configuration."""
    (width, height, fx, fy, cx, cy), depths = _read_tagged(
        path, "DF1", (int, int, float, float, float, float))
    if depths.size != width * height:
        raise InputFormatError(
            f"{path}: expected {width * height} depth values, found {depths.size}"
        )
    try:
        intr = CameraIntrinsics(fx, fy, cx, cy, width, height)
        return DepthFrame(depths.reshape(height, width), intr, mount)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

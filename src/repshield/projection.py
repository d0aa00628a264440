"""Top-down obstacle extraction from metric depth images.

Conventions used throughout:

* Camera frame: X right, Y down, Z forward along the optical axis (meters).
* Robot frame: x forward, y left, origin at the robot center (meters).
* A depth value of exactly 0 marks an invalid pixel and produces no point.

``back_project`` decides which returns are obstacle candidates: it applies
the range and height cuts on the depth grid and lifts only the pixels that
pass. The obstacle map summarizes those candidates as at most one point per
lateral bin (uniform in camera X), keeping the nearest return in each bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import (AvoidanceConfig, CameraMount, read_only, require_count, require_int,
                     require_points)
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
    """A single metric depth image plus the geometry needed to interpret it.

    ``depths`` is a read-only view that may share memory with the caller's
    array and with other rows and frames: to fault or edit one, build a new frame."""

    depths: np.ndarray
    intrinsics: CameraIntrinsics
    mount: CameraMount

    def __post_init__(self):
        depths = read_only(np.asarray(self.depths, dtype=np.float64).view())
        object.__setattr__(self, "depths", depths)
        expected = (self.intrinsics.height, self.intrinsics.width)
        if depths.shape != expected:
            raise InputFormatError(
                f"depth grid shape {depths.shape} does not match intrinsics {expected}"
            )
        # A nan propagates through both reductions and fails both compares.
        if not (depths.min() >= 0 and depths.max() < math.inf):
            raise InputFormatError("depth values must be finite and non-negative")


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


def back_project(frame: DepthFrame, cfg: AvoidanceConfig) -> np.ndarray:
    """Lift the depth pixels that are obstacle candidates to camera-frame points.

    Uses the pinhole model: X = (u - cx) * d / fx, Y = (v - cy) * d / fy,
    Z = d. These are the obstacle cuts, stated nowhere else: a pixel is
    lifted only when d > 0 (zero marks an invalid pixel), d - depth_offset_m
    is in (0, tau_z] (the range cut) and Y >= -epsilon (the height cut; Y
    points down, so it drops overhead returns). ``_cut_tables`` turns them
    into exact per-row depth bounds. Points come out in row-major pixel
    order, so ties elsewhere can be broken by lowest pixel index. Returns
    an (N, 3) column-major view, columns X, Y, Z.

    When the candidate rows are one stored row (row stride 0, as in every
    ``raycast_depth`` frame), each column's passing pixels share X and Z, so
    only the first of them is lifted, at a row found by binary search over
    the cut bounds: the full lift with each column's repeats dropped, at
    most ``width`` points. Any other grid is fully lifted.
    """
    intr = frame.intrinsics
    top, lo, hi, u_off, v_off = _cut_tables(intr, cfg.tau_z, cfg.epsilon,
                                            cfg.mount.depth_offset_m)
    d = frame.depths[top:]
    if d.strides[0] == 0 and len(d) > 1:
        # The rows a column passes are a suffix (``_cut_tables``): binary-search
        # its first (n: none), then sort the pixels back into row-major order.
        n, width = d.shape
        first = np.maximum(n - np.searchsorted(lo[::-1, 0], d[0], side="right"),
                           np.searchsorted(hi[:, 0], d[0], side="left"))
        cols = np.flatnonzero(first < n)
        lifted = np.sort(first[cols] * width + cols)
        depths, at = d[0], lifted % width
    else:
        keep = d >= lo
        keep &= d <= hi
        lifted = np.flatnonzero(keep)
        depths, at = d, lifted
    # Sized to the stored depths, not to the survivors: every frame of one
    # size then asks for the same block, which the allocator keeps mapped
    # (smaller blocks cost about 40 minor page faults a native step). The
    # indices are in range, and mode="clip" spares take a copy of ``out``.
    pts = np.empty((3, depths.size))[:, :lifted.size]
    z = np.take(depths, at, out=pts[2], mode="clip")
    # X = ((u - cx) * d) / fx and Y = ((v - cy) * d) / fy, as on the grid.
    for offsets, row, focal in ((u_off, pts[0], intr.fx), (v_off, pts[1], intr.fy)):
        np.take(offsets, lifted, out=row, mode="clip")
        row *= z
        row /= focal
    return pts.T


def _least_passing(test, n: int) -> np.ndarray:
    """Per entry, the least non-negative float passing ``test`` (false at 0,
    monotone in d), or inf; bisects the int64 bit patterns, which are
    ordered like the non-negative floats they encode."""
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, np.inf).view(np.int64)
    for _ in range(64):
        mid = lo + (hi - lo) // 2
        passed = test(mid.view(np.float64))
        lo = np.where(passed, lo, mid)
        hi = np.where(passed, mid, hi)
    return hi.view(np.float64)


@lru_cache(maxsize=16)
def _cut_tables(intr: CameraIntrinsics, tau_z: float, epsilon: float, offset: float) -> tuple:
    """``back_project``'s cuts as the first candidate row ``top`` and, for
    each row from there down, (rows, 1) depth bounds ``lo`` and ``hi``, plus
    each pixel's ``u - cx`` and ``v - cy``, read-only and shared.

    On a row, Y(d) = ((v - cy) * d) / fy is monotone in d, as rounding to
    nearest is monotone, and so is d - offset. So a pixel passes the cuts
    exactly when lo <= d <= hi: lo is the least d > max(offset, 0) (a float
    difference has the sign of the exact one, so that is d > 0 and
    d - offset > 0) that, below the principal point (Y rises with d),
    passes the height cut; hi is the greatest d that passes the range cut
    and, above it (Y falls), the height cut. On the row at cy, Y = 0 passes
    or fails the whole row. A row that passes nothing gets lo > hi.

    Down the candidate rows lo never increases and hi never decreases, as
    for a fixed d, Y rises with v and ``top`` skips every row at or above
    cy when epsilon < 0. So the rows a depth passes form a suffix.
    """
    # Y has the sign of v - cy, so when -epsilon > 0 no row at or above the
    # principal point can pass the height cut.
    top = math.floor(intr.cy) + 1 if epsilon < 0 else 0
    rows = np.arange(top, intr.height, dtype=np.float64) - intr.cy
    cols = np.arange(intr.width, dtype=np.float64) - intr.cx

    def height(d):
        return (rows * d) / intr.fy >= -epsilon

    with np.errstate(over="ignore"):
        lo = _least_passing(lambda d: (d > max(offset, 0.0)) & (height(d) | (rows < 0)),
                            rows.size)
        hi = np.nextafter(_least_passing(
            lambda d: (d > 0) & ~((d - offset <= tau_z) & (height(d) | (rows > 0))),
            rows.size), 0.0)
    return top, *map(read_only, (lo[:, None], hi[:, None], np.tile(cols, rows.size),
                                 np.repeat(rows, intr.width)))


def bin_half_range(cfg: AvoidanceConfig) -> float:
    """Lateral half-extent of the binning window, in camera X meters."""
    return math.tan(math.radians(cfg.mount.fov_deg) / 2.0) * cfg.tau_z


def construct_obstacle_map(points: np.ndarray, cfg: AvoidanceConfig) -> ObstacleMap:
    """Reduce obstacle candidates to the per-bin nearest obstacle.

    The input is camera-frame points that already pass the range and height
    cuts, as ``back_project`` returns; no point is dropped for its Y or Z
    here. Steps, in order:

    1. Subtract the mount's depth offset from Z.
    2. Keep points with camera X inside the lateral window.
    3. Partition camera X into ``bin_count`` uniform bins across the window
       and keep the minimum-Z point per bin; equal Z resolves to the lowest
       point index.
    4. Transform survivors to the robot frame:
       x = Z + x_offset_m, y = -X.

    Args:
        points: (N, 3) camera-frame obstacle candidates, columns X, Y, Z;
            each must be finite (``require_points``).
        cfg: pipeline configuration supplying mount and bin geometry.

    Returns:
        ObstacleMap with entries ordered by bin index.
    """
    pts = require_points("point cloud", points, 3)
    m = cfg.mount
    half = bin_half_range(cfg)
    bin_count = cfg.bin_count

    z = pts[:, 2] - m.depth_offset_m
    x = pts[:, 0]
    inside = (x >= -half) & (x <= half)
    if not inside.all():
        x = x[inside]
        z = z[inside]

    # Inside the window x + half >= 0 (it is +0.0 at x = -half), so
    # truncation is the floor.
    width = 2.0 * half / bin_count
    bins = np.minimum(((x + half) / width).astype(np.int64), bin_count - 1)

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
    try:
        intr = CameraIntrinsics(fx, fy, cx, cy, width, height)
        require_count("rows", height, width, depths.size)
        return DepthFrame(depths.reshape(height, width), intr, mount)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

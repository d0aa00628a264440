"""Depth-camera simulation by per-column raycasting.

The world is planar and obstacles are treated as vertically extruded, so
one ray per pixel column at obstacle height fully determines the frame:
every row of a column carries the column's depth. Depth is the Z component
of the hit point in the camera frame (planar depth, not ray range), which
is what the pinhole back-projection expects.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..config import CameraMount, read_only
from ..projection import CameraIntrinsics, DepthFrame
from .kinematics import RobotState
from .world import GEOMETRY_MARGIN_M, WorldModel

FAR_LIMIT_M = 5.0
_T_EPS = 1e-9


@lru_cache(maxsize=16)
def _column_tables(intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column ``slope``, ``norm`` and ``cos_axis``, read-only and shared."""
    u = np.arange(intrinsics.width)
    # Pinhole column geometry: a hit at camera (X, Z) lands on column
    # u = cx + fx * X / Z, so column u looks along camera X/Z slope
    # (u - cx) / fx. Positive slope is to the right of the axis.
    slope = (u - intrinsics.cx) / intrinsics.fx
    norm = np.hypot(slope, 1.0)
    cos_axis = 1.0 / norm  # dot(unit ray, forward)
    return read_only(slope), read_only(norm), read_only(cos_axis)


def _kept_segments(world: WorldModel, origin: np.ndarray, fwd: np.ndarray, right: np.ndarray,
                   intrinsics: CameraIntrinsics, norm: np.ndarray) -> np.ndarray:
    """Mask of the ``world.static_segments`` worth a ray test: the others
    cannot change a depth bit."""
    # Drop segments wholly beyond FAR_LIMIT_M or behind the camera, by more
    # than the margin: a hit's exact depth lies between the depths of its
    # segment's ends, so every hit such a segment could give is blanked or has t < 0.
    segs = world.static_segments
    z = segs.reshape(-1, 2) @ fwd - origin @ fwd
    z_a, z_b = z[0::2], z[1::2]
    keep = np.minimum(z_a, z_b) <= FAR_LIMIT_M + GEOMETRY_MARGIN_M
    keep &= np.maximum(z_a, z_b) >= -GEOMETRY_MARGIN_M
    normals, offsets, owner = world.polygon_normals
    if not owner.size:
        return keep
    # Also drop a polygon's edges that face away from the camera, which lies
    # more than the margin inside their lines, when it lies more than the
    # margin outside the polygon and no vertex lies within the margin of a
    # column's line. A ray whose rounded test passes on such an edge crosses
    # it outward at least the margin from its ends, so it entered the polygon
    # first, through an edge the camera lies outside of: kept, or beyond the
    # far limit and so is the dropped hit. That entry lies at least the
    # margin from every vertex, so its test passes, and its t is smaller by
    # the ray's chord through the polygon: far more than rounding on worlds
    # of any practical size and polygons without needle-sharp corners (thin
    # ones have no normals). So every depth bit stays.
    z = z_a[:owner.size]  # edge k starts at vertex k
    # Vertex k lies |u - c| * |z| / (fx * norm[c]) from column c's line; the
    # nearest column by slope is rint(u) clipped to the image, and no norm
    # exceeds an end column's.
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (segs[:owner.size, 0] - origin) @ right / z * intrinsics.fx + intrinsics.cx
        clear = np.abs((np.rint(u).clip(0, intrinsics.width - 1) - u) * z) > (
            GEOMETRY_MARGIN_M * intrinsics.fx * max(norm[0], norm[-1]))
    side = normals @ origin - offsets
    # How far the camera lies outside each polygon; nan, which culls nothing,
    # where a vertex lies near a column's line.
    outside = np.maximum.reduceat(np.where(clear, side, np.nan), world.polygon_edges[1])
    floor = np.where(outside > GEOMETRY_MARGIN_M, -GEOMETRY_MARGIN_M, -np.inf)
    keep[:owner.size] &= side >= floor[owner]
    return keep


def column_depths(world: WorldModel, robot: RobotState, intrinsics: CameraIntrinsics,
                  mount: CameraMount, t: float = 0.0) -> np.ndarray:
    """Planar depth per pixel column, 0 where nothing is hit within ``FAR_LIMIT_M``.

    Args:
        t: simulation time, used to place scripted agents.
    """
    heading = robot.heading
    fwd = np.array([np.cos(heading), np.sin(heading)])
    right = np.array([np.sin(heading), -np.cos(heading)])
    origin = np.array([robot.x, robot.y]) + mount.x_offset_m * fwd

    slope, norm, cos_axis = _column_tables(intrinsics)
    # Unit ray of each column, x components in row 0 and y in row 1: (2, W).
    dirs = (fwd[:, None] + slope[None, :] * right[:, None]) / norm[None, :]

    t_best = np.full(intrinsics.width, np.inf)

    segs = world.static_segments[_kept_segments(world, origin, fwd, right, intrinsics, norm)]
    if segs.shape[0]:
        # Ray-segment tests as (S, W) arrays: one row per segment.
        e = segs[:, 1] - segs[:, 0]
        ao = segs[:, 0] - origin
        denom = dirs[0] * e[:, 1:] - dirs[1] * e[:, :1]
        t_num = ao[:, 0] * e[:, 1] - ao[:, 1] * e[:, 0]
        s_num = ao[:, :1] * dirs[1] - ao[:, 1:] * dirs[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hit = t_num[:, None] / denom
            s_hit = s_num / denom
        ok = (np.abs(denom) > 1e-15) & (t_hit > _T_EPS) & (s_hit >= 0.0) & (s_hit <= 1.0)
        t_best = np.where(ok, t_hit, np.inf).min(axis=0)

    centers, radii = world.discs(t)
    if radii.size:
        oc = centers - origin
        # The product reads a C-order (W, 2) operand, as the pinned outputs
        # were computed with, so that no BLAS kernel choice can move a bit.
        b = np.ascontiguousarray(dirs.T) @ oc.T
        c_term = np.einsum("ij,ij->i", oc, oc) - radii ** 2
        disc = b * b - c_term[None, :]
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        near = b - sqrt_disc
        far_root = b + sqrt_disc
        t_hit = np.where(near > _T_EPS, near, np.where(far_root > _T_EPS, far_root, np.inf))
        t_hit = np.where(disc >= 0.0, t_hit, np.inf)
        t_best = np.minimum(t_best, t_hit.min(axis=1))

    depth = t_best * cos_axis
    depth = np.where(depth <= FAR_LIMIT_M, depth, 0.0)  # also blanks inf (no hit)
    # The mount's depth_offset_m models the estimator's systematic bias, and
    # the avoidance pipeline subtracts it from Z only. Emitting true + bias
    # here lands that correction back on the true Z; X and Y, lifted from
    # the biased depth, stay scaled by (true + bias) / true.
    if mount.depth_offset_m != 0.0:
        depth = np.where(depth > 0.0,
                         np.maximum(depth + mount.depth_offset_m, _T_EPS), 0.0)
    return depth


def raycast_depth(world: WorldModel, robot: RobotState, intrinsics: CameraIntrinsics,
                  mount: CameraMount, t: float = 0.0) -> DepthFrame:
    """Render a full frame as a read-only view of one row of column depths."""
    cols = column_depths(world, robot, intrinsics, mount, t=t)
    return DepthFrame(np.broadcast_to(cols, (intrinsics.height, intrinsics.width)),
                      intrinsics, mount)

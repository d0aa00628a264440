"""Shared helpers: independent oracles and random-input builders.

The oracles here are plain linear scans or kept copies of the code an
array version replaced, deliberately not sharing any code path with the
package: the back-projection oracle gathers valid pixels by index, the
binning oracle walks points one by one with a dict, the force oracle sums
per-obstacle contributions with scalar math and picks the argmax by
exhaustive comparison, the collision oracle tests each circle, polygon
and agent in its own loop, and the raycast oracle tests every ray against
every segment and disc, without the cull or the cached column tables.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repshield import AvoidanceConfig, CameraIntrinsics


def reduced_row_intrinsics(plat, rows: int) -> CameraIntrinsics:
    """``plat``'s native intrinsics at ``rows`` rows (at least 2), keeping the
    native vertical field of view by scaling fy, so the bottom rows look
    down at the native angle: the geometry of the simulator's former
    reduced-row frames, on which several pinned counts were recorded."""
    native = plat.intrinsics()
    if rows == plat.image_height:
        return native
    tan_half_v = ((plat.image_height - 1) / 2.0) / native.fy
    return CameraIntrinsics(fx=native.fx, fy=((rows - 1) / 2.0) / tan_half_v,
                            cx=native.cx, cy=(rows - 1) / 2.0, width=plat.image_width,
                            height=rows)


# ---------------------------------------------------------------------------
# Back-projection oracle
# ---------------------------------------------------------------------------
# The index-gather back-projection the full-grid version replaced, kept with
# its exact arithmetic: the contract is bitwise agreement, not closeness.

def oracle_back_project(frame) -> np.ndarray:
    """Reference pinhole back-projection; (N, 3) points in row-major pixel order."""
    intr = frame.intrinsics
    d = frame.depths
    v, u = np.nonzero(d > 0)
    depth = d[v, u]
    x = (u - intr.cx) * depth / intr.fx
    y = (v - intr.cy) * depth / intr.fy
    return np.column_stack((x, y, depth))


def _oracle_passes(points: np.ndarray, cfg: AvoidanceConfig) -> np.ndarray:
    """Per point, whether Z - depth_offset_m is in (0, tau_z] and Y >= -epsilon."""
    z = points[:, 2] - cfg.mount.depth_offset_m
    return (z > 0) & (z <= cfg.tau_z) & (points[:, 1] >= -cfg.epsilon)


def oracle_cut(points: np.ndarray, cfg: AvoidanceConfig) -> np.ndarray:
    """The points that pass the obstacle cuts, in their input order."""
    return points[_oracle_passes(points, cfg)]


def oracle_lifted(frame, cfg: AvoidanceConfig) -> np.ndarray:
    """``oracle_back_project`` restricted to the obstacle cuts."""
    return oracle_cut(oracle_back_project(frame), cfg)


def oracle_lifted_once(frame, cfg: AvoidanceConfig) -> np.ndarray:
    """``oracle_lifted`` with each pixel column's repeats dropped: only the
    first point lifted from a column is kept, and the order is unchanged."""
    points = oracle_back_project(frame)
    passes = _oracle_passes(points, cfg)
    columns = np.nonzero(frame.depths > 0)[1][passes]
    _, first = np.unique(columns, return_index=True)
    return points[passes][np.sort(first)]


# ---------------------------------------------------------------------------
# Binning oracle
# ---------------------------------------------------------------------------

def oracle_obstacle_map(points: np.ndarray, cfg: AvoidanceConfig):
    """Reference per-bin nearest-obstacle reduction.

    Returns (robot_points, bin_indices) as arrays sorted by bin, using the
    same documented rules: subtract the depth offset, keep corrected
    z in (0, tau_z] and Y >= -epsilon, bin camera X over +/- the lateral
    half-range, nearest z per bin with lowest point index on ties.
    """
    half = cfg.bin_window[0]
    width = 2.0 * half / cfg.bin_count
    best: dict[int, tuple[float, int]] = {}
    for i in range(points.shape[0]):
        X, Y, Z = points[i]
        z = Z - cfg.mount.depth_offset_m
        if not (0.0 < z <= cfg.tau_z):
            continue
        if Y < -cfg.epsilon:
            continue
        if not (-half <= X <= half):
            continue
        b = min(int(math.floor((X + half) / width)), cfg.bin_count - 1)
        if b not in best or z < best[b][0]:
            best[b] = (z, i)
    bins = sorted(best)
    pts = np.array([[best[b][0] + cfg.mount.x_offset_m, -points[best[b][1], 0]]
                    for b in bins]).reshape(len(bins), 2)
    return pts, np.array(bins, dtype=np.int64)


def windowed(cfg: AvoidanceConfig, half: float) -> AvoidanceConfig:
    """``cfg`` with the lateral window +-``half``, up to rounding: the mount's
    fov_deg becomes 2 * degrees(atan(half / tau_z)), from which
    ``AvoidanceConfig.bin_window`` derives the window."""
    fov_deg = 2.0 * math.degrees(math.atan(half / cfg.tau_z))
    return replace(cfg, mount=replace(cfg.mount, fov_deg=fov_deg))


def random_cloud(rng: np.random.Generator, n: int, cfg: AvoidanceConfig) -> np.ndarray:
    """Points straddling every filter boundary of the obstacle map."""
    half = cfg.bin_window[0]
    x = rng.uniform(-1.5 * half, 1.5 * half, size=n)
    y = rng.uniform(-0.4, 0.6, size=n)
    z = rng.uniform(0.0, 1.5 * cfg.tau_z, size=n) + cfg.mount.depth_offset_m
    pts = np.column_stack((x, y, np.maximum(z, 0.0)))
    if n >= 8:
        # Exact duplicates of a few depths within one bin exercise the
        # lowest-index tie-break.
        pts[n // 2] = pts[n // 4]
    return pts


# ---------------------------------------------------------------------------
# Force oracle
# ---------------------------------------------------------------------------

def oracle_force(waypoint, obstacles):
    """Scalar-loop force sum for one waypoint."""
    fx_terms, fy_terms = [], []
    px, py = float(waypoint[0]), float(waypoint[1])
    for ox, oy in np.asarray(obstacles, dtype=np.float64).reshape(-1, 2):
        dx, dy = px - ox, py - oy
        d = math.hypot(dx, dy)
        mag = 1.0 / max(d, 1e-6) ** 3
        fx_terms.append(mag * dx / d)
        fy_terms.append(mag * dy / d)
    return np.array([math.fsum(fx_terms), math.fsum(fy_terms)])


def oracle_dominant(waypoints, obstacles):
    """Exhaustive argmax over per-waypoint force magnitudes.

    Strictly-greater comparison keeps the earliest maximum, which is the
    lowest-index tie rule.
    """
    forces = [oracle_force(wp, obstacles) for wp in waypoints]
    best, best_mag = 0, -1.0
    for k, f in enumerate(forces):
        mag = math.hypot(f[0], f[1])
        if mag > best_mag:
            best, best_mag = k, mag
    return np.array(forces), best


# ---------------------------------------------------------------------------
# Collision oracle
# ---------------------------------------------------------------------------
# The per-object collision check the array version replaced, kept with its
# exact arithmetic: the contract is bitwise agreement, not closeness.

_COLLISION_TOLERANCE_M = 1e-9


def _polygon_edges(vertices: np.ndarray) -> np.ndarray:
    """Edge segments, shape (N, 2, 2): [i] runs vertex i -> i+1."""
    return np.stack((vertices, np.roll(vertices, -1, axis=0)), axis=1)


def _point_segment_distances(p: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Distance from one point to each segment, shape (S,)."""
    if segments.shape[0] == 0:
        return np.empty(0)
    a = segments[:, 0]
    b = segments[:, 1]
    ab = b - a
    ap = p - a
    denom = np.einsum("ij,ij->i", ab, ab)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0, np.einsum("ij,ij->i", ap, ab) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.hypot(*(p - closest).T)


def _inside_convex(p: np.ndarray, verts: np.ndarray) -> bool:
    nxt = np.roll(verts, -1, axis=0)
    edge = nxt - verts
    rel = p - verts
    cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
    return bool(np.all(cross >= 0) or np.all(cross <= 0))


def oracle_collision(world, robot, t: float = 0.0) -> bool:
    """True iff the robot disc touches anything at time t (closed contact)."""
    p = np.array([robot.x, robot.y])
    r = robot.footprint_radius + _COLLISION_TOLERANCE_M

    if world.bounds_solid:
        xmin, ymin, xmax, ymax = world.bounds
        wall_clearance = min(p[0] - xmin, xmax - p[0], p[1] - ymin, ymax - p[1])
        if wall_clearance <= r:
            return True

    for c in world.circles:
        if np.hypot(*(p - c.center)) <= c.radius + r:
            return True
    for poly in world.polygons:
        if _inside_convex(p, poly.vertices):
            return True
        if np.any(_point_segment_distances(p, _polygon_edges(poly.vertices)) <= r):
            return True
    for agent in world.agents:
        if np.hypot(*(p - agent.position(t))) <= agent.radius + r:
            return True
    return False


# ---------------------------------------------------------------------------
# Raycast oracle
# ---------------------------------------------------------------------------
# The un-culled ray test the package's column_depths refines, kept with its
# exact arithmetic: the contract is bitwise agreement, not closeness.

_FAR_LIMIT_M = 5.0
_T_EPS = 1e-9


def oracle_column_depths(world, robot, intrinsics, mount, t: float = 0.0) -> np.ndarray:
    """Planar depth per column from every static segment and every disc."""
    heading = robot.heading
    fwd = np.array([np.cos(heading), np.sin(heading)])
    right = np.array([np.sin(heading), -np.cos(heading)])
    origin = np.array([robot.x, robot.y]) + mount.x_offset_m * fwd

    u = np.arange(intrinsics.width)
    slope = (u - intrinsics.cx) / intrinsics.fx
    norm = np.hypot(slope, 1.0)
    dirs = (fwd[None, :] + slope[:, None] * right[None, :]) / norm[:, None]
    cos_axis = 1.0 / norm

    t_best = np.full(intrinsics.width, np.inf)

    segs = world.static_segments
    if segs.shape[0]:
        a = segs[:, 0]
        e = segs[:, 1] - segs[:, 0]
        ao = a - origin
        denom = dirs[:, 0][:, None] * e[:, 1] - dirs[:, 1][:, None] * e[:, 0]
        t_num = ao[:, 0] * e[:, 1] - ao[:, 1] * e[:, 0]
        s_num = ao[None, :, 0] * dirs[:, 1][:, None] - ao[None, :, 1] * dirs[:, 0][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_hit = t_num[None, :] / denom
            s_hit = s_num / denom
        ok = (np.abs(denom) > 1e-15) & (t_hit > _T_EPS) & (s_hit >= 0.0) & (s_hit <= 1.0)
        t_hit = np.where(ok, t_hit, np.inf)
        t_best = np.minimum(t_best, t_hit.min(axis=1))

    centers = [c.center for c in world.circles] + [a.position(t) for a in world.agents]
    radii = np.array([c.radius for c in world.circles] + [a.radius for a in world.agents])
    if radii.size:
        oc = np.array(centers) - origin
        b = dirs @ oc.T
        c_term = np.einsum("ij,ij->i", oc, oc) - radii ** 2
        disc = b * b - c_term[None, :]
        sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
        near = b - sqrt_disc
        far_root = b + sqrt_disc
        t_hit = np.where(near > _T_EPS, near, np.where(far_root > _T_EPS, far_root, np.inf))
        t_hit = np.where(disc >= 0.0, t_hit, np.inf)
        t_best = np.minimum(t_best, t_hit.min(axis=1))

    depth = t_best * cos_axis
    depth = np.where(np.isfinite(depth) & (depth <= _FAR_LIMIT_M), depth, 0.0)
    if mount.depth_offset_m != 0.0:
        depth = np.where(depth > 0.0,
                         np.maximum(depth + mount.depth_offset_m, _T_EPS), 0.0)
    return depth

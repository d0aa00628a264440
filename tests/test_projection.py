"""Tests for depth back-projection and top-down obstacle-map construction.

Pinhole geometry used for hand-computed values:

    X = (u - cx) * d / fx,  Y = (v - cy) * d / fy,  Z = d

and the robot-frame transform x = (Z - depth_offset) + x_offset, y = -X.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import (oracle_cut, oracle_lifted, oracle_lifted_once, oracle_obstacle_map,
                      random_cloud, reduced_row_intrinsics, windowed)
from repshield import (AvoidanceConfig, CameraIntrinsics, CameraMount, DepthFrame,
                       InputFormatError, Trajectory, avoidance_step, back_project,
                       construct_obstacle_map, intrinsics_for_fov, load_depth_frame,
                       save_depth_frame)
from repshield.harness import resolve_world
from repshield.platforms import PLATFORMS
from repshield.projection import _cut_tables, _offset_grids
from repshield.sim import RobotState, WorldModel, check_collision, raycast_depth


def _cfg(**overrides) -> AvoidanceConfig:
    mount = overrides.pop("mount", CameraMount())
    return AvoidanceConfig(mount=mount, **overrides)


# ---------------------------------------------------------------------------
# Intrinsics
# ---------------------------------------------------------------------------

def test_intrinsics_for_fov_hand_computed():
    # width 5, fov 90 deg: outermost pixel centers sit 2 px from center,
    # tan(45 deg) = 1, so fx = 2 / 1 = 2.
    intr = intrinsics_for_fov(5, 3, 90.0)
    assert intr.fx == pytest.approx(2.0)
    assert intr.fy == pytest.approx(2.0)
    assert intr.cx == 2.0
    assert intr.cy == 1.0


def test_intrinsics_outermost_column_subtends_half_fov():
    for fov in (60.0, 89.5, 120.0, 170.0):
        intr = intrinsics_for_fov(320, 240, fov)
        edge_angle = math.atan2((319 - intr.cx) / intr.fx, 1.0)
        assert edge_angle == pytest.approx(math.radians(fov) / 2, abs=1e-12)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=5.0, cy=0.0, width=2, height=2)
    with pytest.raises(ValueError):
        CameraMount(fov_deg=200.0)


@pytest.mark.parametrize("build, message", [
    (lambda: intrinsics_for_fov(1, 8, 90.0), "width must be at least 2, got 1"),
    (lambda: intrinsics_for_fov(8.0, 8, 90.0), "width must be an integer, got 8.0"),
    (lambda: intrinsics_for_fov(8, 0, 90.0), "height must be at least 1, got 0"),
    (lambda: intrinsics_for_fov(8, 8, 180.0), "fov_deg must be in (0, 180), got 180.0"),
    (lambda: intrinsics_for_fov(8, 8, 0.0), "fov_deg must be in (0, 180), got 0.0"),
    (lambda: intrinsics_for_fov(8, 8, -10.0), "fov_deg must be in (0, 180), got -10.0"),
    (lambda: CameraIntrinsics(1.0, 1.0, 0.0, 0.0, width=2.0, height=2),
     "width must be an integer, got 2.0"),
    (lambda: CameraIntrinsics(1.0, 1.0, 0.0, 0.0, width=2, height=True),
     "height must be an integer, got True"),
], ids=["width_1", "width_float", "height_0", "fov_180", "fov_0", "fov_negative",
        "intrinsics_width_float", "intrinsics_height_bool"])
def test_intrinsics_check_their_own_arguments(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
    # numpy integers are integers.
    assert intrinsics_for_fov(np.int64(2), np.int32(1), 90.0).width == 2


# ---------------------------------------------------------------------------
# Back-projection
# ---------------------------------------------------------------------------

def _assert_back_project_matches_oracle(frame: DepthFrame, cfg: AvoidanceConfig):
    points = back_project(frame, cfg)
    ref = oracle_lifted(frame, cfg)
    assert points.shape == ref.shape
    assert points.tobytes() == ref.tobytes()
    return points


def test_back_project_single_pixel_hand_computed():
    intr = CameraIntrinsics(fx=100.0, fy=50.0, cx=2.0, cy=1.0, width=5, height=3)
    depths = np.zeros((3, 5))
    depths[2, 4] = 2.0
    frame = DepthFrame(depths, intr, CameraMount())
    cloud = _assert_back_project_matches_oracle(frame, _cfg(tau_z=2.0, epsilon=0.0))
    assert len(cloud) == 1
    # X = (4 - 2) * 2 / 100 = 0.04, Y = (2 - 1) * 2 / 50 = 0.04, Z = 2
    np.testing.assert_allclose(cloud[0], [0.04, 0.04, 2.0], rtol=0, atol=1e-15)
    # Z - offset = 2 is beyond tau_z = 1.5, and Y = 0.04 is short of 0.05.
    assert len(back_project(frame, _cfg(tau_z=1.5, epsilon=0.0))) == 0
    assert len(back_project(frame, _cfg(tau_z=2.0, epsilon=-0.05))) == 0


def test_back_project_drops_zero_depth_pixels():
    intr = intrinsics_for_fov(4, 4, 90.0)
    depths = np.zeros((4, 4))
    depths[1, 1] = 1.0
    depths[3, 2] = 0.5
    # epsilon = 1 passes every pixel of the frame on height.
    cloud = _assert_back_project_matches_oracle(
        DepthFrame(depths, intr, CameraMount()), _cfg(epsilon=1.0))
    assert len(cloud) == 2
    assert np.all(cloud[:, 2] > 0)


def test_back_project_row_major_order():
    intr = intrinsics_for_fov(3, 3, 90.0)
    depths = np.ones((3, 3))
    cloud = _assert_back_project_matches_oracle(
        DepthFrame(depths, intr, CameraMount()), _cfg(epsilon=2.0))
    # Row-major pixel order: Y must be non-decreasing, and X increases
    # within each row.
    assert np.all(np.diff(cloud[:, 1]) >= -1e-15)
    assert np.all(np.diff(cloud[:, 0].reshape(3, 3), axis=1) > 0)
    assert len(cloud) == 9


def test_back_project_range_boundary_is_closed():
    # Every value is exact in binary: Z - offset == tau_z is kept, and the
    # next float beyond it is dropped.
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=1)
    cfg = _cfg(mount=CameraMount(depth_offset_m=0.25), tau_z=1.0, epsilon=10.0)
    beyond = np.nextafter(1.25, math.inf)
    assert beyond - 0.25 > 1.0
    frame = DepthFrame(np.array([[1.25, beyond]]), intr, cfg.mount)
    cloud = _assert_back_project_matches_oracle(frame, cfg)
    assert cloud[:, 2].tolist() == [1.25]


def test_back_project_height_boundary_is_closed():
    # Row 2 with cy = 0 and fy = 2 gives Y = (2 * d) / 2 = d exactly, so
    # Y == -epsilon is kept and the next float below it is dropped.
    intr = CameraIntrinsics(fx=1.0, fy=2.0, cx=0.0, cy=0.0, width=2, height=3)
    cfg = _cfg(tau_z=1.0, epsilon=-0.5)
    depths = np.zeros((3, 2))
    depths[2] = [0.5, np.nextafter(0.5, 0.0)]
    frame = DepthFrame(depths, intr, cfg.mount)
    cloud = _assert_back_project_matches_oracle(frame, cfg)
    assert cloud[:, 1].tolist() == [0.5]
    # With epsilon = 0 the principal point's own row (Y == 0) is kept and
    # the row above it (Y < 0) is dropped.
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=1.0, width=1, height=3)
    frame = DepthFrame(np.full((3, 1), 0.5), intr, cfg.mount)
    cloud = _assert_back_project_matches_oracle(frame, _cfg(epsilon=0.0))
    assert cloud[:, 1].tolist() == [0.0, 0.5]


def test_back_project_zero_pixel_under_negative_offset_dropped():
    # With depth_offset_m = -0.1 a zero pixel has Z - offset = 0.1, inside
    # (0, tau_z], and Y = 0 passes epsilon = 0.5: only d > 0 drops it.
    intr = intrinsics_for_fov(3, 2, 90.0)
    cfg = _cfg(mount=CameraMount(depth_offset_m=-0.1), epsilon=0.5)
    depths = np.array([[0.0, 0.4, 0.0], [0.3, 0.0, 0.2]])
    cloud = _assert_back_project_matches_oracle(DepthFrame(depths, intr, cfg.mount), cfg)
    assert cloud[:, 2].tolist() == [0.4, 0.3, 0.2]


def test_property_back_project_matches_oracle_bitwise():
    rng = np.random.default_rng(12)
    shapes = [(1, 1), (1, 23), (17, 1)] + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 60))) for _ in range(80)]
    for height, width in shapes:
        # Off-centre principal point and fx != fy; offsets and epsilon of
        # either sign, so the height cut runs with and without skipping the
        # rows at or above the principal point.
        intr = CameraIntrinsics(fx=float(rng.uniform(0.5, 500.0)),
                                fy=float(rng.uniform(0.5, 500.0)),
                                cx=float(rng.uniform(0.0, width)),
                                cy=float(rng.uniform(0.0, height)),
                                width=width, height=height)
        mount = CameraMount(depth_offset_m=float(rng.uniform(-0.2, 0.2)))
        cfg = _cfg(mount=mount, tau_z=float(rng.uniform(0.5, 4.0)),
                   epsilon=float(rng.uniform(-0.2, 0.2)))
        depths = rng.uniform(0.0, 5.0, size=(height, width))
        depths[rng.random((height, width)) < 0.2] = 0.0
        _assert_back_project_matches_oracle(DepthFrame(depths, intr, mount), cfg)
        # A column-major depth grid still yields row-major pixel order.
        _assert_back_project_matches_oracle(
            DepthFrame(np.asfortranarray(depths), intr, mount), cfg)
    zeros = DepthFrame(np.zeros((6, 9)), intrinsics_for_fov(9, 6, 90.0), CameraMount())
    assert len(_assert_back_project_matches_oracle(zeros, _cfg(epsilon=1.0))) == 0


_TRAJ = Trajectory(np.array([[0.4, 0.0], [0.8, 0.05], [1.2, 0.1]]))


def _map_bytes(points, cfg) -> tuple:
    omap = construct_obstacle_map(points, cfg)
    return omap.points.tobytes(), omap.bins.tobytes()


def _assert_lifts_once_and_decides_as_copy(frame, cfg) -> np.ndarray:
    """A frame of one stored row gives at most ``width`` points, the oracle's
    with each column's repeats dropped; a C-order copy gives the full oracle,
    and both give the same obstacle map and decision, bitwise."""
    assert frame.depths.strides[0] == 0
    cloud = back_project(frame, cfg)
    assert len(cloud) <= frame.intrinsics.width
    once = oracle_lifted_once(frame, cfg)
    assert cloud.shape == once.shape and cloud.tobytes() == once.tobytes()
    copy = DepthFrame(np.array(frame.depths), frame.intrinsics, frame.mount)
    assert _map_bytes(cloud, cfg) == _map_bytes(_assert_back_project_matches_oracle(copy, cfg), cfg)
    _assert_same_decision(frame, copy, cfg)
    return cloud


def _assert_same_decision(frame, other, cfg) -> None:
    """The two frames give the same command, theta_des and adjusted
    waypoints, bitwise."""
    a, b = avoidance_step(frame, _TRAJ, cfg), avoidance_step(other, _TRAJ, cfg)
    assert (np.array([a.command.v, a.command.omega, a.theta_des]).tobytes()
            == np.array([b.command.v, b.command.omega, b.theta_des]).tobytes())
    assert (a.adjusted_trajectory.waypoints.tobytes()
            == b.adjusted_trajectory.waypoints.tobytes())


def test_back_project_native_frames_match_oracle_bitwise():
    world = resolve_world("corridor_03")
    for plat in PLATFORMS.values():
        frame = raycast_depth(world, RobotState(1.0, 1.0, 0.3), plat.intrinsics(), plat.mount())
        assert frame.depths.shape == (plat.image_height, plat.image_width)
        assert len(_assert_lifts_once_and_decides_as_copy(frame, plat.config())) > 0


def _with_missing(grid, rng) -> tuple:
    """``grid`` with a seeded 20 % of its pixels set to nan or +inf, and the
    same grid with those pixels set to 0."""
    hit = rng.random(grid.shape) < 0.2
    missing, zeroed = np.array(grid), np.array(grid)
    missing[hit] = rng.choice([np.nan, np.inf], size=int(hit.sum()))
    zeroed[hit] = 0.0
    return missing, zeroed


def test_missing_returns_decide_as_zero_depths():
    # nan and +inf mark a missing return, like 0, on both lift paths: a
    # native C-order grid, a native render of one stored row, and a 2-row
    # frame of the native vertical field of view as a C-order grid and as
    # its render. Any numpy warning fails the test (pyproject's
    # filterwarnings).
    rng = np.random.default_rng(34)
    world = resolve_world("corridor_03")
    for plat in PLATFORMS.values():
        cfg = plat.config()
        for rows in (plat.image_height, 2):
            render = raycast_depth(world, RobotState(1.0, 1.0, 0.3),
                                   reduced_row_intrinsics(plat, rows), plat.mount())
            shape = render.depths.shape
            row_missing, row_zeroed = _with_missing(render.depths[0], rng)
            for missing, zeroed in (_with_missing(render.depths, rng),
                                    (np.broadcast_to(row_missing, shape),
                                     np.broadcast_to(row_zeroed, shape))):
                frame = DepthFrame(missing, render.intrinsics, cfg.mount)
                zeros = DepthFrame(zeroed, render.intrinsics, cfg.mount)
                cloud, expected = back_project(frame, cfg), back_project(zeros, cfg)
                assert cloud.shape == expected.shape and cloud.tobytes() == expected.tobytes()
                _assert_same_decision(frame, zeros, cfg)


def _pool_rows(plat, intr, rng, count: int) -> list:
    """Rendered rows at poses drawn like the native replay's: uniform over a
    corridor, collision-free with 5 cm to spare, heading within 90 degrees
    of +x."""
    rows = []
    margin = plat.footprint_radius_m + 0.05
    while len(rows) < count:
        world = resolve_world(f"corridor_{int(rng.integers(1, 11)):02d}")
        xmin, ymin, xmax, ymax = world.bounds
        robot = RobotState(rng.uniform(xmin + margin, xmax - margin),
                           rng.uniform(ymin + margin, ymax - margin),
                           rng.uniform(-math.pi / 2, math.pi / 2), margin)
        if not check_collision(world, robot):
            rows.append(raycast_depth(world, robot, intr, plat.mount()).depths[0])
    return rows


def _straddling_row(intr, cfg, rng) -> np.ndarray:
    """A row of two adjacent floats near 0.95 m that give one Z - offset but
    first pass the cuts on different rows: a row bound and its neighbour
    outside it, in a random column order. Without such a bound, zeros."""
    _, lo, hi, *_ = _cut_tables(intr, cfg.tau_z, cfg.epsilon, cfg.mount.depth_offset_m)
    live = (lo <= hi)[:, 0]
    bounds = [(float(b), float(np.nextafter(b, toward)))
              for table, toward in ((lo, 0.0), (hi, math.inf))
              for b in np.unique(table[live]) if 0 < b < math.inf]
    offset = cfg.mount.depth_offset_m
    pairs = sorted((abs(b - 0.95), b, out) for b, out in bounds if b - offset == out - offset)
    if not pairs:
        return np.zeros(intr.width)
    return rng.choice(pairs[0][1:], size=intr.width)


def test_one_stored_row_frames_decide_as_their_c_order_copies():
    # Rendered rows, zeros and straddling rows over 3, 7 and native rows and
    # three epsilons. A straddling row ties on Z across columns whose first
    # passing rows differ, so the map's lowest-index winner depends on the
    # lifted points keeping row-major order.
    rng = np.random.default_rng(28)
    straddled = 0
    for plat in PLATFORMS.values():
        for height in (3, 7, plat.image_height):
            intr = reduced_row_intrinsics(plat, height)
            renders = _pool_rows(plat, intr, rng, 2)
            for epsilon in (-0.05, 0.0, 0.3):
                for offset in sorted({plat.camera.depth_offset_m, -0.1}):
                    mount = CameraMount(x_offset_m=plat.camera.x_offset_m,
                                        fov_deg=plat.camera.fov_deg, depth_offset_m=offset)
                    cfg = AvoidanceConfig(mount=mount, tau_z=plat.tau_z_m, epsilon=epsilon,
                                          bin_count=plat.default_bin_count)
                    straddle = _straddling_row(intr, cfg, rng)
                    straddled += bool(straddle.any())
                    for row in (*renders, np.zeros(intr.width), straddle):
                        frame = DepthFrame(np.broadcast_to(row, (height, intr.width)),
                                           intr, mount)
                        _assert_lifts_once_and_decides_as_copy(frame, cfg)
    assert straddled == 29  # of the 45 configurations
    # One row under a negative epsilon leaves no candidate row at all.
    for plat in PLATFORMS.values():
        native = plat.intrinsics()
        intr = CameraIntrinsics(native.fx, native.fy, native.cx, 0.0, native.width, 1)
        frame = DepthFrame(np.broadcast_to(np.full(native.width, 0.5), (1, native.width)),
                           intr, plat.mount())
        assert frame.depths.strides[0] == 0
        assert back_project(frame, plat.config()).shape == (0, 3)
        _assert_lifts_once_and_decides_as_copy(frame, plat.config())


def test_one_stored_row_frames_lift_at_the_cut_bounds_exactly():
    # Columns set to every row's bounds and to the floats just outside them,
    # in a random column order: the binary search must place each at the
    # first row the full compare passes, on either side of every bound.
    rng = np.random.default_rng(29)
    lifted = 0
    for plat in PLATFORMS.values():
        for height in (3, 7, plat.image_height):
            intr = reduced_row_intrinsics(plat, height)
            for epsilon in (-1e-9, -0.0, 1e-9):
                cfg = AvoidanceConfig(mount=plat.mount(), tau_z=plat.tau_z_m, epsilon=epsilon,
                                      bin_count=plat.default_bin_count)
                _, lo, hi, *_ = _cut_tables(intr, cfg.tau_z, epsilon,
                                            cfg.mount.depth_offset_m)
                bounds = np.unique(np.concatenate((lo, hi)))
                values = np.concatenate((bounds, np.nextafter(bounds, 0.0),
                                         np.nextafter(bounds, math.inf)))
                values = rng.permutation(np.unique(values[np.isfinite(values)]))
                for start in range(0, values.size, intr.width):
                    row = np.zeros(intr.width)
                    row[:values.size - start] = values[start:start + intr.width]
                    frame = DepthFrame(np.broadcast_to(rng.permutation(row),
                                                       (height, intr.width)), intr, cfg.mount)
                    lifted += len(_assert_lifts_once_and_decides_as_copy(frame, cfg))
    assert lifted > 0


def test_the_one_row_lift_caches_no_rows_by_width_table():
    # Every simulator frame takes the one-row lift, which reads at most
    # ``width`` offsets: no table it caches holds more than max(rows, width)
    # values. A C-order lift builds its rows×width grids once, and at each
    # column's first passing row its points are the one-row lift's, bitwise.
    world = resolve_world("corridor_03")
    for plat in PLATFORMS.values():
        _cut_tables.cache_clear()
        _offset_grids.cache_clear()
        cfg, intr = plat.config(), plat.intrinsics()
        render = raycast_depth(world, RobotState(1.0, 1.0, 0.3), intr, cfg.mount)
        cloud = back_project(render, cfg)
        assert _offset_grids.cache_info().currsize == 0
        assert _cut_tables.cache_info().currsize == 1
        _, *tables = _cut_tables(intr, cfg.tau_z, cfg.epsilon, cfg.mount.depth_offset_m)
        assert max(table.size for table in tables) <= max(intr.height, intr.width)
        copy = DepthFrame(np.array(render.depths), intr, cfg.mount)
        full = back_project(copy, cfg)
        assert full.tobytes() == back_project(copy, cfg).tobytes()
        assert _offset_grids.cache_info()[:2] == (1, 1)  # hits, misses
        # A column's points share X and Z, so each first one is its first row's.
        _, first = np.unique(full[:, [0, 2]], axis=0, return_index=True)
        assert len(cloud) > 0 and full[np.sort(first)].tobytes() == cloud.tobytes()


_MIRROR_WORLDS = tuple(f"corridor_{k:02d}" for k in range(1, 11)) + ("exploration_boxes",)


def test_mirrored_frames_give_mirrored_commands():
    # ROADMAP item 18 (i): flipping a frame's columns and negating the
    # trajectory's y negates every X exactly (cx = (W - 1) / 2), so v stays
    # and omega negates, bitwise, on the one-row render and on its C-order
    # copy. Only an exactly symmetric force (|theta_rep| = pi, which turns
    # left either way) is exempt.
    rng = np.random.default_rng(18)
    checked = ties = shielded = 0
    for plat in PLATFORMS.values():
        cfg, intr = plat.config(), plat.intrinsics()
        margin = plat.footprint_radius_m + 0.05
        poses = 0
        while poses < 100:
            world = resolve_world(str(rng.choice(_MIRROR_WORLDS)))
            xmin, ymin, xmax, ymax = world.bounds
            robot = RobotState(rng.uniform(xmin + margin, xmax - margin),
                               rng.uniform(ymin + margin, ymax - margin),
                               rng.uniform(-math.pi, math.pi), margin)
            if check_collision(world, robot):
                continue
            poses += 1
            xs = 0.2 * np.arange(1, 9)
            traj = np.column_stack((xs, rng.uniform(-0.6, 0.6) * xs ** 2
                                    + rng.uniform(-0.2, 0.2) * xs))
            mirrored_traj = Trajectory(traj * [1.0, -1.0])
            render = raycast_depth(world, robot, intr, cfg.mount)
            for depths in (render.depths, np.array(render.depths)):
                frame = DepthFrame(depths, intr, cfg.mount)
                mirror = DepthFrame(depths[:, ::-1], intr, cfg.mount)
                assert mirror.depths.strides[0] == depths.strides[0]
                a = avoidance_step(frame, Trajectory(traj), cfg)
                b = avoidance_step(mirror, mirrored_traj, cfg)
                assert a.passthrough == b.passthrough
                if not a.passthrough and math.pi in (abs(a.repulsive.theta_rep),
                                                     abs(b.repulsive.theta_rep)):
                    ties += 1
                    continue
                checked += 1
                shielded += not a.passthrough
                assert (np.array([a.command.v, a.command.omega]).tobytes()
                        == np.array([b.command.v, -b.command.omega]).tobytes())
    assert checked + ties == 600 and ties <= 6 and shielded > 300


def _passes_cuts(v: int, d: float, intr: CameraIntrinsics, cfg: AvoidanceConfig) -> bool:
    """The obstacle cuts on one pixel, with the oracle's arithmetic."""
    y = (v - intr.cy) * d / intr.fy
    z = d - cfg.mount.depth_offset_m
    return d > 0 and 0 < z <= cfg.tau_z and y >= -cfg.epsilon


def test_property_cut_bounds_reproduce_the_cuts():
    # Each row's bounds pass the cuts and the next float outside each fails
    # them; a frame of exactly those depths lifts what the oracle lifts.
    rng = np.random.default_rng(13)
    for case in range(60):
        height, width = int(rng.integers(1, 24)), int(rng.integers(4, 12))
        intr = CameraIntrinsics(fx=float(rng.uniform(0.5, 500.0)),
                                fy=float(rng.uniform(0.5, 500.0)),
                                cx=float(rng.uniform(0.0, width)),
                                cy=float(rng.uniform(0.0, height)),
                                width=width, height=height)
        mount = CameraMount(depth_offset_m=(-0.1, 0.0, 0.2)[case % 3])
        cfg = _cfg(mount=mount, tau_z=float(rng.choice([0.3, 1.0, 2.5])),
                   epsilon=(-0.05, 0.0, 0.1)[case // 3 % 3])
        top, lo, hi, lo_rev, cols, rows = _cut_tables(intr, cfg.tau_z, cfg.epsilon,
                                                      mount.depth_offset_m)
        assert all(not table.flags.writeable for table in (lo, hi, lo_rev, cols, rows))
        assert lo_rev.flags.c_contiguous and lo_rev.tobytes() == lo[::-1, 0].tobytes()
        assert cols.tolist() == [u - intr.cx for u in range(width)]
        assert rows.tolist() == [v - intr.cy for v in range(top, height)]
        probes = np.zeros((height, 4))
        for v in range(top, height):
            low, high = float(lo[v - top, 0]), float(hi[v - top, 0])
            outside = (np.nextafter(low, 0.0), np.nextafter(high, math.inf))
            if low > high:
                assert not _passes_cuts(v, low, intr, cfg)
                assert not _passes_cuts(v, high, intr, cfg)
            else:
                assert _passes_cuts(v, low, intr, cfg) and _passes_cuts(v, high, intr, cfg)
                assert not any(_passes_cuts(v, d, intr, cfg) for d in outside)
            row = [low, high, *outside]
            probes[v] = [d if d < math.inf else 0.0 for d in row]
        # Rows above top pass nothing; give them the first candidate row's depths.
        probes[:top] = probes[top] if top < height else 0.0
        assert all(not _passes_cuts(v, d, intr, cfg) for v in range(top) for d in probes[v])
        depths = np.tile(probes, (1, width))[:, :width]
        _assert_back_project_matches_oracle(DepthFrame(depths, intr, mount), cfg)


def test_cut_tables_are_monotone():
    # back_project finds a one-stored-row column's first passing row by
    # binary search, which is exact only while, down the candidate rows, lo
    # never increases and hi never decreases.
    for plat in PLATFORMS.values():
        for height in (2, 3, 7, plat.image_height):
            intr = reduced_row_intrinsics(plat, height)
            for epsilon in (-0.05, -1e-9, -0.0, 0.0, 1e-9, 0.3):
                for offset in (plat.camera.depth_offset_m, -0.1, 0.0, 0.2):
                    for tau_z in (0.5, plat.tau_z_m, 3.0):
                        _, lo, hi, *_ = _cut_tables(intr, tau_z, epsilon, offset)
                        case = (plat.name, height, epsilon, offset, tau_z)
                        assert (lo[1:] <= lo[:-1]).all() and (hi[1:] >= hi[:-1]).all(), case


def test_back_project_checks_clouds_whose_points_can_overflow():
    # fx = 1e-306 puts X = 3 * d / fx past the float maximum for d above
    # about 60, a depth the range cut lets through: the inf points are
    # refused where they enter the map, on their own and in the shield.
    intr = CameraIntrinsics(fx=1e-306, fy=1.0, cx=0.0, cy=0.0, width=4, height=2)
    cfg = _cfg(tau_z=100.0, epsilon=0.0)
    depths = np.full((2, 4), 1.0)
    frame = DepthFrame(depths, intr, cfg.mount)
    _assert_back_project_matches_oracle(frame, cfg)
    assert not construct_obstacle_map(back_project(frame, cfg), cfg).empty
    depths[1, 3] = 80.0
    frame = DepthFrame(depths, intr, cfg.mount)
    traj = Trajectory(np.array([[0.5, 0.0], [1.0, 0.0]]))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^point cloud must be finite$"):
            construct_obstacle_map(back_project(frame, cfg), cfg)
        with pytest.raises(ValueError, match="^point cloud must be finite$"):
            avoidance_step(frame, traj, cfg)


@pytest.mark.parametrize("points, message", [
    (np.zeros((4, 2)), "point cloud must have shape (N, 3) with N >= 0, got (4, 2)"),
    (np.zeros(3), "point cloud must have shape (N, 3) with N >= 0, got (3,)"),
    ([[0.0, 0.0, math.nan]], "point cloud must be finite"),
    ([[0.0, -math.inf, 1.0]], "point cloud must be finite"),
], ids=["two_columns", "one_point_1d", "nan", "neg_inf"])
def test_point_cloud_rejects_bad_shapes_and_non_finite_values(points, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        construct_obstacle_map(points, _cfg())


def test_depth_frame_validation():
    intr = intrinsics_for_fov(3, 2, 90.0)
    mount = CameraMount()
    with pytest.raises(InputFormatError):
        DepthFrame(np.zeros((3, 3)), intr, mount)
    with pytest.raises(InputFormatError):
        DepthFrame(np.full((2, 3), -1.0), intr, mount)
    message = "depth values must not be negative"
    for bad in (-np.inf, -1e-300):
        depths = np.full((2, 3), np.nan)
        depths[1, 2] = bad
        with pytest.raises(InputFormatError, match=message):
            DepthFrame(depths, intr, mount)
    # nan and +inf mark a missing return, like 0; so does a frame of nothing else.
    for missing in (np.inf, np.nan):
        depths = np.full((2, 3), 0.5)
        depths[1, 2] = missing
        assert np.array_equal(DepthFrame(depths, intr, mount).depths, depths, equal_nan=True)
    assert np.isnan(DepthFrame(np.full((2, 3), np.nan), intr, mount).depths).all()
    assert DepthFrame(np.full((2, 3), -0.0), intr, mount).depths.min() == 0.0


def test_depth_frame_reads_only_the_stored_row_of_a_row_stride_0_grid():
    # A row-stride-0 grid is checked on its one stored row; a grid with a row
    # of its own, here a C-order one whose only negative depth is in its last
    # row, is checked whole.
    intr = intrinsics_for_fov(5, 4, 90.0)
    mount = CameraMount()
    message = "depth values must not be negative"
    row = np.array([0.5, 0.0, -1e-300, 1.5, 0.5])
    with pytest.raises(InputFormatError, match=message):
        DepthFrame(np.broadcast_to(row, (4, 5)), intr, mount)
    last = np.full((4, 5), 0.5)
    last[3, 4] = -0.5
    assert last.strides[0] != 0
    with pytest.raises(InputFormatError, match=message):
        DepthFrame(last, intr, mount)
    missing = np.broadcast_to([0.5, np.nan, np.inf, 0.0, 2.0], (4, 5))
    frame = DepthFrame(missing, intr, mount)
    assert frame.depths.strides[0] == 0
    assert np.array_equal(frame.depths, missing, equal_nan=True)


def test_depth_frames_are_read_only_views_of_their_input(tmp_path):
    # Every frame refuses writes through depths, whatever built it; a
    # float64 input is viewed, not copied, and stays writable itself.
    intr = intrinsics_for_fov(3, 2, 90.0)
    mount = CameraMount()
    grid = np.tile([0.5, 0.0, 1.5], (2, 1))
    tiled = DepthFrame(grid, intr, mount)
    assert np.shares_memory(tiled.depths, grid)
    save_depth_frame(tiled, tmp_path / "f.df1")
    frames = (tiled, DepthFrame([[0.5, 0.0, 1.5]] * 2, intr, mount),
              load_depth_frame(tmp_path / "f.df1", mount),
              raycast_depth(WorldModel(bounds=(0.0, 0.0, 4.0, 4.0)),
                            RobotState(1.0, 1.0, 0.0), intr, mount))
    for frame in frames:
        assert not frame.depths.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frame.depths[0, 0] = 9.0
    assert grid.flags.writeable
    grid[0, 0] = 2.5
    assert tiled.depths[0, 0] == 2.5


@pytest.mark.parametrize("bad", [np.nan, -0.5])
def test_raycast_frame_passes_the_depth_check(monkeypatch, bad):
    intr = intrinsics_for_fov(3, 2, 90.0)
    monkeypatch.setattr("repshield.sim.raycast.column_depths",
                        lambda *args, **kwargs: np.array([1.0, bad, 0.0]))
    args = (WorldModel(bounds=(0.0, 0.0, 4.0, 4.0)), RobotState(1.0, 1.0, 0.0), intr,
            CameraMount())
    if bad < 0:
        with pytest.raises(InputFormatError, match="depth values must not be negative"):
            raycast_depth(*args)
    else:
        assert np.isnan(raycast_depth(*args).depths[:, 1]).all()


# ---------------------------------------------------------------------------
# Obstacle map: hand-computed cases
# ---------------------------------------------------------------------------

def test_map_single_point_hand_computed():
    cfg = windowed(_cfg(mount=CameraMount(x_offset_m=0.1, depth_offset_m=0.2),
                        tau_z=1.0, bin_count=4), 1.0)
    # Corrected z = 0.9 - 0.2 = 0.7; robot x = 0.7 + 0.1 = 0.8, y = -X = -0.5.
    # Bin of X = 0.5: fov 90 gives half = tan(pi/4) = 1 - 2**-53 and width =
    # half / 2; X + half rounds to 1.5, and 1.5 / width = 3 + 4e-16 floors to 3.
    # Y = 0.2 sits below the camera axis, inside the default height mask.
    omap = construct_obstacle_map(np.array([[0.5, 0.2, 0.9]]), cfg)
    assert len(omap) == 1
    assert omap.bins.tolist() == [3]
    np.testing.assert_allclose(omap.points[0], [0.8, -0.5], rtol=0, atol=1e-15)


def test_map_keeps_nearest_per_bin_with_index_tie_break():
    cfg = windowed(_cfg(tau_z=2.0, bin_count=2), 1.0)
    cloud = np.array([
        [-0.5, 0.2, 1.5],   # bin 0, farther
        [-0.4, 0.2, 0.8],   # bin 0, nearest -> wins
        [0.5, 0.2, 1.0],    # bin 1, ties with the next on z
        [0.6, 0.2, 1.0],    # bin 1, same z, higher index -> loses
    ])
    omap = construct_obstacle_map(cloud, cfg)
    assert omap.bins.tolist() == [0, 1]
    np.testing.assert_allclose(omap.points[:, 0], [0.8, 1.0])
    np.testing.assert_allclose(omap.points[:, 1], [0.4, -0.5])


def test_map_empty_cloud_and_all_filtered():
    cfg = windowed(_cfg(bin_count=8), 1.0)
    empty = construct_obstacle_map(np.empty((0, 3)), cfg)
    assert empty.empty and len(empty) == 0
    # The range and height cuts are back_project's; the map drops only
    # candidates outside the lateral window.
    outside = np.array([[2.0, 0.2, 0.5], [-1.5, 0.2, 0.4]])
    assert construct_obstacle_map(outside, cfg).empty


def test_map_filters_by_height_and_range():
    # Each pixel but one is dropped by exactly one cut, and each would land
    # in a bin of its own: back_project drops the overhead, far and zero
    # pixels, the map drops the one outside the lateral window.
    intr = CameraIntrinsics(fx=4.0, fy=2.0, cx=1.0, cy=1.0, width=5, height=3)
    cfg = windowed(_cfg(tau_z=1.0, epsilon=-0.05, bin_count=8), 0.5)
    depths = np.zeros((3, 5))
    depths[2, 1] = 0.5   # X = 0, Y = 0.25, Z = 0.5: ground-level return, kept
    depths[0, 2] = 0.5   # Y = -0.25: overhead, dropped on height
    depths[2, 0] = 1.6   # X = -0.4, Z = 1.6: beyond tau_z, dropped on range
    depths[2, 4] = 0.8   # X = 0.6: outside the lateral window, dropped by the map
    cloud = _assert_back_project_matches_oracle(DepthFrame(depths, intr, cfg.mount), cfg)
    assert cloud[:, 2].tolist() == [0.5, 0.8]
    omap = construct_obstacle_map(cloud, cfg)
    assert len(omap) == 1
    np.testing.assert_allclose(omap.points[0], [0.5, 0.0], atol=1e-15)


def test_map_window_edges_land_in_the_end_bins():
    cfg = windowed(_cfg(tau_z=2.0, bin_count=5), 0.7)
    half = cfg.bin_window[0]
    xs = [-half, half, np.nextafter(-half, -math.inf), np.nextafter(half, math.inf)]
    cloud = np.array([[x, 0.1, 0.5 + 0.1 * k] for k, x in enumerate(xs)])
    omap = construct_obstacle_map(cloud, cfg)
    assert omap.bins.tolist() == [0, cfg.bin_count - 1]
    assert omap.points[:, 1].tolist() == [half, -half]
    # With nothing outside the window the map bins every point, as the oracle.
    rng = np.random.default_rng(14)
    inside = random_cloud(rng, 300, cfg)
    inside[:, 0] = np.clip(inside[:, 0], -half, half)
    _cut_map_matches_oracle(inside, cfg)


def test_default_half_range_follows_fov_and_tau():
    cfg = _cfg(mount=CameraMount(fov_deg=90.0), tau_z=2.0)
    assert cfg.bin_window[0] == pytest.approx(2.0)
    assert windowed(cfg, 0.7).bin_window[0] == pytest.approx(0.7, rel=1e-15)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

def _cut_map_matches_oracle(pts: np.ndarray, cfg: AvoidanceConfig):
    """The map of the points that pass the oracle's cuts equals the binning
    oracle on every point, exactly."""
    omap = construct_obstacle_map(oracle_cut(pts, cfg), cfg)
    ref_pts, ref_bins = oracle_obstacle_map(pts, cfg)
    assert omap.bins.tolist() == ref_bins.tolist()
    np.testing.assert_array_equal(omap.points, ref_pts)
    return omap


def test_property_oracle_equivalence():
    rng = np.random.default_rng(7)
    for case in range(150):
        cfg = _cfg(mount=CameraMount(x_offset_m=float(rng.uniform(-0.1, 0.1)),
                                     depth_offset_m=float(rng.uniform(-0.2, 0.2))),
                   tau_z=float(rng.uniform(0.5, 2.0)),
                   bin_count=int(rng.integers(1, 40)))
        cfg = windowed(cfg, float(rng.uniform(0.3, 2.0)))
        _cut_map_matches_oracle(random_cloud(rng, int(rng.integers(0, 400)), cfg), cfg)


def _loop_back_project(frame: DepthFrame) -> np.ndarray:
    """Plain pixel-loop pinhole back-projection, in row-major order."""
    intr = frame.intrinsics
    rows = []
    for v in range(intr.height):
        for u in range(intr.width):
            d = float(frame.depths[v, u])
            if d > 0:
                rows.append(((u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d))
    return np.array(rows, dtype=np.float64).reshape(len(rows), 3)


def _assert_map_matches_oracle(frame: DepthFrame, cfg: AvoidanceConfig):
    omap = construct_obstacle_map(back_project(frame, cfg), cfg)
    ref_pts, ref_bins = oracle_obstacle_map(_loop_back_project(frame), cfg)
    assert omap.bins.tolist() == ref_bins.tolist()
    np.testing.assert_array_equal(omap.points, ref_pts)
    return omap


def test_property_depth_frame_oracle_equivalence():
    # The DepthFrame path: back_project then construct_obstacle_map must
    # equal the binning oracle fed by a pixel loop, exactly.
    rng = np.random.default_rng(11)
    for case in range(150):
        width, height = int(rng.integers(2, 48)), int(rng.integers(2, 12))
        mount = CameraMount(x_offset_m=float(rng.uniform(-0.1, 0.1)),
                            fov_deg=float(rng.uniform(20.0, 175.0)),
                            depth_offset_m=float(rng.uniform(-0.2, 0.2)))
        cfg = _cfg(mount=mount, tau_z=float(rng.uniform(0.5, 2.0)),
                   epsilon=float(rng.uniform(-0.2, 0.2)),
                   bin_count=int(rng.integers(1, 40)))
        if case % 2:
            cfg = windowed(cfg, float(rng.uniform(0.1, 2.0)))
        depths = rng.uniform(0.0, 1.5 * cfg.tau_z, size=(height, width)) + mount.depth_offset_m
        depths = np.maximum(depths, 0.0)
        depths[rng.random((height, width)) < 0.2] = 0.0
        # Neighbouring columns with equal depths give equal-Z returns at
        # different X in one bin, so the lowest-index tie-break decides.
        k = int(rng.integers(0, width - 1))
        depths[:, k + 1] = depths[:, k]
        frame = DepthFrame(depths, intrinsics_for_fov(width, height, mount.fov_deg), mount)
        _assert_map_matches_oracle(frame, cfg)


def test_tiled_frame_ties_resolve_to_lowest_index():
    # The simulator tiles one depth down each column. When runs of columns
    # share a depth inside one bin, hundreds of points tie on Z there; the
    # lowest point index (first kept row of the leftmost tied column) wins.
    mount = CameraMount(fov_deg=90.0)
    intr = intrinsics_for_fov(64, 48, 90.0)
    box = np.full(64, 0.9)
    box[20:44] = 0.45  # a nearer box in front of a wall
    for cols in (np.full(64, 0.6), box):
        frame = DepthFrame(np.tile(cols, (48, 1)), intr, mount)
        cfg = _cfg(mount=mount, bin_count=4)
        omap = _assert_map_matches_oracle(frame, cfg)
        assert omap.bins.tolist() == [0, 1, 2, 3]
        # Every Z is within tau_z and the mount has no offsets, so a bin's
        # winning Z is its map entry's x.
        kept = back_project(frame, cfg)
        half = cfg.bin_window[0]
        bins = np.minimum(np.floor((kept[:, 0] + half) / (half / 2)), 3)
        for b, x in zip(omap.bins, omap.points[:, 0]):
            assert np.count_nonzero((bins == b) & (kept[:, 2] == x)) >= 100


def test_depth_frames_with_empty_maps():
    mount = CameraMount(fov_deg=90.0)
    intr = intrinsics_for_fov(8, 6, 90.0)
    cases = [
        (np.zeros((6, 8)), _cfg(mount=mount)),
        (np.full((6, 8), 1.5), _cfg(mount=mount, tau_z=1.0)),
        # Even width: no column center sits on the axis, so every return
        # lies at |X| >= 0.5 * 0.5 / fx, outside a 1 mm window.
        (np.full((6, 8), 0.5), windowed(_cfg(mount=mount), 1e-3)),
    ]
    for depths, cfg in cases:
        omap = _assert_map_matches_oracle(DepthFrame(depths, intr, mount), cfg)
        assert omap.points.shape == (0, 2)
        assert omap.points.dtype == np.float64
        assert omap.bins.dtype == np.int64


def test_property_mask_survivors_reproduce_the_map():
    # Filtering is idempotent: dropping the masked-out points and
    # rebuilding yields the identical map, and the survivor set of the
    # survivor set is itself. The map's input passes the obstacle cuts.
    rng = np.random.default_rng(8)
    for case in range(120):
        cfg = _cfg(mount=CameraMount(depth_offset_m=float(rng.uniform(-0.2, 0.2))),
                   tau_z=float(rng.uniform(0.5, 2.0)),
                   bin_count=int(rng.integers(1, 33)))
        cfg = windowed(cfg, float(rng.uniform(0.3, 2.0)))
        pts = random_cloud(rng, int(rng.integers(1, 300)), cfg)
        half = cfg.bin_window[0]

        def mask(p):
            z = p[:, 2] - cfg.mount.depth_offset_m
            return ((z > 0) & (z <= cfg.tau_z) & (p[:, 1] >= -cfg.epsilon)
                    & (p[:, 0] >= -half) & (p[:, 0] <= half))

        keep = mask(pts)
        survivors = pts[keep]
        assert np.array_equal(mask(survivors), np.ones(len(survivors), dtype=bool))
        full = _cut_map_matches_oracle(pts, cfg)
        masked = construct_obstacle_map(survivors, cfg)
        assert full.bins.tolist() == masked.bins.tolist()
        np.testing.assert_array_equal(full.points, masked.points)


def test_property_tau_monotonicity_with_pinned_window():
    # With the lateral window held (up to rounding), growing tau_z can only
    # add entries or move an existing bin's point nearer, never drop or push away.
    rng = np.random.default_rng(9)
    for case in range(120):
        mount = CameraMount(depth_offset_m=float(rng.uniform(-0.1, 0.1)))
        tau_small = float(rng.uniform(0.4, 1.2))
        tau_big = tau_small + float(rng.uniform(0.1, 1.0))
        kwargs = dict(mount=mount, bin_count=int(rng.integers(1, 24)))
        half = float(rng.uniform(0.3, 1.5))
        cfg_small = windowed(_cfg(tau_z=tau_small, **kwargs), half)
        cfg_big = windowed(_cfg(tau_z=tau_big, **kwargs), half)
        pts = random_cloud(rng, int(rng.integers(1, 300)), cfg_big)
        small = _cut_map_matches_oracle(pts, cfg_small)
        big = _cut_map_matches_oracle(pts, cfg_big)
        big_by_bin = dict(zip(big.bins.tolist(), big.points))
        for b, p in zip(small.bins.tolist(), small.points):
            assert b in big_by_bin
            assert big_by_bin[b][0] <= p[0] + 1e-15


def test_property_emitted_ranges():
    rng = np.random.default_rng(10)
    for case in range(150):
        mount = CameraMount(x_offset_m=float(rng.uniform(-0.1, 0.1)),
                            depth_offset_m=float(rng.uniform(-0.2, 0.2)))
        cfg = _cfg(mount=mount, tau_z=float(rng.uniform(0.5, 2.0)),
                   bin_count=int(rng.integers(1, 40)))
        cfg = windowed(cfg, float(rng.uniform(0.3, 2.0)))
        pts = random_cloud(rng, int(rng.integers(0, 300)), cfg)
        omap = _cut_map_matches_oracle(pts, cfg)
        # The builder's guarantees, which ObstacleMap does not check itself.
        assert omap.points.shape == (len(omap.bins), 2)
        assert omap.points.dtype == np.float64 and omap.bins.dtype == np.int64
        assert np.all((omap.bins >= 0) & (omap.bins < cfg.bin_count))
        if omap.empty:
            assert omap.points.shape == (0, 2)
            continue
        z = omap.points[:, 0] - mount.x_offset_m
        assert np.all(z > 0) and np.all(z <= cfg.tau_z)
        half = cfg.bin_window[0]
        assert np.all(np.abs(omap.points[:, 1]) <= half)
        assert np.all(np.diff(omap.bins) > 0)
        assert len(omap) <= cfg.bin_count


def test_frontal_wall_depth_recovered():
    # A constant-depth frame is a frontal wall: every surviving bin entry
    # reports the wall distance exactly (no quantization in the synthetic
    # frame), shifted to the robot frame.
    intr = intrinsics_for_fov(64, 16, 90.0)
    mount = CameraMount(x_offset_m=0.05, fov_deg=90.0)
    cfg = _cfg(mount=mount, tau_z=1.0, bin_count=8)
    d = 0.8
    frame = DepthFrame(np.full((16, 64), d), intr, mount)
    omap = construct_obstacle_map(back_project(frame, cfg), cfg)
    assert not omap.empty
    np.testing.assert_allclose(omap.points[:, 0], d + 0.05, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_depth_frame_round_trip(tmp_path):
    intr = intrinsics_for_fov(6, 4, 90.0)
    mount = CameraMount()
    rng = np.random.default_rng(3)
    depths = np.round(rng.uniform(0.0, 3.0, size=(4, 6)), 6)
    frame = DepthFrame(depths, intr, mount)
    path = tmp_path / "frame.df1"
    save_depth_frame(frame, path)
    loaded = load_depth_frame(path, mount)
    np.testing.assert_array_equal(loaded.depths, depths)
    assert loaded.intrinsics == intr


def test_depth_frame_load_errors(tmp_path):
    p = tmp_path / "bad.df1"
    p.write_text("XX1 2 2 1.0 1.0 0.5 0.5\n0 0 0 0\n")
    with pytest.raises(InputFormatError):
        load_depth_frame(p, CameraMount())
    p.write_text("DF1 2 2 1.0 1.0 0.5 0.5\n0 0 0\n")
    with pytest.raises(InputFormatError):
        load_depth_frame(p, CameraMount())
    p.write_text("DF1 2 2 1.0 oops 0.5 0.5\n0 0 0 0\n")
    with pytest.raises(InputFormatError):
        load_depth_frame(p, CameraMount())


@pytest.mark.parametrize("text, message", [
    ("DF1 2 2 1.0 1.0 0.5 0.5\n0 0 0\n", "expected 2 rows (4 values), found 3 values"),
    ("DF1 2 -2 1.0 1.0 0.5 0.5\n", "height must be at least 1, got -2"),
], ids=["short_body", "negative_height"])
def test_depth_frame_load_names_the_value_count(tmp_path, text, message):
    # The header is checked before the body is counted against it.
    p = tmp_path / "bad.df1"
    p.write_text(text)
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_depth_frame(p, CameraMount())


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("key", ["fx", "fy"])
def test_depth_frame_rejects_non_finite_focal_length(tmp_path, key, bad):
    # Before the check, fx = inf mapped every pixel to X = 0 (one obstacle
    # dead ahead) and fx = nan failed later without naming the file.
    p = tmp_path / "bad.df1"
    focal = {"fx": "1.0", "fy": "1.0", key: bad}
    p.write_text(f"DF1 2 2 {focal['fx']} {focal['fy']} 0.5 0.5\n1 1 1 1\n")
    with pytest.raises(InputFormatError, match=f"{re.escape(str(p))}: focal lengths"):
        load_depth_frame(p, CameraMount())

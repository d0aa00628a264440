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

from conftest import oracle_back_project, oracle_obstacle_map, random_cloud
from repshield import (AvoidanceConfig, CameraIntrinsics, CameraMount, DepthFrame,
                       InputFormatError, PointCloud, back_project,
                       construct_obstacle_map, intrinsics_for_fov,
                       load_depth_frame, save_depth_frame)
from repshield.harness import resolve_world
from repshield.platforms import PLATFORMS
from repshield.projection import bin_half_range
from repshield.sim import RobotState, raycast_depth


def _cfg(**overrides) -> AvoidanceConfig:
    mount = overrides.pop("mount", CameraMount(height_m=0.3))
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
        CameraMount(height_m=0.0)
    with pytest.raises(ValueError):
        CameraMount(height_m=0.3, fov_deg=200.0)


_LOCOBOT = PLATFORMS["locobot"]


@pytest.mark.parametrize("build, message", [
    (lambda: _LOCOBOT.intrinsics(1), "rows must be at least 2, got 1"),
    (lambda: _LOCOBOT.intrinsics(2.5), "rows must be an integer, got 2.5"),
    (lambda: _LOCOBOT.intrinsics(True), "rows must be an integer, got True"),
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
], ids=["rows_1", "rows_float", "rows_bool", "width_1", "width_float", "height_0",
        "fov_180", "fov_0", "fov_negative", "intrinsics_width_float",
        "intrinsics_height_bool"])
def test_intrinsics_check_their_own_arguments(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
    # numpy integers are integers.
    assert intrinsics_for_fov(np.int64(2), np.int32(1), 90.0).width == 2
    assert _LOCOBOT.intrinsics(np.int64(2)).height == 2


# ---------------------------------------------------------------------------
# Back-projection
# ---------------------------------------------------------------------------

def test_back_project_single_pixel_hand_computed():
    intr = CameraIntrinsics(fx=100.0, fy=50.0, cx=2.0, cy=1.0, width=5, height=3)
    depths = np.zeros((3, 5))
    depths[2, 4] = 2.0
    cloud = back_project(DepthFrame(depths, intr, CameraMount(height_m=0.3)))
    assert len(cloud) == 1
    # X = (4 - 2) * 2 / 100 = 0.04, Y = (2 - 1) * 2 / 50 = 0.04, Z = 2
    np.testing.assert_allclose(cloud.points[0], [0.04, 0.04, 2.0], rtol=0, atol=1e-15)


def test_back_project_drops_zero_depth_pixels():
    intr = intrinsics_for_fov(4, 4, 90.0)
    depths = np.zeros((4, 4))
    depths[1, 1] = 1.0
    depths[3, 2] = 0.5
    cloud = back_project(DepthFrame(depths, intr, CameraMount(height_m=0.3)))
    assert len(cloud) == 2
    assert np.all(cloud.points[:, 2] > 0)


def test_back_project_row_major_order():
    intr = intrinsics_for_fov(3, 3, 90.0)
    depths = np.ones((3, 3))
    cloud = back_project(DepthFrame(depths, intr, CameraMount(height_m=0.3)))
    # Row-major pixel order: Y must be non-decreasing, and X increases
    # within each row.
    ys = cloud.points[:, 1]
    assert np.all(np.diff(ys) >= -1e-15)
    assert len(cloud) == 9


def _assert_back_project_matches_oracle(frame: DepthFrame):
    points = back_project(frame).points
    ref = oracle_back_project(frame)
    assert points.shape == ref.shape
    assert points.tobytes() == ref.tobytes()


def test_property_back_project_matches_oracle_bitwise():
    rng = np.random.default_rng(12)
    mount = CameraMount(height_m=0.3)
    shapes = [(1, 1), (1, 23), (17, 1)] + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 60))) for _ in range(80)]
    for height, width in shapes:
        # Off-centre principal point and fx != fy.
        intr = CameraIntrinsics(fx=float(rng.uniform(0.5, 500.0)),
                                fy=float(rng.uniform(0.5, 500.0)),
                                cx=float(rng.uniform(0.0, width)),
                                cy=float(rng.uniform(0.0, height)),
                                width=width, height=height)
        depths = rng.uniform(0.0, 5.0, size=(height, width))
        depths[rng.random((height, width)) < 0.2] = 0.0
        _assert_back_project_matches_oracle(DepthFrame(depths, intr, mount))
        # A column-major depth grid still yields row-major pixel order.
        _assert_back_project_matches_oracle(DepthFrame(np.asfortranarray(depths), intr, mount))
    zeros = DepthFrame(np.zeros((6, 9)), intrinsics_for_fov(9, 6, 90.0), mount)
    _assert_back_project_matches_oracle(zeros)
    assert len(back_project(zeros)) == 0


def test_back_project_native_frames_match_oracle_bitwise():
    world = resolve_world("corridor_03")
    for plat in PLATFORMS.values():
        frame = raycast_depth(world, RobotState(1.0, 1.0, 0.3), plat.intrinsics(), plat.mount())
        assert frame.depths.shape == (plat.image_height, plat.image_width)
        _assert_back_project_matches_oracle(frame)


def test_depth_frame_validation():
    intr = intrinsics_for_fov(3, 2, 90.0)
    mount = CameraMount(height_m=0.3)
    with pytest.raises(InputFormatError):
        DepthFrame(np.zeros((3, 3)), intr, mount)
    with pytest.raises(InputFormatError):
        DepthFrame(np.full((2, 3), -1.0), intr, mount)
    with pytest.raises(InputFormatError):
        DepthFrame(np.full((2, 3), np.nan), intr, mount)


# ---------------------------------------------------------------------------
# Obstacle map: hand-computed cases
# ---------------------------------------------------------------------------

def test_map_single_point_hand_computed():
    cfg = _cfg(mount=CameraMount(height_m=0.3, x_offset_m=0.1, depth_offset_m=0.2),
               tau_z=1.0, bin_count=4, x_half_range_m=1.0)
    # Corrected z = 0.9 - 0.2 = 0.7; robot x = 0.7 + 0.1 = 0.8, y = -X = -0.5.
    # Bin of X = 0.5 with half = 1, width = 0.5: floor(1.5 / 0.5) = 3.
    # Y = 0.2 sits below the camera axis, inside the default height mask.
    cloud = PointCloud(np.array([[0.5, 0.2, 0.9]]))
    omap = construct_obstacle_map(cloud, cfg)
    assert len(omap) == 1
    assert omap.bins.tolist() == [3]
    np.testing.assert_allclose(omap.points[0], [0.8, -0.5], rtol=0, atol=1e-15)


def test_map_keeps_nearest_per_bin_with_index_tie_break():
    cfg = _cfg(tau_z=2.0, bin_count=2, x_half_range_m=1.0)
    cloud = PointCloud(np.array([
        [-0.5, 0.2, 1.5],   # bin 0, farther
        [-0.4, 0.2, 0.8],   # bin 0, nearest -> wins
        [0.5, 0.2, 1.0],    # bin 1, ties with the next on z
        [0.6, 0.2, 1.0],    # bin 1, same z, higher index -> loses
    ]))
    omap = construct_obstacle_map(cloud, cfg)
    assert omap.bins.tolist() == [0, 1]
    np.testing.assert_allclose(omap.points[:, 0], [0.8, 1.0])
    np.testing.assert_allclose(omap.points[:, 1], [0.4, -0.5])


def test_map_filters_by_height_and_range():
    cfg = _cfg(tau_z=1.0, epsilon=-0.05, bin_count=8, x_half_range_m=1.0)
    cloud = PointCloud(np.array([
        [0.0, 0.2, 0.5],     # ground-level return, kept
        [0.1, -0.5, 0.5],    # overhead (Y well above axis), dropped
        [0.2, 0.2, 1.6],     # beyond tau_z, dropped
        [0.3, 0.2, 0.0],     # invalid depth, dropped
        [2.0, 0.2, 0.5],     # outside lateral window, dropped
    ]))
    omap = construct_obstacle_map(cloud, cfg)
    assert len(omap) == 1
    np.testing.assert_allclose(omap.points[0], [0.5, 0.0], atol=1e-15)


def test_map_epsilon_boundary_is_closed():
    # Y >= -epsilon keeps a point exactly at the cutoff height.
    cfg = _cfg(tau_z=1.0, epsilon=-0.05, bin_count=4, x_half_range_m=1.0)
    at_cut = PointCloud(np.array([[0.0, 0.05, 0.5]]))
    below = PointCloud(np.array([[0.0, np.nextafter(0.05, -1.0), 0.5]]))
    assert len(construct_obstacle_map(at_cut, cfg)) == 1
    assert len(construct_obstacle_map(below, cfg)) == 0


def test_map_tau_boundary_is_closed():
    cfg = _cfg(tau_z=1.0, bin_count=4, x_half_range_m=1.0)
    at_tau = PointCloud(np.array([[0.0, 0.2, 1.0]]))
    beyond = PointCloud(np.array([[0.0, 0.2, np.nextafter(1.0, 2.0)]]))
    assert len(construct_obstacle_map(at_tau, cfg)) == 1
    assert len(construct_obstacle_map(beyond, cfg)) == 0


def test_map_empty_cloud_and_all_filtered():
    cfg = _cfg()
    empty = construct_obstacle_map(PointCloud(np.empty((0, 3))), cfg)
    assert empty.empty and len(empty) == 0
    far = construct_obstacle_map(PointCloud(np.array([[0.0, 0.0, 9.0]])), cfg)
    assert far.empty


def test_default_half_range_follows_fov_and_tau():
    cfg = _cfg(mount=CameraMount(height_m=0.3, fov_deg=90.0), tau_z=2.0)
    assert bin_half_range(cfg) == pytest.approx(2.0)
    pinned = _cfg(x_half_range_m=0.7)
    assert bin_half_range(pinned) == 0.7


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

def test_property_oracle_equivalence():
    rng = np.random.default_rng(7)
    for case in range(150):
        cfg = _cfg(mount=CameraMount(height_m=0.3,
                                     x_offset_m=float(rng.uniform(-0.1, 0.1)),
                                     depth_offset_m=float(rng.uniform(-0.2, 0.2))),
                   tau_z=float(rng.uniform(0.5, 2.0)),
                   bin_count=int(rng.integers(1, 40)),
                   x_half_range_m=float(rng.uniform(0.3, 2.0)))
        pts = random_cloud(rng, int(rng.integers(0, 400)), cfg)
        omap = construct_obstacle_map(PointCloud(pts), cfg)
        ref_pts, ref_bins = oracle_obstacle_map(pts, cfg)
        assert omap.bins.tolist() == ref_bins.tolist()
        np.testing.assert_array_equal(omap.points, ref_pts)


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
    omap = construct_obstacle_map(back_project(frame), cfg)
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
        mount = CameraMount(height_m=0.3,
                            x_offset_m=float(rng.uniform(-0.1, 0.1)),
                            fov_deg=float(rng.uniform(20.0, 175.0)),
                            depth_offset_m=float(rng.uniform(-0.2, 0.2)))
        cfg = _cfg(mount=mount, tau_z=float(rng.uniform(0.5, 2.0)),
                   epsilon=float(rng.uniform(-0.2, 0.2)),
                   bin_count=int(rng.integers(1, 40)),
                   x_half_range_m=(float(rng.uniform(0.1, 2.0)) if case % 2 else None))
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
    mount = CameraMount(height_m=0.3, fov_deg=90.0)
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
        cloud = back_project(frame).points
        kept = cloud[cloud[:, 1] >= -cfg.epsilon]
        half = bin_half_range(cfg)
        bins = np.minimum(np.floor((kept[:, 0] + half) / (half / 2)), 3)
        for b, x in zip(omap.bins, omap.points[:, 0]):
            assert np.count_nonzero((bins == b) & (kept[:, 2] == x)) >= 100


def test_depth_frames_with_empty_maps():
    mount = CameraMount(height_m=0.3, fov_deg=90.0)
    intr = intrinsics_for_fov(8, 6, 90.0)
    cases = [
        (np.zeros((6, 8)), _cfg(mount=mount)),
        (np.full((6, 8), 1.5), _cfg(mount=mount, tau_z=1.0)),
        # Even width: no column center sits on the axis, so every return
        # lies at |X| >= 0.5 * 0.5 / fx, outside the pinned window.
        (np.full((6, 8), 0.5), _cfg(mount=mount, x_half_range_m=1e-3)),
    ]
    for depths, cfg in cases:
        omap = _assert_map_matches_oracle(DepthFrame(depths, intr, mount), cfg)
        assert omap.points.shape == (0, 2)
        assert omap.points.dtype == np.float64
        assert omap.bins.dtype == np.int64


def test_property_mask_survivors_reproduce_the_map():
    # Filtering is idempotent: dropping the masked-out points and
    # rebuilding yields the identical map, and the survivor set of the
    # survivor set is itself.
    rng = np.random.default_rng(8)
    for case in range(120):
        cfg = _cfg(mount=CameraMount(height_m=0.3,
                                     depth_offset_m=float(rng.uniform(-0.2, 0.2))),
                   tau_z=float(rng.uniform(0.5, 2.0)),
                   bin_count=int(rng.integers(1, 33)),
                   x_half_range_m=float(rng.uniform(0.3, 2.0)))
        pts = random_cloud(rng, int(rng.integers(1, 300)), cfg)
        half = bin_half_range(cfg)

        def mask(p):
            z = p[:, 2] - cfg.mount.depth_offset_m
            return ((z > 0) & (z <= cfg.tau_z) & (p[:, 1] >= -cfg.epsilon)
                    & (p[:, 0] >= -half) & (p[:, 0] <= half))

        keep = mask(pts)
        survivors = pts[keep]
        assert np.array_equal(mask(survivors), np.ones(len(survivors), dtype=bool))
        full = construct_obstacle_map(PointCloud(pts), cfg)
        masked = construct_obstacle_map(PointCloud(survivors), cfg)
        assert full.bins.tolist() == masked.bins.tolist()
        np.testing.assert_array_equal(full.points, masked.points)


def test_property_tau_monotonicity_with_pinned_window():
    # With the lateral window pinned, growing tau_z can only add entries
    # or move an existing bin's point nearer, never drop or push away.
    rng = np.random.default_rng(9)
    for case in range(120):
        mount = CameraMount(height_m=0.3, depth_offset_m=float(rng.uniform(-0.1, 0.1)))
        tau_small = float(rng.uniform(0.4, 1.2))
        tau_big = tau_small + float(rng.uniform(0.1, 1.0))
        kwargs = dict(mount=mount, bin_count=int(rng.integers(1, 24)),
                      x_half_range_m=float(rng.uniform(0.3, 1.5)))
        cfg_small = _cfg(tau_z=tau_small, **kwargs)
        cfg_big = _cfg(tau_z=tau_big, **kwargs)
        pts = random_cloud(rng, int(rng.integers(1, 300)), cfg_big)
        small = construct_obstacle_map(PointCloud(pts), cfg_small)
        big = construct_obstacle_map(PointCloud(pts), cfg_big)
        big_by_bin = dict(zip(big.bins.tolist(), big.points))
        for b, p in zip(small.bins.tolist(), small.points):
            assert b in big_by_bin
            assert big_by_bin[b][0] <= p[0] + 1e-15


def test_property_emitted_ranges():
    rng = np.random.default_rng(10)
    for case in range(150):
        mount = CameraMount(height_m=0.3,
                            x_offset_m=float(rng.uniform(-0.1, 0.1)),
                            depth_offset_m=float(rng.uniform(-0.2, 0.2)))
        cfg = _cfg(mount=mount, tau_z=float(rng.uniform(0.5, 2.0)),
                   bin_count=int(rng.integers(1, 40)),
                   x_half_range_m=float(rng.uniform(0.3, 2.0)))
        pts = random_cloud(rng, int(rng.integers(0, 300)), cfg)
        omap = construct_obstacle_map(PointCloud(pts), cfg)
        # The builder's guarantees, which ObstacleMap does not check itself.
        assert omap.points.shape == (len(omap.bins), 2)
        assert omap.points.dtype == np.float64 and omap.bins.dtype == np.int64
        assert np.all((omap.bins >= 0) & (omap.bins < cfg.bin_count))
        if omap.empty:
            assert omap.points.shape == (0, 2)
            continue
        z = omap.points[:, 0] - mount.x_offset_m
        assert np.all(z > 0) and np.all(z <= cfg.tau_z)
        half = bin_half_range(cfg)
        assert np.all(np.abs(omap.points[:, 1]) <= half)
        assert np.all(np.diff(omap.bins) > 0)
        assert len(omap) <= cfg.bin_count


def test_frontal_wall_depth_recovered():
    # A constant-depth frame is a frontal wall: every surviving bin entry
    # reports the wall distance exactly (no quantization in the synthetic
    # frame), shifted to the robot frame.
    intr = intrinsics_for_fov(64, 16, 90.0)
    mount = CameraMount(height_m=0.3, x_offset_m=0.05, fov_deg=90.0)
    cfg = _cfg(mount=mount, tau_z=1.0, bin_count=8)
    d = 0.8
    frame = DepthFrame(np.full((16, 64), d), intr, mount)
    omap = construct_obstacle_map(back_project(frame), cfg)
    assert not omap.empty
    np.testing.assert_allclose(omap.points[:, 0], d + 0.05, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_depth_frame_round_trip(tmp_path):
    intr = intrinsics_for_fov(6, 4, 90.0)
    mount = CameraMount(height_m=0.3)
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
        load_depth_frame(p, CameraMount(height_m=0.3))
    p.write_text("DF1 2 2 1.0 1.0 0.5 0.5\n0 0 0\n")
    with pytest.raises(InputFormatError):
        load_depth_frame(p, CameraMount(height_m=0.3))
    p.write_text("DF1 2 2 1.0 oops 0.5 0.5\n0 0 0 0\n")
    with pytest.raises(InputFormatError):
        load_depth_frame(p, CameraMount(height_m=0.3))


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("key", ["fx", "fy"])
def test_depth_frame_rejects_non_finite_focal_length(tmp_path, key, bad):
    # Before the check, fx = inf mapped every pixel to X = 0 (one obstacle
    # dead ahead) and fx = nan failed later without naming the file.
    p = tmp_path / "bad.df1"
    focal = {"fx": "1.0", "fy": "1.0", key: bad}
    p.write_text(f"DF1 2 2 {focal['fx']} {focal['fy']} 0.5 0.5\n1 1 1 1\n")
    with pytest.raises(InputFormatError, match=f"{re.escape(str(p))}: focal lengths"):
        load_depth_frame(p, CameraMount(height_m=0.3))

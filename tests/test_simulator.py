"""Tests for the planar simulator: kinematics, collision, raycasting,
world files, scripted agents and the stub policies.

The closed-form unicycle step for omega != 0 follows the arc
    x' = x + (v/omega) * (sin(h + omega dt) - sin h)
    y' = y + (v/omega) * (cos h - cos(h + omega dt))
which every hand-computed case below evaluates directly.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from repshield import (AvoidanceConfig, CameraMount, ControlCommand, DepthFrame, Shield,
                       Trajectory, avoidance_step, construct_obstacle_map, back_project,
                       intrinsics_for_fov, load_depth_frame, save_depth_frame)
from repshield.errors import InputFormatError
from repshield.platforms import PLATFORMS, SIM_FRAME_ROWS, get_platform
from repshield.sim import (FAR_LIMIT_M, AgentTrack, Circle, GoalSeeker, Polygon,
                           RobotState, WorldModel, Wanderer, check_collision, column_depths,
                           load_world, perturb_agent, raycast_depth,
                           save_world, step_kinematics)
from repshield.sim import raycast
from repshield.sim.world import GEOMETRY_MARGIN_M
from repshield.harness import (GOAL_RADIUS_M, ExperimentSpec, episodes, run_episode,
                               run_goal_conditioned)
from repshield.worldgen import BUNDLED_WORLDS

from conftest import oracle_collision, oracle_column_depths, oracle_lifted, oracle_lifted_once


def _square(cx, cy, side):
    h = side / 2
    return Polygon(np.array([[cx - h, cy - h], [cx + h, cy - h],
                             [cx + h, cy + h], [cx - h, cy + h]]))


def _open_world(size=20.0):
    return WorldModel(bounds=(-size, -size, size, size), bounds_solid=False)


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

def test_step_straight_line_hand_computed():
    s = RobotState(1.0, 2.0, math.pi / 2)
    out = step_kinematics(s, ControlCommand(0.2, 0.0), 0.1)
    assert out.x == pytest.approx(1.0, abs=1e-15)
    assert out.y == pytest.approx(2.02)
    assert out.heading == math.pi / 2


def test_step_arc_hand_computed():
    # v = 0.2, omega = 0.8: radius 0.25; from the origin heading 0,
    # dt = 0.1 turns 0.08 rad.
    out = step_kinematics(RobotState(0.0, 0.0, 0.0), ControlCommand(0.2, 0.8), 0.1)
    assert out.x == pytest.approx(0.25 * math.sin(0.08))
    assert out.y == pytest.approx(0.25 * (1 - math.cos(0.08)))
    assert out.heading == pytest.approx(0.08)


def test_step_pure_rotation_keeps_position_bit_identical():
    s = RobotState(0.123456789, -9.87654321, 2.5)
    out = step_kinematics(s, ControlCommand(0.0, -0.8), 0.1)
    assert out.x == s.x and out.y == s.y
    assert out.heading == pytest.approx(2.42)


def test_step_full_circle_returns_home():
    # v/omega = 0.25 m radius; 2 pi / omega seconds closes the loop.
    s = RobotState(0.3, 0.4, 1.0)
    period = 2 * math.pi / 0.8
    out = s
    steps = 100
    for _ in range(steps):
        out = step_kinematics(out, ControlCommand(0.2, 0.8), period / steps)
    assert out.x == pytest.approx(s.x, abs=1e-9)
    assert out.y == pytest.approx(s.y, abs=1e-9)


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_kinematics(RobotState(0, 0, 0), ControlCommand(0.1, 0.0), 0.0)


def test_property_displacement_bounded_by_speed():
    # Arc chord length never exceeds v * dt.
    rng = np.random.default_rng(51)
    for _ in range(200):
        s = RobotState(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                       float(rng.uniform(-math.pi, math.pi)))
        v = float(rng.uniform(0, 0.2))
        w = float(rng.uniform(-0.8, 0.8))
        dt = float(rng.uniform(0.01, 0.5))
        out = step_kinematics(s, ControlCommand(v, w), dt)
        assert math.hypot(out.x - s.x, out.y - s.y) <= v * dt + 1e-12


def test_robot_state_validation():
    with pytest.raises(ValueError):
        RobotState(0, 0, 0, footprint_radius=0.0)


# ---------------------------------------------------------------------------
# Collision
# ---------------------------------------------------------------------------

def test_collision_wall_clearance_and_tangency():
    w = WorldModel(bounds=(0, 0, 4, 4), bounds_solid=True)
    r = 0.17
    assert not check_collision(w, RobotState(r + 0.01, 2.0, 0.0, r))
    # The contact condition is closed: exact tangency collides.
    assert check_collision(w, RobotState(r, 2.0, 0.0, r))
    assert not check_collision(w, RobotState(2.0, 2.0, 0.0, r))


def test_collision_polygon_containment_and_edge():
    w = WorldModel(bounds=(0, 0, 4, 4), polygons=(_square(2, 2, 0.5),),
                   bounds_solid=False)
    assert check_collision(w, RobotState(2.0, 2.0, 0.0, 0.1))
    assert check_collision(w, RobotState(2.0, 2.3, 0.0, 0.1))
    assert not check_collision(w, RobotState(2.0, 2.4, 0.0, 0.1))


def test_collision_circle_and_agent_at_time():
    track = AgentTrack(0.2, np.array([0.0, 2.0]), np.array([[3.0, 0.0], [1.0, 0.0]]))
    w = WorldModel(bounds=(-5, -5, 5, 5), circles=(Circle(np.array([-2.0, 0.0]), 0.3),),
                   agents=(track,), bounds_solid=False)
    r = RobotState(0.6, 0.0, 0.0, 0.2)
    assert not check_collision(w, r, t=0.0)    # agent still at x = 3
    assert check_collision(w, r, t=2.0)        # agent reached x = 1, gap 0.4
    assert check_collision(w, RobotState(-1.6, 0.0, 0.0, 0.2))


def test_property_collision_monotone_in_radius():
    rng = np.random.default_rng(52)
    w = WorldModel(bounds=(0, 0, 6, 6),
                   polygons=(_square(2, 2, 0.6), _square(4, 4.5, 0.8)),
                   circles=(Circle(np.array([4.5, 1.5]), 0.4),),
                   bounds_solid=True)
    for _ in range(200):
        x = float(rng.uniform(0.1, 5.9))
        y = float(rng.uniform(0.1, 5.9))
        r_big = float(rng.uniform(0.05, 0.6))
        r_small = r_big * float(rng.uniform(0.1, 1.0))
        if not check_collision(w, RobotState(x, y, 0.0, r_big)):
            assert not check_collision(w, RobotState(x, y, 0.0, r_small))


def _mixed_world():
    """Circles, boxes, a triangle and one agent, with open bounds."""
    track = AgentTrack(0.2, np.array([0.0, 6.0, 15.0]),
                       np.array([[-3.5, -1.0], [3.0, 1.0], [0.0, 3.5]]))
    triangle = Polygon(np.array([[-1.0, -2.5], [0.0, -1.5], [1.0, -3.0]]))  # clockwise
    return WorldModel(bounds=(-4, -4, 4, 4),
                      circles=(Circle(np.array([-2.0, 2.0]), 0.5),
                               Circle(np.array([2.5, -2.5]), 0.3)),
                      polygons=(_square(1.0, 1.0, 0.8), _square(-2.5, -1.0, 0.4), triangle),
                      agents=(track,), bounds_solid=False)


def _tangent_poses(world, r, t):
    """Robot centers at distance r, r + 1e-9 and r + 2e-9 from the xmin wall,
    from the middle of each polygon's first edge (outward) and from each
    disc at time t."""
    xmin, ymin, _, ymax = world.bounds
    anchors = [(np.array([xmin, 0.5 * (ymin + ymax)]), np.array([1.0, 0.0]))]
    for poly in world.polygons:
        a, b = poly.vertices[0], poly.vertices[1]
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        mid = 0.5 * (a + b)
        if np.dot(normal, mid - poly.vertices.mean(axis=0)) < 0:
            normal = -normal
        anchors.append((mid, normal))
    centers, radii = world.discs(t)
    anchors += [(c + np.array([rad, 0.0]), np.array([1.0, 0.0])) for c, rad in zip(centers, radii)]
    return [p + (r + k * 1e-9) * n for p, n in anchors for k in range(3)]


def test_property_collision_oracle_equivalence():
    rng = np.random.default_rng(54)
    worlds = [build() for build in BUNDLED_WORLDS.values()]
    for world in worlds + [_mixed_world()]:
        xmin, ymin, xmax, ymax = world.bounds
        for k in range(100):
            t = float(rng.uniform(0.0, 15.0))
            cases = [(np.array([rng.uniform(xmin - 0.5, xmax + 0.5),
                                rng.uniform(ymin - 0.5, ymax + 0.5)]),
                      0.1705 if k % 2 else float(rng.uniform(0.05, 0.6)))]
            if k < 3:
                cases += [(c, 0.1705) for c in _tangent_poses(world, 0.1705, t)]
                # Deep inside: only the containment test can see these.
                cases += [(poly.vertices.mean(axis=0), 0.01) for poly in world.polygons]
            for center, r in cases:
                robot = RobotState(float(center[0]), float(center[1]), 0.0, r)
                assert check_collision(world, robot, t) == oracle_collision(world, robot, t)


def _broad_phase_boundary_poses(poly, r):
    """Robot centers where the broad phase decides: beyond each side of the
    polygon's bounds (at the side's midpoint and both ends) at distances
    r +- 1e-9 and r + margin +- 1e-9, and on each vertex's outward bisector
    (a box corner's diagonal) at r +- 1e-9 from the vertex."""
    lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    poses = []
    for axis in (0, 1):
        other = 1 - axis
        for side, sign in ((lo[axis], -1.0), (hi[axis], 1.0)):
            for along in (lo[other], 0.5 * (lo[other] + hi[other]), hi[other]):
                for d in (r - 1e-9, r + 1e-9, r + GEOMETRY_MARGIN_M - 1e-9,
                          r + GEOMETRY_MARGIN_M + 1e-9):
                    center = np.empty(2)
                    center[axis] = side + sign * d
                    center[other] = along
                    poses.append(center)
    verts = poly.vertices
    for prev, v, nxt in zip(np.roll(verts, 1, axis=0), verts, np.roll(verts, -1, axis=0)):
        # Sum of the unit directions away from both neighbours: the outward bisector.
        out = (v - prev) / np.hypot(*(v - prev)) + (v - nxt) / np.hypot(*(v - nxt))
        out /= np.hypot(*out)
        poses += [v + (r + k * 1e-9) * out for k in (-1, 1)]
    return poses


def test_property_collision_oracle_equivalence_at_broad_phase_bounds():
    r = 0.1705
    for world in [build() for build in BUNDLED_WORLDS.values()] + [_mixed_world()]:
        for poly in world.polygons:
            for center in _broad_phase_boundary_poses(poly, r):
                robot = RobotState(float(center[0]), float(center[1]), 0.0, r)
                assert check_collision(world, robot, 1.0) == oracle_collision(world, robot, 1.0)


def test_polygon_bounds_are_read_only_vertex_extremes():
    world = _mixed_world()
    bounds = world.polygon_bounds
    assert bounds.shape == (3, 4)
    for row, poly in zip(bounds, world.polygons):
        np.testing.assert_array_equal(row[:2], poly.vertices.min(axis=0))
        np.testing.assert_array_equal(row[2:], poly.vertices.max(axis=0))
    assert world.polygon_bounds is bounds
    with pytest.raises(ValueError):
        bounds[0, 0] = 0.0
    assert _open_world().polygon_bounds.shape == (0, 4)


# ---------------------------------------------------------------------------
# Raycast
# ---------------------------------------------------------------------------

def test_raycast_frontal_wall_planar_depth():
    # Planar depth equals the perpendicular wall distance for every
    # column that hits the front wall, regardless of ray slant.
    w = WorldModel(bounds=(0, 0, 4, 4), bounds_solid=True)
    robot = RobotState(2.0, 2.0, 0.0)
    mount = CameraMount(x_offset_m=0.05, fov_deg=60.0)
    intr = intrinsics_for_fov(9, 3, 60.0)
    depth = column_depths(w, robot, intr, mount)
    # Camera sits at x = 2.05; the x = 4 wall is 1.95 ahead. At fov 60
    # every ray still lands on the front wall (|y| drift < 2).
    np.testing.assert_allclose(depth, 1.95, rtol=0, atol=1e-12)


def test_raycast_reports_biased_depth():
    w = WorldModel(bounds=(0, 0, 4, 4), bounds_solid=True)
    robot = RobotState(2.0, 2.0, 0.0)
    mount = CameraMount(fov_deg=60.0, depth_offset_m=0.2)
    intr = intrinsics_for_fov(5, 2, 60.0)
    depth = column_depths(w, robot, intr, mount)
    np.testing.assert_allclose(depth, 2.2, rtol=0, atol=1e-12)


def test_raycast_circle_through_center():
    w = WorldModel(bounds=(-5, -5, 5, 5), circles=(Circle(np.array([3.0, 0.0]), 0.5),),
                   bounds_solid=False)
    robot = RobotState(0.0, 0.0, 0.0)
    mount = CameraMount(fov_deg=90.0)
    intr = intrinsics_for_fov(3, 1, 90.0)
    depth = column_depths(w, robot, intr, mount)
    assert depth[1] == pytest.approx(2.5, abs=1e-12)   # center column
    assert depth[0] == 0.0 and depth[2] == 0.0          # diagonals miss


def test_raycast_agent_moves_with_time():
    track = AgentTrack(0.3, np.array([0.0, 4.0]), np.array([[4.0, 0.0], [2.0, 0.0]]))
    w = WorldModel(bounds=(-5, -5, 5, 5), agents=(track,), bounds_solid=False)
    robot = RobotState(0.0, 0.0, 0.0)
    mount = CameraMount(fov_deg=90.0)
    intr = intrinsics_for_fov(3, 1, 90.0)
    at0 = column_depths(w, robot, intr, mount, t=0.0)
    at4 = column_depths(w, robot, intr, mount, t=4.0)
    assert at0[1] == pytest.approx(3.7, abs=1e-12)
    assert at4[1] == pytest.approx(1.7, abs=1e-12)


def test_raycast_far_limit_blanks_columns():
    # Walls just beyond and just inside FAR_LIMIT_M, straight ahead.
    robot = RobotState(20.0, 20.0, 0.0)
    mount = CameraMount(fov_deg=60.0)
    intr = intrinsics_for_fov(5, 2, 60.0)
    beyond = WorldModel(bounds=(0, 0, 20.0 + FAR_LIMIT_M + 0.1, 40), bounds_solid=True)
    within = WorldModel(bounds=(0, 0, 20.0 + FAR_LIMIT_M - 0.1, 40), bounds_solid=True)
    assert np.all(column_depths(beyond, robot, intr, mount) == 0.0)
    near = column_depths(within, robot, intr, mount)
    assert near[2] == pytest.approx(FAR_LIMIT_M - 0.1, abs=1e-12)
    assert np.all(near > 0.0)


def test_property_raycast_translation_invariance():
    rng = np.random.default_rng(53)
    mount = CameraMount(fov_deg=120.0)
    intr = intrinsics_for_fov(33, 2, 120.0)
    for _ in range(100):
        cx = float(rng.uniform(1.5, 4.5))
        cy = float(rng.uniform(1.5, 4.5))
        side = float(rng.uniform(0.3, 0.8))
        dx, dy = (float(v) for v in rng.uniform(-30.0, 30.0, size=2))
        w1 = WorldModel(bounds=(0, 0, 6, 6), polygons=(_square(cx, cy, side),),
                        circles=(Circle(np.array([1.0, 1.0]), 0.25),),
                        bounds_solid=True)
        w2 = WorldModel(bounds=(dx, dy, 6 + dx, 6 + dy),
                        polygons=(_square(cx + dx, cy + dy, side),),
                        circles=(Circle(np.array([1.0 + dx, 1.0 + dy]), 0.25),),
                        bounds_solid=True)
        pose = (float(rng.uniform(2.2, 3.8)), float(rng.uniform(2.2, 3.8)),
                float(rng.uniform(-math.pi, math.pi)))
        d1 = column_depths(w1, RobotState(*pose), intr, mount)
        d2 = column_depths(w2, RobotState(pose[0] + dx, pose[1] + dy, pose[2]),
                           intr, mount)
        np.testing.assert_allclose(d1, d2, rtol=0, atol=1e-9)


def test_raycast_depth_frame_tiles_rows():
    w = WorldModel(bounds=(0, 0, 4, 4), bounds_solid=True)
    mount = CameraMount(fov_deg=60.0)
    intr = intrinsics_for_fov(7, 5, 60.0)
    frame = raycast_depth(w, RobotState(2, 2, 0.7), intr, mount)
    assert frame.depths.shape == (5, 7)
    for row in frame.depths[1:]:
        np.testing.assert_array_equal(row, frame.depths[0])


def _bits(values) -> tuple:
    """An array's shape and bytes, so that equal means bitwise equal."""
    values = np.asarray(values, dtype=np.float64)
    return values.shape, values.tobytes()


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_raycast_frames_are_row_views_that_read_like_copies(platform, tmp_path):
    # A rendered frame is one read-only row repeated with a row stride of 0.
    # Lifting it gives the oracle's cloud with each column's repeats dropped,
    # a fresh C-order grid of the same values gives the full oracle, and the
    # obstacle map, the shield's decision and a DF1 round trip agree.
    plat = get_platform(platform)
    cfg = plat.config()
    traj = Trajectory(np.array([[0.4, 0.0], [0.8, 0.05], [1.2, 0.1]]))
    scenes = ((BUNDLED_WORLDS["corridor_03"](), RobotState(2.0, 0.5, 0.2), 0.0),
              (BUNDLED_WORLDS["dynamic_front_approach"](), RobotState(3.3, 0.1, -0.1), 9.0))
    for rows in (SIM_FRAME_ROWS, plat.image_height):
        for k, (world, robot, t) in enumerate(scenes):
            frame = raycast_depth(world, robot, plat.intrinsics(rows), plat.mount(), t=t)
            assert not frame.depths.flags.writeable
            assert frame.depths.strides[0] == 0
            copy = DepthFrame(np.array(frame.depths), frame.intrinsics, frame.mount)
            assert copy.depths.strides[0] != 0
            cloud, full = back_project(frame, cfg), back_project(copy, cfg)
            assert _bits(cloud) == _bits(oracle_lifted_once(frame, cfg))
            assert _bits(full) == _bits(oracle_lifted(copy, cfg))
            maps = [construct_obstacle_map(points, cfg) for points in (cloud, full)]
            assert _bits(maps[0].points) == _bits(maps[1].points)
            assert maps[0].bins.tolist() == maps[1].bins.tolist()
            view, tiled = avoidance_step(frame, traj, cfg), avoidance_step(copy, traj, cfg)
            assert not view.passthrough
            assert _bits([view.command.v, view.command.omega, view.theta_des]) == _bits(
                [tiled.command.v, tiled.command.omega, tiled.theta_des])
            assert _bits(view.adjusted_trajectory.waypoints) == _bits(
                tiled.adjusted_trajectory.waypoints)
            path = tmp_path / f"{rows}_{k}.df1"
            save_depth_frame(frame, path)
            assert _bits(load_depth_frame(path, frame.mount).depths) == _bits(frame.depths)


def test_reduced_row_frames_give_identical_obstacle_maps():
    # Rendering at 2 (the simulator's SIM_FRAME_ROWS) or 8 rows preserves
    # the native vertical fov, so the obstacle map matches the
    # full-resolution render exactly. Every platform has a non-zero
    # depth_offset_m, which the map subtracts from each depth.
    w = WorldModel(bounds=(0, 0, 4, 3), polygons=(_square(2.0, 1.2, 0.25),
                                                  _square(3.1, 2.2, 0.3)),
                   bounds_solid=True)
    for plat in PLATFORMS.values():
        cfg = plat.config()
        rng = np.random.default_rng(54)
        for _ in range(10):
            robot = RobotState(float(rng.uniform(0.5, 3.5)), float(rng.uniform(0.5, 2.5)),
                               float(rng.uniform(-math.pi, math.pi)))
            maps = []
            for rows in (2, 8, plat.image_height):
                frame = raycast_depth(w, robot, plat.intrinsics(rows), plat.mount())
                maps.append(construct_obstacle_map(back_project(frame, cfg), cfg))
            for reduced in maps[:2]:
                assert reduced.bins.tolist() == maps[-1].bins.tolist()
                np.testing.assert_allclose(reduced.points, maps[-1].points,
                                           rtol=0, atol=1e-12)


def _cull_boundary_world(camera_x: float) -> WorldModel:
    """Triangles at the cull's two boundaries, for a camera at (camera_x, 0)
    looking along +x: one just beyond FAR_LIMIT_M, one inside the cull
    margin there, one with an edge exactly at FAR_LIMIT_M, and two with
    edges ending exactly on the camera plane."""
    far = camera_x + FAR_LIMIT_M
    return WorldModel(bounds=(camera_x - 2.0, -3.0, far + 2.0, 3.0), polygons=(
        Polygon(np.array([[far + 2e-6, -0.5], [far + 2e-6, 0.5], [far + 1.0, 0.0]])),
        Polygon(np.array([[far + 1e-7, 0.6], [far + 1e-7, 1.6], [far + 1.0, 1.1]])),
        Polygon(np.array([[far, -2.0], [far, -1.0], [far + 1.0, -1.5]])),
        Polygon(np.array([[camera_x, 0.5], [camera_x - 1.0, 0.5], [camera_x, 1.5]])),
        Polygon(np.array([[camera_x, -0.5], [camera_x + 1.0, -0.5], [camera_x, -1.5]])),
    ), bounds_solid=True)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_property_raycast_oracle_equivalence(platform):
    # The cull and the cached column tables must leave every depth bit as
    # the plain all-segments ray test computes it.
    plat = get_platform(platform)
    mount = plat.mount()
    intrs = (plat.intrinsics(SIM_FRAME_ROWS), plat.intrinsics())
    rng = np.random.default_rng(55)
    for build in BUNDLED_WORLDS.values():
        world = build()
        xmin, ymin, xmax, ymax = world.bounds
        for k in range(12):
            if k % 4 == 3 and world.polygons:
                poly = world.polygons[int(rng.integers(len(world.polygons)))]
                x, y = poly.vertices.mean(axis=0)
            else:
                x, y = rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)
            robot = RobotState(float(x), float(y), float(rng.uniform(-math.pi, math.pi)))
            t = float(rng.uniform(0.0, 20.0))
            for intr in intrs:
                np.testing.assert_array_equal(
                    column_depths(world, robot, intr, mount, t=t),
                    oracle_column_depths(world, robot, intr, mount, t=t))
    robot = RobotState(1.0 - mount.x_offset_m, 0.0, 0.0)
    world = _cull_boundary_world(robot.x + mount.x_offset_m)
    for intr in intrs:
        depth = column_depths(world, robot, intr, mount)
        np.testing.assert_array_equal(depth, oracle_column_depths(world, robot, intr, mount))
        assert depth.any()


def _backface_boundary_worlds(camera_x: float, intr) -> list[tuple[WorldModel, int]]:
    """Polygons at the back-face cull's boundaries, for a camera at
    (camera_x, 0) looking along +x, each with how many of its edges go
    untested: a box around the camera (its edge behind the camera goes to
    the far/behind cull); boxes the camera lies just beyond and just within
    the cull margin outside of; a box with a vertex on column 140's ray; a
    box whose side runs just beyond and just within the margin of the
    camera; one box in both windings; and four polygons the cull never
    touches: the two degenerate ones ``Polygon`` accepts and two slivers
    with no area to speak of."""
    slope = (140 - intr.cx) / intr.fx  # column 140 looks along (1, -slope)

    def world(vertices):
        polygon = Polygon(np.array(vertices, dtype=np.float64) + [camera_x, 0.0])
        return WorldModel(bounds=(camera_x - 4.0, -4.0, camera_x + 6.0, 4.0),
                          polygons=(polygon,), bounds_solid=False)

    def box(x0, y0, x1, y1):
        return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]

    near, beyond = GEOMETRY_MARGIN_M - 1e-9, GEOMETRY_MARGIN_M + 1e-9
    return [(world(box(-0.3, -0.3, 0.3, 0.3)), 1),
            (world(box(beyond, -0.3, beyond + 0.5, 0.3)), 3),
            (world(box(near, -0.3, near + 0.5, 0.3)), 0),
            (world(box(2.0, -2.0 * slope, 2.4, 0.4 - 2.0 * slope)), 0),
            (world(box(2.0, -beyond, 2.5, 0.6)), 3),
            (world(box(2.0, -near, 2.5, 0.6)), 2),
            (world(box(3.0, -0.5, 3.5, 0.5)), 3),
            (world(box(3.0, -0.5, 3.5, 0.5)[::-1]), 3),
            (world([[2.0, -0.5], [2.0, -0.5], [3.0, -0.5], [2.0, 0.5]]), 0),
            (world([[1.5, 0.2], [2.5, 0.2], [3.5, 0.2]]), 0),
            (world([[1.5, -0.5], [2.0 + 1e-13, 0.0], [2.5, 0.5]]), 0),
            (world([[1.5, -0.5], [2.0 - 1e-13, 0.0], [2.5, 0.5]]), 0)]


def _renders_and_kept(renders, intr, mount):
    """Each (world, robot, t) render's column depths, and the mask of static
    segments the raycaster ray-tested for it."""
    kept = []
    real = raycast._kept_segments
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(raycast, "_kept_segments",
                      lambda *args: kept.append(real(*args)) or kept[-1])
        depths = [column_depths(world, robot, intr, mount, t=t) for world, robot, t in renders]
    return depths, kept


@pytest.fixture(scope="module")
def corridor_03_renders():
    """(world, robot, t, intrinsics, mount) of every frame the corridor_03
    seed-0 goal run renders at criterion 08's settings."""
    renders = []
    real = episodes.raycast_depth

    def spy(world, robot, intr, mount, t=0.0):
        renders.append((world, robot, t, intr, mount))
        return real(world, robot, intr, mount, t=t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(episodes, "raycast_depth", spy)
        run_goal_conditioned(ExperimentSpec(task="goal_conditioned", world="corridor_03",
                                            trials=1, seed=0, max_distance_m=60.0,
                                            max_time_s=900.0))
    return renders


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_backface_cull_matches_the_oracle_at_its_boundaries(platform, corridor_03_renders):
    # Dropping the edges that face away from the camera leaves every depth
    # bit as the plain all-segments ray test computes it: at the cull's
    # boundaries, where the guard must keep a whole box, on polygons it
    # never culls (with no RuntimeWarning, which fails any test), and on
    # every 25th frame of a recorded closed-loop run.
    plat = get_platform(platform)
    mount = plat.mount()
    robot = RobotState(1.0 - mount.x_offset_m, 0.0, 0.0)
    recorded = [render[:3] for render in corridor_03_renders[::25]]
    for intr in (plat.intrinsics(SIM_FRAME_ROWS), plat.intrinsics()):
        cases = _backface_boundary_worlds(robot.x + mount.x_offset_m, intr)
        depths, kept = _renders_and_kept([(world, robot, 0.0) for world, _ in cases], intr,
                                         mount)
        for (world, dropped), depth, mask in zip(cases, depths, kept):
            assert _bits(depth) == _bits(oracle_column_depths(world, robot, intr, mount))
            assert depth.any()
            assert np.count_nonzero(~mask) == dropped
        assert _bits(depths[6]) == _bits(depths[7])  # one box in both windings
        for world, pose, t in recorded:
            assert _bits(column_depths(world, pose, intr, mount, t=t)) == _bits(
                oracle_column_depths(world, pose, intr, mount, t=t))


def test_backface_cull_drops_edges_on_a_recorded_run(corridor_03_renders):
    # A count, not a timer: the far/behind cull alone tests 20.6 segments a
    # render here, and both culls together 11.2.
    _, intr, mount = corridor_03_renders[0][2:]
    _, kept = _renders_and_kept([render[:3] for render in corridor_03_renders], intr, mount)
    assert np.mean([np.count_nonzero(mask) for mask in kept]) <= 12.0


def test_polygon_normals_point_out_of_either_winding():
    square = _square(1.0, 2.0, 0.5)
    for poly in (square, Polygon(square.vertices[::-1])):
        world = WorldModel(bounds=(0, 0, 4, 4), polygons=(poly, _square(3.0, 3.0, 0.4)))
        normals, offsets, owner = world.polygon_normals
        assert owner.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        np.testing.assert_allclose(np.hypot(*normals.T), 1.0)
        outside = normals[:4] @ poly.vertices.T - offsets[:4, None]
        assert (outside <= 1e-15).all() and (normals[:4] @ [1.0, 2.0] - offsets[:4] < -0.2).all()
    for vertices in ([[0, 0], [0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [2, 0]]):
        world = WorldModel(bounds=(0, 0, 4, 4), polygons=(Polygon(np.array(vertices)),))
        assert not np.any(world.polygon_normals[0]) and not np.any(world.polygon_normals[1])


def test_world_geometry_tables_are_read_only():
    # A write to a table would change what the camera sees but not what the
    # collision check tests.
    world = BUNDLED_WORLDS["corridor_03"]()
    with pytest.raises(ValueError):
        world.static_segments[0, 0, 0] = 99.0
    for table in (*world.polygon_edges, *world.polygon_normals, world.polygon_bounds):
        assert table.size
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1


# ---------------------------------------------------------------------------
# Agents and worlds
# ---------------------------------------------------------------------------

def test_agent_track_interpolates_and_holds_ends():
    track = AgentTrack(0.2, np.array([1.0, 3.0]), np.array([[0.0, 0.0], [4.0, 2.0]]))
    np.testing.assert_allclose(track.position(0.0), [0.0, 0.0])
    np.testing.assert_allclose(track.position(2.0), [2.0, 1.0])
    np.testing.assert_allclose(track.position(99.0), [4.0, 2.0])


def test_agent_track_validation():
    with pytest.raises(ValueError):
        AgentTrack(0.0, np.array([0.0]), np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        AgentTrack(0.2, np.array([0.0, 0.0]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        AgentTrack(0.2, np.array([0.0, 1.0]), np.array([[0.0, 0.0]]))


def test_perturb_agent_delay_speed_offset():
    track = AgentTrack(0.2, np.array([2.0, 6.0]), np.array([[0.0, 0.0], [4.0, 0.0]]))
    out = perturb_agent(track, delay=1.0, speed_scale=2.0, lateral_offset=0.1)
    # Start held until t0 + delay = 3; the 4 m leg now takes 2 s.
    np.testing.assert_allclose(out.times, [3.0, 5.0])
    np.testing.assert_allclose(out.position(3.0), [0.0, 0.1])
    np.testing.assert_allclose(out.position(4.0), [2.0, 0.1])
    with pytest.raises(ValueError):
        perturb_agent(track, speed_scale=0.0)


_TRACK = AgentTrack(0.2, np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("build, message", [
    (lambda: RobotState(0.0, 0.0, 0.0, math.nan), "footprint radius must be finite and positive"),
    (lambda: RobotState(0.0, 0.0, 0.0, math.inf), "footprint radius must be finite and positive"),
    (lambda: Circle(np.zeros(2), math.nan), "circle radius must be finite and positive"),
    (lambda: Circle(np.zeros(2), math.inf), "circle radius must be finite and positive"),
    (lambda: AgentTrack(math.nan, _TRACK.times, _TRACK.points),
     "agent radius must be finite and positive"),
    (lambda: perturb_agent(_TRACK, speed_scale=math.nan), "speed_scale must be finite and positive"),
    (lambda: perturb_agent(_TRACK, speed_scale=math.inf), "speed_scale must be finite and positive"),
    (lambda: step_kinematics(RobotState(0.0, 0.0, 0.0), ControlCommand(0.5, 0.1), math.nan),
     "dt must be finite and positive"),
    (lambda: step_kinematics(RobotState(0.0, 0.0, 0.0), ControlCommand(0.5, 0.1), math.inf),
     "dt must be finite and positive"),
    (lambda: Wanderer(8, math.inf), "step_len_m must be finite and positive"),
    (lambda: GoalSeeker(8, math.nan), "step_len_m must be finite and positive"),
    (lambda: GoalSeeker(2.5, 0.25), "waypoint_count must be an integer"),
    (lambda: Wanderer(True), "waypoint_count must be an integer"),
    (lambda: GoalSeeker(0), "waypoint_count must be at least 1"),
    (lambda: Wanderer(seed=-1), "seed must be at least 0"),
    (lambda: Wanderer(seed=1.5), "seed must be an integer"),
], ids=["footprint_nan", "footprint_inf", "circle_nan", "circle_inf", "agent_nan",
        "speed_scale_nan", "speed_scale_inf", "dt_nan", "dt_inf", "wanderer_step_inf",
        "seeker_step_nan", "seeker_count_float", "wanderer_count_bool", "seeker_count_0",
        "wanderer_seed_negative", "wanderer_seed_float"])
def test_simulator_scalars_reject_nan_inf_and_non_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


@pytest.mark.parametrize("pose", [
    (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf), (0.0, 0.0, math.nan),
], ids=["x_nan", "y_inf", "heading_neg_inf", "heading_nan"])
def test_robot_state_rejects_non_finite_pose(pose):
    # A nan pose would never collide: every distance test with nan is False.
    with pytest.raises(ValueError, match="^pose must be finite"):
        RobotState(*pose)


@pytest.mark.parametrize("build, message", [
    (lambda: AgentTrack(0.2, [0.0, math.nan], _TRACK.points),
     "agent schedule times and points must be finite"),
    (lambda: AgentTrack(0.2, [math.inf], [[0.0, 0.0]]),
     "agent schedule times and points must be finite"),
    (lambda: AgentTrack(0.2, _TRACK.times, [[0.0, 0.0], [math.inf, 0.0]]),
     "agent schedule times and points must be finite"),
    (lambda: AgentTrack(0.2, _TRACK.times, [[0.0, math.nan], [1.0, 0.0]]),
     "agent schedule times and points must be finite"),
    (lambda: perturb_agent(_TRACK, delay=math.nan), "delay must be finite"),
    (lambda: perturb_agent(_TRACK, delay=-math.inf), "delay must be finite"),
    (lambda: perturb_agent(_TRACK, lateral_offset=math.inf), "lateral_offset must be finite"),
    (lambda: perturb_agent(_TRACK, lateral_offset=math.nan), "lateral_offset must be finite"),
], ids=["time_nan", "time_inf", "point_inf", "point_nan", "delay_nan", "delay_neg_inf",
        "offset_inf", "offset_nan"])
def test_agent_schedules_reject_non_finite_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


def test_discs_repeat_a_time_with_the_same_read_only_arrays():
    track = AgentTrack(0.3, np.array([0.0, 4.0]), np.array([[4.0, 0.0], [2.0, 0.0]]))
    w = WorldModel(bounds=(-5, -5, 5, 5), circles=(Circle(np.array([1.0, 1.0]), 0.2),),
                   agents=(track,), bounds_solid=False)
    centers, radii = w.discs(1.5)
    np.testing.assert_array_equal(centers, [[1.0, 1.0], track.position(1.5)])
    np.testing.assert_array_equal(w.discs(2.0)[0][1], track.position(2.0))
    np.testing.assert_array_equal(w.discs(1.5)[0], centers)
    # discs is a pure function of t: the world keeps only its cached tables.
    assert set(vars(w)) - {f.name for f in fields(w)} == {"_disc_table"}
    for array in (centers, radii):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_polygon_rejects_concave():
    with pytest.raises(ValueError):
        Polygon(np.array([[0, 0], [2, 0], [0.2, 0.2], [0, 2]], dtype=float))


def test_world_rejects_out_of_bounds_geometry():
    with pytest.raises(ValueError):
        WorldModel(bounds=(0, 0, 1, 1), polygons=(_square(2, 2, 0.2),))
    with pytest.raises(ValueError):
        WorldModel(bounds=(0, 0, 1, 1), circles=(Circle(np.array([5.0, 0.5]), 0.1),))
    with pytest.raises(ValueError):
        WorldModel(bounds=(1, 0, 0, 1))


# World files reject these numbers when read; the records reject them too, as a
# nan vertex never reports contact and inf bounds break the raycaster.
@pytest.mark.parametrize("build, message", [
    (lambda: Polygon([[1.0, 1.0], [2.0, 1.0], [1.5, math.nan]]), "polygon vertices must be finite"),
    (lambda: Polygon([[1.0, 1.0], [math.inf, 1.0], [1.5, 2.0]]), "polygon vertices must be finite"),
    (lambda: WorldModel(bounds=(-math.inf, -5.0, math.inf, 5.0)), "bounds must be finite"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, math.nan)), "bounds must be finite"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), start=(1.0, math.nan, 0.0)),
     "start must be finite"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), goals=[[3.0, math.nan]]),
     "goals must be finite"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), goals=[[1.0, 1.0], [-math.inf, 3.0]]),
     "goals must be finite"),
    # Unchecked, a nan center would be reported as outside the world's bounds.
    (lambda: Circle(np.array([math.nan, 0.0]), 0.2), "circle center must be finite"),
], ids=["vertex_nan", "vertex_inf", "bounds_inf", "bounds_nan", "start_nan", "goal_nan",
        "goal_neg_inf", "circle_center_nan"])
def test_world_records_reject_non_finite_numbers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), goals=np.array([1.0, 2.0, 3.0])),
     "goals must have shape (N, 2) with N >= 0, got (3,)"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), goals=[[1.0, 2.0, 3.0]]),
     "goals must have shape (N, 2) with N >= 0, got (1, 3)"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0)), "bounds needs 4 numbers, got (0.0, 0.0, 4.0)"),
    (lambda: WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), start=(1.0, 2.0)),
     "start needs 3 numbers, got (1.0, 2.0)"),
    (lambda: Polygon([[1.0, 1.0], [2.0, 1.0]]),
     "polygon vertices must have shape (N, 2) with N >= 3, got (2, 2)"),
], ids=["goals_1d", "goals_3_columns", "bounds_3", "start_2", "polygon_2_vertices"])
def test_world_records_reject_wrong_shapes(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_world_file_round_trip(tmp_path):
    track = AgentTrack(0.18, np.array([0.0, 3.5]), np.array([[0.1, 0.2], [2.3, -0.4]]))
    w = WorldModel(bounds=(0.0, -1.2, 8.0, 1.2),
                   polygons=(_square(2.0, 0.3, 0.22),),
                   circles=(Circle(np.array([5.0, -0.5]), 0.3),),
                   agents=(track,), bounds_solid=True,
                   start=(0.8, 0.0, 0.0), goals=np.array([[7.2, 0.0]]))
    path = tmp_path / "w.world"
    save_world(w, path)
    out = load_world(path)
    assert out.bounds == w.bounds
    assert out.bounds_solid
    assert out.start == w.start
    np.testing.assert_array_equal(out.goals, w.goals)
    np.testing.assert_array_equal(out.polygons[0].vertices, w.polygons[0].vertices)
    np.testing.assert_array_equal(out.circles[0].center, w.circles[0].center)
    np.testing.assert_array_equal(out.agents[0].times, track.times)
    np.testing.assert_array_equal(out.agents[0].points, track.points)
    # Writing the loaded model again reproduces the file byte for byte.
    path2 = tmp_path / "w2.world"
    save_world(out, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_world_file_errors(tmp_path):
    p = tmp_path / "bad.world"
    for text in ["NOPE\n", "WORLD1\nwibble 1 2\n", "WORLD1\npolygon 3 0 0 1 0\n",
                 "WORLD1\nbounds_solid 1\n"]:   # the last has no bounds line
        p.write_text(text)
        with pytest.raises(InputFormatError, match=re.escape(str(p))):
            load_world(p)


_FINITE_WORLD = ["WORLD1", "bounds 0 0 4 4", "start 1 1 0", "goal 3 3", "circle 2 3 0.2",
                 "polygon 3 1 2 2 2 1.5 2.5", "agent 0.2 2 0 0.5 0.5 5 3.5 0.5"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["bounds", "start", "goal", "circle", "polygon", "agent"])
def test_world_file_rejects_non_finite(tmp_path, kind, bad):
    p = tmp_path / "w.world"
    p.write_text("\n".join(_FINITE_WORLD) + "\n")
    load_world(p)
    lineno = next(i for i, line in enumerate(_FINITE_WORLD, start=1) if line.startswith(kind))
    lines = list(_FINITE_WORLD)
    lines[lineno - 1] = lines[lineno - 1].rsplit(" ", 1)[0] + " " + bad
    p.write_text("\n".join(lines) + "\n")
    # The fixed-size records check their numbers by kind; polygons and agents
    # are checked by Polygon and AgentTrack.
    message = {"polygon": "polygon vertices must be finite",
               "agent": "agent schedule times and points must be finite"}.get(
                   kind, f"{kind} must be finite, got {bad}")
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}:{lineno}: {message}')}$"):
        load_world(p)


def test_world_file_rejects_non_finite_agent_radius(tmp_path):
    p = tmp_path / "w.world"
    p.write_text("\n".join(_FINITE_WORLD[:2] + ["agent nan 1 0 1 1"]) + "\n")
    message = "agent radius must be finite and positive, got nan"
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}:3: {message}')}$"):
        load_world(p)


# World files have no seed record: a seed line fails as an unknown kind.
@pytest.mark.parametrize("line", ["seed 3", "bounds_solid 7", "bounds_solid -1", "bounds_solid",
                                  "bounds_solid 0 1", "bounds_solid true"])
def test_world_file_rejects_seed_record_and_bad_bounds_solid(tmp_path, line):
    p = tmp_path / "w.world"
    p.write_text("\n".join(_FINITE_WORLD[:2] + [line] + _FINITE_WORLD[2:]) + "\n")
    expected = ("unknown entry kind 'seed'" if line.startswith("seed")
                else "bounds_solid needs")
    with pytest.raises(InputFormatError, match=f"{re.escape(str(p))}:3: {expected}"):
        load_world(p)


def test_world_file_reads_bounds_solid(tmp_path):
    p = tmp_path / "w.world"
    p.write_text("\n".join(_FINITE_WORLD[:2] + ["bounds_solid 0"]) + "\n")
    assert load_world(p).bounds_solid is False


@pytest.mark.parametrize("kind", ["bounds", "bounds_solid", "start"])
def test_world_file_rejects_duplicate_records(tmp_path, kind):
    lines = list(_FINITE_WORLD) + ["bounds_solid 1"]
    lines.append(next(line for line in lines if line.split()[0] == kind))
    p = tmp_path / "w.world"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputFormatError, match=f"{re.escape(str(p))}:{len(lines)}: duplicate {kind}$"):
        load_world(p)


@pytest.mark.parametrize("line", ["polygon", "agent", "agent 0.2"])
def test_world_file_names_missing_count(tmp_path, line):
    message = {"polygon": "polygon needs a vertex count",
               "agent": "agent needs a radius and a knot count"}[line.split()[0]]
    p = tmp_path / "w.world"
    p.write_text("\n".join(_FINITE_WORLD[:2] + [line]) + "\n")
    with pytest.raises(InputFormatError, match=f"{re.escape(str(p))}:3: {message}$"):
        load_world(p)


@pytest.mark.parametrize("line, message", [
    ("polygon 3 0 0 1 0 1", "expected 3 vertices (6 values), found 5 values"),
    ("polygon -2", "count of vertices must be at least 0, got -2"),
    ("agent 0.2 2 0 1 1 5 2", "expected 2 knots (6 values), found 5 values"),
], ids=["polygon_short", "polygon_negative", "agent_short"])
def test_world_file_checks_counts_by_value(tmp_path, line, message):
    # A count the values do not fill is reported in values, never as
    # "2.5 vertices".
    p = tmp_path / "w.world"
    p.write_text("\n".join(_FINITE_WORLD[:2] + [line]) + "\n")
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}:3: {message}')}$"):
        load_world(p)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def test_goal_seeker_straight_ahead_hand_computed():
    policy = GoalSeeker(waypoint_count=4, step_len_m=0.25)
    traj = policy.trajectory(RobotState(0, 0, 0), goal=(10.0, 0.0))
    np.testing.assert_allclose(traj.waypoints[:, 0], [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(traj.waypoints[:, 1], 0.0)


def test_goal_seeker_respects_robot_frame():
    # Goal due north of a robot facing east: waypoints bear +90 degrees.
    policy = GoalSeeker(waypoint_count=2)
    traj = policy.trajectory(RobotState(1.0, 1.0, 0.0), goal=(1.0, 5.0))
    np.testing.assert_allclose(traj.waypoints[0], [0.0, 0.25], atol=1e-12)


def test_goal_seeker_saturates_at_goal():
    policy = GoalSeeker(waypoint_count=4, step_len_m=0.25)
    traj = policy.trajectory(RobotState(0, 0, 0), goal=(0.6, 0.0))
    np.testing.assert_allclose(traj.waypoints[:, 0], [0.25, 0.5, 0.6, 0.6])


def test_goal_seeker_on_goal_emits_origin_waypoints():
    policy = GoalSeeker(waypoint_count=3)
    traj = policy.trajectory(RobotState(2.0, 1.0, 0.3), goal=(2.0, 1.0))
    np.testing.assert_array_equal(traj.waypoints, np.zeros((3, 2)))


def test_goal_seeker_requires_goal():
    with pytest.raises(Exception):
        GoalSeeker().trajectory(RobotState(0, 0, 0), goal=None)


def test_wanderer_deterministic_per_seed():
    a = Wanderer(seed=9)
    b = Wanderer(seed=9)
    c = Wanderer(seed=10)
    s = RobotState(0, 0, 0.2)
    ta = [a.trajectory(s).waypoints for _ in range(5)]
    tb = [b.trajectory(s).waypoints for _ in range(5)]
    tc = [c.trajectory(s).waypoints for _ in range(5)]
    for x, y in zip(ta, tb):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(ta, tc))


def test_wanderer_step_lengths_and_bend_bound():
    policy = Wanderer(waypoint_count=6, step_len_m=0.25, seed=3)
    prev = np.zeros(2)
    traj = policy.trajectory(RobotState(0, 0, 0))
    for wp in traj.waypoints:
        assert np.hypot(*(wp - prev)) == pytest.approx(0.25, abs=1e-12)
        prev = wp
    # First segment bearing stays inside the bend clamp.
    first = traj.waypoints[0]
    assert abs(math.atan2(first[1], first[0])) <= policy.max_bend + 1e-12


# ---------------------------------------------------------------------------
# Closed loop sanity
# ---------------------------------------------------------------------------

def test_closed_loop_empty_world_reaches_goal():
    # Obstacle-free: the shield passes through every frame and the robot
    # drives straight onto a goal 5 m ahead. Bounds must be non-solid;
    # at fov 170 the depth slab reaches walls more than 11 m to the side.
    plat = get_platform("locobot")
    w = WorldModel(bounds=(-2.0, -5.0, 12.0, 5.0), bounds_solid=False)
    start = RobotState(0.0, 0.0, 0.0, plat.footprint_radius_m, plat.name)
    res = run_episode(w, GoalSeeker(), platform=plat, shield=Shield(plat.config()), start=start,
                      goals=np.array([[5.0, 0.0]]), max_time_s=60.0)
    assert res.arrived
    assert res.collisions == 0
    # Each logged row is the pose at the start of the next tick; the episode
    # ends on the first one within the goal radius.
    rows = [line.split(",") for line in res.trajectory_log.splitlines()[1:]]
    gaps = [math.hypot(float(r[1]) - 5.0, float(r[2])) for r in rows]
    assert gaps[-1] <= GOAL_RADIUS_M
    assert all(gap > GOAL_RADIUS_M for gap in gaps[:-1])
    assert float(rows[-1][0]) == res.completion_time_s
    assert (res.final_state.x, res.final_state.y) == (float(rows[-1][1]), float(rows[-1][2]))
    # Passthrough cruising: 5 m at 0.2 m/s is 25 s of travel, minus the
    # goal radius, so roughly 23.5 s.
    assert res.completion_time_s == pytest.approx(23.5, abs=0.5)

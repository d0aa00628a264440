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

import numpy as np
import pytest

from repshield import (AvoidanceConfig, CameraMount, ControlCommand,
                       construct_obstacle_map, back_project, intrinsics_for_fov)
from repshield.errors import InputFormatError
from repshield.platforms import get_platform
from repshield.sim import (FAR_LIMIT_M, AgentTrack, Circle, GoalSeeker, Polygon,
                           RobotState, WorldModel, Wanderer, check_collision, column_depths,
                           load_world, perturb_agent, raycast_depth,
                           save_world, step_kinematics)
from repshield.harness import GOAL_RADIUS_M, run_episode
from repshield.worldgen import BUNDLED_WORLDS

from conftest import oracle_collision


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


# ---------------------------------------------------------------------------
# Raycast
# ---------------------------------------------------------------------------

def test_raycast_frontal_wall_planar_depth():
    # Planar depth equals the perpendicular wall distance for every
    # column that hits the front wall, regardless of ray slant.
    w = WorldModel(bounds=(0, 0, 4, 4), bounds_solid=True)
    robot = RobotState(2.0, 2.0, 0.0)
    mount = CameraMount(height_m=0.3, x_offset_m=0.05, fov_deg=60.0)
    intr = intrinsics_for_fov(9, 3, 60.0)
    depth = column_depths(w, robot, intr, mount)
    # Camera sits at x = 2.05; the x = 4 wall is 1.95 ahead. At fov 60
    # every ray still lands on the front wall (|y| drift < 2).
    np.testing.assert_allclose(depth, 1.95, rtol=0, atol=1e-12)


def test_raycast_reports_biased_depth():
    w = WorldModel(bounds=(0, 0, 4, 4), bounds_solid=True)
    robot = RobotState(2.0, 2.0, 0.0)
    mount = CameraMount(height_m=0.3, fov_deg=60.0, depth_offset_m=0.2)
    intr = intrinsics_for_fov(5, 2, 60.0)
    depth = column_depths(w, robot, intr, mount)
    np.testing.assert_allclose(depth, 2.2, rtol=0, atol=1e-12)


def test_raycast_circle_through_center():
    w = WorldModel(bounds=(-5, -5, 5, 5), circles=(Circle(np.array([3.0, 0.0]), 0.5),),
                   bounds_solid=False)
    robot = RobotState(0.0, 0.0, 0.0)
    mount = CameraMount(height_m=0.3, fov_deg=90.0)
    intr = intrinsics_for_fov(3, 1, 90.0)
    depth = column_depths(w, robot, intr, mount)
    assert depth[1] == pytest.approx(2.5, abs=1e-12)   # center column
    assert depth[0] == 0.0 and depth[2] == 0.0          # diagonals miss


def test_raycast_agent_moves_with_time():
    track = AgentTrack(0.3, np.array([0.0, 4.0]), np.array([[4.0, 0.0], [2.0, 0.0]]))
    w = WorldModel(bounds=(-5, -5, 5, 5), agents=(track,), bounds_solid=False)
    robot = RobotState(0.0, 0.0, 0.0)
    mount = CameraMount(height_m=0.3, fov_deg=90.0)
    intr = intrinsics_for_fov(3, 1, 90.0)
    at0 = column_depths(w, robot, intr, mount, t=0.0)
    at4 = column_depths(w, robot, intr, mount, t=4.0)
    assert at0[1] == pytest.approx(3.7, abs=1e-12)
    assert at4[1] == pytest.approx(1.7, abs=1e-12)


def test_raycast_far_limit_blanks_columns():
    # Walls just beyond and just inside FAR_LIMIT_M, straight ahead.
    robot = RobotState(20.0, 20.0, 0.0)
    mount = CameraMount(height_m=0.3, fov_deg=60.0)
    intr = intrinsics_for_fov(5, 2, 60.0)
    beyond = WorldModel(bounds=(0, 0, 20.0 + FAR_LIMIT_M + 0.1, 40), bounds_solid=True)
    within = WorldModel(bounds=(0, 0, 20.0 + FAR_LIMIT_M - 0.1, 40), bounds_solid=True)
    assert np.all(column_depths(beyond, robot, intr, mount) == 0.0)
    near = column_depths(within, robot, intr, mount)
    assert near[2] == pytest.approx(FAR_LIMIT_M - 0.1, abs=1e-12)
    assert np.all(near > 0.0)


def test_property_raycast_translation_invariance():
    rng = np.random.default_rng(53)
    mount = CameraMount(height_m=0.3, fov_deg=120.0)
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
    mount = CameraMount(height_m=0.3, fov_deg=60.0)
    intr = intrinsics_for_fov(7, 5, 60.0)
    frame = raycast_depth(w, RobotState(2, 2, 0.7), intr, mount)
    assert frame.depths.shape == (5, 7)
    for row in frame.depths[1:]:
        np.testing.assert_array_equal(row, frame.depths[0])


def test_reduced_row_frames_give_identical_obstacle_maps():
    # Rendering at 8 rows preserves the native vertical fov, so the
    # obstacle map matches the full-resolution render exactly.
    plat = get_platform("locobot")
    cfg = plat.config()
    w = WorldModel(bounds=(0, 0, 4, 3), polygons=(_square(2.0, 1.2, 0.25),
                                                  _square(3.1, 2.2, 0.3)),
                   bounds_solid=True)
    rng = np.random.default_rng(54)
    for _ in range(10):
        robot = RobotState(float(rng.uniform(0.5, 3.5)), float(rng.uniform(0.5, 2.5)),
                           float(rng.uniform(-math.pi, math.pi)))
        maps = []
        for rows in (8, plat.image_height):
            frame = raycast_depth(w, robot, plat.intrinsics(rows), plat.mount())
            maps.append(construct_obstacle_map(back_project(frame), cfg))
        assert maps[0].bins.tolist() == maps[1].bins.tolist()
        np.testing.assert_allclose(maps[0].points, maps[1].points, rtol=0, atol=1e-12)


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
], ids=["footprint_nan", "footprint_inf", "circle_nan", "circle_inf", "agent_nan",
        "speed_scale_nan", "speed_scale_inf", "dt_nan", "dt_inf", "wanderer_step_inf",
        "seeker_step_nan", "seeker_count_float", "wanderer_count_bool", "seeker_count_0"])
def test_simulator_scalars_reject_nan_inf_and_non_integers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


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
    with pytest.raises(InputFormatError, match=f"{re.escape(str(p))}:{lineno}: .*finite"):
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
    res = run_episode(w, GoalSeeker(), platform=plat, shield=True, start=start,
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

"""Tests for the experiment harness: determinism, arm pairing, metrics
bookkeeping, bundled worlds, and report serialization."""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from repshield.config import load_config
from repshield.errors import InputFormatError
from repshield.harness import (CONTROL_PERIOD_S, GOAL_RADIUS_M, ExperimentSpec, Tick,
                               episode_ticks, episodes, experiments, per_trial_csv, report_csv,
                               resolve_world, run_dynamic, run_episode, run_experiment,
                               run_exploration, run_goal_conditioned)
from repshield.pipeline import Shield, decision_log_row
from repshield.platforms import SIM_FRAME_ROWS, get_platform
from repshield.sim import RobotState, WorldModel, load_world, raycast_depth, save_world
from repshield.sim.policies import GoalSeeker, Wanderer
from repshield.worldgen import BUNDLED_WORLDS, DYNAMIC_SCENARIOS

_EMPTY_ARENA = WorldModel(bounds=(0.0, 0.0, 4.0, 4.0), bounds_solid=False,
                          start=(2.0, 2.0, 0.0))

# Wall-free so the shield stays in passthrough; goal 2 m ahead of start.
_GOAL_ARENA = WorldModel(bounds=(0.0, 0.0, 6.0, 4.0), bounds_solid=False,
                         start=(1.0, 2.0, 0.0), goals=np.array([[3.0, 2.0]]))


def _explore_spec(**kw) -> ExperimentSpec:
    base = dict(task="exploration", world=_EMPTY_ARENA, trials=3, seed=7,
                max_time_s=3.0)
    base.update(kw)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_exploration_rerun_is_byte_identical():
    a = run_exploration(_explore_spec())
    b = run_exploration(_explore_spec())
    assert report_csv(a) == report_csv(b)
    assert per_trial_csv(a) == per_trial_csv(b)
    for ra, rb in zip(a.per_trial, b.per_trial):
        assert ra.trajectory_log == rb.trajectory_log
        assert ra.decision_log == rb.decision_log


def test_goal_rerun_is_byte_identical_and_arrives():
    spec = ExperimentSpec(task="goal_conditioned", world=_GOAL_ARENA,
                          trials=2, seed=3, max_time_s=20.0)
    a = run_goal_conditioned(spec)
    b = run_goal_conditioned(spec)
    assert report_csv(a) == report_csv(b)
    for ra, rb in zip(a.per_trial, b.per_trial):
        assert ra.trajectory_log == rb.trajectory_log
        assert ra.decision_log == rb.decision_log
    assert a.arrival_rate == 1.0
    assert a.collision_trials == 0


def test_dynamic_rerun_is_byte_identical():
    spec = ExperimentSpec(task="dynamic_obstacle", world="dynamic_side_appear",
                          trials=2, seed=5, max_time_s=10.0)
    a = run_dynamic(spec)
    b = run_dynamic(spec)
    assert report_csv(a) == report_csv(b)
    for ra, rb in zip(a.per_trial, b.per_trial):
        assert ra.trajectory_log == rb.trajectory_log


# sha256 of each artifact of exploration_boxes, 3 trials, seed 0, 20 s,
# recorded at 3dc17f9. A refactor of the runners must keep every byte.
_EXPLORATION_PIN = {
    True: {
        "report.csv": "912a428b0252c13827177e73a928aa6a3b43f47cd1016df3e843d8ed3199cad7",
        "trials.csv": "d71033a298b7dd15b1fd72d275f06aa2ca12ef51ba46ac363f6d5c9e24f23690",
        "trial_000.traj.csv": "4104d3e897b44dc4ebda1052525b769edbeb9cbe2ac49e438a81f5f448296526",
        "trial_000.dec.csv": "77e0b87a2dd09445ecaf350375ddfd44e6ea84c18fc242e74a67df58879573ca",
        "trial_001.traj.csv": "9d437668598972999ce349652b43071782b50a8cc38455ff96d21f905968a9a4",
        "trial_001.dec.csv": "a1e449786ea958186b996799dd2ab4b7f23c499eefa05e02fc2a021d063c3b1d",
        "trial_002.traj.csv": "9904ac30077657b5e3b66f332d11e6cf111e7e8015da39d6cd9f0c0f95a811e8",
        "trial_002.dec.csv": "657079dd5ccc076908675f6bc81c9d760f7d3449cd5f8c4e8b6a772078b5d464",
    },
    False: {
        "report.csv": "5bde810663c312099e40d91b083ac5390f731484dc2589b0126fe1edfaa7c392",
        "trials.csv": "4093137c1d39b6dca719e76c2a05fc0d23504a87f67ac7198b97c51976790c66",
        "trial_000.traj.csv": "c0b32abff0e7e21cc39ee7a9c52864039dd27cc8f96c2e41238f0c8efb002be3",
        "trial_001.traj.csv": "47ea85b25cc28d7aa73faa43971b9022e3947e0615923e7adfa98d166e716920",
        "trial_002.traj.csv": "28de142218bd944d990f8b8d4686e4b9e125439b680e6e594755db75c449cfdb",
    },
}


def _artifact_digests(rep) -> dict[str, str]:
    """sha256 of every file ``--out`` would write for this report."""
    texts = {"report.csv": report_csv(rep), "trials.csv": per_trial_csv(rep)}
    for trial, r in enumerate(rep.per_trial):
        texts[f"trial_{trial:03d}.traj.csv"] = r.trajectory_log
        if r.decision_log is not None:
            texts[f"trial_{trial:03d}.dec.csv"] = r.decision_log
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


@pytest.mark.parametrize("shield", [True, False])
def test_exploration_bytes_match_pinned_digests(shield):
    rep = run_exploration(ExperimentSpec(task="exploration", world="exploration_boxes",
                                         trials=3, seed=0, max_time_s=20.0, shield=shield))
    assert _artifact_digests(rep) == _EXPLORATION_PIN[shield]


# Shield-off goal and dynamic runs, seed 0, recorded at 842f93c. Every
# trial collides once and then arrives, so these pin goal arrival, the
# completion time and the unshielded command path.
_CORRIDOR_03_NO_SHIELD = ExperimentSpec(task="goal_conditioned", world="corridor_03",
                                        trials=1, max_time_s=900.0, max_distance_m=60.0,
                                        shield=False)
_ARRIVAL_PIN = [
    (_CORRIDOR_03_NO_SHIELD, {
        "report.csv": "d70629ed1be5fefc25215862e3f8bbbd195d808276ed3cdd260bd041c67d10d9",
        "trials.csv": "7e9d6a7e5abcbd6f57d79cec24cea25503e812a04a8f1ffe6ddc1143b812c4e8",
        "trial_000.traj.csv": "985b5e040f9887cc9aec86e85fc97595fd681820096cdda12d01601c31eb661d",
    }),
    (ExperimentSpec(task="dynamic_obstacle", world="dynamic_side_appear", trials=3,
                    max_time_s=120.0, shield=False), {
        "report.csv": "ed00b9b2e7801f07a264fee48c5b8ab3e51ea1efc55bf28c17b00318d5454b28",
        "trials.csv": "28e2bc24544e0345704601c5a46330e3b40de2fd7f3ac59a15ecbaad65e0533c",
        "trial_000.traj.csv": "ff550471bb3c07616356921d3adcc048970f1316f0324a290a16dd6d9b7d56fb",
        "trial_001.traj.csv": "ed1a1749b7cac6917ec86549994619fb57d7d243b7efe75de7e6768042dd04f7",
        "trial_002.traj.csv": "359af776821e8d75b7b23a597a7e61ce794efca71eb05072a4ed47436a59c234",
    }),
]


@pytest.mark.parametrize("spec, pin", _ARRIVAL_PIN, ids=["corridor_03", "side_appear"])
def test_unshielded_arrival_bytes_match_pinned_digests(spec, pin):
    rep = run_experiment(spec)
    assert rep.arrival_rate == 1.0 and rep.collision_trials == rep.trials
    assert _artifact_digests(rep) == pin


def test_seed_changes_exploration_outcome():
    a = run_exploration(_explore_spec(seed=7))
    b = run_exploration(_explore_spec(seed=8))
    logs_a = [r.trajectory_log for r in a.per_trial]
    logs_b = [r.trajectory_log for r in b.per_trial]
    assert logs_a != logs_b


# ---------------------------------------------------------------------------
# Arm pairing
# ---------------------------------------------------------------------------

def _invert_first_row(log: str, dt: float = 0.1) -> tuple[float, float, float]:
    """Recover the start pose from the first trajectory-log row.

    The row holds the post-step state plus the command that produced it,
    so the exact-arc update can be run backwards.
    """
    fields = log.splitlines()[1].split(",")
    x, y, h, v, w = (float(fields[i]) for i in range(1, 6))
    h0 = h - w * dt
    if w == 0.0:
        return x - v * dt * math.cos(h0), y - v * dt * math.sin(h0), h0
    r = v / w
    return x - r * (math.sin(h) - math.sin(h0)), y - r * (math.cos(h0) - math.cos(h)), h0


def test_shield_and_baseline_arms_share_start_poses():
    # Start sampling draws from a stream keyed only by (seed, trial), so
    # flipping the shield flag must not move any trial's start pose.
    starts = {}
    for shield in (True, False):
        rep = run_exploration(_explore_spec(shield=shield, max_time_s=0.1))
        starts[shield] = [_invert_first_row(r.trajectory_log) for r in rep.per_trial]
    for (xa, ya, ha), (xb, yb, hb) in zip(starts[True], starts[False]):
        assert xa == pytest.approx(xb, abs=1e-9)
        assert ya == pytest.approx(yb, abs=1e-9)
        assert ha == pytest.approx(hb, abs=1e-9)


def test_trials_have_distinct_starts():
    rep = run_exploration(_explore_spec(max_time_s=0.1))
    poses = [_invert_first_row(r.trajectory_log) for r in rep.per_trial]
    assert len({(round(x, 6), round(y, 6)) for x, y, _ in poses}) == len(poses)


def test_jittered_start_falls_back_to_the_exact_start():
    # Walls 0.01 m beyond the footprint on both sides: every jitter, probed
    # 0.02 m wider, touches one, while the exact start is clear.
    platform = get_platform("locobot")
    gap = platform.footprint_radius_m + 0.01
    world = WorldModel(bounds=(0.0, -gap, 4.0, gap), start=(1.0, 0.0, 0.3))
    start = experiments._jittered_start(world, platform, np.random.default_rng(0))
    assert start == RobotState(1.0, 0.0, 0.3, platform.footprint_radius_m, platform.name)


# ---------------------------------------------------------------------------
# The tick stream
# ---------------------------------------------------------------------------

def _arena_episode(shield: bool = True, goals=None) -> dict:
    """Arguments for one arena episode; each call builds its own Shield, so
    no two episodes share a rotation latch."""
    platform = get_platform("locobot")
    x, y, h = _GOAL_ARENA.start
    return dict(world=_GOAL_ARENA, platform=platform, goals=goals,
                shield=Shield(platform.config()) if shield else None,
                start=RobotState(x, y, h, platform.footprint_radius_m, platform.name))


def _trajectory_row(tick: Tick) -> str:
    s, cmd = tick.state, tick.command
    return (f"{tick.t + CONTROL_PERIOD_S!r},{s.x!r},{s.y!r},{s.heading!r},"
            f"{cmd.v!r},{cmd.omega!r},{int(tick.collided)}")


@pytest.mark.parametrize("shield", [True, False])
def test_each_tick_is_one_row_of_each_log_and_the_stream_ends_at_arrival(shield):
    ticks = list(episode_ticks(policy=GoalSeeker(), **_arena_episode(shield, _GOAL_ARENA.goals)))
    rec = run_episode(policy=GoalSeeker(), max_time_s=60.0,
                      **_arena_episode(shield, _GOAL_ARENA.goals))
    assert rec.arrived and len(ticks) * CONTROL_PERIOD_S == rec.completion_time_s
    assert rec.trajectory_log.splitlines()[1:] == [_trajectory_row(t) for t in ticks]
    if shield:
        assert rec.decision_log.splitlines()[1:] == [
            decision_log_row(t.t, t.decision, t.command) for t in ticks]
    else:
        assert rec.decision_log is None and all(t.decision is None for t in ticks)
    # Only the last tick's pose reaches the goal, which ends the stream.
    gx, gy = _GOAL_ARENA.goals[0]
    reached = [math.hypot(t.state.x - gx, t.state.y - gy) <= GOAL_RADIUS_M for t in ticks]
    assert reached[-1] and not any(reached[:-1])
    with pytest.raises(AttributeError):
        ticks[0].t = 1.0


def test_tick_stream_without_goals_runs_past_the_time_cap():
    rec = run_episode(policy=Wanderer(seed=4), max_time_s=1.0, **_arena_episode())
    ticks = list(itertools.islice(episode_ticks(policy=Wanderer(seed=4), **_arena_episode()), 15))
    assert not rec.arrived
    assert [t.t for t in ticks] == [k * CONTROL_PERIOD_S for k in range(15)]
    assert rec.trajectory_log.splitlines()[1:] == [_trajectory_row(t) for t in ticks[:10]]


class _SpyShield(Shield):
    """A Shield that keeps every frame it is stepped on."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.frames = []

    def step(self, frame, traj):
        self.frames.append(frame)
        return super().step(frame, traj)


@pytest.mark.parametrize("platform_name", ["locobot", "turtlebot4", "robomaster"])
def test_episode_steps_the_shield_it_is_handed_on_the_platform_camera(platform_name, tmp_path):
    # The shield declares an unbiased sensor; the simulator still renders with
    # the platform's camera, so each frame carries the platform's depth bias.
    platform = get_platform(platform_name)
    cfg_path = tmp_path / "unbiased.cfg"
    cfg_path.write_text("depth_offset_m = 0\n")
    spy = _SpyShield(load_config(cfg_path, base=platform.config()))
    assert spy.cfg.mount.depth_offset_m == 0.0
    world = resolve_world("corridor_01")
    start = RobotState(*world.start, platform.footprint_radius_m, platform.name)
    ticks = list(itertools.islice(episode_ticks(world, GoalSeeker(), platform=platform,
                                                shield=spy, start=start, goals=world.goals), 10))
    assert len(spy.frames) == len(ticks) == 10
    intr = platform.intrinsics(SIM_FRAME_ROWS)
    unbiased = replace(platform.mount(), depth_offset_m=0.0)
    for tick, frame, pose in zip(ticks, spy.frames, [start] + [t.state for t in ticks]):
        assert frame.mount == platform.mount()
        rendered = raycast_depth(world, pose, intr, platform.mount(), t=tick.t)
        assert np.array_equal(frame.depths, rendered.depths)
        true_depth = raycast_depth(world, pose, intr, unbiased, t=tick.t).depths
        hit = true_depth > 0.0
        assert hit.any()
        np.testing.assert_allclose(frame.depths[hit] - true_depth[hit],
                                   platform.mount().depth_offset_m, atol=1e-12)


def test_follower_episode_renders_no_frame(monkeypatch):
    def no_render(*args, **kwargs):
        raise AssertionError("the follower rendered a frame")

    monkeypatch.setattr(episodes, "raycast_depth", no_render)
    rec = run_episode(policy=GoalSeeker(), max_time_s=60.0,
                      **_arena_episode(shield=False, goals=_GOAL_ARENA.goals))
    assert rec.arrived and rec.decision_log is None


# ---------------------------------------------------------------------------
# Metrics from logs
# ---------------------------------------------------------------------------

def _assert_metrics_match_trajectory_log(rec) -> None:
    rows = [line.split(",") for line in rec.trajectory_log.splitlines()[1:]]
    # Same accumulation order as the runner, so the sums match bitwise.
    distance = clear_distance = 0.0
    collisions = 0
    prev = False
    for row in rows:
        distance += float(row[4]) * CONTROL_PERIOD_S
        if not collisions:
            clear_distance = distance
        hit = row[6] == "1"
        if hit and not prev:
            collisions += 1
        prev = hit
    assert distance == rec.distance_m
    assert clear_distance == rec.distance_before_collision_m
    assert collisions == rec.collisions
    # Arrival itself needs the goals; its time is the tick count times the
    # period, which the last row's stamp matches up to rounding.
    assert len(rows) * CONTROL_PERIOD_S == rec.completion_time_s
    assert float(rows[-1][0]) == pytest.approx(rec.completion_time_s)


def test_metrics_recomputable_from_trajectory_logs():
    arena = ExperimentSpec(task="goal_conditioned", world=_GOAL_ARENA,
                           trials=2, seed=1, max_time_s=20.0)
    # The wall-free arena never collides; shield-off corridor_03 collides once.
    for spec, collision_trials in ((arena, 0), (_CORRIDOR_03_NO_SHIELD, 1)):
        rep = run_goal_conditioned(spec)
        assert rep.arrival_rate == 1.0
        assert rep.collision_trials == collision_trials
        for rec in rep.per_trial:
            _assert_metrics_match_trajectory_log(rec)


def test_exploration_without_goals_reports_nan_times():
    rep = run_exploration(_explore_spec())
    assert rep.arrival_rate == 0.0
    assert math.isnan(rep.completion_time_mean)
    assert math.isnan(rep.completion_time_std)


def test_single_trial_std_is_zero():
    rep = run_exploration(_explore_spec(trials=1))
    assert rep.path_length_std == 0.0
    assert rep.trials == 1


# ---------------------------------------------------------------------------
# World resolution and bundled worlds
# ---------------------------------------------------------------------------

def test_resolve_world_accepts_model_name_and_path(tmp_path):
    assert resolve_world(_EMPTY_ARENA) is _EMPTY_ARENA
    bundled = resolve_world("corridor_empty")
    assert bundled.goals.shape[0] > 0
    copy = tmp_path / "c.world"
    save_world(bundled, copy)
    from_path = resolve_world(copy)
    assert from_path.bounds == bundled.bounds


def test_resolve_world_errors():
    with pytest.raises(InputFormatError):
        resolve_world(None)
    with pytest.raises(InputFormatError):
        resolve_world("no_such_world")


def test_bundled_worlds_all_load(tmp_path):
    # Every built world survives a save/load round trip unchanged.
    for name, build in BUNDLED_WORLDS.items():
        world = build()
        path = tmp_path / f"{name}.world"
        save_world(world, path)
        loaded = load_world(path)
        assert loaded.bounds == world.bounds, name
        assert loaded.start == world.start, name
        assert loaded.static_segments.tobytes() == world.static_segments.tobytes(), name
        assert loaded.goals.tobytes() == world.goals.tobytes(), name


def test_corridor_boxes_stay_clear_of_goal_x():
    # corridor_world promises every box at least ~0.5 m clear of each
    # goal's x position, so no goal lies buried inside a cluster.
    for i in range(1, 11):
        world = BUNDLED_WORLDS[f"corridor_{i:02d}"]()
        for poly in world.polygons:
            lo, hi = poly.vertices[:, 0].min(), poly.vertices[:, 0].max()
            clearance = np.maximum(lo - world.goals[:, 0], world.goals[:, 0] - hi)
            assert clearance.min() >= 0.5, (i, lo, hi)


# ---------------------------------------------------------------------------
# ExperimentSpec and task validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(task="parkour")
    with pytest.raises(ValueError):
        ExperimentSpec(task="exploration", trials=0)


_BAD_EPISODE_CAPS = [
    {"max_time_s": -1.0}, {"max_time_s": 0.0}, {"max_time_s": 0.05},
    {"max_time_s": math.nan}, {"max_time_s": math.inf},
    {"max_distance_m": 0.0}, {"max_distance_m": -1.0}, {"max_distance_m": math.nan},
]


@pytest.mark.parametrize("caps", _BAD_EPISODE_CAPS + [
    {"seed": -1}, {"seed": 1.5}, {"seed": True},
    {"trials": 2.5}, {"trials": True},
])
def test_spec_rejects_bad_caps(caps):
    with pytest.raises(ValueError):
        ExperimentSpec(task="goal_conditioned", **caps)


@pytest.mark.parametrize("caps", _BAD_EPISODE_CAPS)
def test_run_episode_rejects_bad_caps(caps):
    # The same check and message as ExperimentSpec, before any tick runs.
    with pytest.raises(ValueError, match=r"^max_(time_s must be finite and at least"
                                         r"|distance_m must be positive)"):
        run_episode(policy=Wanderer(), **{"max_time_s": 1.0, **caps},
                    **_arena_episode(shield=False))


class _UncalledPolicy:
    def trajectory(self, robot, goal=None):
        raise AssertionError("the episode ran a tick")


@pytest.mark.parametrize("goals, message", [
    ([[3.0, math.nan]], "goals must be finite"),
    (np.array([3.0, 2.0]), "goals must have shape (N, 2) with N >= 0, got (2,)"),
], ids=["nan", "one_goal_1d"])
def test_run_episode_rejects_bad_goals_before_any_tick(goals, message):
    episode = {**_arena_episode(shield=False), "goals": goals}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_episode(policy=_UncalledPolicy(), max_time_s=1.0, **episode)


def test_spec_accepts_one_tick_and_no_odometer_cap():
    rep = run_goal_conditioned(ExperimentSpec(
        task="goal_conditioned", world=_GOAL_ARENA, trials=1,
        max_time_s=CONTROL_PERIOD_S, max_distance_m=math.inf))
    assert rep.per_trial[0].trajectory_log.count("\n") == 2   # header and one tick


def test_runners_reject_mismatched_task():
    with pytest.raises(ValueError):
        run_exploration(ExperimentSpec(task="goal_conditioned", world=_EMPTY_ARENA))
    with pytest.raises(ValueError):
        run_goal_conditioned(ExperimentSpec(task="exploration", world=_EMPTY_ARENA))
    with pytest.raises(ValueError):
        run_dynamic(ExperimentSpec(task="exploration", world=_EMPTY_ARENA))


def test_goal_run_requires_goals():
    spec = ExperimentSpec(task="goal_conditioned", world=_EMPTY_ARENA, trials=1)
    with pytest.raises(InputFormatError):
        run_goal_conditioned(spec)


@pytest.mark.parametrize("world, named", [
    ("dynamic_front_approach", "'dynamic_front_approach'"),
    (BUNDLED_WORLDS["dynamic_front_approach"](), "<WorldModel>"),
], ids=["name", "model"])
def test_dynamic_run_refuses_a_scenario_beside_a_world(world, named):
    spec = ExperimentSpec(task="dynamic_obstacle", world=world, trials=1)
    with pytest.raises(ValueError, match=f"^scenario 'side_appear' and world {named} both name"):
        run_dynamic(spec, scenario="side_appear")


def test_dynamic_run_refuses_an_unknown_scenario_by_its_own_name(tmp_path, monkeypatch):
    # A file named like the scenario's world is not read as the scenario.
    monkeypatch.chdir(tmp_path)
    save_world(BUNDLED_WORLDS["dynamic_side_appear"](), tmp_path / "dynamic_bogus")
    spec = ExperimentSpec(task="dynamic_obstacle", trials=1)
    message = f"unknown scenario 'bogus'; choose from {DYNAMIC_SCENARIOS}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_dynamic(spec, scenario="bogus")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_dynamic(replace(spec, world="corridor_empty"), scenario="bogus")


def test_dynamic_run_requires_agents():
    spec = ExperimentSpec(task="dynamic_obstacle", world="corridor_empty", trials=1)
    with pytest.raises(InputFormatError):
        run_dynamic(spec)


# ---------------------------------------------------------------------------
# Report formats
# ---------------------------------------------------------------------------

def test_report_csv_shape_and_values():
    rep = run_exploration(_explore_spec(trials=2))
    text = report_csv(rep)
    lines = text.splitlines()
    assert lines[0] == "metric,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["task"] == "exploration"
    assert table["shield"] == "1"
    assert int(table["trials"]) == 2
    assert 0.0 <= float(table["arrival_rate"]) <= 1.0
    assert float(table["path_length_mean"]) == rep.path_length_mean


def test_per_trial_csv_shape():
    rep = run_exploration(_explore_spec(trials=3))
    lines = per_trial_csv(rep).splitlines()
    assert lines[0].startswith("trial,arrived,")
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == i
        float(fields[2])

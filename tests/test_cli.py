"""End-to-end tests for the command-line front end."""

from __future__ import annotations

import itertools
import subprocess
import sys

import numpy as np
import pytest

from repshield import (CameraMount, DepthFrame, Shield, Trajectory, get_platform,
                       intrinsics_for_fov, save_depth_frame)
from repshield.harness import (ExperimentSpec, episodes, experiments, report_csv,
                               resolve_world, run_episode, run_experiment)
from repshield.harness.cli import main
from repshield.repulsion import load_trajectory, save_trajectory
from repshield.sim import RobotState, WorldModel, save_world


@pytest.fixture
def arena_world(tmp_path):
    w = WorldModel(bounds=(0.0, 0.0, 6.0, 4.0), bounds_solid=False,
                   start=(1.0, 2.0, 0.0), goals=np.array([[3.0, 2.0]]))
    path = tmp_path / "arena.world"
    save_world(w, path)
    return path


def _report(out: str) -> dict[str, str]:
    """The metric -> value rows of a report.csv text."""
    lines = out.splitlines()
    assert lines[0] == "metric,value"
    return dict(line.split(",", 1) for line in lines[1:])


def test_explore_runs_and_prints_summary(arena_world, capsys):
    rc = main(["explore", "--world", str(arena_world), "--trials", "2",
               "--seed", "1", "--max-time", "2"])
    report = _report(capsys.readouterr().out)
    assert rc == 0
    assert (report["task"], report["shield"], report["trials"]) == ("exploration", "1", "2")
    assert float(report["path_length_mean"]) > 0.0


def test_explore_writes_artifact_tree(arena_world, tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main(["explore", "--world", str(arena_world), "--trials", "2",
               "--max-time", "2", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    # Stdout is the report.csv text, byte for byte.
    assert out.encode() == (out_dir / "report.csv").read_bytes()
    expected = run_experiment(ExperimentSpec(task="exploration", world=str(arena_world),
                                             trials=2, max_time_s=2.0))
    assert (out_dir / "report.csv").read_text() == report_csv(expected)
    trials = (out_dir / "trials.csv").read_text().splitlines()
    assert len(trials) == 3
    for trial in range(2):
        traj = out_dir / "logs" / f"trial_{trial:03d}.traj.csv"
        dec = out_dir / "logs" / f"trial_{trial:03d}.dec.csv"
        assert traj.read_text().startswith("t,x,y,heading,")
        assert dec.read_text().startswith("t,v,omega,")


def test_no_shield_skips_decision_logs(arena_world, tmp_path, capsys):
    out_dir = tmp_path / "baseline"
    rc = main(["explore", "--world", str(arena_world), "--no-shield",
               "--trials", "1", "--max-time", "2", "--out", str(out_dir)])
    assert rc == 0
    assert _report(capsys.readouterr().out)["shield"] == "0"
    assert (out_dir / "logs" / "trial_000.traj.csv").exists()
    assert not (out_dir / "logs" / "trial_000.dec.csv").exists()


def test_goal_run_arrives(arena_world, capsys):
    rc = main(["goal", "--world", str(arena_world), "--trials", "2",
               "--seed", "0", "--max-time", "20"])
    report = _report(capsys.readouterr().out)
    assert rc == 0
    assert report["arrival_rate"] == "1.0"


def test_goal_run_on_bundled_world(capsys):
    rc = main(["goal", "--world", "corridor_empty", "--trials", "1",
               "--max-time", "120"])
    report = _report(capsys.readouterr().out)
    assert rc == 0
    assert report["arrival_rate"] == "1.0"


def test_dynamic_scenario_runs(capsys):
    rc = main(["dynamic", "--scenario", "side_appear", "--trials", "1",
               "--max-time", "2"])
    assert rc == 0
    assert _report(capsys.readouterr().out)["task"] == "dynamic_obstacle"


def test_reused_out_is_refused_and_the_earlier_run_kept(arena_world, tmp_path, capsys):
    # An empty directory counts as new. A second run into a used one would
    # mix the shielded trial_000.dec.csv and trial_001 logs with its own.
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    rc = main(["goal", "--world", str(arena_world), "--trials", "2", "--max-time", "2",
               "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    before = {f: f.read_bytes() for f in out_dir.rglob("*") if f.is_file()}
    assert len(before) == 6
    rc = main(["goal", "--world", str(arena_world), "--no-shield", "--trials", "1",
               "--max-time", "2", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (f"error: --out {out_dir} holds an earlier run's outputs; "
                            "give a new or empty directory\n")
    assert {f: f.read_bytes() for f in out_dir.rglob("*") if f.is_file()} == before


@pytest.mark.parametrize("leftover", ["report.csv", "trials.csv", "logs"])
@pytest.mark.parametrize("command", ["explore", "goal", "dynamic"])
def test_out_holding_any_output_is_refused_before_a_trial_runs(
        command, leftover, arena_world, tmp_path, monkeypatch, capsys):
    def no_episode(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_episode", no_episode)
    out_dir = tmp_path / "results"
    out_dir.mkdir()
    if leftover == "logs":
        (out_dir / leftover).mkdir()
    else:
        (out_dir / leftover).write_text("")
    world = (["--scenario", "side_appear"] if command == "dynamic"
             else ["--world", str(arena_world)])
    rc = main([command, *world, "--trials", "1", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out_dir} holds")


@pytest.mark.parametrize("under", ["", "results"], ids=["file", "under_file"])
def test_out_naming_or_under_a_file_is_refused_before_a_trial_runs(
        under, arena_world, tmp_path, monkeypatch, capsys):
    def no_episode(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_episode", no_episode)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / under
    rc = main(["goal", "--world", str(arena_world), "--trials", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: {afile} is not a directory\n"
    assert afile.read_text() == "kept\n"


def test_scenario_and_world_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dynamic", "--scenario", "side_appear", "--world", "dynamic_front_approach",
              "--trials", "1", "--max-time", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_closed_loop_commands_reject_config(arena_world, tmp_path, capsys):
    # Closed-loop runs always use the platform defaults; the flag would be ignored.
    cfg_path = tmp_path / "slow.cfg"
    cfg_path.write_text("v_fwd = 0.05\n")
    with pytest.raises(SystemExit) as exc:
        main(["goal", "--world", str(arena_world), "--trials", "1", "--max-time", "2",
              "--config", str(cfg_path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_replay_to_stdout_and_file(tmp_path, capsys):
    # Three frames of a frontal wall stepping closer each frame.
    intr = intrinsics_for_fov(9, 3, 90.0)
    mount = CameraMount(fov_deg=90.0)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for k, dist in enumerate((0.9, 0.7, 0.5)):
        depths = np.full((3, 9), dist)
        save_depth_frame(DepthFrame(depths, intr, mount),
                         frames_dir / f"frame_{k}.df1")
    traj_path = tmp_path / "straight.tj1"
    save_trajectory(Trajectory(np.column_stack((np.arange(1, 9) * 0.25,
                                                np.zeros(8)))), traj_path)

    rc = main(["replay", "--frames", str(frames_dir),
               "--trajectory", str(traj_path)])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert rc == 0
    assert lines[0].startswith("t,v,omega,")
    assert len(lines) == 4
    # A wall dead ahead must not pass through.
    assert all(line.split(",")[6] == "0" for line in lines[1:])

    # Replay's --out is a file, and a stale one is overwritten.
    log_path = tmp_path / "replay.csv"
    log_path.write_text("stale\n")
    rc = main(["replay", "--frames", str(frames_dir),
               "--trajectory", str(traj_path), "--out", str(log_path)])
    assert rc == 0
    assert log_path.read_text() == out


def test_replay_reads_nan_and_inf_as_missing_returns(tmp_path, capsys):
    # A wall that nears over three frames, with nan and inf holes: the log
    # is the log of the same files with the holes set to 0.
    rng = np.random.default_rng(34)
    intr = intrinsics_for_fov(16, 6, 90.0)
    mount = CameraMount(fov_deg=90.0)
    traj_path = tmp_path / "straight.tj1"
    save_trajectory(Trajectory(np.column_stack((np.arange(1, 9) * 0.25,
                                                np.zeros(8)))), traj_path)
    logs = {}
    for name in ("holes", "zeros"):
        (tmp_path / name).mkdir()
    for k, dist in enumerate((0.9, 0.7, 0.5)):
        depths = np.full((6, 16), dist) + rng.uniform(0.0, 0.1, size=(6, 16))
        hit = rng.random(depths.shape) < 0.3
        for name, fill in (("holes", rng.choice([np.nan, np.inf], size=int(hit.sum()))),
                           ("zeros", 0.0)):
            depths[hit] = fill
            save_depth_frame(DepthFrame(depths, intr, mount),
                             tmp_path / name / f"frame_{k}.df1")
    assert "nan" in (tmp_path / "holes" / "frame_0.df1").read_text()
    for name in ("holes", "zeros"):
        rc = main(["replay", "--frames", str(tmp_path / name), "--trajectory", str(traj_path)])
        assert rc == 0
        logs[name] = capsys.readouterr().out
    assert logs["holes"] == logs["zeros"]
    assert len(logs["holes"].splitlines()) == 4


def test_replay_applies_rotation_latch(tmp_path, capsys):
    # A 0.4 m return alternating between the right and left thirds of the
    # image: each raw step turns away from it, so the raw commands alternate
    # +/- omega_max while rotating in place. Closed loop's rotation latch
    # keeps the first direction until forward motion resumes; replay must too.
    intr = intrinsics_for_fov(9, 3, 90.0)
    mount = CameraMount(fov_deg=90.0)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for k in range(4):
        depths = np.zeros((3, 9))
        depths[:, slice(6, 9) if k % 2 == 0 else slice(0, 3)] = 0.4
        save_depth_frame(DepthFrame(depths, intr, mount), frames_dir / f"frame_{k}.df1")
    traj_path = tmp_path / "straight.tj1"
    save_trajectory(Trajectory(np.column_stack((np.arange(1, 9) * 0.25,
                                                np.zeros(8)))), traj_path)
    rc = main(["replay", "--frames", str(frames_dir), "--trajectory", str(traj_path)])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rc == 0
    assert [float(r[5]) > 0 for r in rows] == [True, False, True, False]   # theta_des
    assert [(float(r[1]), float(r[2])) for r in rows] == [(0.0, 0.8)] * 4


@pytest.mark.parametrize("header, depths, config, message", [
    ("DF1 3 2 1.0 1.0 1.0 0.5", "0.5 0.5 0.5 0.5 -0.2 0.5", None,
     "depth values must not be negative"),
    # fx = 1e-306 lifts the 80 m return to X = 3 * 80 / fx, past the float
    # maximum; tau_z = 100 lets it through the range cut.
    ("DF1 4 2 1e-306 1.0 0.0 0.0", "1 1 1 1 1 1 1 80", "tau_z = 100\n",
     "point cloud must be finite"),
], ids=["negative_depth", "overflow_geometry"])
def test_replay_refuses_malformed_frames(header, depths, config, message, tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    (frames_dir / "frame_0.df1").write_text(f"{header}\n{depths}\n")
    traj_path = tmp_path / "straight.tj1"
    save_trajectory(Trajectory(np.array([[0.5, 0.0], [1.0, 0.0]])), traj_path)
    argv = ["replay", "--frames", str(frames_dir), "--trajectory", str(traj_path)]
    if config is not None:
        (tmp_path / "cfg.txt").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.txt")]
    # No errstate here: pytest turns any warning, numpy's overflow included, into a failure.
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    # Each refusal names the frame once, whether the loader or the map refused it.
    assert captured.err == f"error: {frames_dir / 'frame_0.df1'}: {message}\n"


@pytest.mark.parametrize("command", ["goal", "dynamic"])
def test_start_pose_in_contact_is_refused(command, tmp_path, capsys):
    # The start sits inside the circle, so every jittered start collides too.
    path = tmp_path / "contact.world"
    path.write_text("WORLD1\nbounds 0 -2 6 2\nstart 2 0 0\ngoal 5 0\ncircle 2 0 0.5\n"
                    "agent 0.18 1 0 5 1.5\n")
    rc = main([command, "--world", str(path), "--trials", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: start pose (2.0, 0.0, 0.0) is in contact\n"


def test_explore_without_free_start_is_refused(tmp_path, capsys):
    # The circle covers every pose the exploration sampler may draw.
    path = tmp_path / "full.world"
    path.write_text("WORLD1\nbounds 0 0 2 2\ncircle 1 1 1.0\n")
    rc = main(["explore", "--world", str(path), "--trials", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: could not sample a collision-free start pose\n"


class _FixedPolicy:
    """Emits the same trajectory on every tick, whatever the pose or goal."""

    def __init__(self, traj: Trajectory):
        self.traj = traj

    def trajectory(self, robot, goal=None) -> Trajectory:
        return self.traj


@pytest.mark.parametrize("world_name, start, max_time_s, min_overrides", [
    ("exploration_boxes", (1.75, 1.4, 0.3), 20.0, 0),
    ("corridor_03", None, 30.0, 1),
    ("dynamic_front_approach", None, 30.0, 1),
], ids=["exploration_boxes", "corridor_03", "dynamic_front_approach"])
def test_replay_of_recorded_closed_loop_matches_its_decision_log(
        world_name, start, max_time_s, min_overrides, tmp_path, monkeypatch, capsys):
    """Replaying the frames a shielded episode rendered, with its trajectory,
    reproduces that episode's decision log byte for byte, latch included."""
    traj_path = tmp_path / "straight.tj1"
    save_trajectory(Trajectory(np.column_stack((np.arange(1, 9) * 0.25, np.zeros(8)))),
                    traj_path)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    render, tick = episodes.raycast_depth, itertools.count()

    def recording_raycast(*args, **kwargs):
        frame = render(*args, **kwargs)
        save_depth_frame(frame, frames_dir / f"frame_{next(tick):05d}.df1")
        return frame

    monkeypatch.setattr(episodes, "raycast_depth", recording_raycast)
    world = resolve_world(world_name)
    # Exploration wanders from a given pose; the goal worlds bring start and goals.
    goals = world.goals if start is None else None
    platform = get_platform("locobot")
    res = run_episode(world, _FixedPolicy(load_trajectory(traj_path)),
                      platform=platform, shield=Shield(platform.config()),
                      start=RobotState(*(start or world.start)), goals=goals,
                      max_time_s=max_time_s)
    monkeypatch.undo()

    log_path = tmp_path / "replay.csv"
    rc = main(["replay", "--frames", str(frames_dir), "--trajectory", str(traj_path),
               "--out", str(log_path)])
    assert rc == 0, capsys.readouterr().err
    assert log_path.read_bytes() == res.decision_log.encode()
    # The latch overrode the gate: rotating in place against the fresh heading.
    rows = [[float(x) for x in line.split(",")] for line in res.decision_log.splitlines()[1:]]
    assert len(rows) == next(tick) > 0
    overrides = sum(1 for r in rows if r[1] == 0.0 and np.sign(r[2]) != np.sign(r[5]))
    assert overrides >= min_overrides


@pytest.mark.parametrize("argv, name", [
    (["explore", "--world", "exploration_boxes", "--trials", "1", "--max-time", "-1"],
     "max_time_s"),
    (["goal", "--world", "corridor_empty", "--trials", "1", "--max-distance", "nan"],
     "max_distance_m"),
    (["dynamic", "--scenario", "side_appear", "--trials", "1", "--max-time", "nan"],
     "max_time_s"),
    (["replay", "--frames", ".", "--trajectory", "t.tj1", "--dt", "0"], "--dt"),
    (["goal", "--world", "corridor_empty", "--trials", "1", "--seed", "-1"], "seed"),
], ids=["explore", "goal", "dynamic", "replay", "seed"])
def test_bad_caps_and_dt_exit_1(argv, name, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and name in captured.err
    assert captured.err.count("\n") == 1


def test_replay_with_config_override(tmp_path, capsys):
    intr = intrinsics_for_fov(5, 2, 90.0)
    mount = CameraMount(fov_deg=90.0)
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    save_depth_frame(DepthFrame(np.full((2, 5), 0.8), intr, mount),
                     frames_dir / "f.df1")
    traj_path = tmp_path / "t.tj1"
    save_trajectory(Trajectory(np.array([[0.5, 0.0]])), traj_path)
    cfg_path = tmp_path / "tight.cfg"
    cfg_path.write_text("tau_z = 0.5\n")
    rc = main(["replay", "--frames", str(frames_dir), "--trajectory",
               str(traj_path), "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    # The wall at 0.8 m sits beyond the tightened sensing range.
    assert out.splitlines()[1].split(",")[6] == "1"


def test_replay_empty_frames_dir_errors(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    traj_path = tmp_path / "t.tj1"
    save_trajectory(Trajectory(np.array([[0.5, 0.0]])), traj_path)
    rc = main(["replay", "--frames", str(frames_dir),
               "--trajectory", str(traj_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def test_unknown_world_errors(capsys):
    rc = main(["goal", "--world", "atlantis", "--trials", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def test_missing_subcommand_and_bad_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["explore", "--warp-speed"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_console_script_entry_point(arena_world, tmp_path):
    out_dir = tmp_path / "console"
    proc = subprocess.run(
        [sys.executable, "-m", "repshield.harness.cli", "explore", "--world",
         str(arena_world), "--trials", "1", "--max-time", "1", "--out", str(out_dir)],
        capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == (out_dir / "report.csv").read_bytes()
    assert _report(proc.stdout.decode())["task"] == "exploration"

"""Command-line front end for the benchmark harness.

Subcommands mirror the three experiment protocols plus an offline replay
that runs the avoidance step over recorded depth frames.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..config import load_config, require_positive
from ..errors import InputFormatError
from ..pipeline import DECISION_LOG_HEADER, Shield, decision_log_row
from ..platforms import PLATFORMS, get_platform
from ..projection import load_depth_frame
from ..repulsion import load_trajectory
from ..worldgen import DYNAMIC_SCENARIOS
from .episodes import CONTROL_PERIOD_S
from .experiments import (ExperimentSpec, MetricsReport, per_trial_csv, report_csv,
                          run_dynamic, run_experiment)


def _add_common(parser: argparse.ArgumentParser, task: str, default_trials: int) -> None:
    parser.set_defaults(func=_cmd_run, task=task)
    where = parser.add_mutually_exclusive_group()
    where.add_argument("--world", help="bundled world name or world file path")
    if task == "dynamic_obstacle":
        where.add_argument("--scenario", choices=DYNAMIC_SCENARIOS,
                           help="bundled scenario S, shorthand for --world dynamic_S")
    parser.add_argument("--platform", choices=sorted(PLATFORMS), default="locobot")
    parser.add_argument("--shield", action=argparse.BooleanOptionalAction, default=True,
                        help="wrap the policy in the avoidance shield")
    parser.add_argument("--trials", type=int, default=default_trials)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="directory for report and logs")
    parser.add_argument("--max-time", type=float, default=300.0,
                        help="per-trial wall of simulated seconds")
    parser.add_argument("--max-distance", type=float, default=30.0,
                        help="per-trial odometer cap in meters")


def _write_outputs(report: MetricsReport, out: Path | None) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv(report))
    (out / "trials.csv").write_text(per_trial_csv(report))
    logs = out / "logs"
    logs.mkdir(exist_ok=True)
    for trial, res in enumerate(report.per_trial):
        (logs / f"trial_{trial:03d}.traj.csv").write_text(res.trajectory_log)
        if res.decision_log is not None:
            (logs / f"trial_{trial:03d}.dec.csv").write_text(res.decision_log)


def _print_summary(report: MetricsReport) -> None:
    print(f"task={report.task} shield={int(report.shield)} trials={report.trials}")
    print(f"  arrival_rate={report.arrival_rate:.3f}")
    print(f"  distance_before_collision={report.distance_before_collision_mean:.3f}"
          f" +/- {report.distance_before_collision_std:.3f} m")
    print(f"  path_length={report.path_length_mean:.3f}"
          f" +/- {report.path_length_std:.3f} m")
    print(f"  completion_time={report.completion_time_mean:.3f}"
          f" +/- {report.completion_time_std:.3f} s")
    print(f"  collisions: mean={report.collision_count_mean:.3f}"
          f" trials_with={report.collision_trials}")


def _cmd_run(args) -> int:
    spec = ExperimentSpec(
        task=args.task, world=args.world, platform=args.platform, shield=args.shield,
        trials=args.trials, seed=args.seed, max_distance_m=args.max_distance,
        max_time_s=args.max_time)
    report = (run_dynamic(spec, args.scenario) if args.task == "dynamic_obstacle"
              else run_experiment(spec))
    _print_summary(report)
    _write_outputs(report, args.out)
    return 0


def _cmd_replay(args) -> int:
    require_positive("--dt", args.dt)
    platform = get_platform(args.platform)
    cfg = platform.config()
    if args.config is not None:
        cfg = load_config(args.config, base=cfg)
    traj = load_trajectory(args.trajectory)
    frames = sorted(Path(args.frames).glob("*.df1"))
    if not frames:
        raise InputFormatError(f"no *.df1 frames found in {args.frames}")
    rows = [DECISION_LOG_HEADER]
    # The closed loop's Shield, so replay logs the commands closed loop would issue.
    avoider = Shield(cfg)
    # The map refuses a point lifted past the float range; numpy's warning adds nothing.
    with np.errstate(over="ignore"):
        for k, frame_path in enumerate(frames):
            frame = load_depth_frame(frame_path, cfg.mount)
            try:
                decision, cmd = avoider.step(frame, traj)
            except ValueError as exc:
                raise InputFormatError(f"{frame_path}: {exc}") from exc
            rows.append(decision_log_row(k * args.dt, decision, cmd))
    text = "\n".join(rows) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repshield",
        description="Reactive collision-avoidance benchmarks in a planar simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("explore", help="wander until first contact"),
                "exploration", default_trials=20)
    _add_common(sub.add_parser("goal", help="follow a goal chain through clutter"),
                "goal_conditioned", default_trials=1)
    _add_common(sub.add_parser("dynamic", help="goal navigation against a scripted agent"),
                "dynamic_obstacle", default_trials=10)

    p = sub.add_parser("replay", help="run the avoidance step over recorded frames")
    p.add_argument("--frames", required=True, type=Path,
                   help="directory of DF1 depth frames, replayed in name order")
    p.add_argument("--trajectory", required=True, type=Path,
                   help="TJ1 trajectory applied at every frame")
    p.add_argument("--platform", choices=sorted(PLATFORMS), default="locobot")
    p.add_argument("--config", type=Path,
                   help="key = value config file overriding platform defaults")
    p.add_argument("--out", type=Path, help="decision log destination (default stdout)")
    p.add_argument("--dt", type=float, default=CONTROL_PERIOD_S,
                   help="seconds between frames in the log's t column")
    p.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark harness: closed-loop episodes, experiment protocols, CLI."""

from .episodes import (CONTROL_PERIOD_S, GOAL_RADIUS_M, TRAJECTORY_LOG_HEADER,
                       EpisodeResult, Tick, episode_ticks, follow_waypoint_command,
                       run_episode)
from .experiments import (ExperimentSpec, MetricsReport, per_trial_csv, report_csv,
                          resolve_world, run_dynamic, run_experiment, run_goal_conditioned)

__all__ = [
    "CONTROL_PERIOD_S", "GOAL_RADIUS_M", "TRAJECTORY_LOG_HEADER", "EpisodeResult",
    "Tick", "episode_ticks", "follow_waypoint_command", "run_episode",
    "ExperimentSpec", "MetricsReport",
    "per_trial_csv", "report_csv", "resolve_world",
    "run_dynamic", "run_experiment", "run_goal_conditioned",
]

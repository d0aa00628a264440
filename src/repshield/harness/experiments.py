"""Benchmark protocols: exploration, goal chains, and scripted crossings.

Every run is a pure function of the experiment spec. Per-trial randomness
(start poses, policy drift seeds, schedule jitter) derives from the spec
seed through named SeedSequence streams that never depend on whether the
shield is enabled, so paired arms see identical worlds and initial
conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..config import require_int
from ..errors import InputFormatError
from ..pipeline import Shield
from ..platforms import PlatformSpec, get_platform
from ..sim import RobotState, WorldModel, check_collision, load_world, perturb_agent
from ..sim.policies import GoalSeeker, Wanderer
from ..worldgen import BUNDLED_WORLDS, dynamic_world
from .episodes import EpisodeResult, check_caps, run_episode

TASKS = ("exploration", "goal_conditioned", "dynamic_obstacle")

# SeedSequence stream tags, one per independent random purpose.
_STREAM_POLICY = 0
_STREAM_START = 1
_STREAM_SCHEDULE = 2


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment arm.

    Policies emit 8 waypoints 0.25 m apart; ``max_distance_m`` may be inf.
    """

    task: str
    world: str | Path | WorldModel | None = None
    platform: str = "locobot"
    shield: bool = True
    trials: int = 10
    seed: int = 0
    max_distance_m: float = 30.0
    max_time_s: float = 300.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        require_int("trials", self.trials, 1)
        require_int("seed", self.seed, 0)
        check_caps(self.max_time_s, self.max_distance_m)


@dataclass
class MetricsReport:
    """Aggregates over one experiment arm; means pair with sample std."""

    task: str
    shield: bool
    trials: int
    arrival_rate: float
    distance_before_collision_mean: float
    distance_before_collision_std: float
    path_length_mean: float
    path_length_std: float
    completion_time_mean: float
    completion_time_std: float
    collision_count_mean: float
    collision_trials: int
    per_trial: list[EpisodeResult] = field(default_factory=list)  # index = trial


def _mean_std(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), std


def _trial_rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial, stream)))


def resolve_world(world: str | Path | WorldModel) -> WorldModel:
    """Accept a WorldModel, a bundled world name, or a file path."""
    if isinstance(world, WorldModel):
        return world
    if world is None:
        raise InputFormatError("no world given")
    name = str(world)
    if name in BUNDLED_WORLDS:
        return BUNDLED_WORLDS[name]()
    path = Path(world)
    if not path.exists():
        raise InputFormatError(f"world {name!r} is neither a bundled name nor a file")
    return load_world(path)


# Pads the footprint while sampling exploration starts only, so no trial
# begins already brushing an obstacle that sits outside the camera fov.
_START_CLEARANCE_M = 0.3


def _clear_pose(world: WorldModel, platform: PlatformSpec, poses, pad: float) -> RobotState | None:
    """The first (x, y, heading) of ``poses`` whose footprint, grown by ``pad``,
    touches nothing at t = 0, with the bare footprint; None if there is none."""
    radius = platform.footprint_radius_m
    for x, y, h in poses:
        if not check_collision(world, RobotState(x, y, h, radius + pad, platform.name), t=0.0):
            return RobotState(x, y, h, radius, platform.name)
    return None


def _sample_start(world: WorldModel, platform: PlatformSpec,
                  rng: np.random.Generator) -> RobotState:
    """Uniform collision-free pose; the same rng stream on both arms."""
    xmin, ymin, xmax, ymax = world.bounds
    margin = platform.footprint_radius_m + _START_CLEARANCE_M + 0.02
    poses = ((rng.uniform(xmin + margin, xmax - margin), rng.uniform(ymin + margin, ymax - margin),
              rng.uniform(-math.pi, math.pi)) for _ in range(1000))
    start = _clear_pose(world, platform, poses, _START_CLEARANCE_M)
    if start is None:
        raise InputFormatError("could not sample a collision-free start pose")
    return start


def _jittered_start(world: WorldModel, platform: PlatformSpec,
                    rng: np.random.Generator) -> RobotState:
    if world.start is None:
        raise InputFormatError("world does not define a start pose")
    x0, y0, h0 = world.start
    poses = ((x0 + rng.uniform(-0.1, 0.1), y0 + rng.uniform(-0.1, 0.1), h0) for _ in range(100))
    start = (_clear_pose(world, platform, poses, 0.02)
             or _clear_pose(world, platform, [world.start], 0.0))
    if start is None:
        raise InputFormatError(f"start pose ({x0}, {y0}, {h0}) is in contact")
    return start


def _aggregate(spec: ExperimentSpec, records: list[EpisodeResult]) -> MetricsReport:
    dbc_mean, dbc_std = _mean_std([r.distance_before_collision_m for r in records])
    path_mean, path_std = _mean_std([r.distance_m for r in records])
    times = [r.completion_time_s for r in records if r.arrived]
    time_mean, time_std = _mean_std(times)
    return MetricsReport(
        task=spec.task, shield=spec.shield, trials=len(records),
        arrival_rate=sum(r.arrived for r in records) / len(records),
        distance_before_collision_mean=dbc_mean, distance_before_collision_std=dbc_std,
        path_length_mean=path_mean, path_length_std=path_std,
        completion_time_mean=time_mean, completion_time_std=time_std,
        collision_count_mean=sum(r.collisions for r in records) / len(records),
        collision_trials=sum(r.collisions > 0 for r in records),
        per_trial=records,
    )


def _perturbed_agents(world: WorldModel, seed: int, trial: int) -> WorldModel:
    """Jitter each scripted agent's schedule, speed and path per trial."""
    rng = _trial_rng(seed, trial, _STREAM_SCHEDULE)
    agents = tuple(perturb_agent(a,
                                 delay=rng.uniform(0.0, 1.0),
                                 speed_scale=rng.uniform(0.9, 1.1),
                                 lateral_offset=rng.uniform(-0.1, 0.1))
                   for a in world.agents)
    return replace(world, agents=agents)


def _wanderer(spec: ExperimentSpec, trial: int) -> Wanderer:
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(trial, _STREAM_POLICY))
    return Wanderer(seed=int(ss.generate_state(1)[0]))


def _goal_seeker(spec: ExperimentSpec, trial: int) -> GoalSeeker:
    return GoalSeeker()


# Per task: start sampler, policy factory, and whether a collision ends the trial.
_PROTOCOLS = {
    "exploration": (_sample_start, _wanderer, True),
    "goal_conditioned": (_jittered_start, _goal_seeker, False),
    "dynamic_obstacle": (_jittered_start, _goal_seeker, False),
}


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Run every trial of one experiment arm and aggregate its metrics.

    Exploration wanders until first contact and scores the distance covered
    before it. Goal-conditioned runs visit the world's ordered goal chain;
    dynamic-obstacle runs do the same against the world's scripted agents,
    whose schedules are jittered per trial.
    """
    sample_start, new_policy, stop_on_collision = _PROTOCOLS[spec.task]
    base = resolve_world(spec.world)
    dynamic = spec.task == "dynamic_obstacle"
    if dynamic and not base.agents:
        raise InputFormatError("dynamic-obstacle world defines no agents")
    goals = None if spec.task == "exploration" else base.goals
    if goals is not None and goals.size == 0:
        raise InputFormatError(f"{spec.task} world defines no goals")
    platform = get_platform(spec.platform)
    records = []
    for trial in range(spec.trials):
        world = _perturbed_agents(base, spec.seed, trial) if dynamic else base
        start = sample_start(world, platform, _trial_rng(spec.seed, trial, _STREAM_START))
        records.append(run_episode(world, new_policy(spec, trial), platform=platform,
                                   shield=Shield(platform.config()) if spec.shield else None,
                                   start=start, goals=goals, max_distance_m=spec.max_distance_m,
                                   max_time_s=spec.max_time_s,
                                   stop_on_collision=stop_on_collision))
    return _aggregate(spec, records)


def _run_task(task: str, spec: ExperimentSpec) -> MetricsReport:
    if spec.task != task:
        raise ValueError(f"spec.task is {spec.task!r}, expected {task!r}")
    return run_experiment(spec)


def run_exploration(spec: ExperimentSpec) -> MetricsReport:
    """``run_experiment`` for a spec whose task must be exploration."""
    return _run_task("exploration", spec)


def run_goal_conditioned(spec: ExperimentSpec) -> MetricsReport:
    """``run_experiment`` for a spec whose task must be goal_conditioned."""
    return _run_task("goal_conditioned", spec)


def run_dynamic(spec: ExperimentSpec, scenario: str | None = None) -> MetricsReport:
    """``run_experiment`` for a dynamic_obstacle spec; ``scenario`` names the
    bundled world ``dynamic_<scenario>``, so the spec must give no world."""
    if scenario:
        world = dynamic_world(scenario)  # refuses an unknown scenario first
        if spec.world is not None:
            given = repr(str(spec.world)) if isinstance(spec.world, (str, Path)) else "<WorldModel>"
            raise ValueError(
                f"scenario {scenario!r} and world {given} both name the world; give one")
        spec = replace(spec, world=world)
    return _run_task("dynamic_obstacle", spec)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_csv(report: MetricsReport) -> str:
    """Flat metric,value summary, one row per field; floats keep full precision."""
    rows = ["metric,value"]
    for f in fields(report):
        if f.name != "per_trial":
            value = getattr(report, f.name)
            rows.append(f"{f.name},{int(value) if isinstance(value, bool) else value}")
    return "\n".join(rows) + "\n"


def per_trial_csv(report: MetricsReport) -> str:
    rows = ["trial,arrived,path_length_m,distance_before_collision_m,"
            "completion_time_s,collisions"]
    for trial, r in enumerate(report.per_trial):
        rows.append(f"{trial},{int(r.arrived)},{r.distance_m!r},"
                    f"{r.distance_before_collision_m!r},{r.completion_time_s!r},"
                    f"{r.collisions}")
    return "\n".join(rows) + "\n"

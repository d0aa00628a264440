"""The benchmark's three workloads, their seeded inputs and their checks.

Every workload is one caller that issues its next call only after the
previous one returns (a closed loop with one client).

* ``corridor_goal``: criterion 08's goal-chain runs (shield on, locobot,
  8-row sim frames, 60 m / 900 s caps) through the ``corridor_NN`` worlds.
  One case is one ``run_goal_conditioned`` call; an operation is a tick.
* ``dynamic_crossing``: criterion 09's runs (shield on, 10 trials, 120 s)
  against the three scripted-agent scenarios. One case is one
  ``run_dynamic`` call; an operation is a tick.
* ``native_replay``: back-to-back ``avoidance_step`` calls over frames
  rendered, untimed, at each platform's native resolution from
  collision-free poses in the corridor worlds. Platforms run round-robin;
  an operation is one step.

Inputs come from fixed case pools whose outputs were recorded once, at the
seed commit, in ``reference.json``; the benchmark seed picks the closed-loop
cases and the replay frames. A run's work is fixed by the seed and
``--seconds`` alone: enough whole cases, or round-robin steps, to last about
that long at the seed commit's speed (``PLANNED_RATE``), however fast the
program under test runs. Every output is compared with the reference, so an
operation fails when it raises or differs by one byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repshield
from repshield import pipeline
from repshield.harness import episodes, experiments
from repshield.harness.experiments import ExperimentSpec, per_trial_csv, report_csv
from repshield.safety import RotationLatch
from repshield.sim import RobotState, check_collision, raycast_depth
from repshield.sim.policies import GoalSeeker

from tracing import Tracer, median_us

WORKLOADS = ("corridor_goal", "dynamic_crossing", "native_replay")

CORRIDORS = tuple(f"corridor_{i:02d}" for i in range(1, 11))
CORRIDOR_SPEC_SEEDS = (0, 1, 2)
SCENARIOS = ("side_appear", "behind_overtake", "front_approach")
DYNAMIC_SPEC_SEEDS = tuple(range(10))

PLATFORM_NAMES = ("locobot", "turtlebot4", "robomaster")
REPLAY_POOL = 240       # candidate poses per platform, all in the reference
REPLAY_FRAMES = 24      # frames per platform in one run, drawn uniformly from the pool
REPLAY_POSE_SEED = 20251017
REPLAY_WAYPOINTS = 8
REPLAY_STEP_M = 0.25

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Operations per second at the seed commit (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4, one thread). They size a run's fixed work so that it takes about
# --seconds there; they are never compared with a measurement.
PLANNED_RATE = {"corridor_goal": 317.0, "dynamic_crossing": 1030.0, "native_replay": 101.0}

# Span name -> where callers look the function up. The closed loop reaches the
# shield through repshield.harness.episodes and the shield's stages through
# repshield.pipeline; the replay loop looks avoidance_step up in
# repshield.pipeline.
LAYERS = (
    "sim.world.check_collision",
    "sim.raycast.raycast_depth",
    "sim.kinematics.step_kinematics",
    "sim.policies.GoalSeeker.trajectory",
    "projection.back_project",
    "projection.construct_obstacle_map",
    "repulsion.estimate_repulsive_direction",
    "repulsion.rotate_trajectory",
    "safety.compute_desired_heading",
    "safety.gate_command",
    "safety.RotationLatch.apply",
    "pipeline.avoidance_step",
    "pipeline.decision_log_row",
    "harness.episodes.run_episode",
    "harness.experiments",
)
PLATFORM_KEYED = ("projection.back_project", "projection.construct_obstacle_map",
                  "pipeline.avoidance_step")
COUNTS = (
    ("projection.points_out", "count", "lower"),
    ("projection.kept_ratio", "ratio", "higher"),
    ("repulsion.pairs", "count", "lower"),
    ("pipeline.shielded_ratio", "ratio", "lower"),
    ("sim.raycast.ray_tests", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
)
END_TO_END = (
    ("ticks_per_s", "1/s", "higher"),
    ("tick_ms_p99", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


STATS = (("calls", "count"), ("self_ms", "ms"), ("us_p50", "us"), ("share", "ratio"))
# Per-layer metrics that are 0 by design on a workload, because it never
# calls the layer: the replay never touches the simulator, the latch or the
# harness, and the closed loops drive only the locobot. The traced run must
# print every per-layer metric; all the others are positive on every workload.
_REPLAY_IDLE = [layer for layer in LAYERS if layer.startswith(("sim.", "harness."))] + [
    "safety.RotationLatch.apply", "pipeline.decision_log_row"]
NOT_EXERCISED = {
    "corridor_goal": tuple(f"{layer}.us_p50.{p}" for layer in PLATFORM_KEYED
                           for p in PLATFORM_NAMES[1:]),
    "native_replay": tuple(f"{layer}.{stat}" for layer in _REPLAY_IDLE for stat, _ in STATS)
    + ("sim.raycast.ray_tests",),
}
NOT_EXERCISED["dynamic_crossing"] = NOT_EXERCISED["corridor_goal"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every traced metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.{stat}", unit, "lower") for stat, unit in STATS]
    for layer in PLATFORM_KEYED:
        out += [(f"{layer}.us_p50.{p}", "us", "lower") for p in PLATFORM_NAMES]
    return out + list(COUNTS)


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()[:24]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Closed-loop cases
# ---------------------------------------------------------------------------

def closed_loop_pool(workload: str) -> list[str]:
    if workload == "corridor_goal":
        return [f"{w}/s{s}" for s in CORRIDOR_SPEC_SEEDS for w in CORRIDORS]
    return [f"{sc}/s{s}" for s in DYNAMIC_SPEC_SEEDS for sc in SCENARIOS]


def run_case(workload: str, case: str):
    """One runner call, looked up on the module so tracing can wrap it."""
    name, seed = case.split("/s")
    if workload == "corridor_goal":
        spec = ExperimentSpec(task="goal_conditioned", world=name, shield=True, trials=1,
                              seed=int(seed), max_distance_m=60.0, max_time_s=900.0)
        return experiments.run_goal_conditioned(spec)
    spec = ExperimentSpec(task="dynamic_obstacle", shield=True, trials=10,
                          seed=int(seed), max_time_s=120.0)
    return experiments.run_dynamic(spec, scenario=name)


def case_outcome(report) -> dict:
    """Digests of the report and of each trial's logs, plus its outcomes."""
    return {"report": digest(report_csv(report), per_trial_csv(report)),
            "trials": [[digest(r.trajectory_log), digest(r.decision_log or ""),
                        r.collisions, int(r.arrived)] for r in report.per_trial]}


def logged_ticks(report) -> int:
    """Control ticks of a case: one trajectory-log row per tick, after the header."""
    return sum(r.trajectory_log.count("\n") - 1 for r in report.per_trial)


def case_plan(workload: str, seed: int, seconds: float, reference: dict) -> list[str]:
    """The run's cases: the seeded permutation of the pool, cut where one more
    case would bring the recorded ticks no nearer to ``seconds`` at ``PLANNED_RATE``."""
    pool = closed_loop_pool(workload)
    ticks = reference["ticks"][workload]
    target = seconds * PLANNED_RATE[workload]
    plan, total = [], 0
    for i in np.random.default_rng(seed).permutation(len(pool)):
        if plan and abs(total + ticks[pool[i]] - target) >= abs(total - target):
            break
        plan.append(pool[i])
        total += ticks[pool[i]]
    return plan


class TickClock:
    """One clock read per control tick, taken where the episode asks its policy.

    ``episodes.policy_trajectory`` runs once at the top of every tick, and
    ``experiments.run_episode`` brackets each episode, so consecutive reads
    (and the episode's return) bound every tick.
    """

    def __init__(self):
        self.stamps: list[int] = []
        self.episodes: list[tuple[int, int, int]] = []   # (first, stop, end_ns)
        self._originals = None

    def install(self) -> None:
        stamps, ends, clock = self.stamps, self.episodes, time.perf_counter_ns
        policy_trajectory = episodes.policy_trajectory
        run_episode = experiments.run_episode

        def timed_policy(policy, robot, goal=None):
            stamps.append(clock())
            return policy_trajectory(policy, robot, goal)

        def timed_episode(*args, **kwargs):
            first = len(stamps)
            try:
                return run_episode(*args, **kwargs)
            finally:
                ends.append((first, len(stamps), clock()))

        self._originals = (policy_trajectory, run_episode)
        episodes.policy_trajectory = timed_policy
        experiments.run_episode = timed_episode

    def restore(self) -> None:
        episodes.policy_trajectory, experiments.run_episode = self._originals

    def latencies_ns(self) -> list[int]:
        out = []
        for first, stop, end in self.episodes:
            bounds = self.stamps[first:stop] + [end]
            out += [b - a for a, b in zip(bounds, bounds[1:])]
        return out


@dataclass
class Measurement:
    ops: int = 0
    failed: int = 0
    busy_ns: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    cases: list[str] = field(default_factory=list)
    trials: int = 0
    collisions: int = 0
    arrivals: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ticks_per_s(self) -> float:
        return self.ops / (self.busy_ns / 1e9)

    def add(self, other: "Measurement") -> None:
        """Append a later pass over other inputs."""
        self.ops += other.ops
        self.failed += other.failed
        self.busy_ns += other.busy_ns
        self.latencies_ns += other.latencies_ns
        self.cases += other.cases
        self.trials += other.trials
        self.collisions += other.collisions
        self.arrivals += other.arrivals
        self.errors += other.errors


def closed_loop_pass(workload: str, cases, reference: dict) -> Measurement:
    """Run the cases back to back, timing each tick."""
    expected = reference[workload]
    m = Measurement()
    ticks = TickClock()
    ticks.install()
    clock = time.perf_counter_ns
    try:
        for case in cases:
            m.cases.append(case)
            before = len(ticks.stamps)
            t0 = clock()
            try:
                report = run_case(workload, case)
            except Exception as exc:  # a raising case is a failed operation
                m.busy_ns += clock() - t0
                n = len(ticks.stamps) - before
                m.ops += max(n, 1)
                m.failed += max(n, 1)
                m.errors.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            m.busy_ns += clock() - t0
            n = len(ticks.stamps) - before
            m.ops += n
            outcome = case_outcome(report)
            logged = logged_ticks(report)
            if outcome != expected[case] or logged != n:
                m.failed += n
                m.errors.append(f"{case}: output differs from the reference"
                                if logged == n else f"{case}: {n} ticks timed, {logged} logged")
            m.trials += len(report.per_trial)
            m.collisions += sum(r.collisions for r in report.per_trial)
            m.arrivals += sum(r.arrived for r in report.per_trial)
    finally:
        ticks.restore()
    m.latencies_ns = ticks.latencies_ns()
    return m


# ---------------------------------------------------------------------------
# Native-resolution replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayFrame:
    platform: str
    index: int
    frame: object
    traj: object
    cfg: object
    expected: str


def replay_case(platform_index: int, j: int, worlds: dict):
    """Pool pose ``j`` of one platform: a native frame and a goal-seeking trajectory.

    The pose is uniform over a corridor, collision-free with 5 cm to spare,
    and heads within 90 degrees of the goal direction (+x).
    """
    platform = repshield.get_platform(PLATFORM_NAMES[platform_index])
    cfg = platform.config()
    rng = np.random.default_rng([REPLAY_POSE_SEED, platform_index, j])
    world = worlds[CORRIDORS[int(rng.integers(len(CORRIDORS)))]]
    xmin, ymin, xmax, ymax = world.bounds
    margin = platform.footprint_radius_m + 0.05
    while True:
        x = rng.uniform(xmin + margin, xmax - margin)
        y = rng.uniform(ymin + margin, ymax - margin)
        state = RobotState(x, y, rng.uniform(-math.pi / 2, math.pi / 2), margin, platform.name)
        if not check_collision(world, state):
            break
    state = RobotState(x, y, state.heading, platform.footprint_radius_m, platform.name)
    ahead = [g for g in world.goals if g[0] > x + 0.5]
    goal = ahead[0] if ahead else world.goals[-1]
    traj = GoalSeeker(REPLAY_WAYPOINTS, REPLAY_STEP_M).trajectory(state, goal)
    frame = raycast_depth(world, state, platform.intrinsics(), cfg.mount)
    return frame, traj, cfg


def decision_digest(decision) -> str:
    cmd = decision.command
    return digest(struct.pack("<3d", cmd.v, cmd.omega, decision.theta_des),
                  decision.adjusted_trajectory.waypoints.tobytes())


def corridor_worlds() -> dict:
    return {name: experiments.resolve_world(name) for name in CORRIDORS}


def replay_indices(seed: int) -> list[list[int]]:
    """Per platform, REPLAY_FRAMES pool poses drawn uniformly by the seed, in drawn order."""
    rng = np.random.default_rng(seed)
    return [[int(j) for j in rng.choice(REPLAY_POOL, REPLAY_FRAMES, replace=False)]
            for _ in PLATFORM_NAMES]


def replay_plan(seed: int, reference: dict) -> list[list[ReplayFrame]]:
    """The drawn frames of every platform, rendered, with their reference digests."""
    worlds = corridor_worlds()
    plan = []
    for p, (name, chosen) in enumerate(zip(PLATFORM_NAMES, replay_indices(seed))):
        entries = reference["native_replay"][name]
        frames = []
        for j in chosen:
            frame, traj, cfg = replay_case(p, j, worlds)
            frames.append(ReplayFrame(name, j, frame, traj, cfg, entries[j]["digest"]))
        plan.append(frames)
    return plan


def replay_steps(plan, seconds: float) -> int:
    """Whole round-robin cycles over the plan lasting about ``seconds`` at ``PLANNED_RATE``."""
    cycle = sum(len(group) for group in plan)
    return cycle * max(1, round(seconds * PLANNED_RATE["native_replay"] / cycle))


def replay_pass(plan, steps: int, first: int = 0) -> Measurement:
    """Round-robin steps ``first`` .. ``first + steps - 1`` over the plan."""
    m = Measurement()
    step = pipeline.avoidance_step
    clock = time.perf_counter_ns
    order = [f for group in zip(*plan) for f in group]
    for k in range(first, first + steps):
        item = order[k % len(order)]
        t0 = clock()
        try:
            decision = step(item.frame, item.traj, item.cfg)
        except Exception as exc:  # a raising step is a failed operation
            m.latencies_ns.append(clock() - t0)
            m.busy_ns += m.latencies_ns[-1]
            m.failed += 1
            m.errors.append(f"{item.platform}#{item.index}: {type(exc).__name__}: {exc}")
            continue
        t1 = clock()
        m.busy_ns += t1 - t0
        m.latencies_ns.append(t1 - t0)
        if decision_digest(decision) != item.expected:
            m.failed += 1
            m.errors.append(f"{item.platform}#{item.index}: output differs from the reference")
    m.ops = steps
    return m


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _count(name, fn):
    def count(counts, args, result):
        counts[name] += fn(args, result)
    return count


def install_tracing(tracer: Tracer) -> None:
    """Wrap every layer at the attribute its callers look up."""
    platform_of = {repshield.get_platform(p).mount(): p for p in PLATFORM_NAMES}
    targets = [
        (episodes, "check_collision", "sim.world.check_collision", None, None),
        (experiments, "check_collision", "sim.world.check_collision", None, None),
        (episodes, "raycast_depth", "sim.raycast.raycast_depth",
         _count("sim.raycast.ray_tests", lambda a, r: a[2].width * (
             a[0].static_segments.shape[0] + len(a[0].circles) + len(a[0].agents))), None),
        (episodes, "step_kinematics", "sim.kinematics.step_kinematics", None, None),
        (GoalSeeker, "trajectory", "sim.policies.GoalSeeker.trajectory", None, None),
        (pipeline, "back_project", "projection.back_project",
         _count("projection.points_out", lambda a, r: len(r)),
         lambda a: platform_of.get(a[0].mount)),
        (pipeline, "construct_obstacle_map", "projection.construct_obstacle_map",
         _count("projection.map_entries", lambda a, r: len(r)),
         lambda a: platform_of.get(a[1].mount)),
        (pipeline, "estimate_repulsive_direction", "repulsion.estimate_repulsive_direction",
         _count("repulsion.pairs", lambda a, r: len(a[0]) * len(a[1])), None),
        (pipeline, "rotate_trajectory", "repulsion.rotate_trajectory", None, None),
        (pipeline, "compute_desired_heading", "safety.compute_desired_heading", None, None),
        (pipeline, "gate_command", "safety.gate_command", None, None),
        (RotationLatch, "apply", "safety.RotationLatch.apply", None, None),
    ]
    shielded = _count("pipeline.shielded", lambda a, r: int(not r.passthrough))
    step_key = lambda a: platform_of.get(a[2].mount)  # noqa: E731
    targets += [
        (episodes, "avoidance_step", "pipeline.avoidance_step", shielded, step_key),
        (pipeline, "avoidance_step", "pipeline.avoidance_step", shielded, step_key),
        (episodes, "decision_log_row", "pipeline.decision_log_row", None, None),
        (experiments, "run_episode", "harness.episodes.run_episode", None, None),
        (experiments, "run_goal_conditioned", "harness.experiments", None, None),
        (experiments, "run_dynamic", "harness.experiments", None, None),
    ]
    for owner, attr, name, count, key in targets:
        tracer.patch(owner, attr, name, count, key)


def per_layer_values(tracer: Tracer, untraced: Measurement, traced: Measurement) -> dict:
    """Per-layer metric values from a finished traced pass."""
    summary = tracer.summary()
    wall_ns = tracer.wall_ns
    values = {}
    self_total = 0
    for layer in LAYERS:  # a layer the workload never calls reports 0 throughout
        entry = summary.get(layer, {"calls": 0, "self_ns": 0, "durations_ns": []})
        self_total += entry["self_ns"]
        values[f"{layer}.calls"] = entry["calls"]
        values[f"{layer}.self_ms"] = entry["self_ns"] / 1e6
        values[f"{layer}.us_p50"] = median_us(entry["durations_ns"])
        values[f"{layer}.share"] = entry["self_ns"] / wall_ns
    for layer in PLATFORM_KEYED:
        by_key = summary.get(layer, {}).get("by_key", {})
        for p in PLATFORM_NAMES:
            values[f"{layer}.us_p50.{p}"] = median_us(by_key.get(p, []))
    c = tracer.counts
    values["projection.points_out"] = c["projection.points_out"]
    values["projection.kept_ratio"] = c["projection.map_entries"] / c["projection.points_out"]
    values["repulsion.pairs"] = c["repulsion.pairs"]
    values["pipeline.shielded_ratio"] = (c["pipeline.shielded"]
                                         / values["pipeline.avoidance_step.calls"])
    values["sim.raycast.ray_tests"] = c["sim.raycast.ray_tests"]
    values["trace.overhead_ratio"] = untraced.ticks_per_s / traced.ticks_per_s
    values["trace.unaccounted_share"] = (wall_ns - self_total) / wall_ns
    return values

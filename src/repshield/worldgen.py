"""Generators for the bundled benchmark worlds, their only source.

``BUNDLED_WORLDS`` maps each name to its builder; fixed seeds make every
build bitwise identical, and ``save_world`` writes one to a file.
"""

from __future__ import annotations

import numpy as np

from .sim.world import AgentTrack, Polygon, WorldModel

AGENT_RADIUS_M = 0.18


def _box(cx: float, cy: float, side: float) -> Polygon:
    h = side / 2.0
    return Polygon(np.array([[cx - h, cy - h], [cx + h, cy - h],
                             [cx + h, cy + h], [cx - h, cy + h]]))


_ARENA_BOX_SITES = (
    (0.45, 0.45), (0.45, 1.00), (0.45, 1.55), (0.45, 2.10), (0.45, 2.65),
    (3.05, 0.45), (3.05, 1.00), (3.05, 1.55), (3.05, 2.10), (3.05, 2.65),
)


def exploration_world() -> WorldModel:
    """A 3.5 x 2.8 m walled arena with 10 boxes banked at the short ends.

    Each end holds a broken wall of five boxes with 0.33 m gaps (0.27-0.39
    m after jitter), about the robot's 0.34 m footprint, so the open middle
    strip is the only roomy region. A depth-gated controller can pace the
    strip indefinitely, while a blind policy reliably drifts into a box
    bank or a wall.
    """
    rng = np.random.default_rng(11)
    boxes = []
    for cx, cy in _ARENA_BOX_SITES:
        jx, jy = rng.uniform(-0.03, 0.03, size=2)
        boxes.append(_box(cx + jx, cy + jy, 0.22))
    return WorldModel(bounds=(0.0, 0.0, 3.5, 2.8), polygons=tuple(boxes), bounds_solid=True)


_CORRIDOR_BOUNDS = (0.0, -1.2, 24.0, 1.2)
_CORRIDOR_GOALS = [(4.0, 0.0), (8.0, 0.0), (12.0, 0.0), (16.0, 0.0),
                   (20.0, 0.0), (23.0, 0.0)]
_CORRIDOR_START = (0.8, 0.0, 0.0)
# Two slots per inter-goal span plus one in the short final span. Slot
# jitter (0.25) plus the widest cluster footprint (0.79 m past x0) keeps
# every box at least ~0.5 m clear of each goal's x position, so no goal
# can end up buried inside a cluster and missed on the fly-by.
_CLUSTER_SLOTS = (5.2, 6.4, 9.2, 10.4, 13.2, 14.4, 17.2, 18.4, 21.15)
_BOX_SIDE = 0.3
_BOX_PITCH = 0.32


def _cluster_boxes(pattern: str, x0: float, count: int) -> list[Polygon]:
    """Lay out one cluster of boxes.

    ``center`` clusters sit astride the goal line in a two-wide block and
    force a detour; wall clusters hug one side in a single row, which
    narrows the corridor without creating a pocket between cluster and
    wall that a reactive controller could wedge itself into.
    """
    boxes = []
    if pattern == "center":
        for i in range(count):
            col, row = divmod(i, 2)
            cy = -_BOX_PITCH / 2 + row * _BOX_PITCH
            boxes.append(_box(x0 + col * _BOX_PITCH, cy, _BOX_SIDE))
    else:
        sign = 1.0 if pattern == "left" else -1.0
        for i in range(count):
            boxes.append(_box(x0 + i * _BOX_PITCH, sign * 0.93, _BOX_SIDE))
    return boxes


def corridor_world(instance: int) -> WorldModel:
    """One of ten 24 m corridor courses with 15 boxes in 5-6 clusters."""
    if not (1 <= instance <= 10):
        raise ValueError(f"corridor instance must be 1..10, got {instance}")
    rng = np.random.default_rng(4200 + instance)
    n_clusters = 5 + instance % 2
    base, extra = divmod(15, n_clusters)
    sizes = [base + (1 if i < extra else 0) for i in range(n_clusters)]

    # Exactly one cluster straddles the goal line, alone in its span.
    # A straddling block costs a depth-gated controller minutes of
    # in-place rotation, and one next to a wall cluster can trap it
    # outright, while the straight-line baseline must plow through
    # regardless of where the block sits.
    center_span = int(rng.integers(0, 4))
    center_slot = 2 * center_span + int(rng.integers(0, 2))
    rest = [s for s in range(len(_CLUSTER_SLOTS)) if s // 2 != center_span]
    others = rng.choice(rest, size=n_clusters - 1, replace=False)
    slots = [center_slot] + sorted(int(s) for s in others)
    patterns = ["center"] + [str(rng.choice(["left", "right"]))
                             for _ in range(n_clusters - 1)]
    order = rng.permutation(n_clusters)
    boxes: list[Polygon] = []
    for i, slot in enumerate(slots):
        x0 = float(_CLUSTER_SLOTS[slot] + rng.uniform(-0.25, 0.25))
        boxes.extend(_cluster_boxes(patterns[i], x0, sizes[order[i]]))
    return WorldModel(bounds=_CORRIDOR_BOUNDS, polygons=tuple(boxes), bounds_solid=True,
                      start=_CORRIDOR_START, goals=np.array(_CORRIDOR_GOALS))


_DYNAMIC_BOUNDS = (0.0, -1.2, 8.0, 1.2)
_DYNAMIC_GOALS = [(7.2, 0.0)]
_DYNAMIC_START = (0.8, 0.0, 0.0)

_DYNAMIC_TRACKS = {
    # Crosses in from beyond the left wall and plants itself on the path.
    "side_appear": ([0.0, 6.0, 9.0],
                    [[3.5, 2.0], [3.5, 2.0], [3.5, 0.0]]),
    # Passes the robot with lateral clearance, then cuts in and stops.
    "behind_overtake": ([0.0, 2.0, 11.0, 13.0],
                        [[0.0, 0.6], [0.0, 0.6], [5.0, 0.6], [5.8, 0.0]]),
    # Walks straight at the robot and stops dead ahead.
    "front_approach": ([0.0, 2.0, 9.0],
                       [[7.5, 0.0], [7.5, 0.0], [4.0, 0.0]]),
}

DYNAMIC_SCENARIOS = tuple(_DYNAMIC_TRACKS)


def empty_corridor_world() -> WorldModel:
    """A bare corridor with a single goal at the far end.

    Uses the short crossing-scenario shell rather than the long cluttered
    course: with nothing but walls in view, the repulsive field is set
    entirely by bin quantization of the wall returns, and over tens of
    meters the resulting stop-and-turn chatter accumulates into episode
    times that say nothing about avoidance quality.
    """
    return WorldModel(bounds=_DYNAMIC_BOUNDS, bounds_solid=True,
                      start=_DYNAMIC_START, goals=np.array(_DYNAMIC_GOALS))


def dynamic_world(scenario: str) -> WorldModel:
    """A short corridor with one scripted agent per named scenario."""
    if scenario not in _DYNAMIC_TRACKS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {DYNAMIC_SCENARIOS}")
    times, points = _DYNAMIC_TRACKS[scenario]
    agent = AgentTrack(AGENT_RADIUS_M, np.array(times), np.array(points))
    return WorldModel(bounds=_DYNAMIC_BOUNDS, agents=(agent,), bounds_solid=True,
                      start=_DYNAMIC_START, goals=np.array(_DYNAMIC_GOALS))


BUNDLED_WORLDS = {
    "exploration_boxes": exploration_world,
    "corridor_empty": empty_corridor_world,
    **{f"corridor_{i:02d}": (lambda i=i: corridor_world(i)) for i in range(1, 11)},
    **{f"dynamic_{name}": (lambda name=name: dynamic_world(name))
       for name in DYNAMIC_SCENARIOS},
}


"""World geometry: static obstacles, scripted agents, collision tests.

Worlds are axis-aligned rectangles containing convex polygons and circles.
Dynamic agents are discs that follow piecewise-linear schedules; they are
scripted, so they may enter from outside the bounds. When ``bounds_solid``
is set the rectangle boundary behaves as four walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ..errors import InputFormatError

COLLISION_TOLERANCE_M = 1e-9


@dataclass(frozen=True, eq=False)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if self.center.shape != (2,):
            raise ValueError(f"circle center must be 2D, got {self.center.shape}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"circle radius must be finite and positive, got {self.radius}")


@dataclass(frozen=True, eq=False)
class Polygon:
    """A convex polygon given by its vertices (either winding order)."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        object.__setattr__(self, "vertices", verts)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got shape {verts.shape}")
        nxt = np.roll(verts, -1, axis=0)
        after = np.roll(verts, -2, axis=0)
        e1 = nxt - verts
        e2 = after - nxt
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(cross > 1e-12) and np.any(cross < -1e-12):
            raise ValueError("polygon is not convex")


@dataclass(frozen=True, eq=False)
class AgentTrack:
    """A scripted disc: strictly increasing times and matching positions.

    Before the first knot the agent holds its first position; after the
    last it holds the final one.
    """

    radius: float
    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        points = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)
        if not 0 < self.radius < math.inf:
            raise ValueError(f"agent radius must be finite and positive, got {self.radius}")
        if times.ndim != 1 or times.size < 1:
            raise ValueError("agent schedule needs at least one knot")
        if points.shape != (times.size, 2):
            raise ValueError("agent schedule times and points disagree")
        if np.any(np.diff(times) <= 0):
            raise ValueError("agent schedule times must be strictly increasing")

    def position(self, t: float) -> np.ndarray:
        x = np.interp(t, self.times, self.points[:, 0])
        y = np.interp(t, self.times, self.points[:, 1])
        return np.array([x, y])


def perturb_agent(track: AgentTrack, delay: float = 0.0, speed_scale: float = 1.0,
                  lateral_offset: float = 0.0) -> AgentTrack:
    """Jitter a schedule: delay its start, rescale its pace, shift it in y.

    Used by the benchmark harness to generate per-trial variation from one
    scripted scenario.
    """
    if not 0 < speed_scale < math.inf:
        raise ValueError(f"speed_scale must be finite and positive, got {speed_scale}")
    t0 = track.times[0]
    times = t0 + (track.times - t0) / speed_scale + delay
    points = track.points + np.array([0.0, lateral_offset])
    return AgentTrack(track.radius, times, points)


@dataclass(frozen=True, eq=False)
class WorldModel:
    """Immutable description of one environment.

    bounds is (xmin, ymin, xmax, ymax). ``start`` optionally fixes the
    canonical start pose (x, y, heading); ``goals`` is an ordered (G, 2)
    array of goal positions for goal-directed tasks.
    """

    bounds: tuple[float, float, float, float]
    circles: tuple[Circle, ...] = ()
    polygons: tuple[Polygon, ...] = ()
    agents: tuple[AgentTrack, ...] = ()
    bounds_solid: bool = True
    start: tuple[float, float, float] | None = None
    goals: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        object.__setattr__(self, "circles", tuple(self.circles))
        object.__setattr__(self, "polygons", tuple(self.polygons))
        object.__setattr__(self, "agents", tuple(self.agents))
        goals = np.asarray(self.goals, dtype=np.float64)
        if goals.size == 0:
            goals = goals.reshape(0, 2)
        object.__setattr__(self, "goals", goals)
        xmin, ymin, xmax, ymax = self.bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"degenerate bounds {self.bounds}")
        for c in self.circles:
            x, y = c.center
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                raise ValueError(f"circle at ({x}, {y}) outside bounds {self.bounds}")
        for p in self.polygons:
            v = p.vertices
            if (np.any(v[:, 0] < xmin) or np.any(v[:, 0] > xmax)
                    or np.any(v[:, 1] < ymin) or np.any(v[:, 1] > ymax)):
                raise ValueError(f"polygon vertices outside bounds {self.bounds}")

    @cached_property
    def polygon_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All polygon edges as one (E, 2, 2) array, E >= 0, and each polygon's first index."""
        verts = [p.vertices for p in self.polygons]
        segs = np.concatenate([np.empty((0, 2, 2))] + [
            np.stack((v, np.roll(v, -1, axis=0)), axis=1) for v in verts])
        return segs, np.cumsum([0] + [len(v) for v in verts])[:-1]

    @cached_property
    def static_segments(self) -> np.ndarray:
        """All static wall/edge segments, shape (S, 2, 2); S may be 0."""
        segs = [self.polygon_edges[0]]
        if self.bounds_solid:
            xmin, ymin, xmax, ymax = self.bounds
            corners = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])
            segs.append(np.stack((corners, np.roll(corners, -1, axis=0)), axis=1))
        return np.concatenate(segs, axis=0)

    @cached_property
    def _disc_table(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([c.center for c in self.circles]).reshape(-1, 2),
                np.array([c.radius for c in self.circles] + [a.radius for a in self.agents]))

    def discs(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Centers (K, 2) and radii (K,) of the circles, then of each agent at time t."""
        centers, radii = self._disc_table
        if self.agents:
            centers = np.concatenate((centers, [a.position(t) for a in self.agents]))
        return centers, radii


def _point_segment_distances(p: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Distance from one point to each segment, shape (S,)."""
    a = segments[:, 0]
    b = segments[:, 1]
    ab = b - a
    ap = p - a
    denom = np.einsum("ij,ij->i", ab, ab)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0, np.einsum("ij,ij->i", ap, ab) / denom, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.hypot(*(p - closest).T)


def check_collision(world: WorldModel, robot, t: float = 0.0) -> bool:
    """True iff the robot disc touches anything at time t.

    The contact condition is closed: exact tangency (within 1e-9 m) counts
    as a collision.
    """
    p = np.array([robot.x, robot.y])
    r = robot.footprint_radius + COLLISION_TOLERANCE_M

    if world.bounds_solid:
        xmin, ymin, xmax, ymax = world.bounds
        wall_clearance = min(p[0] - xmin, xmax - p[0], p[1] - ymin, ymax - p[1])
        if wall_clearance <= r:
            return True

    centers, radii = world.discs(t)
    if radii.size and (np.hypot(*(p - centers).T) <= radii + r).any():
        return True
    segs, first = world.polygon_edges
    if not first.size:
        return False
    edge = segs[:, 1] - segs[:, 0]
    rel = p - segs[:, 0]
    cross = edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0]
    inside = np.logical_and.reduceat(np.stack((cross >= 0, cross <= 0)), first, axis=1)
    return bool(inside.any() or (_point_segment_distances(p, segs) <= r).any())


# ---------------------------------------------------------------------------
# World files
# ---------------------------------------------------------------------------

def _num(v) -> str:
    # repr of a builtin float round-trips exactly; numpy scalars do not.
    return repr(float(v))


def save_world(world: WorldModel, path: str | Path) -> None:
    xmin, ymin, xmax, ymax = world.bounds
    lines = ["WORLD1",
             f"bounds {_num(xmin)} {_num(ymin)} {_num(xmax)} {_num(ymax)}",
             f"bounds_solid {int(world.bounds_solid)}"]
    if world.start is not None:
        x, y, h = world.start
        lines.append(f"start {_num(x)} {_num(y)} {_num(h)}")
    for gx, gy in world.goals:
        lines.append(f"goal {_num(gx)} {_num(gy)}")
    for c in world.circles:
        lines.append(f"circle {_num(c.center[0])} {_num(c.center[1])} {_num(c.radius)}")
    for poly in world.polygons:
        coords = " ".join(f"{_num(x)} {_num(y)}" for x, y in poly.vertices)
        lines.append(f"polygon {poly.vertices.shape[0]} {coords}")
    for a in world.agents:
        knots = " ".join(f"{_num(t)} {_num(x)} {_num(y)}"
                         for t, (x, y) in zip(a.times, a.points))
        lines.append(f"agent {_num(a.radius)} {a.times.size} {knots}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_world(path: str | Path) -> WorldModel:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "WORLD1":
        raise InputFormatError(f"{path}: expected WORLD1 header")

    bounds = None
    solid = True
    start = None
    goals: list[list[float]] = []
    circles: list[Circle] = []
    polygons: list[Polygon] = []
    agents: list[AgentTrack] = []
    seen: set[str] = set()

    def fail(lineno, msg):
        raise InputFormatError(f"{path}:{lineno}: {msg}")

    def finite(lineno, tokens) -> list[float]:
        values = [float(v) for v in tokens]
        for token, value in zip(tokens, values):
            if not math.isfinite(value):
                fail(lineno, f"numbers must be finite, got {token}")
        return values

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *rest = line.split()
        if kind in ("bounds", "bounds_solid", "start"):
            if kind in seen:
                fail(lineno, f"duplicate {kind}")
            seen.add(kind)
        try:
            if kind == "bounds":
                bounds = tuple(finite(lineno, rest))
                if len(bounds) != 4:
                    fail(lineno, "bounds needs 4 numbers")
            elif kind == "bounds_solid":
                if rest not in (["0"], ["1"]):
                    fail(lineno, "bounds_solid needs exactly 0 or 1")
                solid = rest == ["1"]
            elif kind == "start":
                if len(rest) != 3:
                    fail(lineno, "start needs x y heading")
                start = tuple(finite(lineno, rest))
            elif kind == "goal":
                if len(rest) != 2:
                    fail(lineno, "goal needs x y")
                goals.append(finite(lineno, rest))
            elif kind == "circle":
                if len(rest) != 3:
                    fail(lineno, "circle needs cx cy r")
                cx, cy, radius = finite(lineno, rest)
                circles.append(Circle(np.array([cx, cy]), radius))
            elif kind == "polygon":
                if not rest:
                    fail(lineno, "polygon needs a vertex count")
                n = int(rest[0])
                coords = finite(lineno, rest[1:])
                if len(coords) != 2 * n:
                    fail(lineno, f"polygon declared {n} vertices, found {len(coords) / 2}")
                polygons.append(Polygon(np.array(coords).reshape(n, 2)))
            elif kind == "agent":
                if len(rest) < 2:
                    fail(lineno, "agent needs a radius and a knot count")
                radius, = finite(lineno, rest[:1])
                n = int(rest[1])
                vals = finite(lineno, rest[2:])
                if len(vals) != 3 * n:
                    fail(lineno, f"agent declared {n} knots, found {len(vals) / 3}")
                arr = np.array(vals).reshape(n, 3)
                agents.append(AgentTrack(radius, arr[:, 0], arr[:, 1:]))
            else:
                fail(lineno, f"unknown entry kind {kind!r}")
        except ValueError as exc:
            if isinstance(exc, InputFormatError):
                raise
            fail(lineno, str(exc))

    if bounds is None:
        raise InputFormatError(f"{path}: missing bounds line")
    try:
        return WorldModel(bounds=bounds, circles=tuple(circles), polygons=tuple(polygons),
                          agents=tuple(agents), bounds_solid=solid,
                          start=start, goals=np.array(goals) if goals else np.empty((0, 2)))
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

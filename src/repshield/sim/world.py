"""World geometry: static obstacles, scripted agents, collision tests.

Worlds are axis-aligned rectangles containing convex polygons and circles.
Dynamic agents are discs that follow piecewise-linear schedules; they are
scripted, so they may enter from outside the bounds. When ``bounds_solid``
is set the rectangle boundary behaves as four walls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ..config import read_only, require_count, require_finite, require_points, require_positive
from ..errors import InputFormatError

COLLISION_TOLERANCE_M = 1e-9
# Arithmetic on the coordinates of any practical world rounds by far less than
# this. The shortcuts that keep every result bitwise the same rest on that:
# check_collision's broad phase, polygon_normals' thin-polygon rule, sim.raycast's culls.
GEOMETRY_MARGIN_M = 1e-6


@dataclass(frozen=True, eq=False)
class Circle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if self.center.shape != (2,):
            raise ValueError(f"circle center must be 2D, got {self.center.shape}")
        if not np.isfinite(self.center).all():
            raise ValueError(f"circle center must be finite, got {self.center}")
        require_positive("circle radius", self.radius)


@dataclass(frozen=True, eq=False)
class Polygon:
    """A convex polygon given by its vertices (either winding order)."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = require_points("polygon vertices", self.vertices, 2, 3)
        object.__setattr__(self, "vertices", verts)
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
        require_positive("agent radius", self.radius)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("agent schedule needs at least one knot")
        if points.shape != (times.size, 2):
            raise ValueError("agent schedule times and points disagree")
        if not (np.isfinite(times).all() and np.isfinite(points).all()):
            raise ValueError("agent schedule times and points must be finite")
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
    require_positive("speed_scale", speed_scale)
    require_finite("delay", delay)
    require_finite("lateral_offset", lateral_offset)
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
        object.__setattr__(self, "goals", require_points("goals", self.goals, 2))
        for name, values, size in (("bounds", self.bounds, 4),
                                   ("start", (0.0,) * 3 if self.start is None else self.start, 3)):
            if np.shape(values) != (size,):
                raise ValueError(f"{name} needs {size} numbers, got {values}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values}")
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
        """All polygon edges (E, 2, 2), E >= 0, and each polygon's first index; read-only."""
        verts = [p.vertices for p in self.polygons]
        return (read_only(np.concatenate([np.empty((0, 2, 2))] + [
            np.stack((v, np.roll(v, -1, axis=0)), axis=1) for v in verts])),
            read_only(np.cumsum([0] + [len(v) for v in verts])[:-1]))

    @cached_property
    def polygon_normals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each polygon edge's outward unit normal (E, 2), offset (E,) and
        polygon index (E,), read-only: a point p lies ``normal @ p - offset``
        outside the edge's line. Normal and offset are 0 on every edge of a
        polygon with a zero-length edge or thinner than about
        ``GEOMETRY_MARGIN_M`` (twice its area at most that times its perimeter)."""
        segs, first = self.polygon_edges
        e = segs[:, 1] - segs[:, 0]
        length = np.hypot(e[:, 0], e[:, 1])
        owner = np.repeat(np.arange(first.size), np.diff(first, append=len(segs)))
        area2, perimeter, zero_edges = (np.bincount(owner, w, minlength=first.size) for w in (
            segs[:, 0, 0] * segs[:, 1, 1] - segs[:, 0, 1] * segs[:, 1, 0], length, length == 0))
        solid = (np.abs(area2) > GEOMETRY_MARGIN_M * perimeter) & (zero_edges == 0)
        scale = np.where(solid, np.sign(area2), 0.0)[owner] / np.where(length > 0, length, 1.0)
        normals = np.stack((e[:, 1], -e[:, 0]), axis=1) * scale[:, None]
        return (read_only(normals), read_only(np.einsum("ij,ij->i", normals, segs[:, 0])),
                read_only(owner))

    @cached_property
    def polygon_bounds(self) -> np.ndarray:
        """Each polygon's (xmin, ymin, xmax, ymax), shape (P, 4), P >= 0; read-only."""
        return read_only(np.array([np.concatenate((p.vertices.min(axis=0),
                                                   p.vertices.max(axis=0)))
                                   for p in self.polygons]).reshape(-1, 4))

    @cached_property
    def static_segments(self) -> np.ndarray:
        """All static wall/edge segments, polygon edges first, (S, 2, 2), S >= 0; read-only."""
        segs = [self.polygon_edges[0]]
        if self.bounds_solid:
            xmin, ymin, xmax, ymax = self.bounds
            corners = np.array([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])
            segs.append(np.stack((corners, np.roll(corners, -1, axis=0)), axis=1))
        return read_only(np.concatenate(segs, axis=0))

    @cached_property
    def _disc_table(self) -> tuple[np.ndarray, np.ndarray]:
        return (read_only(np.array([c.center for c in self.circles]).reshape(-1, 2)),
                read_only(np.array([c.radius for c in self.circles]
                                   + [a.radius for a in self.agents])))

    def discs(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Read-only centers (K, 2) and radii (K,) of the circles, then of each
        agent at time t."""
        centers, radii = self._disc_table
        if not self.agents:
            return centers, radii
        return read_only(np.concatenate((centers, [a.position(t) for a in self.agents]))), radii


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
    # A polygon whose bounds, grown by r plus the margin, miss the center lies
    # farther than r + margin from it, and the center lies outside some edge by
    # a fair part of the margin: neither test below could answer true for it.
    box = world.polygon_bounds
    reach = r + GEOMETRY_MARGIN_M
    x, y = robot.x, robot.y
    near = ((box[:, 0] <= x + reach) & (box[:, 1] <= y + reach)
            & (box[:, 2] >= x - reach) & (box[:, 3] >= y - reach))
    if not near.any():
        return False
    sizes = np.diff(first, append=len(segs))
    segs = segs[np.repeat(near, sizes)]
    sizes = sizes[near]
    first = np.cumsum(sizes) - sizes
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


# The fixed-size records: how many numbers each line holds, and the message
# for a line that holds another count.
_FIXED_RECORDS = {"bounds": (4, "bounds needs 4 numbers"), "start": (3, "start needs x y heading"),
                  "goal": (2, "goal needs x y"), "circle": (3, "circle needs cx cy r")}


def load_world(path: str | Path) -> WorldModel:
    """Read a WORLD1 file, one record a line; a refused line is named as ``path:lineno``."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "WORLD1":
        raise InputFormatError(f"{path}: expected WORLD1 header")
    records: dict[str, list] = {kind: [] for kind in (*_FIXED_RECORDS, "bounds_solid",
                                                      "polygon", "agent")}
    once = {"bounds", "bounds_solid", "start"}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *rest = line.split()
        try:
            if kind not in records:
                raise ValueError(f"unknown entry kind {kind!r}")
            if kind in once and records[kind]:
                raise ValueError(f"duplicate {kind}")
            if kind in _FIXED_RECORDS:
                size, message = _FIXED_RECORDS[kind]
                if len(rest) != size:
                    raise ValueError(message)
                values = tuple(float(v) for v in rest)
                for value in values:
                    require_finite(kind, value)
                records[kind].append(Circle(np.array(values[:2]), values[2])
                                     if kind == "circle" else values)
            elif kind == "bounds_solid":
                if rest not in (["0"], ["1"]):
                    raise ValueError("bounds_solid needs exactly 0 or 1")
                records[kind].append(rest == ["1"])
            elif kind == "polygon":
                if not rest:
                    raise ValueError("polygon needs a vertex count")
                require_count("vertices", int(rest[0]), 2, len(rest) - 1)
                records[kind].append(Polygon(np.array([float(v) for v in rest[1:]]).reshape(-1, 2)))
            else:
                if len(rest) < 2:
                    raise ValueError("agent needs a radius and a knot count")
                require_count("knots", int(rest[1]), 3, len(rest) - 2)
                knots = np.array([float(v) for v in rest[2:]]).reshape(-1, 3)
                records[kind].append(AgentTrack(float(rest[0]), knots[:, 0], knots[:, 1:]))
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from exc

    if not records["bounds"]:
        raise InputFormatError(f"{path}: missing bounds line")
    try:
        return WorldModel(bounds=records["bounds"][0], circles=records["circle"],
                          polygons=records["polygon"], agents=records["agent"],
                          bounds_solid=records["bounds_solid"] != [False],
                          start=next(iter(records["start"]), None), goals=records["goal"])
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

"""Configuration records for the avoidance pipeline, and their file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import InputFormatError


def require_int(name: str, value, minimum: int) -> None:
    """Reject a non-integer (``bool`` included) or a value below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def require_count(what: str, count: int, per: int, found: int) -> None:
    """Reject a negative ``count``, or ``found`` values other than ``count`` records of ``per``."""
    require_int(f"count of {what}", count, 0)
    if found != count * per:
        raise ValueError(f"expected {count} {what} ({count * per} values), found {found} values")


def require_finite(name: str, value) -> None:
    """Reject nan and +-inf."""
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def require_positive(name: str, value) -> None:
    """Reject nan, +inf and values at or below zero."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, with writes through it refused from now on."""
    array.setflags(write=False)
    return array


def require_points(name: str, value, dim: int, min_count: int = 0) -> np.ndarray:
    """``value`` as a finite float64 (N, dim) array, N >= min_count; an empty input
    becomes (0, dim), and a float64 array comes back as is, never copied."""
    pts = np.asarray(value, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, dim)
    if pts.ndim != 2 or pts.shape[1] != dim or pts.shape[0] < min_count:
        raise ValueError(f"{name} must have shape (N, {dim}) with N >= {min_count}, "
                         f"got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite")
    return pts


@dataclass(frozen=True)
class CameraMount:
    """Where the depth camera sits on the robot and how it reports range.

    depth_offset_m is a per-sensor calibration bias: it is subtracted from
    raw Z before any range filtering. x_offset_m is the camera position
    ahead (+) or behind (-) the robot center along the forward axis.
    """

    x_offset_m: float = 0.0
    fov_deg: float = 90.0
    depth_offset_m: float = 0.0

    def __post_init__(self):
        require_finite("x_offset_m", self.x_offset_m)
        require_finite("depth_offset_m", self.depth_offset_m)
        if not (0 < self.fov_deg < 180):
            raise ValueError(f"fov_deg must be in (0, 180), got {self.fov_deg}")


@dataclass(frozen=True)
class SafetyParams:
    """Velocity limits and the forward/rotate gating threshold.

    theta_thres is the half-angle of the safe forward cone: when the desired
    heading magnitude exceeds it, forward motion is suppressed and the robot
    rotates in place. k_omega is the proportional gain mapping heading error
    to angular velocity.
    """

    theta_thres: float = math.pi / 6
    v_fwd: float = 0.2
    omega_max: float = 0.8
    k_omega: float = 2.0

    def __post_init__(self):
        if not (0 < self.theta_thres < math.pi):
            raise ValueError(f"theta_thres must be in (0, pi), got {self.theta_thres}")
        require_positive("v_fwd", self.v_fwd)
        require_positive("omega_max", self.omega_max)
        require_positive("k_omega", self.k_omega)


@dataclass(frozen=True)
class AvoidanceConfig:
    """Everything the per-frame avoidance step needs besides its inputs."""

    mount: CameraMount
    tau_z: float = 1.0
    epsilon: float = -0.05
    bin_count: int = 32
    theta_clip: float = math.pi / 4
    safety: SafetyParams = field(default_factory=SafetyParams)

    def __post_init__(self):
        require_positive("tau_z", self.tau_z)
        require_finite("epsilon", self.epsilon)
        require_int("bin_count", self.bin_count, 1)
        if not (0 < self.theta_clip <= math.pi):
            raise ValueError(f"theta_clip must be in (0, pi], got {self.theta_clip}")
        with np.errstate(over="ignore"):  # a numpy scalar tau_z may overflow
            width = self.bin_window[1]
        if not 0 < width < math.inf:
            raise ValueError(f"tau_z {self.tau_z} and fov_deg {self.mount.fov_deg} give a bin "
                             f"width of {width}, which must be finite and positive")

    @property
    def bin_window(self) -> tuple[float, float]:
        """The obstacle map's lateral window: its half-extent in camera X
        meters, tan(fov/2) * tau_z, and the width of each of its bins."""
        half = math.tan(math.radians(self.mount.fov_deg) / 2.0) * self.tau_z
        return half, 2.0 * half / self.bin_count


# ---------------------------------------------------------------------------
# Config files: flat "key = value" text
# ---------------------------------------------------------------------------

# Every scalar field of the config, in file order: AvoidanceConfig's own,
# then those of its nested safety and mount records. Each key maps to its
# record ("" for the top level) and its declared type name.
_FIELDS = {f.name: ("", f.type) for f in fields(AvoidanceConfig)
           if f.name not in ("safety", "mount")}
_FIELDS.update({f.name: ("safety", f.type) for f in fields(SafetyParams)})
_FIELDS.update({f.name: ("mount", f.type) for f in fields(CameraMount)})
CONFIG_KEYS = tuple(_FIELDS)


def save_config(cfg: AvoidanceConfig, path: str | Path) -> None:
    """Write the flat key = value form, one line per key of ``CONFIG_KEYS``."""
    lines = []
    for key, (record, type_name) in _FIELDS.items():
        value = getattr(getattr(cfg, record) if record else cfg, key)
        # By declared type: the repr of a numpy scalar would not load back.
        lines.append(f"{key} = {int(value) if type_name == 'int' else repr(float(value))}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_config(path: str | Path, base: AvoidanceConfig) -> AvoidanceConfig:
    """Parse a flat config file; the keys it holds override ``base``.

    Unknown keys, duplicate keys and non-finite floats are rejected.
    """
    values: dict[str, dict[str, object]] = {"": {}, "safety": {}, "mount": {}}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise InputFormatError(f"{path}:{lineno}: unknown key {key!r}")
        record, type_name = _FIELDS[key]
        if key in values[record]:
            raise InputFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            parsed = (int if type_name == "int" else float)(value)
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if not math.isfinite(parsed):
            raise InputFormatError(f"{path}:{lineno}: {key} must be finite, got {value}")
        values[record][key] = parsed
    try:
        return replace(base, safety=replace(base.safety, **values["safety"]),
                       mount=replace(base.mount, **values["mount"]), **values[""])
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc

"""Motion clips: data model, JSON (de)serialization, differencing, segmentation,
and synthetic reference motions for the toy arm.

A clip stores time-indexed joint positions, base pose, body (link endpoint)
positions, and end-effector contact flags at a fixed frame rate. Clips are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SchemaError, ValidationError
from .fileio import check_like, json_array, read_json, require, write_atomic

QUAT_NORM_TOL = 1e-3

# top-level keys with an example of each type; frames are checked as arrays
_TOP_EXAMPLE = {"fps": 0.0, "joint_names": [""], "frames": None, "feet_indices": [0]}

# The per-frame arrays, in file order: key -> (dtype, per-frame shape...). A
# letter is a size the clip chooses (J is the number of joint names); every
# array also has the leading time dimension T.
_FRAMES = {
    "q": (float, "J"),              # joint positions, rad
    "base_pos": (float, 3),         # base position, m
    "base_quat": (float, 4),        # unit quaternion (w, x, y, z)
    "body_pos": (float, "B", 3),    # body positions, m
    "contacts": (bool, "K"),        # True = end-effector in ground contact
}


@dataclass(frozen=True)
class MotionClip:
    """Time-indexed reference motion: the per-frame arrays of `_FRAMES`,
    each (T, ...) with T >= 2 frames.

    A frame field given as nested lists is typed as a file's values are
    (`fileio.json_array`); given as an array, it must be of a boolean dtype
    for `contacts` and an integer or float one for the rest. Either error
    names the field."""

    fps: float
    joint_names: tuple[str, ...]
    q: np.ndarray
    base_pos: np.ndarray
    base_quat: np.ndarray
    body_pos: np.ndarray
    contacts: np.ndarray
    feet_indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fps", float(self.fps))
        object.__setattr__(self, "joint_names", tuple(str(n) for n in self.joint_names))
        object.__setattr__(self, "feet_indices", tuple(int(i) for i in self.feet_indices))
        for key, (dtype, *dims) in _FRAMES.items():
            value = getattr(self, key)
            if not isinstance(value, np.ndarray):
                value = json_array(value, 1 + len(dims), dtype, f"{key} ")
            elif value.dtype.kind not in ("b" if dtype is bool else "iuf"):
                raise SchemaError(f"{key} must be {'boolean' if dtype is bool else 'numeric'}, "
                                  f"got an array of dtype {value.dtype}")
            object.__setattr__(self, key, np.array(value, dtype=dtype))
        self._validate()
        for key in _FRAMES:
            getattr(self, key).setflags(write=False)

    def _validate(self):
        require("fps", self.fps, self.fps > 0, "positive")
        # a letter other than J takes its size from the first array with it
        sizes = {"J": len(self.joint_names)}
        for key, (dtype, *dims) in _FRAMES.items():
            arr, want = getattr(self, key), ("T", *dims)
            if arr.ndim != len(want) or not all(
                    sizes.setdefault(d, n) == n if isinstance(d, str) else d == n
                    for d, n in zip(want, arr.shape)):
                expected = ", ".join(str(sizes.get(d, d)) for d in want)
                raise DimensionError(f"{key} must be ({expected}), got {arr.shape}")
            if dtype is float and not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in {key}")
        if sizes["T"] < 2:
            raise DimensionError(f"clips need at least 2 frames, got {sizes['T']}")
        for i in self.feet_indices:
            if not 0 <= i < sizes["B"]:
                raise ValidationError(f"foot index {i} outside [0, {sizes['B']})")
        norms = np.linalg.norm(self.base_quat, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > QUAT_NORM_TOL:
            raise ValidationError(
                f"base_quat norm off by {worst:.2e} (> {QUAT_NORM_TOL:g}); refusing to renormalize"
            )
        if worst > 1e-6:
            object.__setattr__(self, "base_quat", self.base_quat / norms[:, None])

    @property
    def n_frames(self) -> int:
        return self.q.shape[0]

    @property
    def n_joints(self) -> int:
        return self.q.shape[1]

    @property
    def n_bodies(self) -> int:
        return self.body_pos.shape[1]

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    def slice(self, start: int, stop: int) -> "MotionClip":
        return replace(self, **{key: getattr(self, key)[start:stop] for key in _FRAMES})

    def allclose(self, other: "MotionClip") -> bool:
        """True when the clips are equal: names, fps and every frame array."""
        if self.joint_names != other.joint_names or self.feet_indices != other.feet_indices:
            return False
        if self.fps != other.fps:
            return False
        return all(np.array_equal(getattr(self, key), getattr(other, key)) for key in _FRAMES)


def load_motion(path) -> MotionClip:
    """Load a clip from the JSON motion format (see README / save_motion);
    every failure is a flowtrack error that names the file."""
    return read_json(path, SchemaError, lambda doc: _clip_from_doc(doc, path))


def _clip_from_doc(doc, path) -> MotionClip:
    doc = check_like(doc, _TOP_EXAMPLE, SchemaError, path)
    frames = doc["frames"]
    if not isinstance(frames, list) or not frames:
        raise SchemaError(f"{path}: 'frames' must be a non-empty array")
    for i, fr in enumerate(frames):
        if not (isinstance(fr, dict) and fr.keys() == _FRAMES.keys()):  # in any order
            raise SchemaError(f"{path}: frame {i} {_frame_fault(fr)}")
    arrays = {key: json_array([fr[key] for fr in frames], 1 + len(dims), dtype,
                              f"{path}: '{key}' ") for key, (dtype, *dims) in _FRAMES.items()}
    try:
        return MotionClip(fps=doc["fps"], joint_names=doc["joint_names"],
                          feet_indices=doc["feet_indices"], **arrays)
    except (DimensionError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _frame_fault(fr) -> str:
    """What is wrong with a frame whose keys are not those of `_FRAMES`: it
    is not an object, or the first missing key in `_FRAMES` order, or else
    its first unknown key."""
    if not isinstance(fr, dict):
        return "is not an object"
    for k in _FRAMES:
        if k not in fr:
            return f"missing required key '{k}'"
    return f"unknown key '{next(k for k in fr if k not in _FRAMES)}'"


def save_motion(clip: MotionClip, path) -> None:
    """Write a clip to JSON at full double precision (round-trips bit-exactly)."""
    for key, (dtype, *_) in _FRAMES.items():
        if dtype is float and not np.all(np.isfinite(getattr(clip, key))):
            raise ValidationError(f"refusing to serialize non-finite {key}")
    columns = {key: getattr(clip, key).tolist() for key in _FRAMES}
    doc = {
        "fps": clip.fps,
        "joint_names": list(clip.joint_names),
        "frames": [dict(zip(columns, row)) for row in zip(*columns.values())],
        "feet_indices": list(clip.feet_indices),
    }
    write_atomic(path, json.dumps(doc) + "\n")


def finite_difference(series, dt: float) -> np.ndarray:
    """Forward differences (x[t+1]-x[t])/dt with the last row repeated.

    The repeat keeps the output length equal to the input length so derivative
    arrays stay frame-aligned; the final rows are therefore a hold, not data.
    """
    arr = np.asarray(series, dtype=float)
    if arr.shape[0] < 2:
        raise DimensionError(f"need at least 2 rows to difference, got {arr.shape[0]}")
    require("dt", dt, dt > 0, "positive")
    d = np.diff(arr, axis=0) / dt
    return np.concatenate([d, d[-1:]], axis=0)


def segment_clips(clip: MotionClip, seconds: float = 10.0) -> list[MotionClip]:
    """Split a clip into fixed-length segments of `seconds`, which must round
    to at least two frames (a clip's least).

    Shorter motions come back whole. Longer motions yield full segments plus a
    trailing partial segment when at least one second of frames remains;
    shorter remainders are dropped.
    """
    require("seconds", seconds, 0 < seconds < math.inf, "positive and finite")
    seg = int(round(seconds * clip.fps))
    require("seconds", seconds, seg >= 2, f"at least 2 frames long at {clip.fps} fps")
    T = clip.n_frames
    if T <= seg:
        return [clip]
    n_full = T // seg
    out = [clip.slice(i * seg, (i + 1) * seg) for i in range(n_full)]
    rem = T - n_full * seg
    if rem >= max(int(math.ceil(clip.fps)), 2):
        out.append(clip.slice(n_full * seg, T))
    return out


@dataclass(frozen=True)
class SynthMotionSpec:
    """Per-joint sinusoid spec for synthetic reference motions.

    q[t, j] = amplitude[j] * sin(2*pi*frequency[j]*t*dt + phase[j]).
    Link lengths feed the arm forward kinematics that fills body_pos.
    """

    n_joints: int
    duration: float
    fps: float
    amplitude: tuple[float, ...]
    frequency: tuple[float, ...]
    phase: tuple[float, ...] = ()
    link_lengths: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "amplitude", _per_joint(self.amplitude, self.n_joints))
        object.__setattr__(self, "frequency", _per_joint(self.frequency, self.n_joints))
        object.__setattr__(self, "phase", _per_joint(self.phase or 0.0, self.n_joints))
        object.__setattr__(
            self, "link_lengths", _per_joint(self.link_lengths or 0.5, self.n_joints)
        )
        require("duration", self.duration, self.duration * self.fps >= 2,
                "at least 2 frames long", fps=self.fps)
        require("amplitude", self.amplitude, all(np.isfinite(self.amplitude)), "finite")


def _per_joint(value, n: int) -> tuple[float, ...]:
    if np.isscalar(value):
        return tuple(float(value) for _ in range(n))
    vals = tuple(float(v) for v in value)
    if len(vals) != n:
        raise DimensionError(f"expected {n} per-joint values, got {len(vals)}")
    return vals


def arm_forward_kinematics(q, link_lengths) -> np.ndarray:
    """Planar serial-arm link-endpoint positions in the x-z plane.

    Joint angles are relative, measured from the downward vertical; q = 0 hangs
    the arm straight down with the tip at z = 0 (base pivot at sum of lengths).
    Returns (..., J, 3) xyz positions for the J link endpoints.
    """
    q = np.asarray(q, dtype=float)
    L = np.asarray(link_lengths, dtype=float)
    if q.shape[-1] != L.shape[0]:
        raise DimensionError(f"q has {q.shape[-1]} joints but {L.shape[0]} link lengths")
    theta = np.add.accumulate(q, axis=-1)  # np.cumsum, without its wrapper
    dx = L * np.sin(theta)
    dz = -L * np.cos(theta)
    x = np.add.accumulate(dx, axis=-1)
    z = float(L.sum()) + np.add.accumulate(dz, axis=-1)
    out = np.zeros(q.shape + (3,))
    out[..., 0] = x
    out[..., 2] = z
    return out


def synth_motion(spec: SynthMotionSpec) -> MotionClip:
    """Generate a sinusoidal reference clip with FK-derived body positions."""
    T = int(round(spec.duration * spec.fps))
    dt = 1.0 / spec.fps
    t = np.arange(T)[:, None] * dt
    q = np.asarray(spec.amplitude) * np.sin(
        2.0 * np.pi * np.asarray(spec.frequency) * t + np.asarray(spec.phase))
    return MotionClip(
        fps=spec.fps,
        joint_names=tuple(f"joint_{j}" for j in range(spec.n_joints)),
        q=q,
        base_pos=np.zeros((T, 3)),
        base_quat=np.tile([1.0, 0.0, 0.0, 0.0], (T, 1)),  # the identity rotation
        body_pos=arm_forward_kinematics(q, spec.link_lengths),
        contacts=np.ones((T, 1), dtype=bool),
        feet_indices=(spec.n_joints - 1,),
    )


def quat_angular_speed(base_quat, dt: float) -> np.ndarray:
    """Base angular speed series (rad/s) from consecutive unit quaternions.

    Uses the rotation angle between neighbouring frames; the last entry is
    repeated so the series stays frame-aligned. Body/world frame distinction
    does not matter for the speed magnitude.
    """
    quat = np.asarray(base_quat, dtype=float)
    if quat.shape[0] < 2:
        raise DimensionError("need at least 2 quaternions")
    dots = np.clip(np.abs(np.sum(quat[:-1] * quat[1:], axis=1)), -1.0, 1.0)
    speed = 2.0 * np.arccos(dots) / dt  # the rotation angle between frames, per second
    return np.concatenate([speed, speed[-1:]])

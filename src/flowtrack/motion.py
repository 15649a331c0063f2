"""Motion clips: data model, JSON (de)serialization, differencing, segmentation,
and synthetic reference motions for the toy arm.

A clip stores time-indexed joint positions, base pose, body (link endpoint)
positions, and end-effector contact flags at a fixed frame rate. Clips are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SchemaError, ValidationError
from .fileio import check_like, read_json, write_atomic

QUAT_NORM_TOL = 1e-3

# top-level keys with an example of each type; frames are checked as arrays
_TOP_EXAMPLE = {"fps": 0.0, "joint_names": [""], "frames": None, "feet_indices": [0]}
_FRAME_KEYS = ("q", "base_pos", "base_quat", "body_pos", "contacts")


@dataclass(frozen=True)
class MotionClip:
    """Time-indexed reference motion.

    Arrays all share the leading time dimension T >= 2:
      q:         (T, J) joint positions, rad
      base_pos:  (T, 3) base position, m
      base_quat: (T, 4) unit quaternion (w, x, y, z)
      body_pos:  (T, B, 3) body positions, m
      contacts:  (T, K) bool, True = end-effector in ground contact
    """

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
        object.__setattr__(self, "q", np.array(self.q, dtype=float))
        object.__setattr__(self, "base_pos", np.array(self.base_pos, dtype=float))
        object.__setattr__(self, "base_quat", np.array(self.base_quat, dtype=float))
        object.__setattr__(self, "body_pos", np.array(self.body_pos, dtype=float))
        object.__setattr__(self, "contacts", np.array(self.contacts, dtype=bool))
        self._validate()
        for arr in (self.q, self.base_pos, self.base_quat, self.body_pos, self.contacts):
            arr.setflags(write=False)

    def _validate(self):
        if self.fps <= 0:
            raise ValidationError(f"fps must be positive, got {self.fps}")
        T = self.q.shape[0] if self.q.ndim >= 1 else 0
        if self.q.ndim != 2:
            raise DimensionError(f"q must be (T, J), got shape {self.q.shape}")
        if T < 2:
            raise DimensionError(f"clips need at least 2 frames, got {T}")
        if self.q.shape[1] != len(self.joint_names):
            raise DimensionError(
                f"q has {self.q.shape[1]} joints but {len(self.joint_names)} names"
            )
        if self.base_pos.shape != (T, 3):
            raise DimensionError(f"base_pos must be ({T}, 3), got {self.base_pos.shape}")
        if self.base_quat.shape != (T, 4):
            raise DimensionError(f"base_quat must be ({T}, 4), got {self.base_quat.shape}")
        if self.body_pos.ndim != 3 or self.body_pos.shape[0] != T or self.body_pos.shape[2] != 3:
            raise DimensionError(f"body_pos must be ({T}, B, 3), got {self.body_pos.shape}")
        if self.contacts.ndim != 2 or self.contacts.shape[0] != T:
            raise DimensionError(f"contacts must be ({T}, K), got {self.contacts.shape}")
        for arr, name in ((self.q, "q"), (self.base_pos, "base_pos"),
                          (self.base_quat, "base_quat"), (self.body_pos, "body_pos")):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in {name}")
        B = self.body_pos.shape[1]
        for i in self.feet_indices:
            if not 0 <= i < B:
                raise ValidationError(f"foot index {i} outside [0, {B})")
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
        return MotionClip(
            fps=self.fps,
            joint_names=self.joint_names,
            q=self.q[start:stop],
            base_pos=self.base_pos[start:stop],
            base_quat=self.base_quat[start:stop],
            body_pos=self.body_pos[start:stop],
            contacts=self.contacts[start:stop],
            feet_indices=self.feet_indices,
        )

    def allclose(self, other: "MotionClip", tol: float = 0.0) -> bool:
        if self.joint_names != other.joint_names or self.feet_indices != other.feet_indices:
            return False
        if self.fps != other.fps:
            return False
        for a, b in ((self.q, other.q), (self.base_pos, other.base_pos),
                     (self.base_quat, other.base_quat), (self.body_pos, other.body_pos)):
            if a.shape != b.shape:
                return False
            if tol == 0.0:
                if not np.array_equal(a, b):
                    return False
            elif not np.allclose(a, b, atol=tol, rtol=0.0):
                return False
        return np.array_equal(self.contacts, other.contacts)


def load_motion(path) -> MotionClip:
    """Load a clip from the JSON motion format (see README / save_motion);
    every failure is a flowtrack error that names the file."""
    doc = check_like(read_json(path, SchemaError), _TOP_EXAMPLE, SchemaError, path)
    frames = doc["frames"]
    if not isinstance(frames, list) or not frames:
        raise SchemaError(f"{path}: 'frames' must be a non-empty array")
    cols = {k: [] for k in _FRAME_KEYS}
    for i, fr in enumerate(frames):
        if not isinstance(fr, dict):
            raise SchemaError(f"{path}: frame {i} is not an object")
        fmissing = [k for k in _FRAME_KEYS if k not in fr]
        if fmissing:
            raise SchemaError(f"{path}: frame {i} missing required key '{fmissing[0]}'")
        fextra = [k for k in fr if k not in _FRAME_KEYS]
        if fextra:
            raise SchemaError(f"{path}: frame {i} unknown key '{fextra[0]}'")
        for k in _FRAME_KEYS:
            cols[k].append(fr[k])
    _check_rect(cols["q"], "q", path)
    _check_rect(cols["body_pos"], "body_pos", path, depth=2)
    _check_rect(cols["contacts"], "contacts", path)
    try:
        return MotionClip(
            fps=doc["fps"],
            joint_names=doc["joint_names"],
            q=_numeric(cols["q"], "q", path),
            base_pos=_numeric(cols["base_pos"], "base_pos", path),
            base_quat=_numeric(cols["base_quat"], "base_quat", path),
            body_pos=_numeric(cols["body_pos"], "body_pos", path),
            contacts=_numeric(cols["contacts"], "contacts", path, dtype=bool),
            feet_indices=doc["feet_indices"],
        )
    except (DimensionError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _numeric(value, name, path, dtype=float) -> np.ndarray:
    """`value` as a `dtype` array, or a SchemaError naming the file and key."""
    try:
        return np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: '{name}' must be numeric ({exc})") from exc


def _check_rect(rows, name, path, depth=1):
    """Reject ragged or non-array per-frame values with a clear message
    instead of numpy's."""
    if not all(isinstance(r, list) for r in rows):
        raise SchemaError(f"{path}: '{name}' must be an array in every frame")
    lengths = {len(r) for r in rows}
    if len(lengths) > 1:
        raise DimensionError(f"{path}: '{name}' length differs across frames: {sorted(lengths)}")
    if depth == 2 and rows and rows[0]:
        if not all(isinstance(v, list) for r in rows for v in r):
            raise SchemaError(f"{path}: '{name}' entries must be xyz triples")
        inner = {len(v) for r in rows for v in r}
        if inner != {3}:
            raise DimensionError(f"{path}: '{name}' entries must be xyz triples")


def save_motion(clip: MotionClip, path) -> None:
    """Write a clip to JSON at full double precision (round-trips bit-exactly)."""
    for arr, name in ((clip.q, "q"), (clip.base_pos, "base_pos"),
                      (clip.base_quat, "base_quat"), (clip.body_pos, "body_pos")):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"refusing to serialize non-finite {name}")
    frames = []
    for t in range(clip.n_frames):
        frames.append({
            "q": clip.q[t].tolist(),
            "base_pos": clip.base_pos[t].tolist(),
            "base_quat": clip.base_quat[t].tolist(),
            "body_pos": clip.body_pos[t].tolist(),
            "contacts": clip.contacts[t].tolist(),
        })
    doc = {
        "fps": clip.fps,
        "joint_names": list(clip.joint_names),
        "frames": frames,
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
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    d = np.diff(arr, axis=0) / dt
    return np.concatenate([d, d[-1:]], axis=0)


def segment_clips(clip: MotionClip, seconds: float = 10.0) -> list[MotionClip]:
    """Split a clip into fixed-length segments of `seconds`.

    Shorter motions come back whole. Longer motions yield full segments plus a
    trailing partial segment when at least one second of frames remains;
    shorter remainders are dropped.
    """
    if seconds <= 0:
        raise ValidationError(f"segment length must be positive, got {seconds}")
    seg = int(round(seconds * clip.fps))
    T = clip.n_frames
    if T <= seg:
        return [clip]
    out = []
    n_full = T // seg
    for i in range(n_full):
        out.append(clip.slice(i * seg, (i + 1) * seg))
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
    name: str = "synth"

    def __post_init__(self):
        object.__setattr__(self, "amplitude", _per_joint(self.amplitude, self.n_joints))
        object.__setattr__(self, "frequency", _per_joint(self.frequency, self.n_joints))
        object.__setattr__(self, "phase", _per_joint(self.phase or 0.0, self.n_joints))
        object.__setattr__(
            self, "link_lengths", _per_joint(self.link_lengths or 0.5, self.n_joints)
        )
        if self.duration * self.fps < 2:
            raise ValidationError("duration * fps must cover at least 2 frames")
        if not all(np.isfinite(self.amplitude)):
            raise ValidationError("amplitudes must be finite")


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
    theta = np.cumsum(q, axis=-1)
    dx = L * np.sin(theta)
    dz = -L * np.cos(theta)
    x = np.cumsum(dx, axis=-1)
    z = float(np.sum(L)) + np.cumsum(dz, axis=-1)
    out = np.zeros(q.shape + (3,))
    out[..., 0] = x
    out[..., 2] = z
    return out


def synth_motion(spec: SynthMotionSpec) -> MotionClip:
    """Generate a sinusoidal reference clip with FK-derived body positions."""
    T = int(round(spec.duration * spec.fps))
    dt = 1.0 / spec.fps
    t = np.arange(T)[:, None] * dt
    A = np.asarray(spec.amplitude)
    f = np.asarray(spec.frequency)
    phi = np.asarray(spec.phase)
    q = A * np.sin(2.0 * np.pi * f * t + phi)
    body_pos = arm_forward_kinematics(q, spec.link_lengths)
    base_pos = np.zeros((T, 3))
    base_quat = np.zeros((T, 4))
    base_quat[:, 0] = 1.0
    contacts = np.ones((T, 1), dtype=bool)
    return MotionClip(
        fps=spec.fps,
        joint_names=tuple(f"joint_{j}" for j in range(spec.n_joints)),
        q=q,
        base_pos=base_pos,
        base_quat=base_quat,
        body_pos=body_pos,
        contacts=contacts,
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
    a, b = quat[:-1], quat[1:]
    dots = np.abs(np.sum(a * b, axis=1))
    dots = np.clip(dots, -1.0, 1.0)
    angles = 2.0 * np.arccos(dots)
    speed = angles / dt
    return np.concatenate([speed, speed[-1:]])

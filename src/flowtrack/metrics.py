"""Motion complexity metrics, difficulty scores, and tracking-evaluation metrics.

Complexity metrics summarize how dynamically demanding a reference clip is
(kinematic maxima, vertical CoM speed, airborne ratio, contact switching);
difficulty scores map those onto a [0, 1] 6-vector for cross-motion
comparison. Tracking metrics (MPJPE / velocity / acceleration discrepancies,
early termination) quantify how well a rollout reproduced its reference.

Everything here is pure array math; alignment of the reference to the robot
is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, ValidationError
from .fileio import require
from .motion import MotionClip, finite_difference, quat_angular_speed

# Difficulty-score normalizers: raw value at which each axis saturates to 1.
ANG_SCALE = 20.0   # rad/s
VEL_SCALE = 20.0   # rad/s
ACC_SCALE = 200.0  # rad/s^2
COM_SCALE = 2.0    # m/s
SWITCH_SCALE = 10.0  # Hz

DEFAULT_H_AIR = 0.05  # m, feet above this height count as airborne


@dataclass(frozen=True)
class ComplexityScores:
    """Raw complexity maxima plus the normalized 6-D difficulty vector.

    Score order: [s_ang, s_v, s_a, s_com, s_air, s_sw].
    """

    v_max: float
    a_max: float
    j_max: float
    ang_max: float
    v_com_z_max: float
    airborne: float
    f_switch: float
    s: np.ndarray

    def raw_dict(self) -> dict:
        """The raw maxima by field name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "s"}


@dataclass(frozen=True)
class TrackingMetrics:
    mpjpe_mm: float
    dvel: float
    dacc: float
    success: float
    n_episodes: int = 0


def mean_tracking(ms) -> TrackingMetrics:
    """Field-wise mean of several TrackingMetrics; episode counts add up."""
    return TrackingMetrics(*(float(np.mean([getattr(m, f) for m in ms]))
                             for f in ("mpjpe_mm", "dvel", "dacc", "success")),
                           n_episodes=sum(m.n_episodes for m in ms))


@dataclass(frozen=True)
class TerminationThresholds:
    """Early-termination limits on tracked-body height error and orientation.

    `relax_factor` scales the orientation limit in relaxed (post-training)
    mode, e.g. 0.8 rad -> 1.2 rad at the default 1.5x.
    """

    z_err_max: float = 0.25
    grav_err_max: float = 0.8
    relax_factor: float = 1.5

    def __post_init__(self):
        for name in ("z_err_max", "grav_err_max", "relax_factor"):
            require(name, getattr(self, name), getattr(self, name) > 0, "positive")


def max_kinematics(q_series, dt: float) -> tuple[float, float, float]:
    """Maxima of |velocity|, |acceleration|, |jerk| over all samples and joints.

    Each level differentiates only the valid (un-held) region of the previous
    one, so the frame-alignment padding of `finite_difference` never leaks an
    artificial jump into a maximum.
    """
    q = np.asarray(q_series, dtype=float)
    if q.shape[0] < 4:
        raise DimensionError(f"need at least 4 frames for jerk, got {q.shape[0]}")
    v = np.diff(q, axis=0) / dt
    a = np.diff(v, axis=0) / dt
    j = np.diff(a, axis=0) / dt
    return float(np.max(np.abs(v))), float(np.max(np.abs(a))), float(np.max(np.abs(j)))


def com_vertical_speed(clip: MotionClip) -> float:
    """Peak |vertical CoM velocity| with uniform body masses."""
    B = clip.n_bodies
    z_com = clip.body_pos[:, :, 2] @ np.ones(B) / B
    return float(np.max(np.abs(finite_difference(z_com, clip.dt))))


def airborne_ratio(clip: MotionClip, h_air: float = DEFAULT_H_AIR) -> float:
    """Fraction of frames where every foot body sits above h_air."""
    if not clip.feet_indices:
        raise ValidationError("clip has no feet indices")
    feet_z = clip.body_pos[:, list(clip.feet_indices), 2]
    return float(np.mean(np.min(feet_z, axis=1) > h_air))


def contact_switch_freq(contacts, dt: float) -> float:
    """Contact-state flips per second: frames where any end-effector changes."""
    c = np.asarray(contacts, dtype=bool)
    if c.shape[0] < 2:
        raise DimensionError(f"need at least 2 frames, got {c.shape[0]}")
    flips = np.any(c[1:] != c[:-1], axis=1).sum()
    return float(flips) / ((c.shape[0] - 1) * dt)


def difficulty_scores(v_max, a_max, ang_max, v_com_z_max, airborne, f_switch) -> np.ndarray:
    """Clamp-and-scale raw metrics into the 6-D score vector.

    Order: [s_ang, s_v, s_a, s_com, s_air, s_sw], each in [0, 1].
    """
    return np.array([
        min(ang_max / ANG_SCALE, 1.0),
        min(v_max / VEL_SCALE, 1.0),
        min(a_max / ACC_SCALE, 1.0),
        min(v_com_z_max / COM_SCALE, 1.0),
        min(max(airborne, 0.0), 1.0),
        min(f_switch / SWITCH_SCALE, 1.0),
    ])


def compute_complexity(clip: MotionClip, h_air: float = DEFAULT_H_AIR) -> ComplexityScores:
    """All complexity metrics of a clip in one pass; a raw maximum that is not
    finite (a huge fps overflows them) raises ValidationError naming it, and
    numpy's overflow warnings are silenced so that this is the one report."""
    with np.errstate(over="ignore", invalid="ignore"):
        v_max, a_max, j_max = max_kinematics(clip.q, clip.dt)
        ang = quat_angular_speed(clip.base_quat, clip.dt)
        ang_max = float(np.max(np.abs(ang)))
        v_com = com_vertical_speed(clip)
        air = airborne_ratio(clip, h_air)
        f_sw = contact_switch_freq(clip.contacts, clip.dt)
        s = difficulty_scores(v_max, a_max, ang_max, v_com, air, f_sw)
    scores = ComplexityScores(v_max, a_max, j_max, ang_max, v_com, air, f_sw, s)
    for name, value in scores.raw_dict().items():
        if not np.isfinite(value):
            raise ValidationError(f"{name} is not finite, got {value}")
    return scores


def _pairwise_mean_norm(ref, rob, what: str) -> float:
    ref = np.asarray(ref, dtype=float)
    rob = np.asarray(rob, dtype=float)
    if ref.shape != rob.shape:
        raise DimensionError(f"{what}: shapes differ, {ref.shape} vs {rob.shape}")
    err = np.linalg.norm(ref - rob, axis=-1)
    return float(np.mean(err))


def mpjpe(ref_body, rob_body) -> float:
    """Mean per-body position error in millimetres over (T, N, 3) trajectories.

    Reference must already be aligned to the robot (torso-pose alignment is a
    preprocessing step, not part of the kernel).
    """
    return 1000.0 * _pairwise_mean_norm(ref_body, rob_body, "mpjpe")


def delta_vel(ref_v, rob_v, dt: float) -> float:
    """Mean per-body velocity discrepancy, scaled to mm/frame."""
    return 1000.0 * dt * _pairwise_mean_norm(ref_v, rob_v, "delta_vel")


def delta_acc(ref_v, rob_v, dt: float) -> float:
    """Mean per-body acceleration discrepancy in mm/frame^2.

    Accelerations are backward differences of the velocity series, so step 0
    has none and the average runs over steps 1..T-1.
    """
    ref_v = np.asarray(ref_v, dtype=float)
    rob_v = np.asarray(rob_v, dtype=float)
    if ref_v.shape != rob_v.shape:
        raise DimensionError(f"delta_acc: shapes differ, {ref_v.shape} vs {rob_v.shape}")
    T = ref_v.shape[0]
    if T < 2:
        raise DimensionError(f"need at least 2 velocity samples, got {T}")
    ref_a = (ref_v[1:] - ref_v[:-1]) / dt
    rob_a = (rob_v[1:] - rob_v[:-1]) / dt
    err = np.mean(np.linalg.norm(ref_a - rob_a, axis=-1), axis=-1)  # index t=1..T-1
    return 1000.0 * dt * dt * float(np.mean(err))


def check_termination(z_errors, orient_err, thr: TerminationThresholds,
                      relaxed: bool = False):
    """Which episodes should end early, as numpy bools.

    Triggers when any tracked-body vertical error exceeds z_err_max or the
    gravity-vector discrepancy angle exceeds grav_err_max (scaled by
    relax_factor in relaxed mode). Bodies are the last axis: (N, B) errors with
    (N,) angles give one decision per row, (B,) errors and an angle just one.
    """
    limit = thr.grav_err_max * (thr.relax_factor if relaxed else 1.0)
    return (np.abs(z_errors) > thr.z_err_max).any(axis=-1) | (np.abs(orient_err) > limit)

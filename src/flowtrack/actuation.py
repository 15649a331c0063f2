"""Actuator-level physics: PD gains, torque-speed envelope clipping,
friction losses, mechanical power, and the negative-power penalty.

The envelope picks a motoring or braking torque ceiling from the sign
alignment of velocity and commanded torque, derates it linearly between the
knee speed v_x1 and the zero-torque speed v_x2, and clamps the command
symmetrically to that magnitude. Friction (smoothed Coulomb + viscous) is
subtracted after clipping. All functions are stateless and accept scalars or
same-shaped arrays. An `ActuatorParams` may itself hold arrays (see `stack`),
so one call evaluates every joint of a batch of episodes at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from importlib import resources

import numpy as np

from .errors import SchemaError, ValidationError
from .fileio import check_like, read_json, require

@dataclass(frozen=True)
class ActuatorParams:
    """Torque-speed envelope, friction, and armature constants of one actuator.

    tau_y1 / tau_y2:  motoring / braking torque ceilings (N*m)
    v_x1   / v_x2:    envelope knee / zero-torque speeds (rad/s)
    mu_s, v_act:      smoothed-Coulomb magnitude (N*m) and activation speed
    mu_d:             viscous coefficient (N*m*s/rad)
    armature_I:       reflected rotor inertia (kg*m^2)
    """

    tau_y1: float
    tau_y2: float
    v_x1: float
    v_x2: float
    mu_s: float
    v_act: float
    mu_d: float
    armature_I: float

    def __post_init__(self):
        # np.all keeps the checks valid for the array-valued form of `stack`
        for name in ("tau_y1", "tau_y2", "v_act", "armature_I"):
            require(name, getattr(self, name), np.all(getattr(self, name) > 0), "positive")
        for name in ("mu_s", "mu_d"):
            require(name, getattr(self, name), np.all(getattr(self, name) >= 0), "non-negative")
        require("v_x1", self.v_x1, np.all((0 < self.v_x1) & (self.v_x1 < self.v_x2)),
                "in (0, v_x2)", v_x2=self.v_x2)

    def scaled(self, torque_scale: float = 1.0, friction_scale: float = 1.0) -> "ActuatorParams":
        """Copy with torque ceilings and/or friction coefficients rescaled."""
        return replace(self, tau_y1=self.tau_y1 * torque_scale, tau_y2=self.tau_y2 * torque_scale,
                       mu_s=self.mu_s * friction_scale, mu_d=self.mu_d * friction_scale)


_PARAM_FIELDS = tuple(f.name for f in fields(ActuatorParams))


def stack(params) -> ActuatorParams:
    """One ActuatorParams whose fields are per-joint (J,) arrays.

    The kernels below broadcast these arrays against (..., J) torques and
    velocities, so a single call covers every joint (and every episode row).
    """
    return ActuatorParams(**{k: np.array([getattr(p, k) for p in params], dtype=float)
                             for k in _PARAM_FIELDS})


@dataclass(frozen=True)
class PDGains:
    """Joint PD gains plus the action scale alpha of the setpoint q0 + alpha*a."""

    kp: float
    kd: float
    action_scale: float


@dataclass(frozen=True)
class PowerPenaltyCfg:
    """Deadbanded quadratic penalty on negative joint mechanical power.

    Defaults are the knee-joint constants: 150 W deadband, 500 W normalizer,
    weight -10. `joints` picks which joints the penalty applies to (None =
    all).
    """

    deadband: float = 150.0
    norm: float = 500.0
    weight: float = -10.0
    joints: tuple[int, ...] | None = None

    def __post_init__(self):
        require("deadband", self.deadband, self.deadband >= 0, "non-negative")
        require("norm", self.norm, self.norm > 0, "positive")


def default_catalog() -> dict[str, ActuatorParams]:
    """The built-in actuator catalog (four production motor models)."""
    with resources.as_file(resources.files("flowtrack.data") / "actuators.json") as path:
        return load_catalog(path)


def load_catalog(path) -> dict[str, ActuatorParams]:
    """Load an actuator catalog JSON file: {name: {eight parameter fields}}.

    A malformed entry raises SchemaError, and constants that break an
    `ActuatorParams` invariant raise ValidationError; both name the file and
    the actuator.
    """
    doc = read_json(path, SchemaError)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: catalog must be an object")
    example = dict.fromkeys(_PARAM_FIELDS, 0.0)
    out = {}
    for name, fields in doc.items():
        try:
            out[name] = ActuatorParams(**check_like(fields, example, SchemaError, path, name))
        except ValidationError as exc:
            raise ValidationError(f"{path}: actuator '{name}': {exc}") from exc
    return out


def pd_gains(params: ActuatorParams, f_hz: float = 10.0, zeta: float = 2.0) -> PDGains:
    """Derive PD gains from armature inertia: kp = I*w^2, kd = 2*I*zeta*w.

    The action scale maps a unit action to 0.25 * tau_y1 worth of position
    offset, a quarter of the actuator's motoring ceiling.
    """
    require("f_hz", f_hz, f_hz > 0, "positive")
    require("zeta", zeta, zeta > 0, "positive")
    omega = 2.0 * np.pi * f_hz
    kp = params.armature_I * omega * omega
    # an extreme f_hz under- or overflows kp, or the action scale through it
    require("f_hz", f_hz, 0.0 < kp < np.inf and 0.0 < 0.25 * params.tau_y1 / kp < np.inf,
            "a frequency whose kp and action scale are finite and positive")
    kd = 2.0 * params.armature_I * zeta * omega
    require("zeta", zeta, 0.0 < kd < np.inf,  # and an extreme zeta kd
            "a damping ratio whose kd is finite and positive")
    return PDGains(kp=kp, kd=kd, action_scale=0.25 * params.tau_y1 / kp)


def torque_ceiling(v, tau_in, p: ActuatorParams):
    """Motoring ceiling when v and tau_in align (v*tau > 0), braking otherwise."""
    out = np.where(np.multiply(v, tau_in) > 0, p.tau_y1, p.tau_y2)
    return float(out) if out.ndim == 0 else out


def envelope_limit(v, tau_in, p: ActuatorParams):
    """Admissible torque magnitude L(v): flat below v_x1, linear to 0 at v_x2."""
    ceiling = torque_ceiling(v, tau_in, p)
    frac = np.minimum(np.maximum((np.abs(v) - p.v_x1) / (p.v_x2 - p.v_x1), 0.0), 1.0)
    out = ceiling * (1.0 - frac)
    return float(out) if np.ndim(out) == 0 else out


def clip_torque(tau_cmd, v, p: ActuatorParams):
    """Clamp a torque command into [-L(v), +L(v)]."""
    limit = envelope_limit(v, tau_cmd, p)
    out = np.minimum(np.maximum(tau_cmd, -limit), limit)
    return float(out) if np.ndim(out) == 0 else out


def friction_torque(v, p: ActuatorParams):
    """Smoothed Coulomb plus viscous loss: mu_s*tanh(v/v_act) + mu_d*v."""
    v = np.asarray(v, dtype=float)
    out = p.mu_s * np.tanh(v / p.v_act) + p.mu_d * v
    return float(out) if out.ndim == 0 else out


def actuate(tau_cmd, v, p: ActuatorParams):
    """Applied torque: envelope-clipped command minus the friction loss.

    The subtraction is literal, so at near-zero commands friction can flip the
    sign of the applied torque.
    """
    out = clip_torque(tau_cmd, v, p) - friction_torque(v, p)
    return float(out) if np.ndim(out) == 0 else out


def joint_power(tau, omega):
    """Instantaneous mechanical power tau * omega (negative while braking)."""
    out = np.asarray(tau, dtype=float) * np.asarray(omega, dtype=float)
    return float(out) if out.ndim == 0 else out


def neg_power_penalty(powers, cfg: PowerPenaltyCfg = PowerPenaltyCfg()):
    """Deadbanded quadratic cost on negative power; returns (cost, weight*cost).

    Joints are the last axis: (J,) powers give two floats, (N, J) powers give
    two (N,) arrays, one cost per row.
    """
    powers = np.atleast_1d(np.asarray(powers, dtype=float))
    if cfg.joints is not None:
        powers = powers[..., list(cfg.joints)]
    over = np.maximum(-powers - cfg.deadband, 0.0)
    cost = np.sum((over / cfg.norm) ** 2, axis=-1)
    if cost.ndim == 0:
        cost = float(cost)
    return cost, cfg.weight * cost

"""Toy torque-controlled planar arm whose control loop mirrors the tracking
pipeline: policy action -> PD setpoint -> torque -> envelope clip -> friction
-> rigid-link dynamics at 50 Hz.

The arm is a serial chain of point masses at link endpoints swinging in the
x-z plane; joint angles are measured from the downward vertical. Control runs
at dt = 0.02 s; inside each control step the dynamics integrate semi-implicitly
over several substeps because the smoothed Coulomb friction term is stiff
(slope mu_s/v_act near zero velocity). Torque commands are re-clipped and
friction re-evaluated per substep; the values logged in `info` are the ones at
the pre-step state, which is what the actuation contract describes.

The arm has no floating base, so the torso-orientation term of the observation
and termination check is replaced by an end-effector direction error (angle of
the last link). That proxy is a stand-in, not a physical torso.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import actuation
from .actuation import _PARAM_FIELDS, PowerPenaltyCfg
from .errors import ConfigError, DimensionError, NumericalBlowupError, ValidationError
from .fileio import config_section, merge_over, require
from .metrics import TerminationThresholds, check_termination
from .motion import MotionClip, arm_forward_kinematics, finite_difference

# The gufunc behind `np.linalg.solve`, without the wrapper's argument checks
# and errstate (about 7 of its ~10 us per call); it gives the same bits, but a
# singular system yields non-finite values instead of LinAlgError, which the
# step's finiteness check then reports. It is private numpy API.
try:
    from numpy.linalg._umath_linalg import solve as _solve
except ImportError:
    _solve = np.linalg.solve

CONTROL_DT = 0.02  # 50 Hz control rate
# Longest episode a config may ask for: 200 s at 50 Hz. Rollouts preallocate
# (episode_len, rows, ...) logs, so a huge value would fail at allocation. It
# caps an expert's lookahead too, whose frame index is an int64.
MAX_EPISODE_LEN = 10_000
# The same kind of ceiling on the observation history (the policy input is
# 6 x history_len wide); `flow` caps the net sizes.
MAX_HISTORY_LEN = 1_000
# Most links of the arm. Each row holds J x J dynamics constants and steps J x J
# solves: a 10-row step took about 0.6 ms at J = 2, 13 ms at J = 64 and 82 ms
# at J = 128 (2-core x86-64, OpenBLAS at one thread).
MAX_LINKS = 64
# Most integration substeps per control step: each is a pass of Python-level
# dynamics, so a huge value would run for hours, not fail.
MAX_SUBSTEPS = 1_000
# Largest gravity magnitude, m/s^2 (about 100 g). Far above it the arm's
# torques overflow, and a step fails as non-finite rather than as a range error.
MAX_GRAVITY = 1_000.0
# Widest randomization ranges after aggressive scaling: a disturbance of
# 1000 N*m (about ten times the strongest actuator's ceiling) and angle noise
# of a half turn either way. Far above them the uniform draws' span overflows.
MAX_DISTURBANCE = 1_000.0
MAX_ANGLE_NOISE = np.pi


@dataclass(frozen=True)
class RandomizationCfg:
    """Per-episode and per-step randomization ranges (all symmetric).

    Aggressive mode multiplies every range by `aggressive_factor`.
    """

    pose_noise: float = 0.05       # rad on initial joint positions
    disturbance: float = 0.5       # N*m external torque per control step
    mass_scale: float = 0.10       # fractional link-mass scaling
    friction_scale: float = 0.20   # fractional mu_s / mu_d scaling
    q0_offset: float = 0.05        # rad offset on the PD default position
    aggressive_factor: float = 1.5

    def __post_init__(self):
        for name in _RANGE_FIELDS:
            require(name, getattr(self, name), getattr(self, name) >= 0, "non-negative")
        factor = self.aggressive_factor
        require("aggressive_factor", factor, factor >= 1.0, ">= 1")
        # masses scale by 1 + U(-s, s), s = mass_scale * factor, so below 1 a
        # mass stays positive; friction likewise stays non-negative up to 1
        require("mass_scale", self.mass_scale, self.mass_scale * factor < 1.0,
                "in [0, 1 / aggressive_factor)", aggressive_factor=factor)
        require("friction_scale", self.friction_scale, self.friction_scale * factor <= 1.0,
                "in [0, 1 / aggressive_factor]", aggressive_factor=factor)
        for name, cap in (("disturbance", MAX_DISTURBANCE), ("pose_noise", MAX_ANGLE_NOISE),
                          ("q0_offset", MAX_ANGLE_NOISE)):
            require(name, getattr(self, name), getattr(self, name) * factor <= cap,
                    f"in [0, {cap} / aggressive_factor]", aggressive_factor=factor)

    def scaled(self, factor: float) -> "RandomizationCfg":
        """Copy with every range multiplied by `factor` and an aggressive factor
        of 1: the copy's ranges are the ones it randomizes with."""
        return replace(self, aggressive_factor=1.0,
                       **{name: getattr(self, name) * factor for name in _RANGE_FIELDS})


# the fields of RandomizationCfg that are ranges: all but the factor
_RANGE_FIELDS = tuple(f.name for f in fields(RandomizationCfg) if f.name != "aggressive_factor")


DEFAULT_ENV_CONFIG = {
    "links": [{"mass": 1.2, "length": 0.5}, {"mass": 1.0, "length": 0.4}],
    "gravity": 9.81,
    "actuators": ["5020-16", "5020-16"],
    "pd": {"f_hz": 10.0, "zeta": 2.0},
    "episode_len": 500,
    "n_substeps": 8,
    "history_len": 5,
    "envelope_scale": 1.0,
    # each section is its settings dataclass's defaults, so the two agree
    "thresholds": asdict(TerminationThresholds()),
    "randomization": asdict(RandomizationCfg()),
    "power_penalty": asdict(PowerPenaltyCfg()),
}


class ArmEnv:
    """J-joint torque-controlled pendulum arm tracking a reference motion.

    The env runs a batch of N independent episodes that step together:
    `reset` with a list of seeds or Generators (and one motion, or one per
    episode), then `step_batch` with one action row per running episode. A
    single episode is the batch of one. State is held as (N, J) arrays, and
    the reference as (C, T, ...) arrays of the batch's C distinct clips,
    padded to the longest. The observations are the state a caller reads:
    their first 2J columns are q and qdot.
    `running` lists the episodes that still step and `running_streams` the
    streams that feed them; both change only in `_set_running`.

    `config` is merged over `DEFAULT_ENV_CONFIG` (see `fileio.merge_over`).
    `section` is the dotted key of `config` in a larger config tree (the
    CLI's is `env`); range errors name their key below it.
    """

    def __init__(self, config: dict | None = None, section: str = ""):
        cfg = merge_over(DEFAULT_ENV_CONFIG, config or {}, "env config")
        catalog = actuation.default_catalog()
        links, names = cfg["links"], cfg["actuators"]
        self.n_substeps, self.episode_len, self.history_len, scale = (
            cfg[k] for k in ("n_substeps", "episode_len", "history_len", "envelope_scale"))

        # a sub-section's fields are named below it, as `pd.zeta`
        with config_section(section, {k: f"{sub}.{k}" for sub, fields in cfg.items()
                                      if isinstance(fields, dict) for k in fields}):
            require("links", f"{len(links)} links", 1 <= len(links) <= MAX_LINKS,
                    f"a list of 1 to {MAX_LINKS} links")
            for i, link in enumerate(links):
                for k in ("mass", "length"):
                    require(f"links.{i}.{k}", link[k], link[k] > 0, "positive")
            require("n_substeps", self.n_substeps, 1 <= self.n_substeps <= MAX_SUBSTEPS,
                    f"in [1, {MAX_SUBSTEPS}]")
            require("episode_len", self.episode_len, 1 <= self.episode_len <= MAX_EPISODE_LEN,
                    f"in [1, {MAX_EPISODE_LEN}]")
            require("history_len", self.history_len, 0 <= self.history_len <= MAX_HISTORY_LEN,
                    f"in [0, {MAX_HISTORY_LEN}]")
            require("envelope_scale", scale, scale > 0, "positive")
            require("gravity", cfg["gravity"], abs(cfg["gravity"]) <= MAX_GRAVITY,
                    f"in [-{MAX_GRAVITY}, {MAX_GRAVITY}]")
            if len(names) != len(links):  # the fault of either key, so both are named
                raise ValidationError(f"actuators must hold one name per link, got "
                                      f"{len(names)} names with links={links}")
            for i, name in enumerate(names):
                if name not in catalog:
                    raise ValidationError(f"actuators.{i}: unknown actuator '{name}' "
                                          f"(catalog: {sorted(catalog)})")
            nominal = [catalog[name] for name in names]
            # PD gains come from the nominal catalog entry; envelope_scale only
            # weakens the physics, the controller is not told about it.
            gains = [actuation.pd_gains(p, **cfg["pd"]) for p in nominal]
            self.thresholds = TerminationThresholds(**cfg["thresholds"])
            self.randomization = RandomizationCfg(**cfg["randomization"])
            pp = dict(cfg["power_penalty"])
            joints = pp.pop("joints")
            require("joints", joints, joints is None or isinstance(joints, (list, tuple)) and all(
                isinstance(j, (int, np.integer)) and not isinstance(j, bool)  # true is no index
                and 0 <= j < len(links) for j in joints), "null or a list of joint indices")
            self.power_cfg = PowerPenaltyCfg(
                **pp, joints=None if joints is None else tuple(int(j) for j in joints))
        self.n_joints = len(links)
        self.masses = np.array([l["mass"] for l in links])
        self.lengths = np.array([l["length"] for l in links])
        self.gravity = cfg["gravity"]  # a float (merge_over), in range (above)
        self.dt = CONTROL_DT
        self.actuators = [replace(p, tau_y1=p.tau_y1 * scale, tau_y2=p.tau_y2 * scale)
                          for p in nominal]
        self._joint_params = actuation.stack(self.actuators)
        self.kp = np.array([g.kp for g in gains])
        self.kd = np.array([g.kd for g in gains])
        self.action_scale = np.array([g.action_scale for g in gains])
        self._armature_M = np.diag(self._joint_params.armature_I)
        self._S = np.tril(np.ones((self.n_joints, self.n_joints)))
        self._ST = self._S.T
        self._h = np.array(self.dt / self.n_substeps)  # the substep, 0-d: cheaper to multiply
        # the columns of an observation that are the next one's history: its
        # proprio, then its own history without the oldest state (none at H = 0)
        P = self.proprio_dim
        self._hist_cols = np.r_[:P, P + self.command_dim:self.obs_dim - P][:self.history_len * P]
        # no episode until `reset`: a step finds no running row
        self._steps = np.zeros(0, dtype=int)
        self._set_running(np.arange(0))

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, motion: MotionClip | list[MotionClip], rngs: list,
              mode: str = "base") -> np.ndarray:
        """Start a batch of episodes on `motion`; returns their (N, obs_dim)
        initial observations.

        `rngs` is a non-empty list of numpy Generators or seeds, one episode
        per entry. Each distinct Generator (by identity) is one stream,
        in order of first use, drawn in the order a single episode draws: the
        episodes listed with it share each of its draws, here and at every
        step while any of them runs, so each is the episode that its stream
        gives alone (`step_batch` draws on a stream only when a row of it
        runs, as `running_streams` lists them, and a row that runs ran every
        step before). `motion` is one `MotionClip` for every episode,
        or a list of N clips, one per episode: each episode tracks its own
        clip and holds that clip's last frame once it runs past it, so it is
        the episode that its clip and stream give alone. Aggressive mode
        widens every randomization range by `aggressive_factor` and relaxes
        the termination thresholds by `relax_factor`.
        """
        require("mode", f"'{mode}'", mode in ("base", "aggressive"), "'base' or 'aggressive'")
        require("rngs", rngs, isinstance(rngs, list) and len(rngs) > 0,
                "a non-empty list of seeds or Generators")
        # a Generator passes through default_rng as the same object
        rngs = [np.random.default_rng(r) for r in rngs]
        per_row = isinstance(motion, list)
        motions = motion if per_row else [motion] * len(rngs)
        if len(motions) != len(rngs):
            raise ValidationError(f"{len(motions)} motions for {len(rngs)} episodes")
        # each distinct clip (by identity) once, in order of first use
        clips, slot = [], {}
        for i, clip in enumerate(motions):
            if id(clip) not in slot:
                self.check_motion(clip, f"row {i}: " if per_row else "")
                slot[id(clip)] = len(clips)
                clips.append(clip)
        n, J = len(rngs), self.n_joints
        self._clip = np.array([slot[id(c)] for c in motions])
        self._last = np.array([c.n_frames - 1 for c in clips])[self._clip]
        self._clips = clips
        qdot = [finite_difference(c.q, self.dt) for c in clips]
        self._ref_q = _padded([c.q for c in clips])
        self._ref_qdot = _padded(qdot)
        self._ref_qacc = _padded([finite_difference(v, self.dt) for v in qdot])
        self._ref_body = _padded([c.body_pos for c in clips])
        rand = self.randomization
        if mode == "aggressive":
            rand = rand.scaled(rand.aggressive_factor)
        self._mode, self._rand = mode, rand
        # each distinct stream (by identity) once, in order of first use, and
        # each row's index into them
        slot = {}
        self._stream = np.array([slot.setdefault(id(r), len(slot)) for r in rngs])
        self._rngs = list({id(r): r for r in rngs}.values())
        draws = [_episode_draws(r, rand, J) for r in self._rngs]
        mass, friction, q0_offset, pose_noise = (np.array(d)[self._stream] for d in zip(*draws))
        self._masses_ep = self.masses * (1.0 + mass)
        # 1 + friction >= 0, as RandomizationCfg bounds friction_scale by 1
        p, friction_scale = self._joint_params, (1.0 + friction)[:, None]
        self._actuators_ep = replace(p, mu_s=p.mu_s * friction_scale, mu_d=p.mu_d * friction_scale)
        self._q0_eff = q0_offset  # the PD default pose: straight down (0) plus the offset
        mcum = np.cumsum(self._masses_ep[:, ::-1], axis=1)[:, ::-1]
        joint = np.arange(J)
        self._c = np.outer(self.lengths, self.lengths) * mcum[:, np.maximum.outer(joint, joint)]
        self._gcoef = self.gravity * self.lengths * mcum
        self._q = self._ref_q[self._clip, 0] + pose_noise
        self._qdot = self._ref_qdot[self._clip, 0]
        self._steps = np.zeros(n, dtype=int)
        self._set_running(np.arange(n))
        # each episode's last observation is the record of what its policy
        # saw, and the next step takes its history from it; at reset there is
        # no action yet and the history repeats the initial state (the caller
        # gets a copy, as steps overwrite the stored rows)
        p0 = np.concatenate([self._q, self._qdot, np.zeros((n, J))], axis=1)
        self._obs = self._observe(slice(None), [p0], self._q.sum(axis=1),
                                  self._ref_q[self._clip, 0].sum(axis=1),
                                  np.tile(p0, self.history_len))
        return self._obs.copy()

    def skip_episode(self, rng: np.random.Generator, noise_dim: int) -> None:
        """Advance `rng` past every draw of a full-length base-mode episode
        that uses it as its one stream, as a `rollout_batch` episode seeded
        with a Generator does: reset's randomization, then per control step
        the policy's `noise_dim` starting normals (`flow.euler_sample`) and
        the step's disturbance. It makes the episode's calls rather than
        counting doubles, because `standard_normal` takes a variable number
        of words. The env's own episode is untouched."""
        rand, J = self.randomization, self.n_joints
        _episode_draws(rng, rand, J)
        for _ in range(self.episode_len):
            rng.standard_normal(noise_dim)
            _disturbances([rng], [0], rand, J)

    def check_motion(self, motion: MotionClip, where: str = "") -> None:
        """Raise unless `motion` fits the arm and control rate; `where` prefixes the message."""
        if motion.n_joints != self.n_joints:
            raise ValidationError(
                f"{where}motion has {motion.n_joints} joints, env has {self.n_joints}"
            )
        if motion.n_bodies != self.n_joints:
            raise ValidationError(
                f"{where}motion has {motion.n_bodies} bodies; expected one per link"
            )
        if abs(motion.fps * self.dt - 1.0) > 1e-9:
            raise ConfigError(f"{where}motion fps {motion.fps} does not match 50 Hz control")

    @property
    def running(self) -> np.ndarray:
        """Indices of the episodes still running, in the row order of `step_batch`."""
        return self._running.copy()

    @property
    def step_count(self) -> int:
        """Control steps taken since reset, summed over a batch's episodes."""
        return int(self._steps.sum())

    @property
    def q0_eff(self) -> np.ndarray:
        """(N, J) PD default pose of each episode."""
        self._require_reset()
        return self._q0_eff.copy()

    def _require_reset(self) -> None:
        """ValidationError before the first `reset`, which makes the episode
        state that `q0_eff` and `mechanical_energy` read."""
        if not self._steps.size:
            raise ValidationError("no episode state; call reset()")

    def _frame(self, rows, steps):
        """Index into the stacked reference arrays of the frame each episode
        in `rows` tracks at `steps`: its own clip, held at that clip's last
        frame."""
        return self._clip[rows], np.minimum(steps, self._last[rows])

    def _set_running(self, running: np.ndarray) -> None:
        """Make the episodes `running` (ascending rows) the ones that step, and
        derive what a step reads of them: `_rows`, their index into the state
        arrays (a plain slice while none has finished, so the common case
        copies nothing); `_consts`, their actuator params, q0_eff, kp, kd,
        action scale and `_terms` constants, one fresh row per episode
        (same-shape operands are cheaper than broadcast ones, and give the
        same bits); `running_streams`, their distinct streams (indices into
        `_rngs`) and each row's position among them."""
        self._running = running
        self._rows = rows = slice(None) if running.size == self._steps.size else running
        if not running.size:
            return
        J, p = self.n_joints, self._actuators_ep

        def per_row(a, tail=(J,)):
            return np.broadcast_to(a, (self._steps.size, *tail))[rows].copy()

        self._consts = (replace(p, **{f: per_row(getattr(p, f)) for f in _PARAM_FIELDS}),
                        per_row(self._q0_eff), per_row(self.kp), per_row(self.kd),
                        per_row(self.action_scale), per_row(self._c, (J, J)),
                        per_row(self._gcoef), per_row(self._armature_M, (J, J)))
        self.running_streams = np.unique(self._stream[running], return_inverse=True)

    # -- observation ---------------------------------------------------------

    def _observe(self, rows, proprio, th, th_ref, history) -> np.ndarray:
        """Observations of the episodes `rows`: the column blocks of `proprio`
        (q, qdot, last base action), the reference joint targets one
        frame ahead, the 2-vector difference between the reference and current
        tip directions (from the angle sums `th_ref` and `th`), and the
        (n, H * P) `history`, most recent state first."""
        nxt = self._frame(rows, self._steps[rows] + 1)
        return np.concatenate([*proprio, self._ref_q[nxt], self._ref_qdot[nxt],
                               (np.cos(th_ref) - np.cos(th))[:, None],
                               (np.sin(th_ref) - np.sin(th))[:, None], history], axis=1)

    @property
    def proprio_dim(self) -> int:
        return 3 * self.n_joints

    @property
    def command_dim(self) -> int:
        return 2 * self.n_joints + 2

    @property
    def obs_dim(self) -> int:
        return self.proprio_dim + self.command_dim + self.history_len * self.proprio_dim

    # -- dynamics ------------------------------------------------------------

    def _terms(self, q, qdot, c, gcoef, armature_M):
        """Joint-space mass matrix (n, J, J) and bias torque (n, J), i.e.
        Coriolis/centrifugal plus gravity, at the (n, J) state (q, qdot) of
        the episodes whose rows of `_c` and `_gcoef` are `c` and `gcoef`."""
        theta = np.add.accumulate(q, axis=-1)
        thetadot = np.add.accumulate(qdot, axis=-1)
        dth = theta[..., :, None] - theta[..., None, :]
        M_q = self._ST @ (c * np.cos(dth)) @ self._S + armature_M
        h_vec = ((c * np.sin(dth)) @ (thetadot ** 2)[..., None])[..., 0]
        G = gcoef * np.sin(theta)
        return M_q, (h_vec + G) @ self._S

    def _qacc(self, q, qdot, tau, c, gcoef, armature_M) -> np.ndarray:
        M_q, bias = self._terms(q, qdot, c, gcoef, armature_M)
        return _solve(M_q, (tau - bias)[..., None])[..., 0]

    def inverse_dynamics(self, q, qdot, qacc, rows) -> np.ndarray:
        """Joint torques that produce qacc at (q, qdot), gravity included, for
        the episodes `rows` (one row index takes (..., J) states)."""
        M_q, bias = self._terms(np.asarray(q, dtype=float), np.asarray(qdot, dtype=float),
                                self._c[rows], self._gcoef[rows], self._armature_M)
        return (M_q @ np.asarray(qacc, dtype=float)[..., None])[..., 0] + bias

    def mechanical_energy(self) -> np.ndarray:
        """(N,) kinetic + gravitational potential energy of each episode's arm."""
        self._require_reset()
        q, qdot = self._q, self._qdot
        M_q, _ = self._terms(q, qdot, self._c, self._gcoef, self._armature_M)
        ke = 0.5 * np.einsum("ni,nij,nj->n", qdot, M_q, qdot)
        z = arm_forward_kinematics(q, self.lengths)[..., 2]
        return ke + self.gravity * np.sum(self._masses_ep * z, axis=1)

    # -- control step ----------------------------------------------------------

    def step_batch(self, actions, base_actions=None):
        """Advance every running episode one 50 Hz control step.

        `actions` (and `base_actions`) are (n, J): one row per running episode,
        in the order of `running`; another shape raises DimensionError.
        `base_actions` is the flow-policy component when a residual is active;
        it feeds the observation's previous-action slot (the actions
        themselves when omitted). Returns (observations, rewards, done, info)
        with one row per episode that was running: the observations hold the
        new state (q and qdot are their first 2J columns), and `info` maps each
        field, the physics at the pre-step state (`qdot_pre`, torques, power)
        and the outcome, to its per-row array.
        Episodes that finish here stop running; with none running (before
        `reset`, or once every episode has finished) a step raises
        ValidationError.
        """
        n, J = self._running.size, self.n_joints
        if n == 0:
            raise ValidationError("no running episode; call reset()")
        actions = np.asarray(actions, dtype=float)
        base_actions = actions if base_actions is None else np.asarray(base_actions, dtype=float)
        for name, x in (("actions", actions), ("base_actions", base_actions)):
            if x.shape != (n, J):
                raise DimensionError(f"{name} must have shape ({n}, {J}), got {x.shape}")
        if not np.isfinite(actions).all():
            raise ValidationError("non-finite action")
        rows = self._rows
        history = self._obs[rows][:, self._hist_cols]
        streams, stream_row = self.running_streams
        disturbance = _disturbances(self._rngs, streams, self._rand, J)[stream_row]
        params, q0_eff, kp, kd, action_scale, *dynamics = self._consts
        # a copy: the write-back below would change a view of the state
        q, qdot_pre = self._q[rows], self._qdot[rows].copy()
        q_tar = q0_eff + action_scale * actions
        # a diverging state overflows in here; the finiteness check below
        # turns that into the one NumericalBlowupError, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            tau_cmd0 = kp * (q_tar - q) - kd * qdot_pre
            tau_clipped0 = actuation.clip_torque(tau_cmd0, qdot_pre, params)
            tau_applied0 = tau_clipped0 - actuation.friction_torque(qdot_pre, params)

            h = self._h
            qdot, tau = qdot_pre, tau_applied0  # substep 0 starts at the logged pre-step state
            for sub in range(self.n_substeps):
                if sub:
                    tau = actuation.actuate(kp * (q_tar - q) - kd * qdot, qdot, params)
                qdot = qdot + h * self._qacc(q, qdot, tau + disturbance, *dynamics)
                q = q + h * qdot

        if not (np.isfinite(q).all() and np.isfinite(qdot).all()):
            step = int(self._steps[self._running[0]]) + 1
            self._set_running(self._running[:0])
            raise NumericalBlowupError(f"state became non-finite at step {step}")

        self._q[rows], self._qdot[rows] = q, qdot
        self._steps[rows] += 1

        steps = self._steps[rows]
        k = self._frame(rows, steps)
        q_ref = self._ref_q[k]
        q_err = np.abs(q - q_ref).sum(axis=1) / J  # the mean, without its wrapper
        powers = actuation.joint_power(tau_applied0, qdot_pre)
        pen_cost, pen_reward = actuation.neg_power_penalty(powers, self.power_cfg)
        reward = -q_err + pen_reward

        body = arm_forward_kinematics(q, self.lengths)
        ref_body = self._ref_body[k]
        z_err = body[..., 2] - ref_body[..., 2]
        th, th_ref = q.sum(axis=1), q_ref.sum(axis=1)
        orient_err = np.abs(_wrap_angle(th - th_ref))
        relaxed = self._mode == "aggressive"
        terminated = check_termination(z_err, orient_err, self.thresholds, relaxed=relaxed)
        timeout = steps >= self.episode_len
        done = terminated | timeout
        obs = self._observe(rows, [q, qdot, base_actions], th, th_ref, history)
        self._obs[rows] = obs
        if done.any():
            self._set_running(self._running[~done])

        info = {
            "qdot_pre": qdot_pre,
            "tau_cmd": tau_cmd0,
            "tau_clipped": tau_clipped0,
            "tau_applied": tau_applied0,
            "power": powers,
            "neg_power_cost": pen_cost,
            "q_err": q_err,
            "z_err": z_err,
            "orient_err": orient_err,
            "body_pos": body,
            "ref_body_pos": ref_body,
            "terminated_early": terminated,
            "timeout": timeout & ~terminated,
            "relaxed": np.full(n, relaxed),
        }
        return obs, reward, done, info

    # the name `perfbench/tracing.py` patches; it goes when the tracer's span
    # moves to `step_batch` (ROADMAP item 1)
    step = step_batch


def _episode_draws(rng, rand: RandomizationCfg, J: int):
    """An episode's physical randomization, drawn from its stream at reset in
    this order: link-mass scales, friction scale, PD default offsets and
    initial pose noise."""
    return (rng.uniform(-rand.mass_scale, rand.mass_scale, J),
            rng.uniform(-rand.friction_scale, rand.friction_scale),
            rng.uniform(-rand.q0_offset, rand.q0_offset, J),
            rng.uniform(-rand.pose_noise, rand.pose_noise, J))


def _disturbances(rngs, indices, rand: RandomizationCfg, J: int) -> np.ndarray:
    """A control step's (len(indices), J) external joint torques, one row
    drawn from each stream `rngs[i]`, i in `indices`, which `step_batch`
    hands to every running episode of that stream: the bits and stream
    positions of `rngs[i].uniform(-b, b, J)`, which is -b + (2b) * r for J
    `random` doubles r (2b is exact, and finite under the cap on b)."""
    out = np.empty((len(indices), J))
    for i, row in zip(indices, out):
        rngs[i].random(out=row)
    bound = rand.disturbance
    return -bound + (2.0 * bound) * out


def _padded(arrays) -> np.ndarray:
    """Arrays of unequal length stacked on a new leading axis, zero-padded to
    the longest."""
    out = np.zeros((len(arrays), max(len(a) for a in arrays), *arrays[0].shape[1:]))
    for row, a in zip(out, arrays):
        row[:len(a)] = a
    return out


def _wrap_angle(x: float) -> float:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# Scripted expert controllers.

@dataclass
class ExpertPolicy:
    """Privileged PD tracker for one reference motion.

    Commands the reference pose `lookahead` frames ahead through the PD map,
    with velocity feedforward plus computed-torque feedforward (full inverse
    dynamics and friction at the reference). All feedforward terms are
    privileged: they read the env's randomized defaults and dynamics model.
    """

    motion: MotionClip
    lookahead: int = 1
    action_limit: float = 4.0

    def __post_init__(self):
        require("lookahead", self.lookahead, 0 <= self.lookahead <= MAX_EPISODE_LEN,
                f"in [0, {MAX_EPISODE_LEN}]")
        require("action_limit", self.action_limit, self.action_limit > 0, "positive")


def expert_action(expert: ExpertPolicy, env: ArmEnv, steps=None, row: int = 0) -> np.ndarray:
    """Labels of episode `row` at the control steps `steps` (one per entry), or a
    (J,) label at its current step when None. A label reads the row's clip and
    randomization, never its state, so a finished episode is labelled at once,
    in one call that builds the row's friction-scaled actuator params once.
    `row` indexes the episodes of the last `reset` and `steps` are >= 0; either
    out of range raises ValidationError."""
    n = env._steps.size
    require("row", row, 0 <= row < n, f"an episode row in [0, {n})")
    steps = env._steps[row] if steps is None else np.asarray(steps)
    require("steps", steps, np.all(steps >= 0), ">= 0")
    clip = env._clips[env._clip[row]]
    if expert.motion is not clip and not expert.motion.allclose(clip):
        raise ValidationError("expert's motion does not match the env's reference")
    idx = env._frame(row, steps + expert.lookahead)
    q_ref, qd_ref = env._ref_q[idx], env._ref_qdot[idx]
    a = q_ref - env._q0_eff[row] + (env.kd / env.kp) * qd_ref
    a = a + env.inverse_dynamics(q_ref, qd_ref, env._ref_qacc[idx], row) / env.kp
    p = env._actuators_ep
    params = replace(p, mu_s=p.mu_s[row], mu_d=p.mu_d[row])
    a = a + actuation.friction_torque(qd_ref, params) / env.kp
    a = a / env.action_scale
    return np.clip(a, -expert.action_limit, expert.action_limit)

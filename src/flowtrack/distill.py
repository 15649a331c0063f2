"""Distillation and refinement: DAgger training of the flow policy from
scripted experts, residual action composition, elitist evolution-strategy
refinement of a residual policy under actuation constraints, and closed-loop
policy evaluation.

The DAgger loop rolls out the *current* student (so training states match the
deployment distribution), labels every visited state with the expert action,
and fits the flow-matching objective on the freshly collected buffer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .env import ArmEnv, ExpertPolicy, expert_action
from .errors import DimensionError, ValidationError
from .fileio import load_checkpoint, require, save_checkpoint
from .flow import (AdamState, FMBatch, GradWorkspace, VelocityFieldNet,
                   adam_step, clone_net, euler_sample, fm_loss_and_grad, init_layers,
                   mlp_forward, mlp_init)
from .motion import MotionClip, finite_difference, segment_clips


class ReplayBuffer:
    """Flat store of up to `capacity` (observation, expert action) records,
    in arrays allocated once, with rows `obs_dim` and `action_dim` wide.

    `add` appends (n, obs_dim) observation rows and (n, action_dim) action
    rows; `clear` empties the buffer and keeps the arrays for reuse.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        self._obs = np.empty((capacity, obs_dim))
        self._act = np.empty((capacity, action_dim))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def clear(self) -> None:
        self._size = 0

    def add(self, obs, a_expert) -> None:
        """Append the rows; DimensionError unless they are as many of each,
        fit the free rows and have the buffer's widths."""
        if len(obs) != len(a_expert):
            raise DimensionError(f"{len(obs)} observation rows but {len(a_expert)} action rows")
        end, widths = self._size + len(obs), obs.shape[1:] + a_expert.shape[1:]
        if end > len(self._obs) or widths != self._obs.shape[1:] + self._act.shape[1:]:
            raise DimensionError(
                f"{len(obs)} rows of (observation, action) widths {widths} do not fit the "
                f"{len(self._obs) - self._size} free rows of widths "
                f"{self._obs.shape[1:] + self._act.shape[1:]}")
        self._obs[self._size:end] = obs
        self._act[self._size:end] = a_expert
        self._size = end

    def sample_batch(self, batch_size: int, rng, out: FMBatch | None = None) -> FMBatch:
        """`batch_size` rows drawn with replacement (as many as the buffer
        holds, if fewer), written into `out`, a batch of that many rows, when
        given."""
        if not self._size:
            raise ValidationError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=min(batch_size, self._size))
        if out is None:
            out = FMBatch(np.empty((len(idx), self._obs.shape[1])),
                          np.empty((len(idx), self._act.shape[1])))
        # the indices are in range; mode "raise" would gather through a copy
        np.take(self._obs, idx, axis=0, out=out.observations, mode="clip")
        np.take(self._act, idx, axis=0, out=out.expert_actions, mode="clip")
        return out


# Most episodes a DAgger iteration runs. They run as one batch, which
# preallocates (episode_len, episodes, ...) logs and a Generator copy each.
MAX_EPISODES_PER_ITER = 1_000


@dataclass(frozen=True)
class DistillCfg:
    """DAgger settings; the rollouts sample the student with its own `sampler_steps`."""

    iterations: int = 12
    episodes_per_iter: int = 4
    gradient_steps: int = 150
    batch_size: int = 128
    learning_rate: float = 2e-3
    lr_decay: float = 1.0  # per-iteration geometric decay
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "episodes_per_iter", "gradient_steps", "batch_size"):
            require(name, getattr(self, name), type(getattr(self, name)) is int, "an integer")
        require("iterations", self.iterations, self.iterations >= 0, ">= 0")
        require("episodes_per_iter", self.episodes_per_iter,
                1 <= self.episodes_per_iter <= MAX_EPISODES_PER_ITER,
                f"in [1, {MAX_EPISODES_PER_ITER}]")
        for name in ("gradient_steps", "batch_size"):
            require(name, getattr(self, name), getattr(self, name) >= 1, "positive")
        require("learning_rate", self.learning_rate, self.learning_rate > 0, "positive")
        require("lr_decay", self.lr_decay, 0.0 < self.lr_decay <= 1.0, "in (0, 1]")


def dagger_train(env: ArmEnv, experts: list[ExpertPolicy], net: VelocityFieldNet,
                 cfg: DistillCfg, on_iteration=None):
    """Distill the experts into `net`; returns (trained net, per-iter losses).

    Each iteration: clear the buffer, roll out the current student on the
    motions of sampled experts, label the visited states with that expert,
    then run `gradient_steps` flow-matching updates on buffer minibatches.
    `on_iteration(index, net, mean_loss)`, when given, is called after every
    iteration (checkpointing).

    The algorithm is the episode-by-episode loop on the run's one Generator:
    each episode draws its expert, then its reset and per-step noise, from
    where the previous episode left the stream. An iteration's episodes run
    as one `rollout_batch` of one-row groups, each on a copy of the stream
    advanced past the draws of the episodes before it, taken as full length
    (`ArmEnv.skip_episode`). A row that ends early, unless last, leaves the
    later rows on the wrong streams: the rows up to it are kept and the later
    episodes run again as a new batch from its stream, which stands where the
    loop's would. One row's products in a batch are bit-equal to its episode
    alone, so the result is the loop's, bit for bit, in 1 + (episodes ending
    early before the last) batches per iteration. Each kept episode is
    labelled by one `expert_action` call and added to the buffer in episode
    order; the buffer is allocated once, for the `episodes_per_iter` x
    `episode_len` rows an iteration can hold at most. The gradient steps draw
    from the last episode's stream. They run in one `GradWorkspace`, built
    again only when an iteration's batch row count differs from the last
    one's, and Adam updates the net in place.
    """
    if not experts:
        raise ValidationError("experts must hold at least one ExpertPolicy")
    net = clone_net(net)
    rng = np.random.default_rng(cfg.seed)
    T, K = env.episode_len, cfg.episodes_per_iter
    buffer = ReplayBuffer(K * T, env.obs_dim, env.n_joints)  # cleared every iteration
    opt_state = AdamState()
    ws = None
    losses: list[float] = []
    for it in range(cfg.iterations):
        buffer.clear()
        start = 0  # the first episode of the iteration not yet kept
        while start < K:
            stream = rng  # advanced in place: rng is reassigned below
            rows = []  # (expert, Generator) of episodes start..K-1
            for e in range(start, K):
                expert = experts[int(stream.integers(len(experts)))]
                rows.append((expert, copy.deepcopy(stream)))
                if e < K - 1:
                    env.skip_episode(stream, net.action_dim)
            logs = rollout_batch(env, net, [(expert.motion, [row_rng], None)
                                            for expert, row_rng in rows], keep_obs=True)
            steps = [int(log["steps"][0]) for log in logs]
            kept = next((i + 1 for i, n in enumerate(steps[:-1]) if n < T), len(rows))
            for i, (expert, _) in enumerate(rows[:kept]):  # labelled before a rerun resets env
                buffer.add(logs[i]["obs"][:steps[i], 0],
                           expert_action(expert, env, np.arange(steps[i]), i))
            rng = rows[kept - 1][1]
            start += kept
        lr = cfg.learning_rate * cfg.lr_decay ** it
        rows = min(cfg.batch_size, len(buffer))
        if ws is None or ws.rows != rows:
            ws = GradWorkspace(net, rows)
        iter_losses = []
        for _ in range(cfg.gradient_steps):
            batch = buffer.sample_batch(cfg.batch_size, rng, ws.batch)
            loss, grads = fm_loss_and_grad(net, batch, rng, ws)
            adam_step(net.params, grads, opt_state, lr=lr)
            iter_losses.append(loss)
        losses.append(float(np.mean(iter_losses)))
        if on_iteration is not None:
            on_iteration(it, net, losses[-1])
    return net, losses


# ---------------------------------------------------------------------------
# Residual policy.

@dataclass
class ResidualPolicy:
    """Small MLP producing a bounded corrective action.

    Input is [proprio (with previous *total* action), command, base action];
    the output is clamped to +/- bound before being added to the base action.
    The final layer starts at zero so a fresh residual leaves the base policy
    unchanged.
    """

    proprio_dim: int
    command_dim: int
    action_dim: int
    hidden: tuple[int, ...] = (32,)
    bound: float = 0.3
    params: list = field(default_factory=list)

    def __post_init__(self):
        require("bound", self.bound, self.bound >= 0, "non-negative")
        init_layers(self, "residual layer")

    @property
    def input_dim(self) -> int:
        return self.proprio_dim + self.command_dim + self.action_dim

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden, self.action_dim]


def init_residual(env: ArmEnv, *, rng=None, **settings) -> ResidualPolicy:
    """Residual with random hidden layers and a zero output layer (all zero
    when rng is None); `settings` are `ResidualPolicy` fields (hidden, bound),
    each defaulting to the dataclass's."""
    res = ResidualPolicy(env.proprio_dim, env.command_dim, env.n_joints, **settings)
    if rng is not None:
        params = mlp_init(res.layer_sizes, rng)
        W_last, b_last = params[-1]
        params[-1] = (np.zeros_like(W_last), np.zeros_like(b_last))
        res.params = params
    return res


def residual_action(env: ArmEnv, obs, a_prev, a_flow, blocks) -> np.ndarray:
    """Raw (unclamped) residual outputs of the running episodes;
    `residual_compose` applies the bound. The input rows are cut from `obs`:
    [q, qdot, `a_prev` (the total action applied last step), command,
    `a_flow`]. `blocks` is a list of (pos, params): the rows at the (G, m)
    positions `pos`, G groups of m rows, go through the per-group stacked
    `params` (see `mlp_forward`).
    """
    J, P = env.n_joints, env.proprio_dim
    x = np.concatenate([obs[:, :2 * J], a_prev, obs[:, P:P + env.command_dim], a_flow], axis=1)
    raw = np.empty_like(a_flow)
    for pos, params in blocks:
        raw[pos] = mlp_forward(params, x[pos])
    return raw


def residual_compose(a_flow, a_res, bound: float) -> np.ndarray:
    """Refined action: base plus the residual clamped to +/- bound."""
    a_flow = np.asarray(a_flow, dtype=float)
    a_res = np.asarray(a_res, dtype=float)
    if a_flow.shape != a_res.shape:
        raise DimensionError(f"action shapes differ: {a_flow.shape} vs {a_res.shape}")
    return a_flow + np.clip(a_res, -bound, bound)


# Caps on the ES sizes a config sets, which allocate: each generation draws
# all `population` noise layer lists up front, and each batch preallocates
# (episode_len, rows, ...) logs for 2^ES_BLOCK - 1 groups of `episodes_per_eval` rows.
MAX_POPULATION = 1_000
MAX_EPISODES_PER_EVAL = 1_000


@dataclass(frozen=True)
class ESCfg:
    """(1+lambda) evolution strategy over residual parameters."""

    generations: int = 30
    population: int = 8
    sigma: float = 0.05
    episodes_per_eval: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("generations", "population", "episodes_per_eval"):
            require(name, getattr(self, name), type(getattr(self, name)) is int, "an integer")
        require("generations", self.generations, self.generations >= 0, ">= 0")
        require("population", self.population, 0 <= self.population <= MAX_POPULATION,
                f"in [0, {MAX_POPULATION}]")
        require("sigma", self.sigma, self.sigma >= 0, "non-negative")
        require("episodes_per_eval", self.episodes_per_eval,
                1 <= self.episodes_per_eval <= MAX_EPISODES_PER_EVAL,
                f"in [1, {MAX_EPISODES_PER_EVAL}]")


def rollout_batch(env: ArmEnv, net: VelocityFieldNet, groups: list, mode: str = "base",
                  keep_obs: bool = False) -> list[dict]:
    """Seeded closed-loop episodes of one or more row groups, stepped together,
    each action sampled with the net's own `sampler_steps` (`euler_sample`).

    `groups` is a list of (motion, seeds, residual) triples. Group g runs one
    episode of its motion per seed under its residual, on the rows after
    group g - 1's: the batch is every group's seeds in order, at least one
    per group. The residuals are all None (the base policy alone), or all of
    one layer sizes and bound, differing only in params.

    Each episode's env and policy noise come from independent child streams of
    its seed, so an episode's trajectory depends on its motion, residual and
    seed only, not on the batch it runs in. A seed may be a Generator instead,
    which is then both streams, drawn in the order of a single episode. The
    rows of one seed (equal seeds, or one Generator object) share one stream
    pair, spawned once in order of first use, the order of the env's
    streams: each step draws its disturbance once per distinct env stream of
    the running rows (`ArmEnv.reset`) and its starting noise once per
    distinct policy stream, both as `env.running_streams` lists them, and a
    stream draws at a step only when one of its rows runs, which ran every
    step before, so each row gets the draws of its episode alone. A
    Generator given for two rows is thus shared by them, not drawn from in
    turn; two episodes that start from one stream's position each need their
    own copy of it (as `dagger_train` makes).
    Returns one log per group, in group order, of views into the batch's
    arrays: the group's (T, m, ...) trajectories (T = env.episode_len, m its
    seeds), zero past an episode's `steps`, its (m,) `steps` and
    `terminated_early`, and with `keep_obs` the (T, m, obs_dim) observations
    the policy sampled from, as "obs". The policy products of a group's
    running rows are computed as one group of a stacked product, so each
    group's log is bit-equal to a batch of its triple alone. A residual sees
    each row's observation and last applied action.
    """
    if not groups:
        raise ValidationError("a rollout needs at least one row group")
    residuals = [r for _, _, r in groups]
    residual = residuals[0]  # gives the shared bound
    if any(r is not residual and (
            r is None or residual is None or r.layer_sizes != residual.layer_sizes
            or r.bound != residual.bound) for r in residuals):
        raise ValidationError("row groups need residuals of one layer sizes and bound")
    if residual is not None:  # per-layer params stacked on a leading group axis
        layers = [(np.stack([r.params[i][0] for r in residuals]),
                   np.stack([r.params[i][1] for r in residuals])[:, None])
                  for i in range(len(residual.params))]
    sizes = [len(seeds) for _, seeds, _ in groups]
    if 0 in sizes:
        raise ValidationError(f"row group {sizes.index(0)} has no seeds")
    group_of_row = np.repeat(np.arange(len(groups)), sizes)
    # one (env, policy) stream pair per distinct seed (a Generator by
    # identity), in order of first use: the order of the env's streams, so
    # `env.running_streams` indexes `policy_rngs`
    row_seeds = [s for _, seeds, _ in groups for s in seeds]
    pairs = {s: (s, s) if isinstance(s, np.random.Generator) else np.random.default_rng(s).spawn(2)
             for s in dict.fromkeys(row_seeds)}
    policy_rngs = [policy for _, policy in pairs.values()]
    obs = env.reset([motion for motion, seeds, _ in groups for _ in seeds],
                    [pairs[s][0] for s in row_seeds], mode=mode)
    n, T, J, A = len(row_seeds), env.episode_len, env.n_joints, net.action_dim
    a_prev = np.zeros((n, J))  # the total action each running row applied last
    log = {
        "rewards": np.zeros((T, n)),
        "q_err": np.zeros((T, n)),
        "body_pos": np.zeros((T, n, J, 3)),
        "ref_body_pos": np.zeros((T, n, J, 3)),
        "steps": np.zeros(n, dtype=int),
        "terminated_early": np.zeros(n, dtype=bool),
        **({"obs": np.zeros((T, n, env.obs_dim))} if keep_obs else {}),
    }
    n_running = 0
    for t in range(T):
        rows = env.running
        if len(rows) != n_running:  # (re)group the running rows and their streams
            n_running = len(rows)
            split = _group_blocks(group_of_row[rows])
            streams, stream_row = env.running_streams
            if residual is not None:
                res_blocks = [(pos, [(W[g], b[g]) for W, b in layers]) for pos, g in split]
        noise = np.array([policy_rngs[k].standard_normal(A) for k in streams])[stream_row]
        a_flow = np.empty((n_running, A))
        for pos, _ in split:
            a_flow[pos] = euler_sample(net, obs[pos], noise[pos])
        if keep_obs:
            log["obs"][t, rows] = obs
        a = a_flow
        if residual is not None:
            a = residual_compose(a_flow, residual_action(env, obs, a_prev, a_flow, res_blocks),
                                 residual.bound)
        obs, rewards, done, info = env.step_batch(a, base_actions=a_flow)
        log["rewards"][t, rows] = rewards
        log["q_err"][t, rows] = info["q_err"]
        log["body_pos"][t, rows] = info["body_pos"]
        log["ref_body_pos"][t, rows] = info["ref_body_pos"]
        log["steps"][rows] = t + 1
        log["terminated_early"][rows] = info["terminated_early"]
        if done.any():  # the finished rows leave; a batch that stepped whole keeps its arrays
            obs, a = obs[~done], a[~done]
            if not obs.shape[0]:
                break
        a_prev = a
    # each group's rows: axis 1 of the (T, N, ...) arrays, axis 0 of the (N,)
    cuts = np.cumsum(sizes)[:-1]
    parts = {k: np.split(v, cuts, axis=int(v.ndim > 1)) for k, v in log.items()}
    return [dict(zip(parts, group)) for group in zip(*parts.values())]


def _group_blocks(group_of_row):
    """The rows of each group, bucketed by group size: one (positions, group
    ids) pair per distinct size m, with (G, m) positions and (G,) ids.
    `group_of_row` is sorted."""
    starts = np.flatnonzero(np.diff(group_of_row, prepend=-1))
    sizes = np.diff(starts, append=len(group_of_row))
    blocks = []
    for m in sorted(set(sizes.tolist())):
        first = starts[sizes == m]
        blocks.append((first[:, None] + np.arange(m), group_of_row[first]))
    return blocks


def rollout_episode(env: ArmEnv, net: VelocityFieldNet, motion: MotionClip, seed: int,
                    residual: ResidualPolicy | None = None, mode: str = "base") -> dict:
    """One seeded closed-loop episode: the log of `rollout_batch` for a group
    of one seed, with (T, 1, ...) trajectories and (1,) `steps` and
    `terminated_early`."""
    return rollout_batch(env, net, [(motion, [seed], residual)], mode=mode)[0]


def episode_return(log, episode_len: int, floor: float) -> np.ndarray:
    """Each episode's reward total in a `rollout_batch` group log, with the
    steps it missed charged at the floor value."""
    return np.sum(log["rewards"], axis=0) + floor * (episode_len - log["steps"])


# Candidates an ES batch decides: a block of B takes 2^B - 1 row groups.
ES_BLOCK = 3
# ES return charged per step an episode misses after terminating early.
TERMINATION_FLOOR = -1.0


def es_refine(net: VelocityFieldNet, residual: ResidualPolicy, env: ArmEnv,
              motion: MotionClip, cfg: ESCfg):
    """Elitist (1+lambda) ES on the residual parameters; rewards use the
    aggressive env mode. Returns (refined residual, best-reward history).

    Every candidate is scored on the same seeded episode set (common random
    numbers), so the recorded best reward never decreases. The algorithm is
    the sequential loop: candidate k of a generation perturbs the best layer
    list as it stands after candidates 0..k-1, and replaces it when it scores
    strictly higher. Its noise is drawn layer by layer, W then b: the doubles
    of one flat draw over all parameters, cut at the layer boundaries. It
    runs in blocks of `ES_BLOCK` candidates, each block one `rollout_batch`:
    the block's candidate k is scored from each of the 2^k bests that the
    accept/reject outcomes of the block's earlier candidates can leave, and
    the outcomes are then walked in order, so only the scores of the path the
    sequential loop takes are used (generation 0's first batch also scores
    the start point). A candidate's score is the mean return of its group's
    log, bit-equal to scoring it alone, so the result is the sequential one,
    bit for bit. A generation costs ceil(population / ES_BLOCK) batches,
    2^b - 1 groups for a block of b, whatever is accepted, so the work of a
    run does not depend on its seed. With no candidates (no generation or an
    empty population) the start point is scored alone.
    """
    rng = np.random.default_rng(cfg.seed)
    eval_seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=cfg.episodes_per_eval)]
    best = clone_net(residual)

    def scores(thetas) -> list[float]:
        """Mean CRN return of each layer list, all in one batch."""
        logs = rollout_batch(env, net, [(motion, eval_seeds, replace(best, params=theta))
                                        for theta in thetas], mode="aggressive")
        return [float(np.mean(episode_return(log, env.episode_len, TERMINATION_FLOOR)))
                for log in logs]

    theta_best = best.params
    if not cfg.generations or not cfg.population:
        return best, [scores([theta_best])[0]] * (cfg.generations + 1)
    f_best, history = None, []
    for _ in range(cfg.generations):
        noise = [[(rng.standard_normal(W.shape), rng.standard_normal(b.shape))
                  for W, b in theta_best] for _ in range(cfg.population)]
        for i in range(0, cfg.population, ES_BLOCK):
            block = noise[i:i + ES_BLOCK]
            # bests[0] is the current best; candidate k adds one perturbation
            # of each bests entry so far, at bests[2^k + j] for bests[j]
            bests = [theta_best]
            for z in block:
                bests += [[(W + cfg.sigma * zW, b + cfg.sigma * zb)
                           for (W, b), (zW, zb) in zip(theta, z)] for theta in bests]
            if f_best is None:  # the start point rides in the first batch
                fs = scores(bests)
                f_best = fs[0]
                history.append(f_best)
            else:
                fs = [f_best, *scores(bests[1:])]
            j = 0  # the path the sequential loop takes, as an index into bests
            for k in range(len(block)):
                if fs[2 ** k + j] > f_best:
                    f_best, j = fs[2 ** k + j], 2 ** k + j
            theta_best = bests[j]
        history.append(f_best)
    return replace(best, params=theta_best), history


# ---------------------------------------------------------------------------
# Evaluation.

# Most episodes one `evaluate_policy` batch runs. Whole clips join a batch in
# turn while their rows fit, so its (T, rows, J, 3) logs do not grow with the
# motion set (about 56 KB per row at 500 steps); a clip with more rows runs
# alone. A clip's rows are never split: its group would then be another row
# count, whose products round differently.
EVAL_MAX_ROWS = 256
# Most episodes `evaluate_policy` runs per clip. Those rows run as one batch
# above EVAL_MAX_ROWS, so this caps the batch's logs (about 56 MB at 500
# steps).
MAX_ROLLOUTS = 1_000


def evaluate_policy(net: VelocityFieldNet, env: ArmEnv, motions: dict,
                    residual: ResidualPolicy | None = None, n_rollouts: int = 10,
                    seed: int = 0) -> dict:
    """Closed-loop tracking metrics per motion of the `{name: motion}` dict.

    Motions are segmented into 10 s clips first; each clip runs `n_rollouts`
    seeded episodes as one row group. The clips run in order as few
    `rollout_batch` calls as keep each within `EVAL_MAX_ROWS` rows, and each
    clip's metrics come from its group's log, so they are those of a batch of
    that clip alone. MPJPE / velocity / acceleration errors are averaged
    within each episode first, then across episodes, then across a motion's
    clips (never pooled over frames of unequal episodes).
    """
    require("n_rollouts", n_rollouts, type(n_rollouts) is int, "an integer")
    require("n_rollouts", n_rollouts, 1 <= n_rollouts <= MAX_ROLLOUTS, f"in [1, {MAX_ROLLOUTS}]")
    clips = [(name, ci, clip) for name, motion in motions.items()
             for ci, clip in enumerate(segment_clips(motion, 10.0))]
    clip_metrics = {name: [] for name in motions}
    per_batch = max(1, EVAL_MAX_ROWS // n_rollouts)
    for first in range(0, len(clips), per_batch):
        batch = clips[first:first + per_batch]
        logs = rollout_batch(env, net, [
            (clip, [hash_seed(seed, name, ci, r) for r in range(n_rollouts)], residual)
            for name, ci, clip in batch])
        for (name, _, _), log in zip(batch, logs):
            per_episode = {"mpjpe": [], "dvel": [], "dacc": []}
            for i, steps in enumerate(log["steps"]):
                ref, rob = log["ref_body_pos"][:steps, i], log["body_pos"][:steps, i]
                per_episode["mpjpe"].append(metrics.mpjpe(ref, rob))
                if steps >= 3:
                    ref_v = finite_difference(ref, env.dt)
                    rob_v = finite_difference(rob, env.dt)
                    per_episode["dvel"].append(metrics.delta_vel(ref_v, rob_v, env.dt))
                    per_episode["dacc"].append(metrics.delta_acc(ref_v, rob_v, env.dt))
            clip_metrics[name].append(metrics.TrackingMetrics(
                mpjpe_mm=float(np.mean(per_episode["mpjpe"])),
                dvel=float(np.mean(per_episode["dvel"])) if per_episode["dvel"] else 0.0,
                dacc=float(np.mean(per_episode["dacc"])) if per_episode["dacc"] else 0.0,
                success=float(np.mean(~log["terminated_early"])),
                n_episodes=n_rollouts,
            ))
    return {name: metrics.mean_tracking(ms) for name, ms in clip_metrics.items()}


def hash_seed(*parts) -> int:
    """Deterministic 31-bit seed from mixed parts (no Python hash salt)."""
    acc = 2166136261
    for part in parts:
        for byte in str(part).encode():
            acc = (acc ^ byte) * 16777619 % (2 ** 32)
    return acc % (2 ** 31)


def closed_loop_joint_error(env: ArmEnv, net: VelocityFieldNet, motion: MotionClip,
                            seed: int) -> float:
    """Mean per-step joint tracking error of a seeded episode of the base
    policy (rad)."""
    log = rollout_episode(env, net, motion, seed)
    steps = log["steps"][0]
    # charge un-run steps at a worst-case error so dying never helps
    missing = np.full(env.episode_len - steps, np.pi)
    return float(np.mean(np.concatenate([log["q_err"][:steps, 0], missing])))


# ---------------------------------------------------------------------------
# Residual checkpoints.

# Header fields of a residual checkpoint, in file order, each with an example
# of its type (see `fileio.load_checkpoint`).
RESIDUAL_HEADER = {"proprio_dim": 0, "command_dim": 0, "action_dim": 0, "hidden": [0],
                   "bound": 0.0, "layer_shapes": [[0]]}


def save_residual(res: ResidualPolicy, path) -> None:
    """Serialize the residual to JSON, its header read from its attributes."""
    save_checkpoint(path, "residual", RESIDUAL_HEADER, res)


def load_residual(path) -> ResidualPolicy:
    """Load a residual checkpoint; anything malformed or inconsistent raises
    CheckpointError naming the file."""
    return load_checkpoint(path, "residual", RESIDUAL_HEADER, ResidualPolicy)

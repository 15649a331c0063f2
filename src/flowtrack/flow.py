"""Flow-matching policy core: velocity-field network, training loss with exact
analytic gradients, Beta timestep sampling, reverse-time Euler action
sampling, Adam, the MLP layer check shared with the residual policy, and the
velocity-field checkpoint adapter.

The network regresses the straight-line transport direction u = eps - a_expert
at interpolated points a_t = (1 - t) * a_expert + t * eps; actions are drawn
by integrating the learned field from Gaussian noise at t = 1 down to t = 0.
Everything runs in double precision so finite-difference gradient checks stay
tight. The only nonlinearity used repo-wide is tanh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, ValidationError
from .fileio import load_checkpoint, save_checkpoint

# Caps on the net sizes a config sets, which allocate: hidden-layer widths of
# the flow and residual nets (see `check_widths`), the flow net's time
# embedding (its top frequency, pi 4^(dim/2 - 1), already passes 2^53 at dim
# 56), and the sampler's step count (each sample embeds every step's time).
MAX_LAYER_WIDTH = 4_096
MAX_TIME_EMBED_DIM = 64
MAX_SAMPLER_STEPS = 10_000


def check_widths(hidden) -> None:
    """Raise a ValidationError naming `hidden.<i>` for a hidden-layer width
    outside [1, MAX_LAYER_WIDTH]; a net calls it before allocating its layers."""
    for i, width in enumerate(hidden):
        if not 1 <= width <= MAX_LAYER_WIDTH:
            raise ValidationError(f"hidden.{i} must be in [1, {MAX_LAYER_WIDTH}], got {width}")


# ---------------------------------------------------------------------------
# Plain MLP machinery (shared with the residual policy in distill).

def mlp_init(sizes, rng) -> list:
    """He-style tanh init: W ~ N(0, 1/fan_in), zero biases. sizes = [in, ..., out]."""
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        params.append((W, np.zeros(fan_out)))
    return params


def mlp_zeros(sizes) -> list:
    return [(np.zeros((o, i)), np.zeros(o)) for i, o in zip(sizes[:-1], sizes[1:])]


def check_layers(params, sizes, what: str = "layer") -> None:
    """Raise DimensionError unless `params` holds one (W, b) block of shapes
    (out, in) and (out,) for each consecutive pair of `sizes`."""
    if len(params) != len(sizes) - 1:
        raise DimensionError(f"expected {len(sizes) - 1} {what}s for sizes {sizes}, "
                             f"got {len(params)}")
    for i, (W, b) in enumerate(params):
        if W.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
            raise DimensionError(
                f"{what} {i} shape {W.shape}/{b.shape} inconsistent with {sizes}")


def mlp_forward(params, x: np.ndarray) -> np.ndarray:
    """Forward pass; hidden layers tanh, final layer linear. x: (N, in).

    x may also be (G, m, in): G groups of m rows, each group one matrix
    product, bit-equal to calling with that group alone (a flat (G*m, in)
    product is not: BLAS rounds rows differently at another row count). Each
    (W, b) is then either shared or stacked per group, (G, out, in) with
    (G, 1, out) biases.
    """
    return _mlp_layers(params, x)[-1]


def _mlp_layers(params, x) -> list:
    """[x, hidden activations..., output] of the `mlp_forward` pass."""
    acts = [x]
    for W, b in params[:-1]:
        acts.append(np.tanh(acts[-1] @ W.mT + b))
    W, b = params[-1]
    acts.append(acts[-1] @ W.mT + b)
    return acts


def _mlp_backward(params, acts, d_out):
    """Gradients of all (W, b) given d(loss)/d(output) and the layer inputs
    `acts` (`_mlp_layers` without its output); returns same structure."""
    grads = [None] * len(params)
    d = d_out
    for layer in range(len(params) - 1, -1, -1):
        W, _ = params[layer]
        a_prev = acts[layer]
        grads[layer] = (d.T @ a_prev, d.sum(axis=0))
        if layer > 0:
            d = (d @ W) * (1.0 - acts[layer] ** 2)
    return grads


# ---------------------------------------------------------------------------
# Velocity-field network.

@dataclass
class VelocityFieldNet:
    """Feedforward velocity field v(a_t, t, obs) with sinusoidal time embedding.

    Input layout is [a_t, time_embed(t), obs]; output dim equals action_dim.
    """

    action_dim: int
    obs_dim: int
    hidden: tuple[int, ...] = (256, 256)
    time_embed_dim: int = 8
    alpha: float = 1.5
    beta: float = 1.0
    params: list = field(default_factory=list)

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        check_widths(self.hidden)
        if self.time_embed_dim % 2 != 0 or not 0 < self.time_embed_dim <= MAX_TIME_EMBED_DIM:
            raise ValidationError(f"time_embed_dim must be an even number in "
                                  f"[2, {MAX_TIME_EMBED_DIM}], got {self.time_embed_dim}")
        for name in ("alpha", "beta"):  # the Beta shape parameters
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.params:
            self.params = mlp_zeros(self.layer_sizes)
        check_layers(self.params, self.layer_sizes)

    @property
    def input_dim(self) -> int:
        return self.action_dim + self.time_embed_dim + self.obs_dim

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden, self.action_dim]


def init_net(action_dim: int, obs_dim: int, *, rng=None, **settings) -> VelocityFieldNet:
    """Randomly initialized velocity field (zero-initialized when rng is None);
    `settings` are `VelocityFieldNet` fields (hidden, time_embed_dim, alpha,
    beta), each defaulting to the dataclass's."""
    net = VelocityFieldNet(action_dim, obs_dim, **settings)
    if rng is not None:
        net.params = mlp_init(net.layer_sizes, rng)
    return net


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal features [sin(pi 4^k t), cos(pi 4^k t)], k = 0..dim/2-1.

    The geometric frequency ladder reaches high enough to resolve the small-t
    region where the straight-line field is steepest.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    k = np.arange(dim // 2)
    ang = np.pi * (4.0 ** k) * t[:, None]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def _input_rows(net: VelocityFieldNet, a, emb: np.ndarray, obs):
    """[a, emb, obs] rows checked against the net's dims; `emb` holds one
    time-embedding row per action row."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if a.shape[-1] != net.action_dim:
        raise DimensionError(f"action dim {a.shape[-1]} != net action dim {net.action_dim}")
    if obs.shape[-1] != net.obs_dim:
        raise DimensionError(f"obs dim {obs.shape[-1]} != net obs dim {net.obs_dim}")
    return np.concatenate([a, emb, obs], axis=-1)


def _assemble_input(net: VelocityFieldNet, a, t, obs):
    n = np.atleast_2d(a).shape[0]
    t = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=float)), (n,))
    return _input_rows(net, a, time_embedding(t, net.time_embed_dim), obs)


def forward(net: VelocityFieldNet, a, t, obs) -> np.ndarray:
    """Evaluate the velocity field; returns the same leading shape as `a`."""
    single = np.asarray(a).ndim == 1
    out = mlp_forward(net.params, _assemble_input(net, a, t, obs))
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Training objective.

@dataclass(frozen=True)
class FMBatch:
    """Paired (observation, expert action) rows for one gradient step."""

    observations: np.ndarray
    expert_actions: np.ndarray

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        act = np.atleast_2d(np.asarray(self.expert_actions, dtype=float))
        if obs.shape[0] != act.shape[0]:
            raise DimensionError(f"row counts differ: {obs.shape[0]} vs {act.shape[0]}")
        if obs.shape[0] < 1:
            raise DimensionError("batch must be non-empty")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "expert_actions", act)

    def __len__(self) -> int:
        return self.observations.shape[0]


@dataclass(frozen=True)
class SamplerCfg:
    """Euler-sampler configuration. The training timestep distribution is the
    net's own Beta(alpha, beta)."""

    steps: int = 5

    def __post_init__(self):
        if not 1 <= self.steps <= MAX_SAMPLER_STEPS:
            raise ValidationError(f"steps must be in [1, {MAX_SAMPLER_STEPS}], got {self.steps}")


def fm_loss(net: VelocityFieldNet, batch: FMBatch, t: np.ndarray, eps: np.ndarray) -> float:
    """Flow-matching loss for given noise draws (used by gradient oracles)."""
    a_t = (1.0 - t[:, None]) * batch.expert_actions + t[:, None] * eps
    u = eps - batch.expert_actions
    v = mlp_forward(net.params, _assemble_input(net, a_t, t, batch.observations))
    return float(np.mean(np.sum((v - u) ** 2, axis=1)))


def fm_loss_and_grad_at(net: VelocityFieldNet, batch: FMBatch, t: np.ndarray,
                        eps: np.ndarray) -> tuple[float, list]:
    """Loss and exact parameter gradients at fixed (t, eps) draws."""
    n = len(batch)
    a_t = (1.0 - t[:, None]) * batch.expert_actions + t[:, None] * eps
    u = eps - batch.expert_actions
    x = _assemble_input(net, a_t, t, batch.observations)
    *acts, v = _mlp_layers(net.params, x)
    resid = v - u
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grads = _mlp_backward(net.params, acts, 2.0 * resid / n)
    return loss, grads


def fm_loss_and_grad(net: VelocityFieldNet, batch: FMBatch, rng) -> tuple[float, list]:
    """Draw per-sample (t, eps) and return the loss with exact gradients."""
    n = len(batch)
    t = rng.beta(net.alpha, net.beta, size=n)
    eps = rng.standard_normal((n, net.action_dim))
    return fm_loss_and_grad_at(net, batch, t, eps)


# ---------------------------------------------------------------------------
# Action sampling.

def euler_sample(net: VelocityFieldNet, obs, cfg: SamplerCfg, rng) -> np.ndarray:
    """Integrate the field from Gaussian noise at t=1 to an action at t=0.

    x starts at N(0, I); each of the D steps applies x <- x - v(x, t, obs)/D
    at t = 1 - k/D. `obs` is one observation with one Generator, or (N,
    obs_dim) rows with a list of N Generators: each row draws its noise from
    its own stream, so its action does not depend on the rows beside it.
    (G, m, obs_dim) rows with G*m Generators (row-major) are G groups, each
    bit-equal to sampling its m rows alone (see `mlp_forward`).
    """
    D, A, E = cfg.steps, net.action_dim, net.time_embed_dim
    single = np.ndim(obs) == 1
    if single:
        x = rng.standard_normal(A)
    else:
        x = np.array([r.standard_normal(A) for r in rng]).reshape(*np.shape(obs)[:-1], A)
    # [x, time_embed(t), obs] rows, assembled and checked once; each step
    # writes the time-embedding columns and rewrites the action columns
    emb = time_embedding(1.0 - np.arange(D) / D, E)
    inp = _input_rows(net, x, np.empty((*(np.shape(obs)[:-1] or (1,)), E)), obs)
    for k in range(D):
        inp[..., A:A + E] = emb[k]
        v = mlp_forward(net.params, inp)
        x = x - (v[0] if single else v) / D
        inp[..., :A] = x
    return x


# ---------------------------------------------------------------------------
# Optimizer.

@dataclass
class AdamState:
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(params: list, grads: list, state: AdamState, lr: float = 1e-3):
    """One bias-corrected Adam update with betas (0.9, 0.999) and eps 1e-8;
    returns (new_params, new_state)."""
    if len(params) != len(grads):
        raise DimensionError("params and grads disagree on layer count")
    if not state.m:
        state.m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        state.v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = state.step + 1
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    new_params, new_m, new_v = [], [], []
    for (W, b), (gW, gb), (mW, mb), (vW, vb) in zip(params, grads, state.m, state.v):
        mW = b1 * mW + (1 - b1) * gW
        mb = b1 * mb + (1 - b1) * gb
        vW = b2 * vW + (1 - b2) * gW ** 2
        vb = b2 * vb + (1 - b2) * gb ** 2
        W = W - lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
        b = b - lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        new_params.append((W, b))
        new_m.append((mW, mb))
        new_v.append((vW, vb))
    return new_params, AdamState(step=step, m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# Checkpoints.

# Header fields of a velocity-field checkpoint, in file order, each with an
# example of its type (see `fileio.load_checkpoint`).
POLICY_HEADER = {"action_dim": 0, "obs_dim": 0, "layer_shapes": [[0]], "hidden": [0],
                 "time_embed_dim": 0, "activation": "", "alpha": 0.0, "beta": 0.0}


def save_policy(net: VelocityFieldNet, path) -> None:
    """Serialize the net to JSON; parameters round-trip bit-exactly."""
    save_checkpoint(path, "velocity_field", POLICY_HEADER, {
        "action_dim": net.action_dim, "obs_dim": net.obs_dim, "hidden": list(net.hidden),
        "time_embed_dim": net.time_embed_dim, "activation": "tanh",
        "alpha": net.alpha, "beta": net.beta}, net.params)


def _build_policy(header: dict, params: list) -> VelocityFieldNet:
    activation = header.pop("activation")
    if activation != "tanh":
        raise ValidationError(f"unknown activation '{activation}'")
    return VelocityFieldNet(**header, params=params)


def load_policy(path) -> VelocityFieldNet:
    """Load a velocity-field checkpoint; anything malformed or inconsistent
    raises CheckpointError naming the file."""
    return load_checkpoint(path, "velocity_field", POLICY_HEADER, _build_policy)


def clone_net(net: VelocityFieldNet) -> VelocityFieldNet:
    return replace(net, params=[(W.copy(), b.copy()) for W, b in net.params])

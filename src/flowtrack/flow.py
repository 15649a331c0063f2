"""Flow-matching policy core: velocity-field network, training loss with exact
analytic gradients, Beta timestep sampling, reverse-time Euler action
sampling, Adam, the layer constructor shared with the residual policy, and
the velocity-field checkpoint adapter.

The network regresses the straight-line transport direction u = eps - a_expert
at interpolated points a_t = (1 - t) * a_expert + t * eps; actions are drawn
by integrating the learned field from Gaussian noise at t = 1 down to t = 0.
Everything runs in double precision so finite-difference gradient checks stay
tight. The only nonlinearity used repo-wide is tanh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ValidationError
from .fileio import Default, load_checkpoint, require, save_checkpoint

# Caps on the net sizes a config sets, which allocate: hidden-layer widths of
# the flow and residual nets (see `init_layers`), the flow net's time
# embedding (its top frequency, pi 4^(dim/2 - 1), already passes 2^53 at dim
# 56), and the sampler's step count (each sample embeds every step's time).
MAX_LAYER_WIDTH = 4_096
MAX_TIME_EMBED_DIM = 64
MAX_SAMPLER_STEPS = 10_000


# ---------------------------------------------------------------------------
# Plain MLP machinery (shared with the residual policy in distill).

def mlp_init(sizes, rng) -> list:
    """He-style tanh init: W ~ N(0, 1/fan_in), zero biases. sizes = [in, ..., out]."""
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        params.append((W, np.zeros(fan_out)))
    return params


def init_layers(net, what: str = "layer") -> None:
    """Give `net` (a velocity field or a residual) its layers once it has
    checked its own fields: each `hidden` width in [1, MAX_LAYER_WIDTH] (a
    ValidationError naming `hidden.<i>`, before anything is allocated), zero
    layers when it has no params, and one (W, b) block of shapes (out, in)
    and (out,) per pair of `layer_sizes` (a DimensionError naming a `what`)."""
    net.hidden = tuple(net.hidden)
    for i, width in enumerate(net.hidden):
        require(f"hidden.{i}", width, 1 <= width <= MAX_LAYER_WIDTH, f"in [1, {MAX_LAYER_WIDTH}]")
    sizes, params = net.layer_sizes, net.params
    if not params:
        params = net.params = [(np.zeros((o, i)), np.zeros(o))
                               for i, o in zip(sizes[:-1], sizes[1:])]
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


def _mlp_layers(params, x, out=None) -> list:
    """[x, hidden activations..., output] of the `mlp_forward` pass.

    Each layer is computed in place: its product goes to a buffer, then the
    bias and the tanh are applied to that buffer. `out`, when given, holds one
    buffer per layer (a `GradWorkspace`'s `acts`); without it each product
    allocates its own."""
    acts = [x]
    last = len(params) - 1
    for i, ((W, b), buf) in enumerate(zip(params, out or [None] * len(params))):
        h = np.matmul(acts[-1], W.mT, out=buf)
        np.add(h, b, out=h)
        if i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def _mlp_backward(params, acts, d_out, ws):
    """Gradients of all (W, b) given d(loss)/d(output) and the layer inputs
    `acts` (`_mlp_layers` without its output), written into the buffers of
    `ws`, a `GradWorkspace`, whose `grads` blocks are returned.

    Each product, sum and slope is computed in place. A hidden activation is
    overwritten by its tanh slope 1 - a*a once its layer's gradient is taken.
    """
    d = d_out
    for layer in range(len(params) - 1, -1, -1):
        W, _ = params[layer]
        a_prev = acts[layer]
        gW, gb = ws.grads[layer]
        np.matmul(d.T, a_prev, out=gW)
        np.sum(d, axis=0, out=gb)
        if layer > 0:
            slope = np.multiply(a_prev, a_prev, out=a_prev)
            np.subtract(1.0, slope, out=slope)
            d = np.matmul(d, W, out=ws.deltas[layer])
            np.multiply(d, slope, out=d)
    return ws.grads


# ---------------------------------------------------------------------------
# Velocity-field network.

@dataclass
class VelocityFieldNet:
    """Feedforward velocity field v(a_t, t, obs) with sinusoidal time embedding.

    Input layout is [a_t, time_embed(t), obs]; output dim equals action_dim.
    """

    activation = "tanh"  # of the hidden layers; a class constant, not a field
    action_dim: int
    obs_dim: int
    hidden: tuple[int, ...] = (256, 256)
    time_embed_dim: int = 8
    alpha: float = 1.5
    beta: float = 1.0
    sampler_steps: int = 5
    params: list = field(default_factory=list)

    def __post_init__(self):
        dim, steps = self.time_embed_dim, self.sampler_steps
        require("time_embed_dim", dim, dim % 2 == 0 and 0 < dim <= MAX_TIME_EMBED_DIM,
                f"an even number in [2, {MAX_TIME_EMBED_DIM}]")
        require("sampler_steps", steps, type(steps) is int and 1 <= steps <= MAX_SAMPLER_STEPS,
                f"an integer in [1, {MAX_SAMPLER_STEPS}]")
        for name in ("alpha", "beta"):  # the Beta shape parameters
            require(name, getattr(self, name), getattr(self, name) > 0, "positive")
        init_layers(self)

    @property
    def input_dim(self) -> int:
        return self.action_dim + self.time_embed_dim + self.obs_dim

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden, self.action_dim]


def init_net(action_dim: int, obs_dim: int, *, rng=None, **settings) -> VelocityFieldNet:
    """Randomly initialized velocity field (zero-initialized when rng is None);
    `settings` are `VelocityFieldNet` fields (hidden, time_embed_dim, alpha,
    beta, sampler_steps), each defaulting to the dataclass's."""
    net = VelocityFieldNet(action_dim, obs_dim, **settings)
    if rng is not None:
        net.params = mlp_init(net.layer_sizes, rng)
    return net


def time_embedding(t, dim: int, out=None) -> np.ndarray:
    """Sinusoidal features [sin(pi 4^k t), cos(pi 4^k t)], k = 0..dim/2-1,
    one row per t, written into `out` (len(t), dim) when given.

    The geometric frequency ladder reaches high enough to resolve the small-t
    region where the straight-line field is steepest.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = dim // 2
    ang = np.pi * (4.0 ** np.arange(half)) * t[:, None]
    if out is None:
        out = np.empty((t.shape[0], dim))
    np.sin(ang, out=out[:, :half])
    np.cos(ang, out=out[:, half:])
    return out


@lru_cache(maxsize=4)
def _sampler_embedding(steps: int, dim: int) -> np.ndarray:
    """Read-only time embeddings of the D sampler times t = 1 - k/D."""
    emb = time_embedding(1.0 - np.arange(steps) / steps, dim)
    emb.flags.writeable = False
    return emb


def _input_rows(net: VelocityFieldNet, a, t, obs, out=None):
    """[a, time_embedding(t), obs] rows checked against the net's dims,
    written into `out` (a fresh array when None). `t` is one time for every
    row or one per row, or None when the caller writes the embedding columns
    itself."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if a.shape[-1] != net.action_dim:
        raise DimensionError(f"action dim {a.shape[-1]} != net action dim {net.action_dim}")
    if obs.shape[-1] != net.obs_dim:
        raise DimensionError(f"obs dim {obs.shape[-1]} != net obs dim {net.obs_dim}")
    A, E = net.action_dim, net.time_embed_dim
    out = np.empty((*a.shape[:-1], net.input_dim)) if out is None else out
    out[..., :A] = a
    if t is not None:
        time_embedding(np.broadcast_to(t, a.shape[:1]), E, out=out[:, A:A + E])
    out[..., A + E:] = obs
    return out


def forward(net: VelocityFieldNet, a, t, obs) -> np.ndarray:
    """Evaluate the velocity field; returns the shape of `a` (one action is
    a batch of one row)."""
    return mlp_forward(net.params, _input_rows(net, a, t, obs)).reshape(np.shape(a))


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


class GradWorkspace:
    """The buffers of one flow-matching gradient step of `net` on `rows`
    rows: the sampled batch (`ReplayBuffer.sample_batch`), the [a_t, time
    embedding, obs] input, each layer's activations, each hidden layer's
    backpropagated gradient and the (W, b) gradient blocks. A step that uses
    it allocates no array of the batch's size; the gradients it returns are
    the `grads` buffers, which the next step overwrites."""

    def __init__(self, net: VelocityFieldNet, rows: int):
        sizes = net.layer_sizes
        self.sizes, self.rows = sizes, rows
        self.batch = FMBatch(np.empty((rows, net.obs_dim)), np.empty((rows, net.action_dim)))
        self.x = np.empty((rows, sizes[0]))
        self.acts = [np.empty((rows, width)) for width in sizes[1:]]
        # deltas[i] is d(loss)/d(hidden activation i); the input has none
        self.deltas = [None, *(np.empty((rows, width)) for width in sizes[1:-1])]
        self.grads = [(np.empty((o, i)), np.empty(o)) for i, o in zip(sizes[:-1], sizes[1:])]


def fm_loss(net: VelocityFieldNet, batch: FMBatch, t: np.ndarray, eps: np.ndarray) -> float:
    """Flow-matching loss for given noise draws (used by gradient oracles)."""
    a_t = (1.0 - t[:, None]) * batch.expert_actions + t[:, None] * eps
    u = eps - batch.expert_actions
    v = mlp_forward(net.params, _input_rows(net, a_t, t, batch.observations))
    return float(np.mean(np.sum((v - u) ** 2, axis=1)))


def fm_loss_and_grad_at(net: VelocityFieldNet, batch: FMBatch, t: np.ndarray,
                        eps: np.ndarray, ws: GradWorkspace | None = None) -> tuple[float, list]:
    """Loss and exact parameter gradients at fixed (t, eps) draws.

    The step's input, activations and gradients are written into `ws`, a
    `GradWorkspace` for the net's layer sizes and the batch's row count, and
    the returned gradients alias it. Without one the step builds its own, so
    the gradients are the caller's.
    """
    n = len(batch)
    if ws is None:
        ws = GradWorkspace(net, n)
    elif (ws.rows, ws.sizes) != (n, net.layer_sizes):
        raise DimensionError(f"workspace for {ws.rows} rows of sizes {ws.sizes} used for "
                             f"{n} rows of sizes {net.layer_sizes}")
    a_t = (1.0 - t[:, None]) * batch.expert_actions + t[:, None] * eps
    u = eps - batch.expert_actions
    x = _input_rows(net, a_t, t, batch.observations, ws.x)
    *acts, v = _mlp_layers(net.params, x, ws.acts)
    resid = v - u
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    grads = _mlp_backward(net.params, acts, 2.0 * resid / n, ws)
    return loss, grads


def fm_loss_and_grad(net: VelocityFieldNet, batch: FMBatch, rng,
                     ws: GradWorkspace | None = None) -> tuple[float, list]:
    """Draw per-sample (t, eps) and return the loss with exact gradients
    (written into `ws`, see `fm_loss_and_grad_at`)."""
    n = len(batch)
    t = rng.beta(net.alpha, net.beta, size=n)
    eps = rng.standard_normal((n, net.action_dim))
    return fm_loss_and_grad_at(net, batch, t, eps, ws)


# ---------------------------------------------------------------------------
# Action sampling.

def euler_sample(net: VelocityFieldNet, obs, noise) -> np.ndarray:
    """Integrate the field from Gaussian noise at t=1 to an action at t=0.

    x starts at N(0, I); each of the net's D = `sampler_steps` steps applies
    x <- x - v(x, t, obs)/D at t = 1 - k/D. `noise` is that start: an array
    of the actions' shape, one action row per observation row, or one
    Generator, which draws it as `standard_normal(shape)`, in row order. One
    observation is the batch of one row, returned as one action; (G, m,
    obs_dim) rows are G groups, each bit-equal to sampling its m rows alone
    (see `mlp_forward`).
    """
    D, A, E = net.sampler_steps, net.action_dim, net.time_embed_dim
    shape = (*np.shape(obs)[:-1], A)
    x = noise.standard_normal(shape) if isinstance(noise, np.random.Generator) else noise
    if not (isinstance(x, np.ndarray) and x.shape == shape):
        raise DimensionError(f"noise of shape {np.shape(x)} for actions of shape {shape}")
    # [x, time_embed(t), obs] rows, assembled and checked once; each step
    # writes the time-embedding columns and rewrites the action columns
    emb = _sampler_embedding(D, E)
    inp = _input_rows(net, x, None, obs)
    for k in range(D):
        inp[..., A:A + E] = emb[k]
        v = mlp_forward(net.params, inp)
        x = x - v.reshape(x.shape) / D
        inp[..., :A] = x
    return x


# ---------------------------------------------------------------------------
# Optimizer.

@dataclass
class AdamState:
    """Step count and per-block first and second moments. `scratch` holds the
    update's two temporaries: flat buffers the size of the largest block."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    scratch: tuple = ()


def adam_step(params: list, grads: list, state: AdamState, lr: float = 1e-3):
    """One bias-corrected Adam update with betas (0.9, 0.999) and eps 1e-8,
    made in place on the arrays of `params` and `state`; returns (params,
    state). Each moment and parameter is the plain expression of its comment,
    evaluated in the same order into a buffer, so the bits are those of it."""
    if len(params) != len(grads):
        raise DimensionError("params and grads disagree on layer count")
    if not state.m:
        state.m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        state.v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        size = max(W.size for W, _ in params)
        state.scratch = (np.empty(size), np.empty(size))
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for blocks in zip(params, grads, state.m, state.v):
        for p, g, m, v in zip(*blocks):
            s, r = (buf[:p.size].reshape(p.shape) for buf in state.scratch)
            # m = b1 * m + (1 - b1) * g
            np.multiply(b1, m, out=m)
            np.add(m, np.multiply(1 - b1, g, out=s), out=m)
            # v = b2 * v + (1 - b2) * g ** 2
            np.multiply(b2, v, out=v)
            np.add(v, np.multiply(1 - b2, np.multiply(g, g, out=s), out=s), out=v)
            # p = p - lr * (m / c1) / (np.sqrt(v / c2) + eps)
            np.add(np.sqrt(np.divide(v, c2, out=s), out=s), eps, out=s)
            np.divide(np.multiply(lr, np.divide(m, c1, out=r), out=r), s, out=r)
            np.subtract(p, r, out=p)
    return params, state


# ---------------------------------------------------------------------------
# Checkpoints.

# Header fields of a velocity-field checkpoint, in file order, each with an
# example of its type (see `fileio.load_checkpoint`); files without a step count sampled with 5.
POLICY_HEADER = {"action_dim": 0, "obs_dim": 0, "layer_shapes": [[0]], "hidden": [0],
                 "time_embed_dim": 0, "activation": "", "alpha": 0.0, "beta": 0.0,
                 "sampler_steps": Default(5)}


def save_policy(net: VelocityFieldNet, path) -> None:
    """Serialize the net to JSON, its header read from its attributes;
    parameters round-trip bit-exactly."""
    save_checkpoint(path, "velocity_field", POLICY_HEADER, net)


def _build_policy(activation: str, **fields) -> VelocityFieldNet:
    if activation != VelocityFieldNet.activation:
        raise ValidationError(f"unknown activation '{activation}'")
    return VelocityFieldNet(**fields)


def load_policy(path) -> VelocityFieldNet:
    """Load a velocity-field checkpoint; anything malformed or inconsistent
    raises CheckpointError naming the file."""
    return load_checkpoint(path, "velocity_field", POLICY_HEADER, _build_policy)


def clone_net(net):
    """A copy of `net` (a velocity field or a residual) with its own parameters."""
    return replace(net, params=[(W.copy(), b.copy()) for W, b in net.params])

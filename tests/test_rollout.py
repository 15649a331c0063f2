"""Batched rollout engine: every row of a `rollout_batch` is the episode that
`rollout_episode` gives for the same seed alone, every row group is the batch
its triple gives alone, `evaluate_policy` is the per-clip loop, the
speculative ES is the sequential one, and the speculative DAgger is the
episode-by-episode loop with per-step labels."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtrack import distill, metrics
from flowtrack.distill import (DistillCfg, ESCfg, ReplayBuffer, _flatten, _unflatten,
                               dagger_train, episode_return, es_refine, evaluate_policy,
                               hash_seed, rollout_batch, rollout_episode)
from flowtrack.actuation import ActuatorParams
from flowtrack.env import (MAX_DISTURBANCE, ArmEnv, ExpertPolicy, RandomizationCfg, _disturbances,
                           _solve, expert_action)
from flowtrack.errors import DimensionError, ValidationError
from flowtrack.flow import FMBatch, clone_net, euler_sample, init_net
from flowtrack.motion import finite_difference, segment_clips

from conftest import NO_RANDOMIZATION, make_sine

# A 0.9 Hz motion the untrained policy below tracks for a while: in base mode
# some of its episodes run to time-out and the others terminate early, at
# seed-dependent steps, so batches shrink while they run.
MOTION = make_sine((0.5, 0.4), 0.9, phase=(0.0, 0.6), duration=4.0)
ENV = ArmEnv({"episode_len": 60})
NET = init_net(2, ENV.obs_dim, hidden=(16,), rng=np.random.default_rng(0))
RESIDUAL = distill.init_residual(ENV, hidden=(8,), bound=0.4, rng=np.random.default_rng(1))
# a fresh residual has a zero output layer; give it one so it acts
RESIDUAL.params[-1] = (np.random.default_rng(2).standard_normal(RESIDUAL.params[-1][0].shape),
                       RESIDUAL.params[-1][1])


@settings(max_examples=8, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=5),
       mode=st.sampled_from(["base", "aggressive"]), with_residual=st.booleans())
def test_batch_rows_match_single_episodes(seeds, mode, with_residual):
    residual = RESIDUAL if with_residual else None
    log, = rollout_batch(ENV, NET, [(MOTION, seeds, residual)], mode=mode)
    T = ENV.episode_len
    assert log["rewards"].shape == (T, len(seeds))
    assert log["body_pos"].shape == (T, len(seeds), 2, 3)
    for i, seed in enumerate(seeds):
        one = rollout_episode(ENV, NET, MOTION, seed, residual=residual, mode=mode)
        steps = one["steps"][0]
        assert log["steps"][i] == steps
        assert log["terminated_early"][i] == one["terminated_early"][0]
        np.testing.assert_allclose(log["body_pos"][:steps, i], one["body_pos"][:steps, 0],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(log["rewards"][:steps, i], one["rewards"][:steps, 0],
                                   rtol=0, atol=1e-9)
        assert not log["rewards"][steps:, i].any()


def test_motion_gives_both_outcomes():
    """The oracle above sees early terminations and time-outs in one batch."""
    log, = rollout_batch(ENV, NET, [(MOTION, list(range(12)), None)])
    assert log["terminated_early"].any() and not log["terminated_early"].all()
    assert len(set(log["steps"].tolist())) > 2


def test_single_episode_log():
    """A single episode's log is its group's log, a group of one seed."""
    one = rollout_episode(ENV, NET, MOTION, 3)
    log, = rollout_batch(ENV, NET, [(MOTION, [3], None)])
    assert one.keys() == log.keys()
    for key, value in one.items():
        assert value.dtype == log[key].dtype and np.array_equal(value, log[key]), key
    T, steps = ENV.episode_len, one["steps"][0]
    assert one["rewards"].shape == one["q_err"].shape == (T, 1)
    assert one["body_pos"].shape == one["ref_body_pos"].shape == (T, 1, 2, 3)
    assert one["steps"].shape == one["terminated_early"].shape == (1,)
    assert not one["rewards"][steps:].any()
    assert distill.episode_return(one, ENV.episode_len, -1.0) == (
        float(np.sum(one["rewards"][:steps, 0])) - (ENV.episode_len - steps))


def test_seeded_evaluate_reruns_identical():
    runs = [evaluate_policy(NET, ENV, {"m": MOTION}, residual=RESIDUAL, n_rollouts=4, seed=7)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["m"].n_episodes == 4


def test_seeded_es_refine_reruns_identical():
    cfg = ESCfg(generations=2, population=2, episodes_per_eval=3, seed=5)
    runs = [es_refine(NET, RESIDUAL, ENV, MOTION, cfg) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    for (W1, b1), (W2, b2) in zip(runs[0][0].params, runs[1][0].params):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)


def _variant(seed: int, scale: float = 0.3):
    """RESIDUAL with every parameter perturbed by seeded noise."""
    theta = _flatten(RESIDUAL.params)
    theta = theta + scale * np.random.default_rng(seed).standard_normal(theta.shape)
    return replace(RESIDUAL, params=_unflatten(theta, RESIDUAL.params))


def test_row_groups_match_separate_batches():
    """Each row group of a multi-group batch is bit-equal to a batch of its
    residual alone, while episodes end at different steps within and across
    groups (so the groups run ragged)."""
    seeds = [3, 10, 9, 7]
    groups = [RESIDUAL, _variant(1), _variant(2), _variant(3, scale=1.0), _variant(4)]
    logs = rollout_batch(ENV, NET, [(MOTION, seeds, res) for res in groups])
    assert len(logs) == len(groups)
    steps = [tuple(log["steps"]) for log in logs]
    ended = np.concatenate([log["terminated_early"] for log in logs])
    assert ended.any() and not ended.all()
    assert len(set(steps)) > 1 and len(set(steps[0])) > 1
    for log, res in zip(logs, groups):
        alone, = rollout_batch(ENV, NET, [(MOTION, seeds, res)])
        assert log.keys() == alone.keys()
        for key, value in alone.items():
            assert np.array_equal(log[key], value), key


# ---------------------------------------------------------------------------
# Shared streams: the rows of one seed draw from one stream pair, once per
# step, and each still gets the draws of its episode alone.

# a residual per group, of other scales, so that rows of one stream end at
# different steps and the running set's row -> stream index is rebuilt
SHARED_RESIDUALS = [_variant(1), _variant(3, scale=1.0), _variant(5, scale=0.6)]


def assert_logs_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.keys() == b.keys()
        for key, value in b.items():
            assert a[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("mode", ["base", "aggressive"])
def test_shared_generators_equal_rows_on_copies(mode):
    """Rows given one Generator object share its draws: the batch equals the
    same batch with a `copy.deepcopy` of the stream in each row, bit for bit,
    and each shared stream ends where its longest row's episode leaves it."""
    def layout(g):  # g[0] twice in group 0 and once in each other group
        return [[g[0], g[1], g[0]], [g[1], g[0]], [g[0]]]

    gens = [np.random.default_rng(s) for s in (7, 8)]
    start = copy.deepcopy(gens)
    shared = rollout_batch(ENV, NET, [(MOTION, seeds, res) for seeds, res in
                                      zip(layout(gens), SHARED_RESIDUALS)], mode=mode)
    copies = rollout_batch(ENV, NET, [(MOTION, [copy.deepcopy(g) for g in seeds], res)
                                      for seeds, res in zip(layout(start), SHARED_RESIDUALS)],
                           mode=mode)
    assert_logs_equal(shared, copies)
    rows = [(k, res, int(steps)) for seeds, res, log in
            zip(layout([0, 1]), SHARED_RESIDUALS, shared) for k, steps in zip(seeds, log["steps"])]
    assert len({steps for k, _, steps in rows if k == 0}) > 1  # g[0]'s rows end apart
    for k, gen in enumerate(gens):
        _, res, _ = max((row for row in rows if row[0] == k), key=lambda row: row[2])
        alone = copy.deepcopy(start[k])
        rollout_batch(ENV, NET, [(MOTION, [alone], res)], mode=mode)
        assert gen.bit_generator.state == alone.bit_generator.state


def test_repeated_seeds_equal_separate_group_batches():
    """A seed repeated within a group and across groups is one stream pair
    in the batch; each group's log is still the batch of its triple alone."""
    seeds = [[5, 5, 9], [9, 5], [5]]
    groups = list(zip(seeds, SHARED_RESIDUALS))
    logs = rollout_batch(ENV, NET, [(MOTION, s, res) for s, res in groups], mode="aggressive")
    assert len({int(log["steps"][list(s).index(5)]) for (s, _), log in zip(groups, logs)}) > 1
    assert_logs_equal(logs, [rollout_batch(ENV, NET, [(MOTION, s, res)], mode="aggressive")[0]
                             for s, res in groups])
    assert np.array_equal(logs[0]["body_pos"][:, 0], logs[0]["body_pos"][:, 1])


def test_euler_sample_from_noise_is_its_generator_form():
    """Starting noise drawn from a copy of the Generator gives the actions of
    the Generator form, bit for bit, for one row, N rows and G groups."""
    rng = np.random.default_rng(4)
    obs = rng.standard_normal((6, NET.obs_dim))
    for rows in (obs[0], obs, obs.reshape(2, 3, -1)):
        gen = np.random.default_rng(1)
        noise = copy.deepcopy(gen).standard_normal((*rows.shape[:-1], NET.action_dim))
        want = euler_sample(NET, rows, gen)
        got = euler_sample(NET, rows, noise)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a stream per row, drawn into the noise: each (3, ...) group of the
    # (2, 3, ...) rows is its 3 rows sampled alone
    noise = np.array([np.random.default_rng(s).standard_normal(NET.action_dim) for s in range(6)])
    groups = euler_sample(NET, obs.reshape(2, 3, -1), noise.reshape(2, 3, -1))
    for g, group in enumerate(groups):
        alone = euler_sample(NET, obs[3 * g:3 * g + 3], noise[3 * g:3 * g + 3])
        assert group.tobytes() == alone.tobytes()
    for bad in (np.zeros((5, NET.action_dim)), [np.random.default_rng(s) for s in range(6)]):
        with pytest.raises(DimensionError, match="noise of shape"):
            euler_sample(NET, obs, bad)


class CountingStream(np.random.Generator):
    """A child stream that counts its calls of the policy's starting noise
    (`standard_normal`) and of the step's disturbance (`random`)."""

    calls = {"noise": 0, "disturbance": 0}

    def standard_normal(self, *args, **kwargs):
        self.calls["noise"] += 1
        return super().standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls["disturbance"] += 1
        return super().random(*args, **kwargs)


class SpawnsCounting(np.random.Generator):
    """`np.random.default_rng(seed)`, whose children count their draws."""

    def spawn(self, n_children):
        return [CountingStream(bg) for bg in self.bit_generator.spawn(n_children)]


def test_refine_batches_draw_once_per_seed_per_step(monkeypatch):
    """An ES generation of six candidates runs a batch of 8 groups of the 3
    evaluation seeds, then one of 7: each step draws one starting noise and
    one disturbance per seed with a running row, 3 + 3 at the first step
    instead of 24 + 24, then 21 + 21. The counting streams give the bits of
    the real ones. Tight thresholds end rows at different steps, so the
    running set shrinks and a seed's stream stops once its last row ends."""
    cfg = ESCfg(generations=1, population=6, episodes_per_eval=3, sigma=0.3, seed=2)
    config = {"episode_len": 60, "thresholds": {"z_err_max": 0.1, "grav_err_max": 0.4,
                                                "relax_factor": 1.5}}
    want = es_refine(NET, RESIDUAL, ArmEnv(config), MOTION, cfg)
    env = ArmEnv(config)
    step_batch, per_step = env.step_batch, []

    def counted(actions, base_actions=None):
        calls, running, first = CountingStream.calls, env.running, env.step_count == 0
        noise, calls["disturbance"] = calls["noise"], 0
        out = step_batch(actions, base_actions)
        # a group holds the 3 seeds in order, so row r runs on seed r % 3
        per_step.append((first, running.size, len(set((running % 3).tolist())), noise,
                         calls["disturbance"]))
        calls["noise"] = 0
        return out

    monkeypatch.setattr(CountingStream, "calls", {"noise": 0, "disturbance": 0})
    monkeypatch.setattr(env, "step_batch", counted)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seed if isinstance(
        seed, np.random.Generator) else SpawnsCounting(np.random.PCG64(seed)))
    got = es_refine(NET, RESIDUAL, env, MOTION, cfg)
    assert np.array_equal(_flatten(got[0].params), _flatten(want[0].params))
    assert got[1] == want[1]
    assert [entry[1:] for entry in per_step if entry[0]] == [(24, 3, 3, 3), (21, 3, 3, 3)]
    assert all(noise == disturbance == seeds for _, _, seeds, noise, disturbance in per_step)
    assert len({rows for _, rows, *_ in per_step}) > 2  # rows end at other steps
    assert any(seeds < 3 for _, _, seeds, *_ in per_step)


def test_refine_batch_spawns_one_stream_pair_per_seed(monkeypatch):
    """A `refine`-shaped batch, 8 groups of the same 3 evaluation seeds,
    spawns 3 (env, policy) stream pairs, one per distinct seed, not 24, and
    its logs are those of the unpatched run."""
    groups = [(MOTION, [5, 6, 7], _variant(k, scale=0.3)) for k in range(8)]
    want = rollout_batch(ENV, NET, groups)
    spawns = []

    class Counted(np.random.Generator):
        def spawn(self, n_children):
            spawns.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: seed if isinstance(
        seed, np.random.Generator) else Counted(np.random.PCG64(seed)))
    assert_logs_equal(rollout_batch(ENV, NET, groups), want)
    assert spawns == [2, 2, 2]


def test_residual_input_is_cut_from_the_observation(monkeypatch):
    """At every step the residual's input rows are [q - q0, qdot, the total
    action the episode applied last step (zeros at step 0), command, base
    action] of the running episodes, rebuilt here from the env state, while
    the middle episode terminates early and the batch shrinks."""
    env = ArmEnv({"episode_len": 60})
    applied = np.zeros((3, 2))  # last total action of each episode
    step_batch = env.step_batch

    def recording_step(actions, base_actions=None):
        applied[env.running] = actions
        return step_batch(actions, base_actions)

    fed = []  # the input of each residual product of the current step
    mlp_forward = distill.mlp_forward

    def recording_forward(params, x):
        fed.append(x)
        return mlp_forward(params, x)

    seen, want = [], []
    residual_action = distill.residual_action

    def recording_action(env_, obs, a_prev, a_flow, blocks):
        rows = env.running
        # the command: reference targets one frame ahead, then the reference
        # minus the current tip direction
        steps = env._steps[rows]
        nxt = env._frame(rows, steps + 1)
        th_ref = env._ref_q[env._frame(rows, steps)].sum(axis=1)
        th = env._q[rows].sum(axis=1)
        command = [env._ref_q[nxt], env._ref_qdot[nxt],
                   np.stack([np.cos(th_ref) - np.cos(th), np.sin(th_ref) - np.sin(th)], axis=1)]
        want.append(np.concatenate([env._q[rows], env._qdot[rows], applied[rows],
                                    *command, a_flow], axis=1))
        fed.clear()
        out = residual_action(env_, obs, a_prev, a_flow, blocks)
        x = np.empty_like(want[-1])
        for (pos, _), block in zip(blocks, fed):
            x[pos] = block
        seen.append(x)
        return out

    monkeypatch.setattr(env, "step_batch", recording_step)
    monkeypatch.setattr(distill, "mlp_forward", recording_forward)
    monkeypatch.setattr(distill, "residual_action", recording_action)
    log, = rollout_batch(env, NET, [(MOTION, [24, 25, 26], RESIDUAL)])
    assert log["terminated_early"].tolist() == [False, True, False]
    assert len(seen) == env.episode_len and seen[-1].shape[0] == 2
    assert not want[0][:, 4:6].any()  # no action applied before step 0
    for got, expected in zip(seen, want):
        assert np.array_equal(got, expected)


# Clips of unequal length beside MOTION: SHORT ends before the episodes do, so
# rows that outlive it hold its last frame; every HARD episode terminates
# early; LONG is cut into a 10 s and a 1.2 s clip.
SHORT = make_sine((0.4, 0.3), 0.5, duration=0.8)
HARD = make_sine((0.8, 0.6), 1.2, phase=(0.0, 0.6), duration=2.0)
LONG = make_sine((0.3, 0.2), 0.3, duration=11.2)
POOL = {"motion": MOTION, "hard": HARD, "long": LONG}


def test_clips_cover_padding_and_terminations():
    """The oracles below see rows past SHORT's end and HARD's early ends."""
    short, hard = rollout_batch(ENV, NET, [(SHORT, list(range(8)), None), (HARD, [0, 1], None)])
    assert SHORT.n_frames < ENV.episode_len and short["steps"].max() > SHORT.n_frames
    assert hard["terminated_early"].all()
    assert len(segment_clips(LONG, 10.0)) == 2


def log_metrics(log, env):
    """A clip's tracking metrics from its log, as `evaluate_policy` takes them."""
    per_episode = {"mpjpe": [], "dvel": [], "dacc": []}
    for i, steps in enumerate(log["steps"]):
        ref, rob = log["ref_body_pos"][:steps, i], log["body_pos"][:steps, i]
        per_episode["mpjpe"].append(metrics.mpjpe(ref, rob))
        if steps >= 3:
            ref_v = finite_difference(ref, env.dt)
            rob_v = finite_difference(rob, env.dt)
            per_episode["dvel"].append(metrics.delta_vel(ref_v, rob_v, env.dt))
            per_episode["dacc"].append(metrics.delta_acc(ref_v, rob_v, env.dt))
    return metrics.TrackingMetrics(
        mpjpe_mm=float(np.mean(per_episode["mpjpe"])),
        dvel=float(np.mean(per_episode["dvel"])) if per_episode["dvel"] else 0.0,
        dacc=float(np.mean(per_episode["dacc"])) if per_episode["dacc"] else 0.0,
        success=float(np.mean(~log["terminated_early"])),
        n_episodes=len(log["steps"]),
    )


def per_clip_evaluate(net, env, motions, residual=None, n_rollouts=10, seed=0):
    """`evaluate_policy` as one `rollout_batch` per clip, kept as its oracle."""
    results = {}
    for name, motion in motions.items():
        clip_metrics = []
        for ci, clip in enumerate(segment_clips(motion, 10.0)):
            seeds = [hash_seed(seed, name, ci, r) for r in range(n_rollouts)]
            log, = rollout_batch(env, net, [(clip, seeds, residual)])
            clip_metrics.append(log_metrics(log, env))
        results[name] = metrics.mean_tracking(clip_metrics)
    return results


@settings(max_examples=10, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(POOL)), max_size=2, unique=True).flatmap(
           lambda others: st.permutations(["short", *others])),
       n_rollouts=st.integers(1, 4), with_residual=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_evaluate_is_the_per_clip_loop(names, n_rollouts, with_residual, seed):
    motions = {name: {"short": SHORT, **POOL}[name] for name in names}
    residual = RESIDUAL if with_residual else None
    assert (evaluate_policy(NET, ENV, motions, residual, n_rollouts, seed)
            == per_clip_evaluate(NET, ENV, motions, residual, n_rollouts, seed))


@pytest.mark.parametrize("cap, n_rollouts, batches", [
    (distill.EVAL_MAX_ROWS, 3, [[3, 3, 3, 3]]),  # every clip in one batch
    (5, 2, [[2, 2], [2, 2]]),  # whole clips while their rows fit
    (3, 4, [[4], [4], [4], [4]]),  # a clip with more rows than the cap runs alone
])
def test_row_cap_takes_whole_clips(monkeypatch, cap, n_rollouts, batches):
    calls = []

    def counted(env, net, groups, mode="base"):
        calls.append([len(seeds) for _, seeds, _ in groups])
        return rollout_batch(env, net, groups, mode)

    monkeypatch.setattr(distill, "EVAL_MAX_ROWS", cap)
    monkeypatch.setattr(distill, "rollout_batch", counted)
    motions = {"short": SHORT, "long": LONG, "hard": HARD}
    got = evaluate_policy(NET, ENV, motions, RESIDUAL, n_rollouts, seed=3)
    assert calls == batches
    assert got == per_clip_evaluate(NET, ENV, motions, RESIDUAL, n_rollouts, seed=3)


@pytest.mark.parametrize("with_residual", [False, True])
def test_mixed_motion_groups_match_separate_batches(with_residual):
    """Each group of a batch of several motions, seed counts and residuals is
    bit-equal to a batch of its triple alone, while rows run past SHORT's end
    and groups shrink unevenly."""
    residuals = ([RESIDUAL, _variant(1), _variant(2), _variant(3)] if with_residual
                 else [None] * 4)
    groups = [(SHORT, [3, 4, 5], residuals[0]), (MOTION, [10, 9], residuals[1]),
              (HARD, [7, 8, 1], residuals[2]), (MOTION, [2], residuals[3])]
    logs = rollout_batch(ENV, NET, groups)
    assert len(logs) == len(groups)
    for log, triple in zip(logs, groups):
        alone, = rollout_batch(ENV, NET, [triple])
        assert log.keys() == alone.keys()
        for key, value in alone.items():
            assert np.array_equal(log[key], value), key


def test_group_logs_are_views_scored_as_alone():
    """Groups of 1, 2 and 3 seeds in one batch, whose rows end early at
    different steps: each group's log is a view of the batch's arrays, and its
    mean return and clip metrics are `==` those of its triple run alone."""
    groups = [(HARD, [5], _variant(1)), (MOTION, [3, 10], RESIDUAL),
              (MOTION, [9, 7, 2], _variant(2))]
    logs = rollout_batch(ENV, NET, groups, keep_obs=True)
    steps = np.concatenate([log["steps"] for log in logs])
    ended = np.concatenate([log["terminated_early"] for log in logs])
    assert len(set(steps[ended].tolist())) > 1 and not ended.all()
    for (_, seeds, _), log in zip(groups, logs):
        assert log["rewards"].shape == (ENV.episode_len, len(seeds))
        assert log["obs"].shape == (ENV.episode_len, len(seeds), ENV.obs_dim)
        for key, value in log.items():
            assert value.base is not None and value.base is logs[0][key].base, key
    for triple, log in zip(groups, logs):
        alone, = rollout_batch(ENV, NET, [triple])
        assert (np.mean(episode_return(log, ENV.episode_len, distill.TERMINATION_FLOOR))
                == np.mean(episode_return(alone, ENV.episode_len, distill.TERMINATION_FLOOR)))
        assert log_metrics(log, ENV) == log_metrics(alone, ENV)


@pytest.mark.parametrize("group_of_row, want", [
    # a lone group keeps the stacked form: (1, m) positions, (1,) ids
    ([0, 0, 0], [([[0, 1, 2]], [0])]),
    ([4], [([[0]], [4])]),
    # ragged sizes, one of them held by a lone group
    ([0, 0, 1, 2, 2, 3, 3, 3], [([[2]], [1]), ([[0, 1], [3, 4]], [0, 2]),
                                ([[5, 6, 7]], [3])]),
])
def test_group_blocks_are_stacked(group_of_row, want):
    blocks = distill._group_blocks(np.array(group_of_row))
    assert len(blocks) == len(want)
    for (pos, ids), (want_pos, want_ids) in zip(blocks, want):
        assert pos.tolist() == want_pos and ids.tolist() == want_ids


@pytest.mark.parametrize("groups", [
    [None, None, RESIDUAL], [RESIDUAL, distill.init_residual(ENV, hidden=(4,), bound=0.4)],
    [RESIDUAL, replace(RESIDUAL, bound=0.1)], [None, RESIDUAL], [RESIDUAL, None],
])
def test_row_groups_need_one_shape(groups):
    with pytest.raises(ValidationError, match="layer sizes and bound"):
        rollout_batch(ENV, NET, [(MOTION, [1], res) for res in groups])


def test_rollout_needs_a_row_group():
    with pytest.raises(ValidationError, match="^a rollout needs at least one row group$"):
        rollout_batch(ENV, NET, [])


@pytest.mark.parametrize("sizes, empty", [([1, 0], 1), ([0], 0), ([2, 1, 0, 3], 2)])
def test_row_group_without_seeds_rejected(sizes, empty):
    """A group with no seeds would give a log with no columns, whose mean
    return is NaN; it is refused, by its index, before anything runs."""
    groups = [(MOTION, list(range(m)), None) for m in sizes]
    with pytest.raises(ValidationError, match=f"^row group {empty} has no seeds$"):
        rollout_batch(ENV, NET, groups)


# Aggressive mode relaxes the orientation limit; with a tighter one, some of
# the ES's episodes still end early, at seed-dependent steps.
ES_ENV = ArmEnv({"episode_len": 60,
                 "thresholds": {"z_err_max": 0.25, "grav_err_max": 0.5, "relax_factor": 1.5}})


def sequential_es(net, residual, env, motion, cfg):
    """The (1+lambda) loop that scores one candidate per rollout, kept as the
    oracle of `es_refine`. Also returns the index within its generation of
    each accepted candidate."""
    rng = np.random.default_rng(cfg.seed)
    eval_seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=cfg.episodes_per_eval)]

    def fitness(candidate) -> float:
        log, = rollout_batch(env, net, [(motion, eval_seeds, candidate)], mode="aggressive")
        return float(np.mean(episode_return(log, env.episode_len, distill.TERMINATION_FLOOR)))

    best = replace(residual, params=[(W.copy(), b.copy()) for W, b in residual.params])
    theta_best = _flatten(best.params)
    f_best = fitness(best)
    history = [f_best]
    accepted = []
    for _ in range(cfg.generations):
        for k in range(cfg.population):
            theta = theta_best + cfg.sigma * rng.standard_normal(theta_best.shape)
            candidate = replace(best, params=_unflatten(theta, best.params))
            f = fitness(candidate)
            if f > f_best:
                f_best, theta_best = f, theta
                accepted.append(k)
        history.append(f_best)
    best = replace(best, params=_unflatten(theta_best, best.params))
    return best, history, accepted


def counted_es(cfg):
    """`es_refine` on the ES test task, plus the number of row groups of each
    `rollout_batch` call it made."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return rollout_batch(*args, **kwargs)

    distill.rollout_batch = counted
    try:
        got, history = es_refine(NET, RESIDUAL, ES_ENV, MOTION, cfg)
    finally:
        distill.rollout_batch = rollout_batch
    return got, history, calls


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), population=st.integers(0, 6),
       generations=st.integers(0, 3), episodes=st.integers(1, 3),
       sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_speculative_es_is_the_sequential_loop(seed, population, generations, episodes, sigma):
    cfg = ESCfg(generations=generations, population=population, sigma=sigma,
                episodes_per_eval=episodes, seed=seed)
    want, want_history, _ = sequential_es(NET, RESIDUAL, ES_ENV, MOTION, cfg)
    got, history, calls = counted_es(cfg)
    assert history == want_history
    for (W1, b1), (W2, b2) in zip(got.params, want.params):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
    assert calls == expected_calls(population, generations)


def expected_calls(population, generations):
    """Row groups of each batch: one batch per block of `ES_BLOCK` candidates,
    2^b - 1 groups for a block of b; the start point rides in the first batch,
    or runs alone when there are no candidates."""
    B = distill.ES_BLOCK
    blocks = [min(B, population - i) for i in range(0, population, B)] * generations
    if not blocks:
        return [1]
    return [2 ** blocks[0], *[2 ** b - 1 for b in blocks[1:]]]


def test_speculative_es_covers_acceptances_and_terminations():
    """A fixed case of the oracle above that accepts a candidate in the middle
    of a block, so the block's later candidates are taken from the scores
    made from that candidate, and scores episodes that end early."""
    cfg = ESCfg(generations=2, population=5, sigma=0.3, episodes_per_eval=3, seed=0)
    want, want_history, accepted = sequential_es(NET, RESIDUAL, ES_ENV, MOTION, cfg)
    got, history = es_refine(NET, RESIDUAL, ES_ENV, MOTION, cfg)
    assert any(k % distill.ES_BLOCK < distill.ES_BLOCK - 1 for k in accepted)
    assert history == want_history
    assert all(np.array_equal(W1, W2) for (W1, _), (W2, _) in zip(got.params, want.params))
    rng = np.random.default_rng(cfg.seed)
    seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=cfg.episodes_per_eval)]
    log, = rollout_batch(ES_ENV, NET, [(MOTION, seeds, RESIDUAL)], mode="aggressive")
    assert log["terminated_early"].any() and not log["terminated_early"].all()


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_batches_do_not_grow_with_the_population(sigma):
    """A generation of many candidates takes them a block at a time, so no
    batch, and no batch's (T, rows) logs, grows with the population, and the
    number of batches does not depend on what is accepted; the result is
    still the sequential loop's."""
    cfg = ESCfg(generations=2, population=4 * distill.ES_BLOCK + 1, sigma=sigma,
                episodes_per_eval=2, seed=1)
    want, want_history, _ = sequential_es(NET, RESIDUAL, ES_ENV, MOTION, cfg)
    got, history, calls = counted_es(cfg)
    assert history == want_history
    for (W1, b1), (W2, b2) in zip(got.params, want.params):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
    assert calls == expected_calls(cfg.population, cfg.generations)
    assert max(calls) == 2 ** distill.ES_BLOCK


def test_ties_keep_the_earlier_best():
    """A residual whose output sits far past its bound acts the same after any
    small perturbation, so every candidate ties with the best; a candidate
    must score strictly higher to replace it, so the start point stays."""
    W, b = RESIDUAL.params[-1]
    saturated = replace(RESIDUAL, params=[*RESIDUAL.params[:-1],
                                          (np.zeros_like(W), np.full_like(b, 100.0))])
    cfg = ESCfg(generations=1, population=distill.ES_BLOCK + 1, sigma=0.05,
                episodes_per_eval=2, seed=3)
    got, history = es_refine(NET, saturated, ES_ENV, MOTION, cfg)
    assert len(history) == 2 and history[0] == history[1]
    for (W1, b1), (W2, b2) in zip(got.params, saturated.params):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)


# DAgger. Early termination off puts the thresholds out of reach.
NO_TERMINATION = {"z_err_max": 1e9, "grav_err_max": 1e9}
CLIPS = {"motion": MOTION, "hard": HARD, "short": SHORT}


# The DAgger gradient step as plain expressions, each making a new array: the
# oracle of the step `dagger_train` takes in place, in its workspace.

def oracle_mlp_layers(params, x):
    acts = [x]
    for W, b in params[:-1]:
        acts.append(np.tanh(acts[-1] @ W.mT + b))
    W, b = params[-1]
    acts.append(acts[-1] @ W.mT + b)
    return acts


def oracle_mlp_backward(params, acts, d_out):
    grads = [None] * len(params)
    d = d_out
    for layer in range(len(params) - 1, -1, -1):
        W, _ = params[layer]
        a_prev = acts[layer]
        grads[layer] = (d.T @ a_prev, d.sum(axis=0))
        if layer > 0:
            d = (d @ W) * (1.0 - acts[layer] ** 2)
    return grads


def oracle_time_embedding(t, dim):
    ang = np.pi * (4.0 ** np.arange(dim // 2)) * t[:, None]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def oracle_fm_loss_and_grad(net, batch, rng):
    n = len(batch)
    t = rng.beta(net.alpha, net.beta, size=n)
    eps = rng.standard_normal((n, net.action_dim))
    a_t = (1.0 - t[:, None]) * batch.expert_actions + t[:, None] * eps
    u = eps - batch.expert_actions
    x = np.concatenate([a_t, oracle_time_embedding(t, net.time_embed_dim), batch.observations],
                       axis=1)
    *acts, v = oracle_mlp_layers(net.params, x)
    resid = v - u
    loss = float(np.mean(np.sum(resid ** 2, axis=1)))
    return loss, oracle_mlp_backward(net.params, acts, 2.0 * resid / n)


def oracle_adam_step(params, grads, state, lr):
    """Returns (new params, new state); a state is (step, m, v)."""
    step, m, v = state
    if m is None:
        m = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        v = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    step += 1
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    new_params, new_m, new_v = [], [], []
    for (W, b), (gW, gb), (mW, mb), (vW, vb) in zip(params, grads, m, v):
        mW = b1 * mW + (1 - b1) * gW
        mb = b1 * mb + (1 - b1) * gb
        vW = b2 * vW + (1 - b2) * gW ** 2
        vb = b2 * vb + (1 - b2) * gb ** 2
        W = W - lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
        b = b - lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        new_params.append((W, b))
        new_m.append((mW, mb))
        new_v.append((vW, vb))
    return new_params, (step, new_m, new_v)


def serial_dagger(env, experts, net, cfg):
    """`dagger_train` as the episode-by-episode loop it was, kept as its
    oracle: reset, then per step an `expert_action` label of the current
    state, an `euler_sample` action and an `env.step`, every draw from one
    Generator; then the gradient steps of the oracle above, each on a batch
    drawn from the iteration's rows. Also returns the (obs, label) rows it
    collected, in order."""
    net = clone_net(net)
    rng = np.random.default_rng(cfg.seed)
    opt_state = (0, None, None)
    losses, rows = [], []
    for it in range(cfg.iterations):
        iter_rows = []
        for _ in range(cfg.episodes_per_iter):
            m = int(rng.integers(len(experts)))
            obs = env.reset(experts[m].motion, rng, mode="base")
            done = False
            while not done:
                a_exp = expert_action(experts[m], env)
                iter_rows.append((obs, a_exp))
                a = euler_sample(net, obs, rng)
                obs, _, done, _ = env.step(a)
        rows += iter_rows
        obs_rows, act_rows = (np.array(col) for col in zip(*iter_rows))
        lr = cfg.learning_rate * cfg.lr_decay ** it
        iter_losses = []
        for _ in range(cfg.gradient_steps):
            n = len(iter_rows)
            idx = rng.integers(0, n, size=min(cfg.batch_size, n))
            loss, grads = oracle_fm_loss_and_grad(net, FMBatch(obs_rows[idx], act_rows[idx]), rng)
            net.params, opt_state = oracle_adam_step(net.params, grads, opt_state, lr)
            iter_losses.append(loss)
        losses.append(float(np.mean(iter_losses)))
    return net, losses, rows


def recorded_dagger(env, experts, net, cfg):
    """`dagger_train`, plus the rows of each `ReplayBuffer.add` call and the
    number of row groups of each `rollout_batch` call."""
    adds, calls = [], []
    add = ReplayBuffer.add

    def recording(buf, obs, a_expert):
        adds.append((obs, a_expert))
        add(buf, obs, a_expert)

    def counted(env_, net_, groups, **kwargs):
        calls.append(len(groups))
        return rollout_batch(env_, net_, groups, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReplayBuffer, "add", recording)
        mp.setattr(distill, "rollout_batch", counted)
        out, losses = dagger_train(env, experts, net, cfg)
    return out, losses, adds, calls


def dagger_batches(sizes, K, T):
    """Row groups of each `rollout_batch` call `dagger_train` makes, given the
    lengths of its episodes: per iteration, one batch of its K episodes, and
    a rerun of the episodes after each one that ends early, unless it is the
    iteration's last."""
    return [n for i in range(0, len(sizes), K)
            for n in [K, *[K - 1 - e for e, steps in enumerate(sizes[i:i + K - 1])
                           if steps < T]]]


def assert_dagger_is_serial(env, experts, cfg, net=NET):
    """Losses `==`, params and every buffer row bit-equal to the oracle's, and
    the batches `dagger_batches` gives; returns the number of rows of each
    `add`."""
    want, want_losses, want_rows = serial_dagger(env, experts, net, cfg)
    got, losses, adds, calls = recorded_dagger(env, experts, net, cfg)
    assert losses == want_losses
    for (W1, b1), (W2, b2) in zip(got.params, want.params):
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
    assert np.array_equal(np.concatenate([o for o, _ in adds]), [o for o, _ in want_rows])
    assert np.array_equal(np.concatenate([a for _, a in adds]), [a for _, a in want_rows])
    sizes = [len(o) for o, _ in adds]
    assert calls == dagger_batches(sizes, cfg.episodes_per_iter, env.episode_len)
    return sizes


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16), episodes=st.integers(1, 4),
       experts=st.lists(st.tuples(st.sampled_from(sorted(CLIPS)), st.integers(0, 2)),
                        min_size=1, max_size=3),
       sampler_steps=st.integers(1, 5), early=st.booleans(), randomize=st.booleans())
def test_dagger_is_the_serial_loop(seed, episodes, experts, sampler_steps, early, randomize):
    env = ArmEnv({"episode_len": 40,
                  **({} if early else {"thresholds": NO_TERMINATION}),
                  **({} if randomize else {"randomization": NO_RANDOMIZATION})})
    cfg = DistillCfg(iterations=2, episodes_per_iter=episodes, gradient_steps=3,
                     batch_size=16, seed=seed)
    experts = [ExpertPolicy(CLIPS[name], lookahead=lookahead) for name, lookahead in experts]
    assert_dagger_is_serial(env, experts, cfg, replace(NET, sampler_steps=sampler_steps))


def test_dagger_oracle_covers_early_ends_and_held_frames():
    """A fixed case of the oracle above whose episodes end early and at
    time-out, on a clip shorter than the episode."""
    env = ArmEnv({"episode_len": 60})
    experts = [ExpertPolicy(MOTION), ExpertPolicy(HARD, lookahead=2),
               ExpertPolicy(SHORT, lookahead=0)]
    cfg = DistillCfg(iterations=2, episodes_per_iter=4, gradient_steps=3, batch_size=16,
                     seed=1)
    sizes = assert_dagger_is_serial(env, experts, cfg)
    assert len(sizes) == 8 and min(sizes) < SHORT.n_frames < max(sizes) == env.episode_len


def test_dagger_reruns_after_each_early_end():
    """Episodes 0 and 1 of an iteration both end early: the first batch keeps
    row 0, its rerun keeps row 1 (taken from row 0's stream), and the second
    rerun keeps the rest, including a last episode that ends early."""
    env = ArmEnv({"episode_len": 60})
    cfg = DistillCfg(iterations=1, episodes_per_iter=4, gradient_steps=3, batch_size=16,
                     seed=31)
    sizes = assert_dagger_is_serial(env, [ExpertPolicy(MOTION), ExpertPolicy(HARD)], cfg)
    assert sizes == [11, 10, 60, 10]
    assert dagger_batches(sizes, 4, 60) == [4, 3, 2]


def test_dagger_episode_ending_at_step_1():
    """Wide initial pose noise ends episodes 2 and 3 at their first step: the
    first heads a rerun and ends it early, the second is the iteration's last."""
    env = ArmEnv({"episode_len": 40, "randomization": {"pose_noise": 1.0}})
    cfg = DistillCfg(iterations=1, episodes_per_iter=4, gradient_steps=3, batch_size=16,
                     seed=3)
    sizes = assert_dagger_is_serial(env, [ExpertPolicy(MOTION), ExpertPolicy(SHORT)], cfg)
    assert sizes == [40, 19, 1, 1]
    assert dagger_batches(sizes, 4, 40) == [4, 2, 1]


def test_dagger_one_episode_per_iteration():
    """With one episode an iteration is one batch, whether it ends early or not."""
    env = ArmEnv({"episode_len": 60})
    cfg = DistillCfg(iterations=4, episodes_per_iter=1, gradient_steps=3, batch_size=16,
                     seed=1)
    sizes = assert_dagger_is_serial(env, [ExpertPolicy(MOTION), ExpertPolicy(HARD)], cfg)
    assert min(sizes) < 60 == max(sizes)
    assert dagger_batches(sizes, 1, 60) == [1, 1, 1, 1]


def test_dagger_workspace_steps_are_the_oracle(monkeypatch):
    """200 gradient steps of a net with three hidden layers, bit-equal to the
    oracle's plain expressions, while the iterations' buffers hold more and
    fewer rows than a batch: the workspace is built again exactly when an
    iteration's batch row count differs from the one before."""
    env = ArmEnv({"episode_len": 60})
    net = init_net(2, env.obs_dim, hidden=(16, 12, 8), rng=np.random.default_rng(4))
    cfg = DistillCfg(iterations=4, episodes_per_iter=1, gradient_steps=50, batch_size=48,
                     seed=1)
    built = []
    workspace = distill.GradWorkspace

    def counted(net_, rows):
        built.append(rows)
        return workspace(net_, rows)

    monkeypatch.setattr(distill, "GradWorkspace", counted)
    sizes = assert_dagger_is_serial(env, [ExpertPolicy(MOTION), ExpertPolicy(HARD)], cfg, net)
    rows = [min(n, cfg.batch_size) for n in sizes]
    assert min(rows) < cfg.batch_size == max(rows)
    assert built == [n for i, n in enumerate(rows) if i == 0 or n != rows[i - 1]]
    assert len(built) < len(rows)


@settings(max_examples=15, deadline=None)
@given(ranges=st.fixed_dictionaries({
           "pose_noise": st.floats(0.0, 0.5), "disturbance": st.floats(0.0, 2.0),
           "mass_scale": st.floats(0.0, 0.5), "friction_scale": st.floats(0.0, 0.5),
           "q0_offset": st.floats(0.0, 0.5)}),
       sampler_steps=st.integers(1, 5), n_experts=st.integers(1, 4),
       episode_len=st.integers(1, 40), seed=st.integers(0, 2 ** 16))
def test_skip_episode_is_a_full_episode(ranges, sampler_steps, n_experts, episode_len, seed):
    """`ArmEnv.skip_episode` leaves a Generator where DAgger's expert draw and a
    full-length one-row episode on it do, so a draw added to either path
    without the other fails here."""
    env = ArmEnv({"episode_len": episode_len, "thresholds": NO_TERMINATION,
                  "randomization": ranges})
    ran, skipped = np.random.default_rng(seed), np.random.default_rng(seed)
    ran.integers(n_experts)
    log, = rollout_batch(env, replace(NET, sampler_steps=sampler_steps), [(MOTION, [ran], None)])
    assert log["steps"][0] == episode_len
    skipped.integers(n_experts)
    env.skip_episode(skipped, NET.action_dim)
    assert skipped.bit_generator.state == ran.bit_generator.state


def per_step_labels(expert, env, clip, rng, mode):
    """A single episode's labels, one `expert_action` call per step, the
    episode driven by them."""
    env.reset(clip, rng, mode=mode)
    labels, done = [], False
    while not done:
        labels.append(expert_action(expert, env))
        _, _, done, _ = env.step(labels[-1])
    return np.array(labels)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 16), lookahead=st.integers(0, 2),
       mode=st.sampled_from(["base", "aggressive"]), row=st.integers(0, 2))
def test_episode_labels_are_the_per_step_labels(seed, lookahead, mode, row):
    """The labels of a row of a batch of mixed clips (SHORT ends before the
    episode does, so its rows hold the last frame), taken in one call after
    the batch has run, are bit-equal to the per-step labels of that row's
    episode run alone; each row has its own randomized friction."""
    clips = [SHORT, MOTION, HARD]
    experts = [ExpertPolicy(clip, lookahead=lookahead) for clip in clips]
    want = per_step_labels(experts[row], ArmEnv({"episode_len": 60}), clips[row],
                           np.random.default_rng(seed + row), mode)
    env = ArmEnv({"episode_len": 60})
    env.reset(clips, [np.random.default_rng(seed + i) for i in range(3)], mode=mode)
    while env.running.size:
        env.step_batch([expert_action(experts[i], env, row=i) for i in env.running])
    got = expert_action(experts[row], env, np.arange(len(want)), row=row)
    assert np.array_equal(got, want)
    if row == 0:
        assert len(want) > SHORT.n_frames


# The control step. `step_batch` runs on row constants it caches per running
# set, with the actuation kernels and dynamics in their lean forms; the oracle
# is the step's plain expressions on the env's per-episode arrays, indexed by
# the running rows at every step, each making a new array.

def oracle_actuate(tau_cmd, v, p):
    """(clipped, applied) torques: the envelope clip, then friction."""
    ceiling = np.where(np.multiply(v, tau_cmd) > 0, p.tau_y1, p.tau_y2)
    frac = np.minimum(np.maximum((np.abs(v) - p.v_x1) / (p.v_x2 - p.v_x1), 0.0), 1.0)
    limit = ceiling * (1.0 - frac)
    clipped = np.minimum(np.maximum(tau_cmd, -limit), limit)
    return clipped, clipped - (p.mu_s * np.tanh(v / p.v_act) + p.mu_d * v)


def oracle_qacc(env, q, qdot, tau, rows):
    c = env._c[rows]
    theta = q.cumsum(axis=-1)
    thetadot = qdot.cumsum(axis=-1)
    dth = theta[..., :, None] - theta[..., None, :]
    M_q = env._S.T @ (c * np.cos(dth)) @ env._S + env._armature_M
    h_vec = ((c * np.sin(dth)) @ (thetadot ** 2)[..., None])[..., 0]
    bias = (h_vec + env._gcoef[rows] * np.sin(theta)) @ env._S
    return _solve(M_q, (tau - bias)[..., None])[..., 0]


def oracle_episodes(env, actions_of):
    """Step the env's episodes, just reset, to their ends, checking every
    step's state and torques bit for bit against the oracle, which draws the
    disturbances with `uniform` from copies of the episodes' streams; returns
    the episodes' lengths. `actions_of(rows)` gives the running rows'
    actions."""
    streams = copy.deepcopy(env._rngs)
    n, J = len(streams), env.n_joints
    bound, h = env._rand.disturbance, env.dt / env.n_substeps
    q_all, qdot_all = env._q.copy(), env._qdot.copy()
    lengths = np.zeros(n, dtype=int)
    while env.running.size:
        rows = env.running
        p = env._actuators_ep
        params = replace(p, **{f.name: np.broadcast_to(getattr(p, f.name), (n, J))[rows]
                               for f in fields(ActuatorParams)})
        disturbance = np.array([streams[i].uniform(-bound, bound, J) for i in rows])
        actions = actions_of(rows)
        q, qdot = q_all[rows], qdot_all[rows]
        q_tar = env._q0_eff[rows] + env.action_scale * actions
        tau_cmd = env.kp * (q_tar - q) - env.kd * qdot
        clipped, applied = oracle_actuate(tau_cmd, qdot, params)
        qd, tau = qdot, applied
        for sub in range(env.n_substeps):
            if sub:
                _, tau = oracle_actuate(env.kp * (q_tar - q) - env.kd * qd, qd, params)
            qd = qd + h * oracle_qacc(env, q, qd, tau + disturbance, rows)
            q = q + h * qd
        obs, _, done, info = env.step_batch(actions)
        for key, want in (("qdot_pre", qdot), ("tau_cmd", tau_cmd), ("tau_clipped", clipped),
                          ("tau_applied", applied)):
            assert info[key].tobytes() == want.tobytes(), key
        # the new state is the observation's first 2J columns
        for key, got, want in (("q", obs[:, :J], q), ("qdot", obs[:, J:2 * J], qd)):
            assert got.tobytes() == want.tobytes(), key
        q_all[rows], qdot_all[rows] = q, qd
        lengths[rows] += 1
    for i, stream in enumerate(streams):  # the env drew what the oracle did
        assert env._rngs[i].bit_generator.state == stream.bit_generator.state
    return lengths


@pytest.mark.parametrize("n", [1, 4, 21])
@pytest.mark.parametrize("mode", ["base", "aggressive"])
@pytest.mark.parametrize("actuators", [["5020-16", "5020-16"], ["7520-22.5", "4010-25"]])
def test_step_is_the_oracle(n, mode, actuators):
    """Full episodes of N rows, whose random actions grow with the row so that
    rows end early at different steps and the running set shrinks, after a
    first batch of other episodes of the same N on the same env has stepped
    (its row constants must not survive reset), and a third reset that runs
    the same episodes again. The second pair of actuators has knee speeds the
    joints pass, so the envelope's derating ramp is hit."""
    env = ArmEnv({"episode_len": 60, "actuators": actuators})
    scale = np.linspace(1.0, 12.0, n)[:, None] if n > 1 else np.array([[6.0]])
    env.reset(MOTION, [np.random.default_rng(1000 + s) for s in range(n)], mode=mode)
    env.step_batch(np.zeros((n, 2)))
    runs = []
    for _ in range(2):
        env.reset(MOTION, [np.random.default_rng(s) for s in range(n)], mode=mode)
        rng = np.random.default_rng(n)
        runs.append(oracle_episodes(
            env, lambda rows: scale[rows] * rng.uniform(-1, 1, (rows.size, 2))))
    assert np.array_equal(runs[0], runs[1])
    if n == 21:
        assert len(set(runs[0].tolist())) > 2 and runs[0].max() == env.episode_len


@settings(max_examples=60, deadline=None)
@given(bound=st.floats(0.0, MAX_DISTURBANCE), seed=st.integers(0, 2 ** 16),
       rows=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
@example(bound=0.0, seed=0, rows=[0, 2, 3])
@example(bound=RandomizationCfg().disturbance, seed=1, rows=[4, 1])
@example(bound=RandomizationCfg().scaled(RandomizationCfg().aggressive_factor).disturbance,
         seed=2, rows=[0, 1, 2, 3, 4])
@example(bound=MAX_DISTURBANCE, seed=3, rows=[3])
def test_disturbances_are_the_uniform_draws(bound, seed, rows):
    """Each running row's disturbance is bit for bit `uniform(-b, b, J)` from
    its episode's stream, and every stream, drawn from or not, stands where
    those draws leave it."""
    rand = RandomizationCfg(disturbance=bound, aggressive_factor=1.0)
    rngs = [np.random.default_rng([seed, i]) for i in range(5)]
    oracle = copy.deepcopy(rngs)
    for _ in range(3):
        got = _disturbances(rngs, rows, rand, 3)
        want = np.array([oracle[i].uniform(-bound, bound, 3) for i in rows])
        assert got.tobytes() == want.tobytes()
    for rng, want in zip(rngs, oracle):
        assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("disturbance", [0.0, 0.5, MAX_DISTURBANCE / 1.5])
def test_skip_episode_at_the_disturbance_caps(disturbance):
    """`skip_episode` leaves a copy of the stream where a full-length episode
    on it does, at the widest disturbance too (DAgger's speculation relies
    on it)."""
    env = ArmEnv({"episode_len": 12, "thresholds": NO_TERMINATION,
                  "randomization": {"disturbance": disturbance}})
    ran = np.random.default_rng(5)
    skipped = copy.deepcopy(ran)
    log, = rollout_batch(env, NET, [(MOTION, [ran], None)])
    assert log["steps"][0] == env.episode_len
    env.skip_episode(skipped, NET.action_dim)
    assert skipped.bit_generator.state == ran.bit_generator.state

"""Batched rollout engine: every row of a `rollout_batch` is the episode that
`rollout_episode` gives for the same seed alone, every row group is the batch
its triple gives alone, `evaluate_policy` is the per-clip loop, and the
speculative ES is the sequential one."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack import distill, metrics
from flowtrack.distill import (ESCfg, _flatten, _unflatten, episode_return, es_refine,
                               evaluate_policy, hash_seed, rollout_batch, rollout_episode)
from flowtrack.env import ArmEnv
from flowtrack.errors import ValidationError
from flowtrack.flow import init_net
from flowtrack.motion import finite_difference, segment_clips

from conftest import make_sine

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
    log = rollout_batch(ENV, NET, [(MOTION, seeds, residual)], mode=mode)
    T = ENV.episode_len
    assert log["rewards"].shape == (T, len(seeds))
    assert log["body_pos"].shape == (T, len(seeds), 2, 3)
    for i, seed in enumerate(seeds):
        one = rollout_episode(ENV, NET, MOTION, seed, residual=residual, mode=mode)
        steps = one["steps"]
        assert log["steps"][i] == steps
        assert log["terminated_early"][i] == one["terminated_early"]
        np.testing.assert_allclose(log["body_pos"][:steps, i], one["body_pos"], rtol=0, atol=1e-9)
        np.testing.assert_allclose(log["rewards"][:steps, i], one["rewards"], rtol=0, atol=1e-9)
        assert not log["rewards"][steps:, i].any()


def test_motion_gives_both_outcomes():
    """The oracle above sees early terminations and time-outs in one batch."""
    log = rollout_batch(ENV, NET, [(MOTION, list(range(12)), None)])
    assert log["terminated_early"].any() and not log["terminated_early"].all()
    assert len(set(log["steps"].tolist())) > 2


def test_single_episode_log():
    one = rollout_episode(ENV, NET, MOTION, 3)
    steps = one["steps"]
    assert one["rewards"].shape == one["q_err"].shape == (steps,)
    assert one["body_pos"].shape == one["ref_body_pos"].shape == (steps, 2, 3)
    assert isinstance(one["terminated_early"], bool)
    assert distill.episode_return(one, ENV.episode_len, -1.0) == (
        float(np.sum(one["rewards"])) - (ENV.episode_len - steps))


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
    log = rollout_batch(ENV, NET, [(MOTION, seeds, res) for res in groups])
    E = len(seeds)
    assert log["rewards"].shape == (ENV.episode_len, len(groups) * E)
    steps = log["steps"].reshape(len(groups), E)
    assert log["terminated_early"].any() and not log["terminated_early"].all()
    assert len({tuple(row) for row in steps}) > 1 and len(set(steps[0])) > 1
    for g, res in enumerate(groups):
        alone = rollout_batch(ENV, NET, [(MOTION, seeds, res)])
        for key, value in alone.items():
            assert np.array_equal(log[key][..., g * E:(g + 1) * E] if value.ndim == 1
                                  else log[key][:, g * E:(g + 1) * E], value), key


# Clips of unequal length beside MOTION: SHORT ends before the episodes do, so
# rows that outlive it hold its last frame; every HARD episode terminates
# early; LONG is cut into a 10 s and a 1.2 s clip.
SHORT = make_sine((0.4, 0.3), 0.5, duration=0.8)
HARD = make_sine((0.8, 0.6), 1.2, phase=(0.0, 0.6), duration=2.0)
LONG = make_sine((0.3, 0.2), 0.3, duration=11.2)
POOL = {"motion": MOTION, "hard": HARD, "long": LONG}


def test_clips_cover_padding_and_terminations():
    """The oracles below see rows past SHORT's end and HARD's early ends."""
    log = rollout_batch(ENV, NET, [(SHORT, list(range(8)), None), (HARD, [0, 1], None)])
    assert SHORT.n_frames < ENV.episode_len and log["steps"][:8].max() > SHORT.n_frames
    assert log["terminated_early"][8:].all()
    assert len(segment_clips(LONG, 10.0)) == 2


def per_clip_evaluate(net, env, motions, residual=None, n_rollouts=10, seed=0):
    """`evaluate_policy` as one `rollout_batch` per clip, kept as its oracle."""
    results = {}
    for name, motion in motions.items():
        clips = segment_clips(motion, 10.0)
        clip_metrics = []
        for ci, clip in enumerate(clips):
            seeds = [hash_seed(seed, name, ci, r) for r in range(n_rollouts)]
            log = rollout_batch(env, net, [(clip, seeds, residual)])
            per_episode = {"mpjpe": [], "dvel": [], "dacc": []}
            for i, steps in enumerate(log["steps"]):
                ref, rob = log["ref_body_pos"][:steps, i], log["body_pos"][:steps, i]
                per_episode["mpjpe"].append(metrics.mpjpe(ref, rob))
                if steps >= 3:
                    ref_v = finite_difference(ref, env.dt)
                    rob_v = finite_difference(rob, env.dt)
                    per_episode["dvel"].append(metrics.delta_vel(ref_v, rob_v, env.dt))
                    per_episode["dacc"].append(metrics.delta_acc(ref_v, rob_v, env.dt))
            clip_metrics.append(metrics.TrackingMetrics(
                mpjpe_mm=float(np.mean(per_episode["mpjpe"])),
                dvel=float(np.mean(per_episode["dvel"])) if per_episode["dvel"] else 0.0,
                dacc=float(np.mean(per_episode["dacc"])) if per_episode["dacc"] else 0.0,
                success=float(np.mean(~log["terminated_early"])),
                n_episodes=n_rollouts,
            ))
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
    log = rollout_batch(ENV, NET, groups)
    first = 0
    for triple in groups:
        alone = rollout_batch(ENV, NET, [triple])
        cols = slice(first, first + len(triple[1]))
        for key, value in alone.items():
            assert np.array_equal(log[key][cols] if value.ndim == 1 else log[key][:, cols],
                                  value), key
        first = cols.stop


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
    [], [RESIDUAL, distill.init_residual(ENV, hidden=(4,), bound=0.4)],
    [RESIDUAL, replace(RESIDUAL, bound=0.1)], [None, RESIDUAL], [RESIDUAL, None],
])
def test_row_groups_need_one_shape(groups):
    with pytest.raises(ValidationError, match="layer sizes and bound"):
        rollout_batch(ENV, NET, [(MOTION, [1], res) for res in groups])


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
        log = rollout_batch(env, net, [(motion, eval_seeds, candidate)], mode="aggressive")
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
    log = rollout_batch(ES_ENV, NET, [(MOTION, seeds, RESIDUAL)], mode="aggressive")
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

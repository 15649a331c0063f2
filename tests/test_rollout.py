"""Batched rollout engine: every row of a `rollout_batch` is the episode that
`rollout_episode` gives for the same seed alone."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack import distill
from flowtrack.distill import ESCfg, es_refine, evaluate_policy, rollout_batch, rollout_episode
from flowtrack.env import ArmEnv
from flowtrack.flow import init_net

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
    log = rollout_batch(ENV, NET, MOTION, seeds, residual=residual, mode=mode)
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
    log = rollout_batch(ENV, NET, MOTION, list(range(12)))
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

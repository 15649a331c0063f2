import tracemalloc

import numpy as np
import pytest

from flowtrack import distill, metrics
from flowtrack.distill import (DistillCfg, ESCfg, ReplayBuffer, ResidualPolicy,
                               closed_loop_joint_error, dagger_train, es_refine,
                               evaluate_policy, init_residual, residual_compose,
                               rollout_episode)
from flowtrack.env import ArmEnv, ExpertPolicy
from flowtrack.errors import CheckpointError, DimensionError, ValidationError
from flowtrack.flow import MAX_LAYER_WIDTH, FMBatch, init_net

from conftest import make_sine


def tiny_env(episode_len=60):
    return ArmEnv({"episode_len": episode_len})


class TestReplayBuffer:
    def test_add_clear(self):
        buf = ReplayBuffer(4, 3, 2)
        buf.add(np.zeros(3), np.zeros(2))
        buf.add(np.ones(3), np.ones(2))
        assert len(buf) == 2
        buf.clear()
        assert len(buf) == 0
        with pytest.raises(ValidationError):
            buf.sample_batch(4, np.random.default_rng(0))

    def test_unequal_row_counts_rejected(self):
        buf = ReplayBuffer(8, 3, 2)
        with pytest.raises(DimensionError, match="5 observation rows but 2 action rows"):
            buf.add(np.zeros((5, 3)), np.ones((2, 2)))
        with pytest.raises(DimensionError, match="5 observation rows but 1 action rows"):
            buf.add(np.zeros((5, 3)), np.ones(2))
        assert len(buf) == 0

    def test_samples_added_rows(self):
        n = 203
        rng = np.random.default_rng(7)
        obs, act = rng.standard_normal((n, 4)), rng.standard_normal((n, 2))
        buf = ReplayBuffer(n, 4, 2)
        for o, a in zip(obs, act):
            buf.add(o, a)
        assert len(buf) == n
        batch = buf.sample_batch(256, np.random.default_rng(3))
        idx = np.random.default_rng(3).integers(0, n, size=n)
        assert np.array_equal(batch.observations, obs[idx])
        assert np.array_equal(batch.expert_actions, act[idx])
        # a batch of the whole buffer's size when it asks for more rows
        assert len(batch) == n and len(buf.sample_batch(64, np.random.default_rng(0))) == 64

    def test_clear_reuses_arrays(self):
        buf = ReplayBuffer(3, 3, 2)
        for i in range(3):
            buf.add(np.full(3, i), np.full(2, -i))
        obs_rows, act_rows = buf._obs, buf._act
        buf.clear()
        assert len(buf) == 0
        buf.add(np.full(3, 9.0), np.full(2, 8.0))
        assert buf._obs is obs_rows and buf._act is act_rows
        batch = buf.sample_batch(5, np.random.default_rng(0))
        assert np.array_equal(batch.observations, np.full((1, 3), 9.0))
        assert np.array_equal(batch.expert_actions, np.full((1, 2), 8.0))

    def test_rows_past_capacity_rejected(self):
        """The buffer never grows: one row too many raises and leaves what
        it holds, which a clear then frees."""
        buf = ReplayBuffer(5, 4, 2)
        buf.add(np.zeros((3, 4)), np.zeros((3, 2)))
        with pytest.raises(DimensionError, match="3 rows .* do not fit the 2 free rows"):
            buf.add(np.ones((3, 4)), np.ones((3, 2)))
        assert len(buf) == 3 and len(buf._obs) == 5
        buf.add(np.ones((2, 4)), np.ones((2, 2)))  # exactly full
        buf.clear()
        buf.add(np.ones((5, 4)), np.ones((5, 2)))
        assert len(buf) == 5

    @pytest.mark.parametrize("obs_dim, action_dim", [(3, 2), (4, 3), (5, 1)])
    def test_rows_of_another_width_rejected(self, obs_dim, action_dim):
        buf = ReplayBuffer(8, 4, 2)
        with pytest.raises(DimensionError, match=r"widths \(%d, %d\) do not fit .* widths "
                                                 r"\(4, 2\)" % (obs_dim, action_dim)):
            buf.add(np.zeros((2, obs_dim)), np.zeros((2, action_dim)))
        assert len(buf) == 0

    def test_sample_into_given_batch(self):
        """A batch given as `out` receives the rows a fresh one would hold."""
        rng = np.random.default_rng(5)
        obs, act = rng.standard_normal((40, 4)), rng.standard_normal((40, 2))
        buf = ReplayBuffer(40, 4, 2)
        buf.add(obs, act)
        out = FMBatch(np.empty((16, 4)), np.empty((16, 2)))
        got = buf.sample_batch(16, np.random.default_rng(9), out)
        want = buf.sample_batch(16, np.random.default_rng(9))
        assert got is out
        assert np.array_equal(got.observations, want.observations)
        assert np.array_equal(got.expert_actions, want.expert_actions)

    def test_collected_record_count(self, monkeypatch):
        env = tiny_env(episode_len=30)
        motion = make_sine(0.2, 0.25, duration=4.0)
        expert = ExpertPolicy(motion)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
        added, capacities = [], set()
        add = ReplayBuffer.add

        def counted(buf, obs, a_expert):
            added.append(len(obs))
            capacities.add(len(buf._obs))
            add(buf, obs, a_expert)

        monkeypatch.setattr(ReplayBuffer, "add", counted)
        cfg = DistillCfg(iterations=1, episodes_per_iter=2, gradient_steps=1,
                         batch_size=8, seed=0)
        dagger_train(env, [expert], net, cfg)
        # quiet task, no early termination: exactly episodes * steps records,
        # added once per episode, to a buffer of exactly that many rows
        assert len(added) == 2 and sum(added) == 2 * 30
        assert capacities == {2 * 30}


class TestDaggerTrain:
    def test_no_experts_named(self):
        env = tiny_env(episode_len=30)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
        with pytest.raises(ValidationError, match="^experts must hold at least one ExpertPolicy$"):
            dagger_train(env, [], net, DistillCfg(iterations=1))

    def test_zero_iterations_net_unchanged(self):
        env = tiny_env()
        motion = make_sine(0.2, 0.25, duration=4.0)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
        out, losses = dagger_train(env, [ExpertPolicy(motion)], net,
                                   DistillCfg(iterations=0, seed=0))
        assert losses == []
        for (W1, b1), (W2, b2) in zip(net.params, out.params):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)

    def test_single_motion_quick_improvement(self):
        env = ArmEnv({"episode_len": 150})
        motion = make_sine(0.3, 0.25, duration=4.0)
        expert = ExpertPolicy(motion)
        net0 = init_net(2, env.obs_dim, hidden=(48, 48), rng=np.random.default_rng(1))
        cfg = DistillCfg(iterations=5, episodes_per_iter=2, gradient_steps=150,
                         batch_size=128, seed=0)
        net, losses = dagger_train(env, [expert], net0, cfg)
        assert losses[-1] < losses[0]
        e_untrained = closed_loop_joint_error(env, net0, motion, seed=11)
        e_trained = closed_loop_joint_error(env, net, motion, seed=11)
        assert e_trained < 0.2 * e_untrained

    def test_given_net_unchanged(self):
        """Adam updates the trained net in place; that net is a copy."""
        env = tiny_env(episode_len=30)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
        before = [(W.copy(), b.copy()) for W, b in net.params]
        out, _ = dagger_train(env, [ExpertPolicy(make_sine(0.2, 0.25, duration=4.0))], net,
                              DistillCfg(iterations=1, episodes_per_iter=1, gradient_steps=5,
                                         batch_size=8, seed=0))
        for (W, b), (W0, b0), (W1, b1) in zip(net.params, before, out.params):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)
            assert not np.array_equal(W1, W0)

    def test_gradient_step_allocates_no_batch_sized_array(self, monkeypatch):
        """At the distill benchmark's sizes (input 52, hidden 128x128, batch
        256), a warmed-up gradient step of `dagger_train`, from its
        `sample_batch` call to the end of its `adam_step`, leaves the traced
        memory peak less than one (256, 128) float block above its start:
        the step's arrays are the workspace's and the Adam state's."""
        env = ArmEnv({"episode_len": 100, "thresholds": {"z_err_max": 1e9, "grav_err_max": 1e9}})
        net = init_net(2, env.obs_dim, hidden=(128, 128), rng=np.random.default_rng(0))
        assert net.input_dim == 52
        starts, peaks = [], []
        sample_batch, adam_step = ReplayBuffer.sample_batch, distill.adam_step

        def traced_sample(buf, *args):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])
            return sample_batch(buf, *args)

        def traced_adam(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])
            return out

        monkeypatch.setattr(ReplayBuffer, "sample_batch", traced_sample)
        monkeypatch.setattr(distill, "adam_step", traced_adam)
        cfg = DistillCfg(iterations=1, episodes_per_iter=3, gradient_steps=4, batch_size=256,
                         seed=0)
        try:
            dagger_train(env, [ExpertPolicy(make_sine(0.2, 0.25, duration=4.0))], net, cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4
        assert max(peaks[2:]) < 128 * 1024, peaks

    def test_seeded_training_reproducible(self):
        env = tiny_env(episode_len=40)
        motion = make_sine(0.2, 0.25, duration=4.0)
        expert = ExpertPolicy(motion)
        cfg = DistillCfg(iterations=1, episodes_per_iter=1, gradient_steps=20,
                         batch_size=16, seed=3)
        runs = []
        for _ in range(2):
            net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
            out, losses = dagger_train(env, [expert], net, cfg)
            runs.append((out, losses))
        assert runs[0][1] == runs[1][1]
        for (W1, b1), (W2, b2) in zip(runs[0][0].params, runs[1][0].params):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)


class TestResidual:
    def test_compose_zero_residual(self):
        a = np.array([0.5, -0.2])
        assert np.array_equal(residual_compose(a, np.zeros(2), 0.3), a)

    def test_compose_clamps(self):
        a = np.zeros(2)
        out = residual_compose(a, np.array([5.0, -5.0]), 0.3)
        assert np.allclose(out, [0.3, -0.3], atol=0)

    def test_compose_exact_addition_within_bound(self):
        out = residual_compose(np.array([0.2]), np.array([0.1]), 0.3)
        assert out[0] == pytest.approx(0.3, abs=1e-15)

    def test_compose_dim_mismatch(self):
        with pytest.raises(DimensionError):
            residual_compose(np.zeros(2), np.zeros(3), 0.3)

    def test_width_out_of_range_names_layer(self):
        with pytest.raises(ValidationError, match=r"^hidden\.0 must be in "):
            ResidualPolicy(6, 6, 2, hidden=(MAX_LAYER_WIDTH + 1,))

    def test_fresh_residual_outputs_zero(self):
        env = tiny_env()
        res = init_residual(env, hidden=(16,), bound=0.3, rng=np.random.default_rng(0))
        motion = make_sine(0.2, 0.25, duration=4.0)
        obs = env.reset(motion, [0])
        out = distill.residual_action(env, obs, np.zeros((1, 2)), np.zeros((1, 2)),
                                      [(np.array([[0]]), res.params)])
        assert out.shape == (1, 2) and np.all(out == 0.0)

    def test_zero_bound_equals_base_exactly(self):
        env = tiny_env(episode_len=40)
        motion = make_sine(0.2, 0.25, duration=4.0)
        net = init_net(2, env.obs_dim, hidden=(16,), rng=np.random.default_rng(2))
        res = init_residual(env, hidden=(8,), bound=0.0, rng=np.random.default_rng(3))
        base = evaluate_policy(net, env, {"m": motion}, n_rollouts=2, seed=5)["m"]
        both = evaluate_policy(net, env, {"m": motion}, residual=res,
                               n_rollouts=2, seed=5)["m"]
        assert base == both


class TestResidualCheckpoint:
    def test_roundtrip(self, tmp_path):
        res = init_residual(tiny_env(), hidden=(8,), bound=0.3, rng=np.random.default_rng(0))
        distill.save_residual(res, tmp_path / "r.json")
        back = distill.load_residual(tmp_path / "r.json")
        for (W1, b1), (W2, b2) in zip(res.params, back.params):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
        # the loaded residual's header is the saved one: saving it again
        # writes the same bytes
        distill.save_residual(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "r.json").read_bytes()

    def test_header_and_params_disagree_on_layer_count(self, tmp_path):
        import json
        res = init_residual(tiny_env(), hidden=(8,), bound=0.3, rng=np.random.default_rng(0))
        path = tmp_path / "r.json"
        distill.save_residual(res, path)
        doc = json.loads(path.read_text())
        doc["layer_shapes"].append([2, 2])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="r.json"):
            distill.load_residual(path)

    @staticmethod
    def _edited_checkpoint(tmp_path, edit):
        import json
        res = init_residual(tiny_env(), hidden=(8,), bound=0.3, rng=np.random.default_rng(0))
        path = tmp_path / "r.json"
        distill.save_residual(res, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_extra_layer_in_header_and_params(self, tmp_path):
        def edit(doc):
            doc["layer_shapes"].append([2, 2])
            doc["params"].append([[[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]])
        path = self._edited_checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"r\.json.*expected 2 residual layers"):
            distill.load_residual(path)

    def test_dropped_output_layer(self, tmp_path):
        def edit(doc):
            del doc["layer_shapes"][-1], doc["params"][-1]
        path = self._edited_checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"r\.json.*expected 2 residual layers"):
            distill.load_residual(path)

    @pytest.mark.parametrize("key, value", [
        ("hidden", 8), ("proprio_dim", "x"), ("bound", None), ("action_dim", [2]),
    ])
    def test_header_field_of_wrong_type_named(self, tmp_path, key, value):
        path = self._edited_checkpoint(tmp_path, lambda d: d.update({key: value}))
        with pytest.raises(CheckpointError, match=rf"r\.json: '{key}"):
            distill.load_residual(path)

    def test_malformed_block_named(self, tmp_path):
        import json
        res = init_residual(tiny_env(), hidden=(8,), bound=0.3, rng=np.random.default_rng(0))
        path = tmp_path / "r.json"
        distill.save_residual(res, path)
        doc = json.loads(path.read_text())
        doc["params"][0][0][1] = "w"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"r\.json.*params\[0\]"):
            distill.load_residual(path)


class TestESRefine:
    def test_zero_population_unchanged(self):
        env = tiny_env(episode_len=30)
        motion = make_sine(0.2, 0.25, duration=4.0)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
        res = init_residual(env, hidden=(8,), bound=0.2, rng=np.random.default_rng(1))
        before = [(W.copy(), b.copy()) for W, b in res.params]
        out, history = es_refine(net, res, env, motion,
                                 ESCfg(generations=3, population=0, episodes_per_eval=1, seed=0))
        assert len(history) == 4
        for (W1, b1), (W2, b2) in zip(before, out.params):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)

    def test_best_history_monotone(self):
        env = tiny_env(episode_len=30)
        motion = make_sine(0.2, 0.25, duration=4.0)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(0))
        res = init_residual(env, hidden=(8,), bound=0.2, rng=np.random.default_rng(1))
        _, history = es_refine(net, res, env, motion,
                               ESCfg(generations=4, population=2, episodes_per_eval=1, seed=0))
        assert all(b >= a for a, b in zip(history, history[1:]))


class TestEvaluatePolicy:
    def test_expert_equivalent_policy_succeeds(self, two_sine_setup):
        env = two_sine_setup["env"]
        net = two_sine_setup["net"]
        motion = two_sine_setup["motions"][0]
        res = evaluate_policy(net, env, {"slow": motion}, n_rollouts=3, seed=0)
        assert res["slow"].success == 1.0
        assert res["slow"].mpjpe_mm < 100.0

    def test_random_policy_fails_fast_motion(self):
        env = ArmEnv({"episode_len": 200})
        motion = make_sine(0.5, 0.9, duration=4.0)
        rng = np.random.default_rng(0)
        net = init_net(2, env.obs_dim, hidden=(16,), rng=rng)
        for W, b in net.params:  # crank the weights so actions flail
            W *= 5.0
        res = evaluate_policy(net, env, {"fast": motion}, n_rollouts=3, seed=0)
        assert res["fast"].success == 0.0

    def test_deterministic_given_seed(self):
        env = tiny_env(episode_len=40)
        motion = make_sine(0.2, 0.25, duration=4.0)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(1))
        r1 = evaluate_policy(net, env, {"m": motion}, n_rollouts=2, seed=9)
        r2 = evaluate_policy(net, env, {"m": motion}, n_rollouts=2, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize("motions, n_rollouts, error", [
        ({}, 10, None),  # nothing to evaluate: no rollout, no metrics
        ({}, 0, ValidationError),
        ({"m": make_sine(0.2, 0.25, duration=4.0)}, 0, ValidationError),
        ({"m": make_sine(0.2, 0.25, duration=4.0)}, distill.MAX_ROLLOUTS + 1, ValidationError),
    ])
    def test_input_checked_before_any_rollout(self, monkeypatch, motions, n_rollouts, error):
        def no_rollout(*args, **kwargs):
            raise AssertionError("rolled out")

        monkeypatch.setattr(distill, "rollout_batch", no_rollout)
        env = tiny_env(episode_len=40)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(1))
        if error is None:
            assert evaluate_policy(net, env, motions, n_rollouts=n_rollouts) == {}
        else:
            with pytest.raises(error, match="n_rollouts"):
                evaluate_policy(net, env, motions, n_rollouts=n_rollouts)

    def test_segments_long_motion(self):
        env = tiny_env(episode_len=40)
        motion = make_sine(0.2, 0.25, duration=20.5)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(1))
        res = evaluate_policy(net, env, {"m": motion}, n_rollouts=1, seed=0)
        assert res["m"].n_episodes == 2  # 2 ten-second clips, 0.5 s remainder dropped

    def test_mpjpe_is_mean_of_episode_means(self):
        # episodes that end at different steps: the clip's MPJPE is the mean of
        # the per-episode MPJPEs, not the mean over all frames pooled
        env = ArmEnv({"episode_len": 60,
                      "thresholds": {"z_err_max": 0.02, "grav_err_max": 0.2}})
        motion = make_sine(0.4, 0.5, duration=2.0)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(3))
        net.params = [(3.0 * W, b) for W, b in net.params]
        n = 6
        res = evaluate_policy(net, env, {"m": motion}, n_rollouts=n, seed=1)["m"]
        log, = distill.rollout_batch(
            env, net, [(motion, [distill.hash_seed(1, "m", 0, r) for r in range(n)], None)])
        steps = log["steps"]
        assert len(set(steps.tolist())) > 1
        ref = [log["ref_body_pos"][:k, i] for i, k in enumerate(steps)]
        rob = [log["body_pos"][:k, i] for i, k in enumerate(steps)]
        per_episode = np.mean([metrics.mpjpe(a, b) for a, b in zip(ref, rob)])
        pooled = metrics.mpjpe(np.concatenate(ref), np.concatenate(rob))
        assert res.mpjpe_mm == float(per_episode)
        assert abs(per_episode - pooled) > 1e-6


class TestRolloutEpisode:
    def test_episode_return_floor(self):
        # a group log of two episodes, of 2 and 3 of the 5 steps
        log = {"rewards": np.array([[-0.1, -0.1], [-0.1, -0.1], [0.0, -0.1], [0.0, 0.0],
                                    [0.0, 0.0]]), "steps": np.array([2, 3])}
        assert distill.episode_return(log, 5, -1.0) == pytest.approx([-3.2, -2.3])

    def test_same_seed_same_trajectory(self):
        env = tiny_env(episode_len=30)
        motion = make_sine(0.2, 0.25, duration=4.0)
        net = init_net(2, env.obs_dim, hidden=(8,), rng=np.random.default_rng(1))
        l1 = rollout_episode(env, net, motion, 42)
        l2 = rollout_episode(env, net, motion, 42)
        assert np.array_equal(l1["body_pos"], l2["body_pos"])
        assert np.array_equal(l1["rewards"], l2["rewards"])

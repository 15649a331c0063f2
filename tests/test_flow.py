import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack import flow
from flowtrack.errors import CheckpointError, DimensionError, ValidationError
from flowtrack.flow import (MAX_LAYER_WIDTH, MAX_SAMPLER_STEPS, AdamState, FMBatch,
                            VelocityFieldNet, adam_step, euler_sample, fm_loss_and_grad,
                            fm_loss_and_grad_at, init_net, load_policy, save_policy,
                            time_embedding)


def identity_on_action_net(action_dim=2, obs_dim=3):
    """Single linear layer returning the a_t block unchanged."""
    net = init_net(action_dim, obs_dim, hidden=(), time_embed_dim=4)
    W, b = net.params[0]
    W = W.copy()
    W[:, :action_dim] = np.eye(action_dim)
    net.params[0] = (W, b)
    return net


def field(net, a, t, obs):
    """The velocity field at (N, action_dim) rows: the product `euler_sample`
    takes each step, on the rows `fm_loss_and_grad_at` builds."""
    return flow.mlp_forward(net.params, flow._input_rows(net, a, t, obs))


def constant_net(u, obs_dim=3):
    net = init_net(len(u), obs_dim, hidden=(), time_embed_dim=4)
    W, b = net.params[0]
    net.params[0] = (W, np.asarray(u, dtype=float))
    return net


class TestForward:
    def test_zero_initialized_net_outputs_zero(self):
        net = init_net(2, 3, hidden=(8,))
        out = field(net, np.ones((1, 2)), 0.5, np.ones((1, 3)))
        assert out.shape == (1, 2) and np.all(out == 0.0)

    def test_identity_on_action_block(self):
        net = identity_on_action_net()
        a = np.array([[0.3, -1.2]])
        assert np.array_equal(field(net, a, 0.7, np.ones((1, 3))), a)

    def test_deterministic(self):
        net = init_net(2, 3, hidden=(16, 16), rng=np.random.default_rng(0))
        a, obs = np.ones((1, 2)), np.ones((1, 3))
        o1 = field(net, a, 0.3, obs)
        o2 = field(net, a, 0.3, obs)
        assert np.array_equal(o1, o2)

    @pytest.mark.parametrize("hidden", [(0,), (8, MAX_LAYER_WIDTH + 1)])
    def test_width_out_of_range_names_layer(self, hidden):
        with pytest.raises(ValidationError, match=rf"^hidden\.{len(hidden) - 1} must be in "):
            VelocityFieldNet(2, 5, hidden=hidden)

    def test_dim_mismatch(self):
        """The sampler checks its noise against the net's action dim and its
        observations against the net's obs dim."""
        net = init_net(2, 3)
        with pytest.raises(DimensionError, match="noise of shape"):
            euler_sample(net, np.ones((1, 3)), np.ones((1, 4)))
        with pytest.raises(DimensionError, match="obs dim 5 != net obs dim 3"):
            euler_sample(net, np.ones((1, 5)), np.ones((1, 2)))

    def test_batched_matches_single(self):
        net = init_net(2, 3, hidden=(8,), rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 2))
        obs = rng.standard_normal((4, 3))
        t = rng.uniform(size=4)
        batch = field(net, a, t, obs)
        for i in range(4):
            assert np.allclose(batch[i], field(net, a[i:i + 1], t[i:i + 1], obs[i:i + 1])[0],
                               atol=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 24),
           sizes=st.lists(st.integers(1, 140), min_size=2, max_size=4),
           stacked=st.booleans())
    def test_one_group_matches_plain_rows(self, seed, rows, sizes, stacked):
        """A lone group, (1, m, in), is bit-equal to the plain (m, in) call,
        with shared (out, in) weights or stacked (1, out, in) weights and
        (1, 1, out) biases; the rollout engine relies on this to give every
        row group the stacked form."""
        rng = np.random.default_rng(seed)
        params = flow.mlp_init(sizes, rng)
        params = [(W, rng.standard_normal(b.shape)) for W, b in params]
        x = rng.standard_normal((rows, sizes[0]))
        grouped = [(W[None], b[None, None]) for W, b in params] if stacked else params
        want = flow.mlp_forward(params, x)
        got = flow.mlp_forward(grouped, x[None])
        assert got.shape == (1, *want.shape)
        assert np.array_equal(got[0], want)


class TestLoss:
    def test_perfect_net_zero_loss(self):
        # with eps = 0 the target is -a_expert; a constant net can be exact
        a_exp = np.array([[0.4, -0.7]])
        net = constant_net(-a_exp[0])
        batch = FMBatch(np.ones((1, 3)), a_exp)
        loss, _ = fm_loss_and_grad_at(net, batch, t=np.array([0.3]), eps=np.zeros((1, 2)))
        assert loss == 0.0

    def test_loss_non_negative(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            net = init_net(2, 3, hidden=(6,), rng=np.random.default_rng(seed))
            batch = FMBatch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
            loss, _ = fm_loss_and_grad(net, batch, rng)
            assert loss >= 0.0

    def test_gradcheck_small_nets(self):
        h = 1e-6
        for seed in range(3):
            rng = np.random.default_rng(seed)
            net = init_net(2, 4, hidden=(6, 5), time_embed_dim=4, rng=rng)
            batch = FMBatch(rng.standard_normal((4, 4)), rng.standard_normal((4, 2)))
            t = rng.beta(1.5, 1.0, size=4)
            eps = rng.standard_normal((4, 2))
            _, grads = fm_loss_and_grad_at(net, batch, t, eps)
            worst = 0.0
            for li, (W, b) in enumerate(net.params):
                for arr, gi in ((W, 0), (b, 1)):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + h
                        lp, _ = fm_loss_and_grad_at(net, batch, t, eps)
                        arr[idx] = orig - h
                        lm, _ = fm_loss_and_grad_at(net, batch, t, eps)
                        arr[idx] = orig
                        g_fd = (lp - lm) / (2 * h)
                        g_an = grads[li][gi][idx]
                        worst = max(worst, abs(g_an - g_fd) / max(abs(g_an), abs(g_fd), 1e-3))
            assert worst < 1e-4

    def test_gradients_without_workspace_are_distinct(self):
        """Each call without a workspace returns arrays of its own, so the
        gradient checks above compare a fresh result every time."""
        net = init_net(2, 4, hidden=(6, 5), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = FMBatch(rng.standard_normal((7, 4)), rng.standard_normal((7, 2)))
        _, first = fm_loss_and_grad(net, batch, rng)
        _, second = fm_loss_and_grad(net, batch, rng)
        for pair_1, pair_2 in zip(first, second):
            for g1, g2 in zip(pair_1, pair_2):
                assert not np.shares_memory(g1, g2)
                assert not np.array_equal(g1, g2)
        # at fixed draws too: the second call leaves the first's gradients as they were
        draws = [(rng.beta(1.5, 1.0, size=7), rng.standard_normal((7, 2))) for _ in range(2)]
        _, first = fm_loss_and_grad_at(net, batch, *draws[0])
        kept = [(gW.copy(), gb.copy()) for gW, gb in first]
        _, second = fm_loss_and_grad_at(net, batch, *draws[1])
        for (gW, gb), (kW, kb), (sW, sb) in zip(first, kept, second):
            assert np.array_equal(gW, kW) and np.array_equal(gb, kb)
            assert not np.shares_memory(gW, sW) and not np.shares_memory(gb, sb)
            assert not np.array_equal(gW, sW)

    def test_workspace_gradients_alias_it(self):
        """With a workspace the step gives the same bits as without, and its
        gradients are the workspace's buffers, rewritten by the next step."""
        net = init_net(2, 4, hidden=(6, 5, 3), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batch = FMBatch(rng.standard_normal((7, 4)), rng.standard_normal((7, 2)))
        ws = flow.GradWorkspace(net, 7)
        draws = [(rng.beta(1.5, 1.0, size=7), rng.standard_normal((7, 2))) for _ in range(2)]
        for t, eps in draws:
            want_loss, want = fm_loss_and_grad_at(net, batch, t, eps)
            loss, got = fm_loss_and_grad_at(net, batch, t, eps, ws)
            assert loss == want_loss
            for (gW, gb), (wW, wb), (bW, bb) in zip(got, want, ws.grads):
                assert gW is bW and gb is bb
                assert np.array_equal(gW, wW) and np.array_equal(gb, wb)

    def test_workspace_of_other_shape_rejected(self):
        net = init_net(2, 4, hidden=(6,), rng=np.random.default_rng(0))
        batch = FMBatch(np.zeros((5, 4)), np.zeros((5, 2)))
        t, eps = np.full(5, 0.5), np.zeros((5, 2))
        for ws in (flow.GradWorkspace(net, 4),
                   flow.GradWorkspace(init_net(2, 4, hidden=(7,)), 5)):
            with pytest.raises(DimensionError, match="workspace"):
                fm_loss_and_grad_at(net, batch, t, eps, ws)

    def test_empty_batch_rejected(self):
        with pytest.raises(DimensionError):
            FMBatch(np.zeros((0, 3)), np.zeros((0, 2)))
        with pytest.raises(DimensionError):
            FMBatch(np.zeros((2, 3)), np.zeros((3, 2)))


class TestTimestepSampling:
    def test_beta22_variance(self):
        rng = np.random.default_rng(1)
        draws = rng.beta(2.0, 2.0, size=100_000)
        assert abs(draws.var() - 1.0 / 20.0) < 0.1 / 20.0

    def test_zero_steps_rejected(self):
        # a float or a boolean count passed the range check; 2.5 then failed
        # in `euler_sample` with a bare TypeError
        for steps in (0, MAX_SAMPLER_STEPS + 1, 2.5, True):
            with pytest.raises(ValidationError, match="sampler_steps must be an integer in"):
                init_net(2, 3, hidden=(4,), sampler_steps=steps)


class TestTimeEmbedding:
    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_written_into_a_view_bit_for_bit(self, dim):
        """Into `out`, a view of some columns (as the training step's workspace
        input), the features are the bits of the sin and cos blocks
        concatenated, and no other column changes."""
        t = np.random.default_rng(dim).beta(1.5, 1.0, 257)
        ang = np.pi * (4.0 ** np.arange(dim // 2)) * t[:, None]
        want = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
        x = np.full((257, dim + 5), 7.0)
        got = time_embedding(t, dim, out=x[:, 2:2 + dim])
        assert np.shares_memory(got, x)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert np.all(x[:, :2] == 7.0) and np.all(x[:, 2 + dim:] == 7.0)
        assert time_embedding(t, dim).tobytes() == want.tobytes()

    def test_sampler_table_is_shared_and_read_only(self):
        emb = flow._sampler_embedding(5, 8)
        assert flow._sampler_embedding(5, 8) is emb and not emb.flags.writeable
        assert emb.tobytes() == time_embedding(1.0 - np.arange(5) / 5, 8).tobytes()


class TestEulerSampler:
    def test_constant_field_exact(self):
        u = np.array([1.25, -0.5])
        net = constant_net(u)
        for D in (1, 5, 100):
            out = euler_sample(replace(net, sampler_steps=D), np.zeros(3),
                               np.random.default_rng(42).standard_normal(2))
            # independent implementation of the same recurrence
            x = np.random.default_rng(42).standard_normal(2)
            for _ in range(D):
                x = x - u / D
            assert np.array_equal(out, x)
            x1 = np.random.default_rng(42).standard_normal(2)
            assert np.max(np.abs(out - (x1 - u))) < 1e-12

    def test_linear_field_matches_ode(self):
        net = replace(identity_on_action_net(), sampler_steps=1000)
        out = euler_sample(net, np.zeros(3), np.random.default_rng(7).standard_normal(2))
        x1 = np.random.default_rng(7).standard_normal(2)
        analytic = np.exp(-1.0) * x1
        assert np.max(np.abs(out - analytic) / np.abs(analytic)) < 0.02

    def test_rows_draw_from_their_own_streams(self):
        """Each row's noise drawn from its own stream gives that stream's
        action for the row alone."""
        net = init_net(2, 3, hidden=(8,), rng=np.random.default_rng(3))
        obs = np.random.default_rng(4).standard_normal((3, 3))
        noise = np.array([np.random.default_rng(s).standard_normal(2) for s in (1, 2, 3)])
        rows = euler_sample(net, obs, noise)
        assert rows.shape == (3, 2)
        for row, o, s in zip(rows, obs, (1, 2, 3)):
            single = euler_sample(net, o, np.random.default_rng(s).standard_normal(2))
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_per_step_forward_loop_bit_for_bit(self, n):
        """The sampler takes the net's own `sampler_steps` D steps (5, then 2)."""
        D = 5 if n == 1 else 2
        net = init_net(2, 5, hidden=(16, 16), time_embed_dim=6, sampler_steps=D,
                       rng=np.random.default_rng(2))
        obs = np.random.default_rng(5).standard_normal((n, 5))
        noise = np.array([np.random.default_rng(s).standard_normal(2) for s in range(10, 10 + n)])
        out = euler_sample(net, obs, noise)
        # the sampler's recurrence, one field evaluation per step
        x = noise
        for k in range(D):
            x = x - field(net, x, 1.0 - k / D, obs) / D
        assert np.array_equal(out, x)
        single = euler_sample(net, obs[0], noise[0])
        x = noise[:1]
        for k in range(D):
            x = x - field(net, x, 1.0 - k / D, obs[:1]) / D
        assert single.shape == (2,) and np.array_equal(single, x[0])
        if n == 1:  # one observation is the batch of one
            assert np.array_equal(single, out[0])

    def test_same_seed_same_action(self):
        net = init_net(2, 3, hidden=(8,), rng=np.random.default_rng(3))
        a1 = euler_sample(net, np.ones(3), np.random.default_rng(9).standard_normal(2))
        a2 = euler_sample(net, np.ones(3), np.random.default_rng(9).standard_normal(2))
        assert np.array_equal(a1, a2)


class TestAdam:
    def test_zero_grads_no_change(self):
        rng = np.random.default_rng(0)
        params = [(rng.standard_normal((3, 2)), rng.standard_normal(3))]
        zeros = [(np.zeros((3, 2)), np.zeros(3))]
        before = [(W.copy(), b.copy()) for W, b in params]
        new, _ = adam_step(params, zeros, AdamState(), lr=0.1)
        assert np.array_equal(new[0][0], before[0][0])
        assert np.array_equal(new[0][1], before[0][1])

    def test_updates_in_place(self):
        """The update is written into the given arrays, and the state's
        moments are the same arrays from step to step."""
        params = [(np.ones((2, 3)), np.ones(2))]
        grads = [(np.full((2, 3), 0.5), np.full(2, -0.5))]
        state = AdamState()
        new, state2 = adam_step(params, grads, state, lr=0.1)
        assert new is params and state2 is state and state.step == 1
        assert np.all(params[0][0] < 1.0) and np.all(params[0][1] > 1.0)
        moments = [id(a) for a in (*state.m[0], *state.v[0])]
        adam_step(params, grads, state, lr=0.1)
        assert [id(a) for a in (*state.m[0], *state.v[0])] == moments and state.step == 2

    def test_first_step_is_signed_lr(self):
        params = [(np.zeros((1, 1)), np.zeros(1))]
        grads = [(np.array([[3.7]]), np.array([-0.2]))]
        new, _ = adam_step(params, grads, AdamState(), lr=1e-2)
        assert abs(new[0][0][0, 0] - (-1e-2)) < 1e-6
        assert abs(new[0][1][0] - 1e-2) < 1e-6

    def test_quadratic_bowl_descent(self):
        params = [(np.array([[1.0]]), np.zeros(1))]
        state = AdamState()
        losses = []
        for _ in range(300):
            x = params[0][0][0, 0]
            losses.append(x * x)
            grads = [(np.array([[2 * x]]), np.zeros(1))]
            params, state = adam_step(params, grads, state, lr=0.01)
        # monotone while far from the optimum (Adam dithers at the lr floor)
        head = losses[:80]
        assert all(b <= a + 1e-12 for a, b in zip(head, head[1:]))
        assert min(losses) < 1e-3


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = init_net(2, 5, hidden=(16, 8), time_embed_dim=6, alpha=1.7, beta=0.9,
                       rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        save_policy(net, path)
        back = load_policy(path)
        assert back.hidden == net.hidden
        assert back.time_embed_dim == net.time_embed_dim
        assert (back.alpha, back.beta) == (net.alpha, net.beta)
        for (W1, b1), (W2, b2) in zip(net.params, back.params):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)
        # the loaded net's header is the saved one: saving it again writes
        # the same bytes
        save_policy(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("steps", [2, 5])
    def test_sampler_steps_written_unless_five(self, tmp_path, steps):
        """A checkpoint holds the net's `sampler_steps` unless it is 5, the
        count of every file written before the field existed, and one without
        the key loads as 5: files that predate it keep loading and keep their
        bytes."""
        import json
        net = init_net(2, 3, hidden=(4,), sampler_steps=steps, rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        save_policy(net, path)
        doc = json.loads(path.read_text())
        assert doc.get("sampler_steps") == (None if steps == 5 else steps)
        assert load_policy(path).sampler_steps == steps
        doc["sampler_steps"] = steps  # written out, the default reads the same
        path.write_text(json.dumps(doc))
        assert load_policy(path).sampler_steps == steps

    @pytest.mark.parametrize("value, message", [
        (0, r"inconsistent checkpoint \(sampler_steps must be an integer in \[1, 10000\], "
            r"got 0\)"),
        (True, "'sampler_steps' must be an integer"),
        (1.5, "'sampler_steps' must be an integer"),
    ])
    def test_bad_sampler_steps_named(self, tmp_path, value, message):
        import json
        path = tmp_path / "p.json"
        save_policy(init_net(2, 3, hidden=(4,)), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "sampler_steps": value}))
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_policy(path)

    def test_corrupted_shape_header(self, tmp_path):
        import json
        net = init_net(2, 3, hidden=(4,), rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        save_policy(net, path)
        doc = json.loads(path.read_text())
        doc["layer_shapes"][0][0] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_policy(path)

    def test_unknown_version_rejected(self, tmp_path):
        import json
        net = init_net(2, 3, hidden=(4,), rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        save_policy(net, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="999"):
            load_policy(path)

    def test_header_and_params_disagree_on_layer_count(self, tmp_path):
        import json
        net = init_net(2, 3, hidden=(4,), rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        save_policy(net, path)
        doc = json.loads(path.read_text())
        doc["params"] = doc["params"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="p.json"):
            load_policy(path)

    @staticmethod
    def _edited_checkpoint(tmp_path, edit):
        import json
        net = init_net(2, 3, hidden=(4,), rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        save_policy(net, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_three_item_params_entry(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, lambda d: d["params"][0].append([0.0]))
        with pytest.raises(CheckpointError, match=r"p\.json.*params\[0\]"):
            load_policy(path)

    def test_non_list_layer_shapes(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, lambda d: d.update(layer_shapes=7))
        with pytest.raises(CheckpointError, match=r"p\.json.*layer_shapes"):
            load_policy(path)

    def test_ragged_weight_matrix(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, lambda d: d["params"][1][0][0].append(1.0))
        with pytest.raises(CheckpointError, match=r"p\.json.*params\[1\]"):
            load_policy(path)

    @pytest.mark.parametrize("key, value", [
        ("hidden", 8), ("hidden", ["4"]), ("obs_dim", "x"), ("alpha", None),
        ("beta", True), ("time_embed_dim", 2.5), ("activation", 3),
    ])
    def test_header_field_of_wrong_type_named(self, tmp_path, key, value):
        path = self._edited_checkpoint(tmp_path, lambda d: d.update({key: value}))
        with pytest.raises(CheckpointError, match=rf"p\.json: '{key}"):
            load_policy(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(layer_shapes=[], params=[]), "'params' holds no layer"),
        (lambda d: d["layer_shapes"][0].pop(), r"'layer_shapes\[0\]' must be \[rows, cols\]"),
        (lambda d: d["params"][1][0][0].__setitem__(0, float("nan")),
         r"'params\[1\]' holds non-finite values"),
        # a boolean or a quoted number is no number: numpy read them as 1.0
        (lambda d: d["params"][0][0][1].__setitem__(0, True),
         r"'params\[0\]' is not a rectangular numeric array \(must be numeric\)"),
        (lambda d: d["params"][1][1].__setitem__(0, "0.5"),
         r"'params\[1\]' is not a rectangular numeric array \(must be numeric\)"),
        (lambda d: d.update(version=True), r"unsupported checkpoint version True"),
        # layer shapes that fit the params, but not the header's input width
        (lambda d: d.update(obs_dim=4), "inconsistent checkpoint"),
    ], ids=["no_layers", "one_entry_shape", "nan_weight", "bool_weight", "string_bias",
            "bool_version", "obs_dim"])
    def test_malformed_params_named(self, tmp_path, edit, message):
        path = self._edited_checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match=rf"p\.json: {message}"):
            load_policy(path)

    def test_unknown_activation_rejected(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, lambda d: d.update(activation="relu"))
        with pytest.raises(CheckpointError, match=r"p\.json.*unknown activation 'relu'"):
            load_policy(path)

    def test_extra_layer_in_header_and_params(self, tmp_path):
        def edit(doc):
            doc["layer_shapes"].append([2, 2])
            doc["params"].append([[[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]])
        path = self._edited_checkpoint(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"p\.json.*expected 2 layers"):
            load_policy(path)

    def test_top_level_not_an_object(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1]")
        with pytest.raises(CheckpointError, match=r"p\.json"):
            load_policy(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"version": 1, "kind": "velocity_field"')
        with pytest.raises(CheckpointError):
            load_policy(path)


class TestTrainingBehaviour:
    OBS = np.random.default_rng(0).standard_normal(4)
    A_EXP = np.array([0.6, -0.4])

    def _train_single_pair(self, alpha, beta, steps):
        rng = np.random.default_rng(0)
        net = init_net(2, 4, hidden=(64, 64), alpha=alpha, beta=beta,
                       rng=np.random.default_rng(1))
        batch = FMBatch(np.tile(self.OBS, (128, 1)), np.tile(self.A_EXP, (128, 1)))
        state = AdamState()
        losses = []
        for i in range(steps):
            lr = 3e-3 if i < steps // 2 else (1e-3 if i < 3 * steps // 4 else 3e-4)
            loss, grads = fm_loss_and_grad(net, batch, rng)
            net.params, state = adam_step(net.params, grads, state, lr=lr)
            losses.append(loss)
        return net, losses

    def test_single_pair_loss_drops(self):
        _, losses = self._train_single_pair(1.5, 1.0, steps=3000)
        assert min(losses) < 1e-3

    def test_sampler_converges_to_expert_with_more_steps(self):
        # Beta(0.3, 1) puts real training mass on small flow times, so the
        # field is converged over the whole range a many-step integration
        # evaluates, not just the coarse D=5 grid.
        net, _ = self._train_single_pair(0.3, 1.0, steps=5000)
        def mean_err(D, n=128):
            rng = np.random.default_rng(5)
            errs = [np.linalg.norm(
                euler_sample(replace(net, sampler_steps=D), self.OBS, rng.standard_normal(2))
                - self.A_EXP)
                for _ in range(n)]
            return float(np.mean(errs))
        e5, e100 = mean_err(5), mean_err(100)
        assert e100 <= e5
        assert e5 < 0.15

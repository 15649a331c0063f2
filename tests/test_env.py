import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack import actuation
from flowtrack.env import (MAX_EPISODE_LEN, MAX_HISTORY_LEN, MAX_SUBSTEPS, ArmEnv,
                           ExpertPolicy, RandomizationCfg, _solve, expert_action,
                           load_env_config, merge_config)
from flowtrack.errors import ConfigError, NumericalBlowupError, ValidationError
from flowtrack.metrics import check_termination
from flowtrack.motion import SynthMotionSpec, synth_motion

from conftest import NO_RANDOMIZATION, make_sine


def quiet_env(**overrides):
    cfg = {"episode_len": 100, "randomization": dict(NO_RANDOMIZATION)}
    cfg.update(overrides)
    return ArmEnv(cfg)


class TestConfig:
    def test_defaults_build(self):
        env = ArmEnv()
        assert env.n_joints == 2
        assert env.dt == 0.02
        assert env.episode_len == 500

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            ArmEnv({"bogus": 1})
        with pytest.raises(ConfigError, match="randomization.bogus"):
            ArmEnv({"randomization": {"bogus": 1}})

    def test_load_env_config(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps({"gravity": 3.0, "episode_len": 42}))
        cfg = load_env_config(path)
        assert cfg["gravity"] == 3.0
        assert cfg["episode_len"] == 42
        assert cfg["links"] == merge_config(None)["links"]

    def test_unknown_actuator(self):
        with pytest.raises(ConfigError, match="unknown actuator"):
            ArmEnv({"actuators": ["nope", "nope"]})

    def test_unknown_actuator_name_kept_as_given(self):
        # a quoted name that reads like `key=value` is a value, not a key
        with pytest.raises(ConfigError, match=re.escape(
                "env.actuators.0: unknown actuator 'x=1' (catalog: [")):
            ArmEnv({"actuators": ["x=1", "5020-16"]}, section="env")

    def test_gains_follow_nominal_catalog_under_envelope_scale(self):
        base = ArmEnv()
        tight = ArmEnv({"envelope_scale": 0.7})
        assert tight.kp[0] == base.kp[0]
        assert tight.action_scale[0] == base.action_scale[0]
        assert tight.actuators[0].tau_y1 == pytest.approx(0.7 * base.actuators[0].tau_y1)


    @pytest.mark.parametrize("key, value", [
        ("history_len", -1), ("episode_len", 0), ("gravity", float("nan")),
        ("gravity", float("inf")), ("envelope_scale", float("nan")),
        ("envelope_scale", 0.0), ("links", []), ("actuators", ["5020-16"]),
    ])
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ArmEnv({key: value})

    @pytest.mark.parametrize("config, key", [
        ({"links": [{"mass": 0.0, "length": 0.5}, {"mass": 1.0, "length": 0.4}]},
         "links.0.mass"),
        ({"links": [{"mass": 1.2, "length": 0.5}, {"mass": 1.0, "length": -0.4}]},
         "links.1.length"),
        ({"thresholds": {"z_err_max": 0.0}}, "thresholds.z_err_max"),
        ({"pd": {"zeta": 0.0}}, "pd.zeta"),
        ({"pd": {"f_hz": -1.0}}, "pd.f_hz"),
        ({"randomization": {"pose_noise": -0.1}}, "randomization.pose_noise"),
        ({"power_penalty": {"deadband": -1.0}}, "power_penalty.deadband"),
        ({"episode_len": MAX_EPISODE_LEN + 1}, "episode_len"),
        ({"history_len": MAX_HISTORY_LEN + 1}, "history_len"),
        ({"pd": {"f_hz": 1e-200}}, "pd.f_hz"),  # kp underflows to 0
        ({"n_substeps": MAX_SUBSTEPS + 1}, "n_substeps"),
        # aggressive ranges (times aggressive_factor 1.5) that could make a link
        # mass non-positive or a friction coefficient negative
        ({"randomization": {"mass_scale": 0.9}}, "randomization.mass_scale"),
        ({"randomization": {"mass_scale": 2.0 / 3.0}}, "randomization.mass_scale"),
        ({"randomization": {"friction_scale": 0.7}}, "randomization.friction_scale"),
        ({"randomization": {"mass_scale": 0.5, "aggressive_factor": 2.0}},
         "randomization.mass_scale"),
        ({"pd": {"zeta": 5e-324}}, "pd.zeta"),  # kd underflows to 0
    ])
    def test_range_error_names_dotted_key(self, config, key):
        with pytest.raises(ConfigError, match=re.escape(key) + " must be"):
            ArmEnv(config)
        with pytest.raises(ConfigError, match=re.escape("env." + key) + " must be"):
            ArmEnv(config, section="env")


class TestReset:
    def test_zero_noise_matches_frame0(self):
        env = quiet_env()
        clip = make_sine(0.3, 0.4, duration=4.0)
        env.reset(clip, 0)
        assert np.array_equal(env.q, clip.q[0])

    def test_same_seed_identical(self):
        env = ArmEnv({"episode_len": 50})
        clip = make_sine(0.3, 0.4, duration=4.0)
        o1 = env.reset(clip, 123)
        q1 = env.q
        o2 = env.reset(clip, 123)
        assert np.array_equal(o1, o2)
        assert np.array_equal(q1, env.q)

    def test_joint_count_mismatch(self):
        env = quiet_env()
        bad = make_sine(0.3, 0.4, duration=4.0)
        from flowtrack.motion import SynthMotionSpec, synth_motion
        bad = synth_motion(SynthMotionSpec(3, 4.0, 50.0, amplitude=0.1, frequency=0.2))
        with pytest.raises(ValidationError):
            env.reset(bad, 0)

    def test_fps_mismatch(self):
        env = quiet_env()
        from flowtrack.motion import SynthMotionSpec, synth_motion
        bad = synth_motion(SynthMotionSpec(2, 4.0, 25.0, amplitude=0.1, frequency=0.2,
                                           link_lengths=(0.5, 0.4)))
        with pytest.raises(ConfigError, match="fps"):
            env.reset(bad, 0)

    def test_aggressive_bounds(self):
        base = RandomizationCfg()
        env = ArmEnv({"episode_len": 50})
        clip = make_sine(0.3, 0.4, duration=4.0)
        worst = 0.0
        for seed in range(200):
            env.reset(clip, seed, mode="aggressive")
            worst = max(worst, float(np.max(np.abs(env.q - clip.q[0]))))
        assert worst <= base.aggressive_factor * base.pose_noise + 1e-12
        assert worst > base.pose_noise  # aggressive mode actually widens the range

    def test_widest_aggressive_ranges_stay_physical(self):
        """At the largest ranges RandomizationCfg takes, aggressive resets keep
        every link mass positive and every friction coefficient non-negative
        (ActuatorParams refuses a negative one)."""
        env = ArmEnv({"episode_len": 50, "randomization": {
            "mass_scale": 0.49, "friction_scale": 0.5, "aggressive_factor": 2.0}})
        clip = make_sine(0.3, 0.4, duration=4.0)
        for seed in range(50):
            env.reset(clip, seed, mode="aggressive")
            assert np.all(env._masses_ep > 0)

    def test_bound_on_two_fields_names_both_keys(self):
        with pytest.raises(ConfigError) as info:
            ArmEnv({"randomization": {"aggressive_factor": 10.0}}, section="env")
        assert str(info.value) == (
            "env.randomization.mass_scale must be in [0, 1 / aggressive_factor), got 0.1 "
            "with env.randomization.aggressive_factor=10.0")

    def test_bad_mode(self):
        env = quiet_env()
        with pytest.raises(ValidationError):
            env.reset(make_sine(0.3, 0.4, duration=4.0), 0, mode="wild")

    @pytest.mark.parametrize("kind, error, message", [
        ("count", ValidationError, "2 motions for 3 episodes"),
        ("joints", ValidationError, "row 1: motion has 3 joints, env has 2"),
        ("bodies", ValidationError, "row 1: motion has 1 bodies; expected one per link"),
        ("fps", ConfigError, "row 1: motion fps 25.0 does not match 50 Hz control"),
    ])
    def test_per_row_motions_checked(self, kind, error, message):
        """A per-episode motion list has one clip per Generator, and a clip
        that does not fit the env is named by the first row that holds it."""
        env = quiet_env()
        clip = make_sine(0.3, 0.4, duration=4.0)
        if kind == "count":
            motions = [clip, clip]
        else:
            bad = {
                "joints": lambda: synth_motion(SynthMotionSpec(
                    3, 4.0, 50.0, amplitude=0.1, frequency=0.2)),
                "bodies": lambda: dataclasses.replace(
                    clip, body_pos=clip.body_pos[:, :1], feet_indices=(0,)),
                "fps": lambda: synth_motion(SynthMotionSpec(
                    2, 4.0, 25.0, amplitude=0.1, frequency=0.2, link_lengths=(0.5, 0.4))),
            }[kind]()
            motions = [clip, bad, bad]
        with pytest.raises(error, match=re.escape(message)):
            env.reset(motions, [np.random.default_rng(s) for s in range(3)])


class TestStep:
    def test_equilibrium_state_unchanged(self):
        env = quiet_env(gravity=0.0)
        clip = make_sine(0.0, 0.0, duration=4.0)  # static reference at q0
        env.reset(clip, 0)
        q0, qd0 = env.q, env.qdot
        _, _, _, info = env.step(np.zeros(2))
        assert np.array_equal(env.q, q0)
        assert np.array_equal(env.qdot, qd0)
        assert np.all(info["tau_applied"] == 0.0)

    def test_non_finite_action_rejected(self):
        env = quiet_env()
        env.reset(make_sine(0.3, 0.4, duration=4.0), 0)
        with pytest.raises(ValidationError):
            env.step(np.array([np.nan, 0.0]))

    def test_envelope_cross_check(self):
        # drive hard; every logged clipped torque must match the kernel value
        env = ArmEnv({"episode_len": 80})
        clip = make_sine(0.4, 0.8, duration=4.0)
        env.reset(clip, 3)
        # scalar constants of each joint, cut from the episode's parameter arrays
        params = [actuation.ActuatorParams(**{
            f.name: float(np.broadcast_to(getattr(env._actuators_ep, f.name), (1, 2))[0, j])
            for f in dataclasses.fields(actuation.ActuatorParams)}) for j in range(2)]
        rng = np.random.default_rng(0)
        saw_clip = False
        for _ in range(80):
            action = rng.uniform(-6, 6, 2)
            _, _, done, info = env.step(action)
            for j in range(2):
                expected = actuation.clip_torque(
                    info["tau_cmd"][j], info["qdot_pre"][j], params[j])
                assert info["tau_clipped"][j] == expected
                limit = actuation.envelope_limit(
                    info["qdot_pre"][j], info["tau_cmd"][j], params[j])
                assert abs(info["tau_clipped"][j]) <= limit + 1e-12
                friction = actuation.friction_torque(
                    info["qdot_pre"][j], params[j])
                assert abs(info["tau_applied"][j] + friction) <= limit + 1e-12
            saw_clip = saw_clip or np.any(info["tau_cmd"] != info["tau_clipped"])
            if done:
                break
        assert saw_clip

    def test_logged_command_is_the_pd_law(self):
        # randomized q0 offsets, so the setpoint's default pose is the episode's
        env = ArmEnv({"episode_len": 60})
        env.reset(make_sine(0.4, 0.8, duration=4.0), 5)
        rng = np.random.default_rng(4)
        done = False
        while not done:
            a = rng.uniform(-6, 6, 2)
            q_pre, qdot_pre = env.q, env.qdot
            _, _, done, info = env.step(a)
            assert np.array_equal(info["qdot_pre"], qdot_pre)
            expected = (env.kp * (env.q0_eff + env.action_scale * a - q_pre)
                        - env.kd * info["qdot_pre"])
            assert np.array_equal(info["tau_cmd"], expected)

    def test_timeout_success(self):
        env = quiet_env(episode_len=60)
        clip = make_sine(0.2, 0.25, duration=4.0)
        env.reset(clip, 0)
        expert = ExpertPolicy(clip)
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(expert_action(expert, env))
            steps += 1
        assert steps == 60
        assert info["timeout"] and not info["terminated_early"]

    def test_step_after_done_rejected(self):
        env = quiet_env(episode_len=2)
        clip = make_sine(0.1, 0.25, duration=4.0)
        env.reset(clip, 0)
        env.step(np.zeros(2))
        env.step(np.zeros(2))
        with pytest.raises(ValidationError):
            env.step(np.zeros(2))

    def test_termination_matches_metrics_kernel(self):
        env = ArmEnv({"episode_len": 50})
        clip = make_sine(0.5, 0.9, duration=4.0)
        rng = np.random.default_rng(1)
        for seed in range(5):
            env.reset(clip, seed)
            done = False
            while not done:
                _, _, done, info = env.step(rng.uniform(-4, 4, 2))
            expected = check_termination(
                info["z_err"], info["orient_err"], env.thresholds,
                relaxed=info["relaxed"])
            assert info["terminated_early"] == expected


class TestObservation:
    def test_layout_dimensions(self):
        env = quiet_env(history_len=5)
        clip = make_sine(0.3, 0.4, duration=4.0)
        obs = env.reset(clip, 0)
        assert env.proprio_dim == 6
        assert env.command_dim == 6
        assert env.obs_dim == 6 + 6 + 5 * 6
        assert obs.shape == (env.obs_dim,)

    def test_initial_proprio_offsets(self):
        env = quiet_env()
        clip = make_sine(0.3, 0.4, duration=4.0)
        obs = env.reset(clip, 0)
        assert np.array_equal(obs[:2], clip.q[0] - env.q0)

    def test_history_filled_with_initial_state(self):
        env = quiet_env(history_len=3)
        clip = make_sine(0.3, 0.4, duration=4.0)
        obs = env.reset(clip, 0)
        p = obs[: env.proprio_dim]
        hist = obs[env.proprio_dim + env.command_dim:]
        assert np.array_equal(hist, np.tile(p, 3))

    def test_history_shifts_most_recent_first(self):
        env = quiet_env(history_len=2)
        clip = make_sine(0.3, 0.4, duration=4.0)
        obs0 = env.reset(clip, 0)
        p0 = obs0[: env.proprio_dim].copy()
        obs1, _, _, _ = env.step(np.array([0.3, -0.2]))
        hist = obs1[env.proprio_dim + env.command_dim:]
        assert np.array_equal(hist, np.concatenate([p0, p0]))
        obs2, _, _, _ = env.step(np.array([0.1, 0.1]))
        p1 = obs1[: env.proprio_dim]
        hist2 = obs2[env.proprio_dim + env.command_dim:]
        assert np.array_equal(hist2[: env.proprio_dim], p1)
        assert np.array_equal(hist2[env.proprio_dim:], p0)


    @pytest.mark.parametrize("history_len", [0, 1, 5])
    def test_shape_fixed_every_step(self, history_len):
        env = quiet_env(history_len=history_len, episode_len=12)
        clip = make_sine(0.3, 0.4, duration=4.0)
        obs = env.reset(clip, 0)
        assert obs.shape == (env.obs_dim,)
        done = False
        while not done:
            obs, _, done, _ = env.step(np.array([0.2, -0.1]))
            assert obs.shape == (env.obs_dim,)


class TestBatch:
    """A list of Generators runs N episodes as (N, J) rows; each row is the
    episode that its own stream would give alone."""

    def test_reset_rows_equal_single_resets(self):
        env = ArmEnv({"episode_len": 20})
        clip = make_sine(0.3, 0.4, duration=4.0)
        obs = env.reset(clip, [np.random.default_rng(s) for s in (4, 5, 6)], mode="aggressive")
        q, q0_eff = env.q, env.q0_eff
        assert obs.shape == (3, env.obs_dim) and q.shape == (3, 2)
        for i, seed in enumerate((4, 5, 6)):
            single = env.reset(clip, seed, mode="aggressive")
            assert np.array_equal(obs[i], single)
            assert np.array_equal(q[i], env.q) and np.array_equal(q0_eff[i], env.q0_eff)

    def test_finished_rows_leave_the_running_set(self):
        env = ArmEnv({"episode_len": 30})
        clip = make_sine(0.5, 0.9, duration=4.0)
        rng = np.random.default_rng(1)
        env.reset(clip, [np.random.default_rng(s) for s in range(4)])
        actions = rng.uniform(-4, 4, (30, 4, 2))
        rows, t, lengths = env.running, 0, np.zeros(4, dtype=int)
        while rows.size:
            _, _, done, info = env.step_batch(actions[t, rows])
            assert done.shape == info["terminated_early"].shape == (rows.size,)
            lengths[rows] += 1
            rows, t = rows[~done], t + 1
            assert np.array_equal(env.running, rows)
        assert len(set(lengths.tolist())) > 1  # rows did finish at different steps
        assert env.step_count == lengths.sum()
        with pytest.raises(ValidationError):
            env.step_batch(np.zeros((0, 2)))

    def test_step_rows_equal_single_steps(self):
        env = ArmEnv({"episode_len": 30})
        clip = make_sine(0.5, 0.9, duration=4.0)
        seeds = [7, 8, 9]
        actions = np.random.default_rng(2).uniform(-4, 4, (30, 3, 2))
        env.reset(clip, [np.random.default_rng(s) for s in seeds])
        rows, t, batch_q = env.running, 0, {s: [] for s in seeds}
        while rows.size:
            _, _, done, info = env.step_batch(actions[t, rows])
            for r, q in zip(rows, info["q"]):
                batch_q[seeds[r]].append(q)
            rows, t = rows[~done], t + 1
        for i, seed in enumerate(seeds):
            env.reset(clip, seed)
            done, qs = False, []
            while not done:
                _, _, done, info = env.step(actions[len(qs), i])
                qs.append(info["q"])
            np.testing.assert_allclose(np.stack(batch_q[seed]), np.stack(qs), rtol=0, atol=1e-12)

    def test_mixed_motion_rows_equal_single_episodes(self):
        """Rows of different clips step together, bit-equal to each clip's
        episode alone; the short clip's rows run past its end and hold its last
        frame, while the long clip's rows go on reading theirs."""
        env = ArmEnv({"episode_len": 40})
        short = make_sine(0.3, 0.4, duration=0.5)  # 25 frames
        clip = make_sine(0.5, 0.9, phase=(0.0, 0.6), duration=4.0)
        motions, seeds = [clip, short, clip, short], [7, 8, 9, 10]
        actions = np.random.default_rng(3).uniform(-2, 2, (40, 4, 2))
        obs = env.reset(motions, [np.random.default_rng(s) for s in seeds])
        rows, t, batch = env.running, 0, {i: [(obs[i], None)] for i in range(4)}
        while rows.size:
            obs, _, done, info = env.step_batch(actions[t, rows])
            for j, r in enumerate(rows):
                batch[r].append((obs[j], {k: v[j] for k, v in info.items()}))
            rows, t = rows[~done], t + 1
        assert len(batch[1]) > short.n_frames  # past the short clip's end
        for i, seed in enumerate(seeds):
            obs = env.reset(motions[i], seed)
            assert np.array_equal(obs, batch[i][0][0])
            for k, (want_obs, want_info) in enumerate(batch[i][1:]):
                obs, _, _, info = env.step(actions[k, i])
                assert np.array_equal(obs, want_obs)
                for key, value in info.items():
                    assert np.array_equal(value, want_info[key]), key

    def test_single_step_rejected_on_a_batch(self):
        env = quiet_env()
        env.reset(make_sine(0.3, 0.4, duration=4.0), [np.random.default_rng(0)])
        with pytest.raises(ValidationError):
            env.step(np.zeros(2))


class TestExpert:
    def test_static_reference_targets_ref_pose(self):
        # zero gravity, static clip: all feedforwards vanish and the commanded
        # PD target equals the current reference pose exactly
        env = quiet_env(gravity=0.0)
        clip = make_sine(0.0, 0.0, duration=4.0)
        env.reset(clip, 0)
        expert = ExpertPolicy(clip, lookahead=0)
        a = expert_action(expert, env)
        q_tar = env.q0_eff + env.action_scale * a
        assert np.allclose(q_tar, clip.q[0], atol=1e-12)

    @pytest.mark.parametrize("field, value", [
        ("lookahead", -1), ("lookahead", MAX_EPISODE_LEN + 1),
        ("action_limit", 0.0), ("action_limit", -1.0),
    ])
    def test_out_of_range_setting_names_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be "):
            ExpertPolicy(make_sine(0.3, 0.4, duration=1.0), **{field: value})

    def test_wrong_motion_rejected(self):
        env = quiet_env()
        clip = make_sine(0.3, 0.4, duration=4.0)
        other = make_sine(0.2, 0.3, duration=4.0)
        env.reset(clip, 0)
        with pytest.raises(ValidationError):
            expert_action(ExpertPolicy(other), env)

    def test_tracks_slow_sinusoid_within_ten_percent(self):
        env = quiet_env(episode_len=500)
        clip = make_sine(0.3, 0.25)
        env.reset(clip, 0)
        expert = ExpertPolicy(clip)
        errs = []
        done = False
        while not done:
            _, _, done, info = env.step(expert_action(expert, env))
            errs.append(info["q_err"])
        assert not info["terminated_early"]
        assert float(np.mean(errs)) < 0.1 * 0.3

    def test_deterministic_given_state(self):
        env = quiet_env()
        clip = make_sine(0.3, 0.4, duration=4.0)
        env.reset(clip, 0)
        expert = ExpertPolicy(clip)
        a1 = expert_action(expert, env)
        a2 = expert_action(expert, env)
        assert np.array_equal(a1, a2)


class TestEnergyAndDeterminism:
    def test_passive_friction_dissipates_energy(self):
        # zero gravity, zero PD gains, no disturbance and a fine substep grid:
        # mechanical energy must never rise while friction is the only force
        # acting; thresholds out of reach keep the episode running
        env = quiet_env(gravity=0.0, n_substeps=24, episode_len=300,
                        thresholds={"z_err_max": 1e9, "grav_err_max": 1e9})
        env.kp, env.kd = np.zeros(2), np.zeros(2)
        clip = make_sine(0.0, 0.0, duration=8.0)
        env.reset(clip, 0)
        env._qdot[0] = [3.0, -2.0]
        tol = 1e-6 * env.dt
        e_prev = env.mechanical_energy()
        for _ in range(300):
            env.step(np.zeros(2))
            e = env.mechanical_energy()
            assert e <= e_prev + tol
            e_prev = e
        assert e_prev < 0.01  # friction actually drained the kick

    def test_bit_identical_trajectories(self):
        clip = make_sine(0.3, 0.4, duration=4.0)
        rng = np.random.default_rng(0)
        actions = rng.uniform(-2, 2, (40, 2))

        def run():
            env = ArmEnv({"episode_len": 40})
            env.reset(clip, 777)
            qs = []
            for a in actions:
                _, _, done, info = env.step(a)
                qs.append(info["q"])
                if done:
                    break
            return np.stack(qs)

        t1, t2 = run(), run()
        assert np.array_equal(t1, t2)


class TestSolve:
    """`ArmEnv._qacc` calls the gufunc behind `np.linalg.solve` directly."""

    @settings(max_examples=25, deadline=None)
    @given(n_links=st.integers(1, 4), rows=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_gufunc_is_the_numpy_solve(self, n_links, rows, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.2, 0.6, n_links)
        env = ArmEnv({"links": [{"mass": float(m), "length": float(l)}
                                for m, l in zip(rng.uniform(0.3, 2.0, n_links), lengths)],
                      "actuators": ["5020-16"] * n_links})
        clip = synth_motion(SynthMotionSpec(n_links, 1.0, 50.0, amplitude=0.2, frequency=0.5,
                                            link_lengths=tuple(lengths)))
        env.reset(clip, [np.random.default_rng(seed + i) for i in range(rows)])
        q = rng.uniform(-np.pi, np.pi, (rows, n_links))
        qdot = rng.uniform(-20.0, 20.0, (rows, n_links))
        M_q, _ = env._terms(q, qdot, slice(None))
        rhs = rng.uniform(-50.0, 50.0, (rows, n_links, 1))
        assert np.array_equal(_solve(M_q, rhs), np.linalg.solve(M_q, rhs))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("field, value", [
        ("_q", np.nan), ("_q", np.inf), ("_qdot", np.nan), ("_qdot", np.inf),
    ])
    def test_non_finite_state_is_a_blowup(self, field, value):
        """The gufunc raises nothing on a non-finite system (the wrapper may
        raise LinAlgError); the step's finiteness check reports it."""
        env = ArmEnv({"episode_len": 20})
        clip = make_sine(0.3, 0.4, duration=4.0)
        env.reset(clip, [np.random.default_rng(s) for s in range(3)])
        env.step_batch(np.zeros((3, 2)))
        getattr(env, field)[1, 0] = value
        with pytest.raises(NumericalBlowupError, match="at step 2"):
            env.step_batch(np.zeros((3, 2)))

"""Acceptance suite: one test per criterion, each printing a PASS line with its
measured numbers (run with `pytest -s tests/test_acceptance.py` to see them).

Criteria cover exactly-checkable constants (actuator envelope, PD gains,
power penalty, metric kernels), numerical correctness of the flow-matching
core (gradient check, sampler exactness), end-to-end behaviour (distillation
efficacy, success-rate protocol, residual refinement), and reproducibility
(round trips, byte-identical CLI reruns). Runtime budgets are asserted
alongside the functional checks.
"""

import math
import time

import numpy as np
import pytest

from flowtrack import actuation, cli, distill, flow, metrics
from flowtrack.actuation import PowerPenaltyCfg, default_catalog
from flowtrack.env import ArmEnv, ExpertPolicy, expert_action
from flowtrack.flow import FMBatch, euler_sample, fm_loss_and_grad_at
from flowtrack.metrics import TerminationThresholds, check_termination
from flowtrack.motion import load_motion, save_motion

from conftest import make_sine, random_clip


def report(n: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} {status}: {desc}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {n} failed: {desc} {detail}"


def test_criterion_1_envelope_exactness():
    t0 = time.monotonic()
    cat = default_catalog()
    ok = True
    # hand-evaluated piecewise values for every catalog row
    for name, p in cat.items():
        mid = 0.5 * (p.v_x1 + p.v_x2)
        expected_mid = p.tau_y1 * (1.0 - (mid - p.v_x1) / (p.v_x2 - p.v_x1))
        ok &= abs(actuation.clip_torque(1e6, mid, p) - expected_mid) < 1e-9
        ok &= abs(actuation.clip_torque(1e6, 0.5 * p.v_x1, p) - p.tau_y1) < 1e-9
        ok &= abs(actuation.clip_torque(-1e6, 0.5 * p.v_x1, p) + p.tau_y2) < 1e-9
        ok &= actuation.clip_torque(1e6, p.v_x2 * 1.01, p) == 0.0
    # the two named spot values
    ok &= abs(actuation.clip_torque(200.0, 18.6, cat["7520-22.5"]) - 55.5) < 1e-9
    v5020 = 24.8 * (1.0 - (35.5 - 30.86) / (40.13 - 30.86))
    ok &= abs(actuation.clip_torque(200.0, 35.5, cat["5020-16"]) - v5020) < 1e-9
    ok &= round(v5020, 2) == 12.39
    # continuity + monotonicity on a 1e4 grid (fixed motoring branch)
    for p in cat.values():
        v = np.linspace(1e-9, 1.3 * p.v_x2, 10_000)
        lim = actuation.envelope_limit(v, np.full_like(v, 1.0), p)
        ok &= bool(np.all(np.diff(lim) <= 1e-12))
        step_bound = p.tau_y1 * (v[1] - v[0]) / (p.v_x2 - p.v_x1) + 1e-9
        ok &= float(np.max(np.abs(np.diff(lim)))) < step_bound
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(1, "actuator constants and envelope exactness", ok, f"{elapsed:.2f}s")


def test_criterion_2_pd_gain_derivation():
    t0 = time.monotonic()
    omega = 2.0 * math.pi * 10.0
    ok = True
    for name, p in default_catalog().items():
        g = actuation.pd_gains(p)
        kp_ref = p.armature_I * omega ** 2
        kd_ref = 2.0 * p.armature_I * 2.0 * omega
        ok &= abs(g.kp - kp_ref) / kp_ref < 1e-6
        ok &= abs(g.kd - kd_ref) / kd_ref < 1e-6
    g = actuation.pd_gains(default_catalog()["7520-22.5"])
    ok &= round(g.kp, 2) == 99.09
    ok &= round(g.kd, 3) == 6.308
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(2, "PD gain derivation (omega = 2*pi*10, zeta = 2)", ok, f"{elapsed:.2f}s")


def test_criterion_3_negative_power_penalty():
    t0 = time.monotonic()
    cfg = PowerPenaltyCfg(deadband=150.0, norm=500.0, weight=-10.0)
    cost, reward = actuation.neg_power_penalty([-400.0], cfg)
    ok = cost == 0.25 and reward == -2.5
    for p in np.linspace(-150.0, 500.0, 200):
        ok &= actuation.neg_power_penalty([p], cfg)[0] == 0.0
    over = np.linspace(0.0, 1000.0, 200)
    costs = np.array([actuation.neg_power_penalty([-150.0 - o], cfg)[0] for o in over])
    ok &= bool(np.allclose(costs, (over / 500.0) ** 2, atol=1e-12))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(3, "negative-power penalty constants and quadratic growth", ok, f"{elapsed:.2f}s")


def test_criterion_4_metric_kernels():
    t0 = time.monotonic()
    ref = np.zeros((7, 3, 3))
    ok = abs(metrics.mpjpe(ref, ref + np.array([0.005, 0, 0])) - 5.0) < 1e-9
    ok &= abs(metrics.delta_vel(ref, ref + np.array([1.0, 0, 0]), 0.02) - 20.0) < 1e-9
    t = np.arange(7) * 0.02
    rob = np.zeros((7, 3, 3))
    rob[:, :, 0] = t[:, None]  # 1 m/s^2 uniform acceleration error
    ok &= abs(metrics.delta_acc(ref, rob, 0.02) - 0.4) < 1e-9
    rng = np.random.default_rng(0)
    raws = rng.uniform(0.0, 1e4, size=(10_000, 6))
    for row in raws:
        s = metrics.difficulty_scores(*row)
        ok &= bool(np.all(s >= 0.0) and np.all(s <= 1.0))
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(4, "metric kernels: hand values and score clamping (1e4 cases)", ok,
           f"{elapsed:.2f}s")


def test_criterion_5_gradient_check():
    t0 = time.monotonic()
    h = 1e-6
    worst_overall = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = flow.init_net(2, 4, hidden=(6, 5), time_embed_dim=4, rng=rng)
        batch = FMBatch(rng.standard_normal((4, 4)), rng.standard_normal((4, 2)))
        t = rng.beta(1.5, 1.0, size=4)
        eps = rng.standard_normal((4, 2))
        _, grads = fm_loss_and_grad_at(net, batch, t, eps)
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
                    rel = abs(g_an - g_fd) / max(abs(g_an), abs(g_fd), 1e-3)
                    worst_overall = max(worst_overall, rel)
    elapsed = time.monotonic() - t0
    ok = worst_overall < 1e-4 and elapsed < 30.0
    report(5, "analytic vs central-difference gradients (20 seeds)", ok,
           f"max rel err {worst_overall:.2e}, {elapsed:.1f}s")


def test_criterion_6_sampler_exactness():
    t0 = time.monotonic()
    u = np.array([1.25, -0.5])
    net = flow.init_net(2, 3, hidden=(), time_embed_dim=4)
    W, b = net.params[0]
    net.params[0] = (W, u.copy())
    ok = True
    for D in (1, 5, 100):
        net.sampler_steps = D
        out = euler_sample(net, np.zeros(3), np.random.default_rng(42).standard_normal(2))
        x = np.random.default_rng(42).standard_normal(2)
        for _ in range(D):  # independent implementation of the same recurrence
            x = x - u / D
        ok &= bool(np.array_equal(out, x))
        x1 = np.random.default_rng(42).standard_normal(2)
        ok &= float(np.max(np.abs(out - (x1 - u)))) < 1e-12
    lin = flow.init_net(2, 3, hidden=(), time_embed_dim=4, sampler_steps=1000)
    W, b = lin.params[0]
    W = W.copy()
    W[:, :2] = np.eye(2)
    lin.params[0] = (W, b)
    out = euler_sample(lin, np.zeros(3), np.random.default_rng(7).standard_normal(2))
    x1 = np.random.default_rng(7).standard_normal(2)
    rel = float(np.max(np.abs(out - np.exp(-1.0) * x1) / np.abs(np.exp(-1.0) * x1)))
    ok &= rel < 0.02
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(6, "Euler sampler: constant-field exactness, linear-field ODE match", ok,
           f"linear rel err {rel:.4f}, {elapsed:.2f}s")


def test_criterion_7_distillation_efficacy(two_sine_setup):
    t0 = time.monotonic()
    env = two_sine_setup["env"]
    motions = two_sine_setup["motions"]
    experts = two_sine_setup["experts"]
    net0, net = two_sine_setup["net0"], two_sine_setup["net"]
    ok = True
    details = []
    for i, motion in enumerate(motions):
        e_untrained = distill.closed_loop_joint_error(env, net0, motion, seed=100 + i)
        e_trained = distill.closed_loop_joint_error(env, net, motion, seed=100 + i)
        expert_errs = []
        for s in range(3):
            env.reset(motion, [200 + s])
            errs = []
            done = False
            while not done:
                _, _, (done,), info = env.step_batch(
                    expert_action(experts[i], env, [env.step_count]))
                errs.append(info["q_err"][0])
            errs += [np.pi] * (env.episode_len - len(errs))
            expert_errs.append(np.mean(errs))
        e_expert = float(np.mean(expert_errs))
        ok &= e_trained < 0.2 * e_untrained
        ok &= e_trained < 2.0 * e_expert
        details.append(f"m{i}: trained {e_trained:.4f} untrained {e_untrained:.4f} "
                       f"expert {e_expert:.4f}")
    # deterministic seeded reproduction
    r1 = distill.closed_loop_joint_error(env, net, motions[0], seed=100)
    r2 = distill.closed_loop_joint_error(env, net, motions[0], seed=100)
    ok &= r1 == r2
    # loss trend over iterations
    losses = two_sine_setup["losses"]
    ok &= losses[-1] < losses[0]
    elapsed = time.monotonic() - t0 + two_sine_setup["train_time"]
    ok &= elapsed < 300.0
    report(7, "DAgger distillation efficacy on the 2-sinusoid task", ok,
           "; ".join(details) + f"; total {elapsed:.0f}s")


def test_criterion_8_success_rate_protocol():
    t0 = time.monotonic()
    env = ArmEnv()  # defaults: 500-step episodes at 50 Hz
    ok = env.episode_len == 500 and abs(env.dt - 0.02) < 1e-12
    motion_easy = make_sine(0.3, 0.25)
    motion_hard = make_sine(0.55, 0.95, phase=(0.0, 0.8))
    expert = ExpertPolicy(motion_easy)
    rng = np.random.default_rng(0)
    terminated = []  # of each episode
    disagreements = 0
    for ep in range(100):
        if ep % 4 == 0:
            motion, policy, mode = motion_easy, "expert", "base"
        elif ep % 4 == 1:
            motion, policy, mode = motion_easy, "expert", "aggressive"
        else:
            motion, policy, mode = motion_hard, "random", "base"
        env.reset(motion, [1000 + ep], mode=mode)
        infos = []
        done = False
        while not done:
            if policy == "expert":
                a = expert_action(expert, env, [env.step_count])[0]
            else:
                a = rng.uniform(-5.0, 5.0, 2)
            _, _, (done,), info = env.step_batch([a])
            infos.append({k: v[0] for k, v in info.items()})
        # replay the logged trajectory through the metrics kernel
        for i, info in enumerate(infos):
            expected = check_termination(info["z_err"], info["orient_err"],
                                         env.thresholds, relaxed=info["relaxed"])
            if expected != info["terminated_early"]:
                disagreements += 1
        last = infos[-1]
        success = not last["terminated_early"]
        ok &= success == (len(infos) == env.episode_len and last["timeout"])
        terminated.append(last["terminated_early"])
    ok &= disagreements == 0
    rate = float(np.mean(~np.array(terminated)))  # as `evaluate_policy` counts success
    ok &= 0.0 < rate < 1.0  # the mix produced both outcomes
    # relaxed mode accepts orientation errors up to 1.5x the base threshold
    thr = TerminationThresholds(grav_err_max=0.8, relax_factor=1.5)
    ok &= bool(check_termination([0.0], 1.0, thr, relaxed=False))
    ok &= not check_termination([0.0], 1.0, thr, relaxed=True)
    ok &= bool(check_termination([0.0], 1.25, thr, relaxed=True))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(8, "success-rate protocol and termination single-source", ok,
           f"rate {rate:.2f} over 100 episodes, 0 disagreements, {elapsed:.0f}s")


def test_criterion_9_residual_refinement(refine_setup):
    t0 = time.monotonic()
    motion = refine_setup["motion"]
    net = refine_setup["net"]
    env_tight = ArmEnv(refine_setup["tight_cfg"])
    ok = env_tight.actuators[0].tau_y1 == pytest.approx(0.7 * 24.8)
    residual = distill.init_residual(env_tight, hidden=(24,), bound=0.4,
                                     rng=np.random.default_rng(3))
    escfg = distill.ESCfg(generations=12, population=6, sigma=0.05,
                          episodes_per_eval=3, seed=0)
    refined, history = distill.es_refine(net, residual, env_tight, motion, escfg)
    ok &= all(b >= a for a, b in zip(history, history[1:]))

    def paired_mean(res):
        totals = []
        for s in range(10):
            log = distill.rollout_episode(env_tight, net, motion, 9000 + s,
                                          residual=res, mode="aggressive")
            totals.append(distill.episode_return(log, env_tight.episode_len, -1.0))
        return float(np.mean(totals))

    base_r = paired_mean(None)
    refined_r = paired_mean(refined)
    ok &= refined_r >= base_r
    elapsed = time.monotonic() - t0 + refine_setup["train_time"]
    ok &= elapsed < 300.0
    report(9, "ES residual refinement under a 30%-tightened envelope", ok,
           f"base {base_r:.1f} refined {refined_r:.1f}, history "
           f"{history[0]:.1f}->{history[-1]:.1f}, total {elapsed:.0f}s")


def test_criterion_10_round_trips_and_determinism(tmp_path):
    t0 = time.monotonic()
    ok = True
    # motion and checkpoint round trips, bit-exact
    rng = np.random.default_rng(0)
    for seed in range(5):
        clip = random_clip(np.random.default_rng(seed))
        save_motion(clip, tmp_path / "clip.json")
        ok &= load_motion(tmp_path / "clip.json").allclose(clip)
    net = flow.init_net(2, 7, hidden=(12, 9), rng=rng)
    flow.save_policy(net, tmp_path / "net.json")
    back = flow.load_policy(tmp_path / "net.json")
    for (W1, b1), (W2, b2) in zip(net.params, back.params):
        ok &= bool(np.array_equal(W1, W2) and np.array_equal(b1, b2))

    # byte-identical CLI reruns, one per subcommand
    mdir = tmp_path / "motions"
    mdir.mkdir()
    save_motion(make_sine(0.3, 0.25, duration=4.0), mdir / "m.json")

    def run_twice(make_args, files):
        """Run a subcommand twice into separate roots; compare named files."""
        blobs = []
        for tag in ("x", "y"):
            root = tmp_path / tag
            root.mkdir(exist_ok=True)
            rc = cli.main(make_args(str(root)))
            assert rc == 0
            blobs.append([(root / f).read_bytes() for f in files])
        return blobs[0] == blobs[1]

    ok &= run_twice(
        lambda root: ["--seed", "3", "--quiet", "analyze", "--motions", str(mdir),
                      "--out", f"{root}/report.json"],
        ["report.json"])
    ok &= run_twice(
        lambda root: ["--seed", "3", "--quiet", "train", "--motions", str(mdir),
                      "--out", f"{root}/train", "--set", "train.iterations=1",
                      "--set", "train.gradient_steps=10", "--set", "train.hidden=[12]",
                      "--set", "env.episode_len=50"],
        ["train/policy.json", "train/loss.csv"])
    policy = str(tmp_path / "x/train/policy.json")
    ok &= run_twice(
        lambda root: ["--seed", "3", "--quiet", "eval", "--policy", policy,
                      "--motions", str(mdir), "--rollouts", "2",
                      "--set", "env.episode_len=50", "--out", f"{root}/metrics.json"],
        ["metrics.json"])
    ok &= run_twice(
        lambda root: ["--seed", "3", "--quiet", "refine", "--policy", policy,
                      "--motions", str(mdir), "--out", f"{root}/refine",
                      "--set", "es.generations=1", "--set", "es.population=2",
                      "--set", "es.episodes_per_eval=1", "--set", "env.episode_len=50"],
        ["refine/residual.json", "refine/reward.csv"])
    import io
    import contextlib
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["--seed", "3", "actuator", "5020-16", "--tau", "20",
                             "--sweep", "64"]) == 0
        bufs.append(buf.getvalue())
    ok &= bufs[0] == bufs[1]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(10, "round trips bit-exact; CLI byte-identical across seeded reruns", ok,
           f"{elapsed:.0f}s")

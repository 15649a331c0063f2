"""Shared fixtures. The trained policies are expensive, so they are built once
per session and reused by the distillation tests and the acceptance suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from flowtrack import distill, flow
from flowtrack.env import ArmEnv, ExpertPolicy
from flowtrack.motion import MotionClip, SynthMotionSpec, synth_motion

LINKS = (0.5, 0.4)

NO_RANDOMIZATION = {
    "pose_noise": 0.0, "disturbance": 0.0, "mass_scale": 0.0,
    "friction_scale": 0.0, "q0_offset": 0.0,
}


def make_sine(amplitude, frequency, phase=0.0, duration=10.0) -> MotionClip:
    return synth_motion(SynthMotionSpec(
        n_joints=2, duration=duration, fps=50.0, amplitude=amplitude,
        frequency=frequency, phase=phase, link_lengths=LINKS))


def random_clip(rng, T=None, J=None, B=None, K=None) -> MotionClip:
    """Random valid clip for round-trip property tests."""
    T = T or int(rng.integers(2, 12))
    J = J or int(rng.integers(1, 4))
    B = B or int(rng.integers(1, 4))
    K = K or int(rng.integers(1, 3))
    quat = rng.standard_normal((T, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    return MotionClip(
        fps=float(rng.integers(10, 120)),
        joint_names=tuple(f"j{i}" for i in range(J)),
        q=rng.standard_normal((T, J)),
        base_pos=rng.standard_normal((T, 3)),
        base_quat=quat,
        body_pos=rng.standard_normal((T, B, 3)),
        contacts=rng.integers(0, 2, (T, K)).astype(bool),
        feet_indices=(int(rng.integers(0, B)),),
    )


@pytest.fixture(scope="session")
def two_sine_setup():
    """Two-sinusoid distillation task with a fully trained unified policy.

    The env randomizes only quantities the policy can observe or that do not
    shift the expert labels (initial pose noise, per-step disturbances); the
    per-episode hidden parameters stay fixed so the flow policy can match the
    privileged experts instead of sampling their hidden-parameter spread.
    """
    motions = [
        make_sine(0.3, 0.25),
        make_sine(0.3, 0.4, phase=(0.0, 1.0)),
    ]
    env = ArmEnv({"episode_len": 500, "randomization": {
        "pose_noise": 0.05, "disturbance": 0.5,
        "mass_scale": 0.0, "friction_scale": 0.0, "q0_offset": 0.0,
    }})
    experts = [ExpertPolicy(m) for m in motions]
    net0 = flow.init_net(2, env.obs_dim, hidden=(128, 128), time_embed_dim=8,
                         rng=np.random.default_rng(1))
    cfg = distill.DistillCfg(iterations=32, episodes_per_iter=4, gradient_steps=350,
                             batch_size=256, learning_rate=2e-3, lr_decay=0.93,
                             seed=0)
    t0 = time.monotonic()
    net, losses = distill.dagger_train(env, experts, net0, cfg)
    train_time = time.monotonic() - t0
    return {
        "motions": motions, "env": env, "experts": experts,
        "net0": net0, "net": net, "losses": losses, "train_time": train_time,
    }


@pytest.fixture(scope="session")
def refine_setup():
    """Torque-hungry 1 Hz task: base policy plus the tightened-envelope env."""
    motion = make_sine((0.6, 0.45), 1.0, phase=(0.0, 0.6))
    env_train = ArmEnv({"episode_len": 500})
    expert = ExpertPolicy(motion, action_limit=6.0)
    net0 = flow.init_net(2, env_train.obs_dim, hidden=(96, 96),
                         rng=np.random.default_rng(1))
    cfg = distill.DistillCfg(iterations=12, episodes_per_iter=3, gradient_steps=250,
                             batch_size=192, seed=0)
    t0 = time.monotonic()
    net, losses = distill.dagger_train(env_train, [expert], net0, cfg)
    train_time = time.monotonic() - t0
    tight_cfg = {
        "episode_len": 500,
        "envelope_scale": 0.7,
        "power_penalty": {"deadband": 30.0, "norm": 150.0, "weight": -10.0, "joints": None},
    }
    return {
        "motion": motion, "env_train": env_train, "expert": expert,
        "net": net, "losses": losses, "train_time": train_time,
        "tight_cfg": tight_cfg,
    }

"""DAgger distillation of two scripted experts into one flow policy.

Two reference sinusoids with different frequencies each get a privileged PD
expert. The student flow policy is rolled out in the arm environment (so it
visits its own mistakes), every visited state is labelled with the matching
expert's action, and the flow-matching objective fits the growing behaviour.
The result is a single policy that tracks both motions nearly as well as the
per-motion experts.

Scaled down to run in about a minute; the acceptance suite runs the full-size
version of this experiment.
"""

import time

import numpy as np

from flowtrack import distill, flow
from flowtrack.env import ArmEnv, ExpertPolicy, expert_action
from flowtrack.motion import SynthMotionSpec, synth_motion

LINKS = (0.5, 0.4)
motions = [
    synth_motion(SynthMotionSpec(2, 10.0, 50.0, amplitude=0.3, frequency=0.25,
                                 link_lengths=LINKS)),
    synth_motion(SynthMotionSpec(2, 10.0, 50.0, amplitude=0.3, frequency=0.4,
                                 phase=(0.0, 1.0), link_lengths=LINKS)),
]
env = ArmEnv({"episode_len": 300, "randomization": {
    "pose_noise": 0.05, "disturbance": 0.5,
    "mass_scale": 0.0, "friction_scale": 0.0, "q0_offset": 0.0}})
experts = [ExpertPolicy(m) for m in motions]

net0 = flow.init_net(2, env.obs_dim, hidden=(96, 96), rng=np.random.default_rng(1))
cfg = distill.DistillCfg(iterations=10, episodes_per_iter=3, gradient_steps=250,
                         batch_size=192, learning_rate=2e-3, lr_decay=0.85, seed=0)

print(f"distilling {len(motions)} experts into one policy "
      f"({cfg.iterations} DAgger iterations, D={net0.sampler_steps} sampling steps)...")
t0 = time.time()
net, losses = distill.dagger_train(env, experts, net0, cfg)
print(f"done in {time.time() - t0:.0f}s; per-iteration loss:")
print("  " + "  ".join(f"{l:.3f}" for l in losses))

print()
print("closed-loop mean joint tracking error (rad), same seeds for every policy:")
print(f"{'motion':<8}{'untrained':>11}{'distilled':>11}{'expert':>9}")
for i, (name, motion) in enumerate((("slow", motions[0]), ("mid", motions[1]))):
    e_un = distill.closed_loop_joint_error(env, net0, motion, seed=100 + i)
    e_tr = distill.closed_loop_joint_error(env, net, motion, seed=100 + i)
    env.reset(motion, 200)
    errs, done = [], False
    while not done:
        _, _, done, info = env.step(expert_action(experts[i], env))
        errs.append(info["q_err"])
    e_ex = float(np.mean(errs))
    print(f"{name:<8}{e_un:>11.4f}{e_tr:>11.4f}{e_ex:>9.4f}")

print()
print("tracking metrics from the evaluation protocol (3 rollouts per motion):")
results = distill.evaluate_policy(net, env, {"slow": motions[0], "mid": motions[1]},
                                  n_rollouts=3, seed=0)
for name, m in results.items():
    print(f"  {name:<6} mpjpe {m.mpjpe_mm:7.2f} mm   dvel {m.dvel:6.2f}   "
          f"dacc {m.dacc:6.3f}   success {m.success:.2f}")

"""Actuation-aware residual refinement with an evolution strategy.

A flow policy is first distilled on a torque-hungry 1 Hz motion with the
nominal actuator model. The deployment environment is then degraded: torque
ceilings tightened by 30%, aggressive domain randomization (1.5x ranges,
relaxed termination thresholds), and a toy-scale negative-power penalty in
the reward. A small residual policy, added on top of the frozen base action,
is refined with an elitist (1+lambda) ES against that environment.

Because every candidate is scored on the same seeded episodes, the best-so-far
reward curve never decreases; held-out paired episodes then show the genuine
improvement. Scaled down to run in roughly two minutes.
"""

import time

import numpy as np

from flowtrack import distill, flow
from flowtrack.env import ArmEnv, ExpertPolicy
from flowtrack.motion import SynthMotionSpec, synth_motion

motion = synth_motion(SynthMotionSpec(2, 10.0, 50.0, amplitude=(0.6, 0.45),
                                      frequency=1.0, phase=(0.0, 0.6),
                                      link_lengths=(0.5, 0.4)))

print("stage 1: distill a base policy with the nominal actuator model...")
env_train = ArmEnv({"episode_len": 300})
expert = ExpertPolicy(motion, action_limit=6.0)
net0 = flow.init_net(2, env_train.obs_dim, hidden=(96, 96), rng=np.random.default_rng(1))
cfg = distill.DistillCfg(iterations=8, episodes_per_iter=3, gradient_steps=250,
                         batch_size=192, seed=0)
t0 = time.time()
net, losses = distill.dagger_train(env_train, [expert], net0, cfg)
print(f"  trained in {time.time() - t0:.0f}s, final loss {losses[-1]:.4f}")

print()
print("stage 2: refine a residual in the degraded environment")
print("  (envelope ceilings x0.7, aggressive randomization, power penalty)...")
env_tight = ArmEnv({
    "episode_len": 300,
    "envelope_scale": 0.7,
    "power_penalty": {"deadband": 30.0, "norm": 150.0, "weight": -10.0, "joints": None},
})
residual = distill.init_residual(env_tight, hidden=(24,), bound=0.4,
                                 rng=np.random.default_rng(3))
escfg = distill.ESCfg(generations=8, population=6, sigma=0.05,
                      episodes_per_eval=2, seed=0)
t0 = time.time()
refined, history = distill.es_refine(net, residual, env_tight, motion, escfg)
print(f"  refined in {time.time() - t0:.0f}s; best-reward history (monotone):")
print("  " + "  ".join(f"{h:.1f}" for h in history))

print()
print("paired evaluation on 10 held-out seeded episodes (same seeds for both):")
def paired_mean(res):
    # the 10 episodes run as one batch; each row is the episode of its seed
    log, = distill.rollout_batch(env_tight, net, [(motion, [9000 + s for s in range(10)], res)],
                                mode="aggressive")
    return float(np.mean(distill.episode_return(log, env_tight.episode_len,
                                                distill.TERMINATION_FLOOR)))

base = paired_mean(None)
ref = paired_mean(refined)
print(f"  base policy alone : {base:8.2f}")
print(f"  base + residual   : {ref:8.2f}")
print(f"  improvement       : {ref - base:+8.2f}")

"""Flow-matching mechanics on a single (observation -> action) pair.

Trains a small velocity field to reproduce one expert action: the loss
regresses the straight-line transport direction u = eps - a_expert at points
a_t = (1 - t) * a_expert + t * eps, and actions are sampled by integrating the
field from Gaussian noise at t = 1 down to t = 0 with the reverse-time Euler
rule. Shows the loss trend, a finite-difference gradient spot-check, and how
sampling accuracy behaves as the number of integration steps D grows.
"""

from dataclasses import replace

import numpy as np

from flowtrack.flow import (AdamState, FMBatch, adam_step, euler_sample, fm_loss_and_grad,
                            fm_loss_and_grad_at, init_net)

rng = np.random.default_rng(0)
obs = rng.standard_normal(4)
a_expert = np.array([0.6, -0.4])

# Beta(0.3, 1) puts real mass on small flow times so the field also converges
# where a fine integration grid will evaluate it.
net = init_net(action_dim=2, obs_dim=4, hidden=(64, 64), alpha=0.3, beta=1.0,
               rng=np.random.default_rng(1))
batch = FMBatch(np.tile(obs, (128, 1)), np.tile(a_expert, (128, 1)))

print("gradient spot-check (central differences, h=1e-6):")
t_fix = rng.beta(1.5, 1.0, size=128)
eps_fix = rng.standard_normal((128, 2))
_, grads = fm_loss_and_grad_at(net, batch, t_fix, eps_fix)
W0, _ = net.params[0]
h = 1e-6
orig = W0[0, 0]
W0[0, 0] = orig + h
lp, _ = fm_loss_and_grad_at(net, batch, t_fix, eps_fix)  # the loss at fixed draws
W0[0, 0] = orig - h
lm, _ = fm_loss_and_grad_at(net, batch, t_fix, eps_fix)
W0[0, 0] = orig
g_fd = (lp - lm) / (2 * h)
g_an = grads[0][0][0, 0]
print(f"  analytic {g_an:+.8f}  finite-diff {g_fd:+.8f}  rel err "
      f"{abs(g_an - g_fd) / abs(g_fd):.2e}")

print()
print("training on the single pair (loss under the easier deployment-range")
print("timesteps in parentheses; the Beta(0.3, 1) draws keep revisiting the")
print("steep small-t region, so the raw minibatch loss stays visibly higher):")
state = AdamState()
steps = 5000
eval_rng = np.random.default_rng(99)
t_eval = eval_rng.beta(1.5, 1.0, size=512)
eps_eval = eval_rng.standard_normal((512, 2))
eval_batch = FMBatch(np.tile(obs, (512, 1)), np.tile(a_expert, (512, 1)))
for i in range(steps):
    lr = 3e-3 if i < steps // 2 else (1e-3 if i < 3 * steps // 4 else 3e-4)
    loss, grads = fm_loss_and_grad(net, batch, rng)
    net.params, state = adam_step(net.params, grads, state, lr=lr)
    if i % 1000 == 0 or i == steps - 1:
        ev, _ = fm_loss_and_grad_at(net, eval_batch, t_eval, eps_eval)
        print(f"  step {i:>5}  loss {loss:.4f}  (eval {ev:.5f})")

print()
print("sampling accuracy vs integration steps (mean |a - a_expert| over 256 draws):")
for D in (1, 2, 5, 20, 100):
    r = np.random.default_rng(5)
    net_D = replace(net, sampler_steps=D)  # the same field, sampled with D steps
    errs = [np.linalg.norm(euler_sample(net_D, obs, r.standard_normal(2)) - a_expert)
            for _ in range(256)]
    print(f"  D={D:>3}: {np.mean(errs):.4f}")
print("a single step is crude, a handful of steps lands within a few")
print("thousandths of the expert action, and returns diminish after that:")
print("the residual field error, not the step count, sets the floor.")

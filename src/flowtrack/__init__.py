"""flowtrack: flow-matching motion tracking with actuation-aware physics on a
toy torque-controlled arm.

Submodules:
  motion    - motion clips, JSON I/O, differencing, segmentation, synthesis
  metrics   - complexity metrics, difficulty scores, tracking metrics
  actuation - PD law, torque-speed envelope, friction, power penalty
  flow      - velocity-field net, flow-matching loss/gradients, Euler sampler
  env       - toy arm environment, randomization, scripted experts
  distill   - DAgger distillation, residual policies, ES refinement, evaluation
  fileio    - the file boundary: JSON input, config merging, the checkpoint
              codec, atomic writes
  cli       - command-line workflows (analyze / actuator / train / eval / refine)
"""

from . import actuation, distill, env, errors, fileio, flow, metrics, motion

__all__ = ["actuation", "distill", "env", "errors", "fileio", "flow", "metrics", "motion"]
__version__ = "0.1.0"

"""In-memory span tracer for the traced benchmark run.

Each wrapper is installed where its caller looks the name up: `distill`
imported `euler_sample` by name, so the span sits on
`flowtrack.distill.euler_sample`, not on `flowtrack.flow.euler_sample`. The
program's files are not modified, and `remove()` puts every original back.

Spans are kept in flat arrays (name, parent span, start, end) and reduced once
at the end: a span's self time is its duration minus the durations of its
direct children. The private substep solve `ArmEnv._qacc` is not wrapped, so
its time stays in `env.ArmEnv.step`.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import time
from array import array

import numpy as np


def _clip_active(counters, name, args, out):
    tau_cmd = np.asarray(args[0])
    counters["actuation.clip_torque.elements"] += tau_cmd.size
    counters["actuation.clip_torque.active"] += int(np.count_nonzero(np.asarray(out) != tau_cmd))


def _step_done(counters, name, args, out):
    counters["env.episodes_early"] += bool(out[3]["terminated_early"])


def _rows(counters, name, args, out):
    x = args[1]  # mlp_forward(params, x) and euler_sample(net, obs, ...)
    counters[name + ".rows"] += 1 if np.ndim(x) == 1 else len(x)


def _file_bytes(counters, name, args, out):
    counters["motion.load_motion.bytes"] += os.path.getsize(args[0])


# (module, attribute path, span name, counter hook). The same span name may sit
# on several lookup sites: `motion.finite_difference` is called by env, distill
# and metrics through their own module globals.
SITES = [
    ("flowtrack.cli", "main", "cli.main", None),
    ("flowtrack.cli", "load_motion", "motion.load_motion", _file_bytes),
    ("flowtrack.flow", "load_policy", "flow.load_policy", None),
    ("flowtrack.flow", "save_policy", "flow.save_policy", None),
    ("flowtrack.flow", "mlp_forward", "flow.mlp_forward", _rows),
    ("flowtrack.actuation", "actuate", "actuation.actuate", None),
    ("flowtrack.actuation", "clip_torque", "actuation.clip_torque", _clip_active),
    ("flowtrack.actuation", "friction_torque", "actuation.friction_torque", None),
    ("flowtrack.actuation", "neg_power_penalty", "actuation.neg_power_penalty", None),
    ("flowtrack.env", "ArmEnv.step", "env.ArmEnv.step", _step_done),
    ("flowtrack.env", "ArmEnv.reset", "env.ArmEnv.reset", None),
    ("flowtrack.env", "ArmEnv.inverse_dynamics", "env.ArmEnv.inverse_dynamics", None),
    ("flowtrack.env", "check_termination", "metrics.check_termination", None),
    ("flowtrack.env", "arm_forward_kinematics", "motion.arm_forward_kinematics", None),
    ("flowtrack.env", "finite_difference", "motion.finite_difference", None),
    ("flowtrack.distill", "finite_difference", "motion.finite_difference", None),
    ("flowtrack.metrics", "finite_difference", "motion.finite_difference", None),
    ("flowtrack.distill", "segment_clips", "motion.segment_clips", None),
    ("flowtrack.distill", "expert_action", "env.expert_action", None),
    ("flowtrack.distill", "euler_sample", "flow.euler_sample", _rows),
    ("flowtrack.distill", "mlp_forward", "flow.mlp_forward", _rows),
    ("flowtrack.distill", "fm_loss_and_grad", "flow.fm_loss_and_grad", None),
    ("flowtrack.distill", "adam_step", "flow.adam_step", None),
    ("flowtrack.distill", "ReplayBuffer.add", "distill.ReplayBuffer.add", None),
    ("flowtrack.distill", "ReplayBuffer.sample_batch", "distill.ReplayBuffer.sample_batch", None),
    ("flowtrack.distill", "residual_action", "distill.residual_action", None),
    ("flowtrack.distill", "rollout_episode", "distill.rollout_episode", None),
    ("flowtrack.distill", "dagger_train", "distill.dagger_train", None),
    ("flowtrack.distill", "es_refine", "distill.es_refine", None),
    ("flowtrack.distill", "evaluate_policy", "distill.evaluate_policy", None),
    ("flowtrack.metrics", "compute_complexity", "metrics.compute_complexity", None),
    ("flowtrack.metrics", "mpjpe", "metrics.mpjpe", None),
    ("flowtrack.metrics", "delta_vel", "metrics.delta_vel", None),
    ("flowtrack.metrics", "delta_acc", "metrics.delta_acc", None),
]

# Spans whose inclusive time makes up each DAgger phase; none of them nests
# inside another span of the same phase.
PHASES = {
    "rollout_s": ("env.ArmEnv.reset", "env.ArmEnv.step", "flow.euler_sample",
                  "distill.residual_action", "distill.ReplayBuffer.add"),
    "label_s": ("env.expert_action",),
    "grad_s": ("distill.ReplayBuffer.sample_batch", "flow.fm_loss_and_grad",
               "flow.adam_step"),
}


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    """Collects spans while installed; `summary()` reduces them."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: collections.Counter = collections.Counter()
        self._stack = [-1]
        self._saved = []

    def install(self) -> None:
        for module, path, name, extra in SITES:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extra))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, extra):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if extra is not None:
                extra(counters, name, args, out)
            return out

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and incl_s (inclusive seconds)."""
        nid = np.array(self.name_id, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        self_s = np.bincount(nid, weights=dur - child, minlength=n)
        incl_s = np.bincount(nid, weights=dur, minlength=n)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "incl_s": float(incl_s[i])}
                for i, name in enumerate(self.names)}

    def per_layer(self, invocations: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of BENCHMARK.json, per traced invocation."""
        spans, c = self.summary(), self.counters

        def span(name, field):
            return spans.get(name, {}).get(field, 0) / invocations

        out = {}
        for name in ("actuation.actuate", "actuation.clip_torque", "actuation.friction_torque",
                     "actuation.neg_power_penalty", "env.ArmEnv.step", "env.expert_action",
                     "flow.euler_sample", "flow.mlp_forward", "flow.fm_loss_and_grad",
                     "flow.adam_step", "distill.residual_action", "motion.load_motion"):
            out[f"{name}.calls"] = (span(name, "calls"), "count")
            out[f"{name}.self_s"] = (span(name, "self_s"), "s")
        for name in ("env.ArmEnv.reset", "env.ArmEnv.inverse_dynamics",
                     "distill.ReplayBuffer.add", "distill.ReplayBuffer.sample_batch",
                     "distill.dagger_train", "distill.es_refine", "distill.evaluate_policy",
                     "distill.rollout_episode", "flow.load_policy", "flow.save_policy",
                     "metrics.compute_complexity", "motion.arm_forward_kinematics",
                     "metrics.mpjpe", "metrics.delta_vel", "metrics.delta_acc",
                     "motion.finite_difference", "motion.segment_clips", "cli.main"):
            out[f"{name}.self_s"] = (span(name, "self_s"), "s")
        for name in ("flow.euler_sample", "flow.mlp_forward"):
            calls = spans.get(name, {}).get("calls", 0)
            out[f"{name}.rows"] = (c[f"{name}.rows"] / calls if calls else 0.0, "rows/call")
        out["motion.load_motion.bytes"] = (c["motion.load_motion.bytes"] / invocations, "B")
        out["metrics.check_termination.calls"] = (
            span("metrics.check_termination", "calls"), "count")
        elements = c["actuation.clip_torque.elements"]
        out["actuation.clip_active_frac"] = (
            c["actuation.clip_torque.active"] / elements if elements else 0.0, "1")
        episodes = spans.get("env.ArmEnv.reset", {}).get("calls", 0)
        out["env.early_term_frac"] = (c["env.episodes_early"] / episodes if episodes else 0.0, "1")
        for phase, names in PHASES.items():
            out[f"distill.phase.{phase}"] = (sum(span(nm, "incl_s") for nm in names), "s")
        return out

    def save(self, path: str) -> None:
        """Write every span (name id, parent id, start, end) once, at the end."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            parent=np.array(self.parent), start=np.array(self.start),
                            end=np.array(self.end))

"""Committed mutants: small deliberate faults in `src/flowtrack` that named
tests must catch, so the strength of the oracles is a checked number.

For each mutant the harness copies `src/` to a temporary directory, replaces
the one occurrence of the mutant's snippet in its file, and runs the mutant's
test node ids with pytest against that copy. The mutant is killed when those
tests fail. A snippet that does not occur exactly once means the code has
moved: the harness then fails with "re-anchor mutant <id>", and the mutant is
re-targeted, never dropped. A surviving mutant is a finding; the mend is a
stronger test.

Hypothesis runs without its shrink phase and without an example database
here (a pytest plugin written beside the copy), so a mutant fails as soon as
one generated example does; shrinking a failure can take minutes.

    python tests/mutation/run.py

Exits 0 when every mutant is killed, 1 otherwise. The harness uses the
standard library only; the tests it runs need numpy, pytest and hypothesis.
It is not a test module, so the tier-1 run does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    id: str
    file: str  # below src/flowtrack
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    reason: str  # what the mutant breaks


MUTANTS = (
    Mutant("es_accept_ties", "distill.py",
           "if fs[2 ** k + j] > f_best:",
           "if fs[2 ** k + j] >= f_best:",
           ("tests/test_rollout.py::test_speculative_es_is_the_sequential_loop",
            "tests/test_rollout.py::test_ties_keep_the_earlier_best"),
           "ES replaces its best only on a strictly higher score"),
    Mutant("dagger_labels_late", "distill.py",
           "expert_action(expert, env, np.arange(steps[i]), i)",
           "expert_action(expert, env, np.arange(1, steps[i] + 1), i)",
           ("tests/test_rollout.py::test_dagger_is_the_serial_loop",
            "tests/test_rollout.py::test_dagger_oracle_covers_early_ends_and_held_frames"),
           "a visited observation is labelled at its own step, not the next"),
    Mutant("row_constants_kept_when_rows_end", "env.py",
           "self._consts = (replace(p,",
           "self._consts = self._consts if running.size < self._steps.size else (replace(p,",
           ("tests/test_env.py::TestBatch::test_running_rows_take_their_episode_params",),
           "the running rows' constants are rebuilt when the running set shrinks"),
    Mutant("row_constants_kept_over_reset", "env.py",
           "        self._set_running(np.arange(n))",
           "        self._running = np.arange(n)",
           ("tests/test_env.py::TestBatch::test_a_reset_rebuilds_what_a_step_reads",),
           "a reset derives the new batch's row index, constants and streams"),
    Mutant("label_params_kept_over_reset", "env.py",
           "self._label_params = {}",
           "self._label_params = getattr(self, '_label_params', {})",
           ("tests/test_env.py::TestExpert::test_labels_after_a_new_reset_use_its_params",),
           "a reset drops the last episodes' friction-scaled label params"),
    Mutant("obs_written_to_first_rows", "env.py",
           "self._obs[rows] = obs",
           "self._obs[:len(obs)] = obs",
           ("tests/test_env.py::TestObservation::test_batched_history_across_a_shrinking_batch",),
           "each running row's new observation is stored in that row"),
    Mutant("reset_returns_stored_obs", "env.py",
           "return self._unbatch(self._obs.copy())",
           "return self._unbatch(self._obs)",
           ("tests/test_env.py::TestBatch::test_mixed_motion_rows_equal_single_episodes",
            "tests/test_env.py::TestStep::test_logged_command_is_the_pd_law"),
           "steps overwrite the stored observations, so reset hands out a copy"),
    Mutant("disturbance_reordered", "env.py",
           "return -bound + (2.0 * bound) * out",
           "return bound * (2.0 * out - 1.0)",
           ("tests/test_rollout.py::test_disturbances_are_the_uniform_draws",),
           "the disturbances are `uniform(-b, b, J)` bit for bit"),
    Mutant("adam_reordered", "flow.py",
           "np.divide(np.multiply(lr, np.divide(m, c1, out=r), out=r), s, out=r)",
           "np.divide(np.divide(np.multiply(lr, m, out=r), c1, out=r), s, out=r)",
           ("tests/test_rollout.py::test_dagger_workspace_steps_are_the_oracle",),
           "Adam evaluates lr * (m / c1) in the order of its plain expression"),
    Mutant("envelope_reciprocal", "actuation.py",
           "(np.abs(v) - p.v_x1) / p.v_span",
           "(np.abs(v) - p.v_x1) * (1 / p.v_span)",
           ("tests/test_rollout.py::test_step_is_the_oracle",),
           "the envelope's derating fraction divides by the ramp's width"),
    Mutant("observation_holds_pre_step_qdot", "env.py",
           "obs = self._observe(rows, [q, qdot, base_actions], th, th_ref, history)",
           "obs = self._observe(rows, [q, qdot_pre, base_actions], th, th_ref, history)",
           ("tests/test_rollout.py::test_step_is_the_oracle",),
           "the observation, the one record of the state, holds the new qdot"),
    Mutant("read_json_leaves_gc_off", "fileio.py",
           "gc.enable()",
           "pass",
           ("tests/test_fileio.py::test_read_json_leaves_the_collector_as_found",),
           "decoding pauses the cyclic collector and turns it back on"),
    Mutant("read_json_builds_after_the_pause", "fileio.py",
           """        value = build(doc)
        del doc  # the tree goes here unless `value` holds it
        return value
    finally:
        if was_enabled:
            gc.enable()
""",
           """    finally:
        if was_enabled:
            gc.enable()
    return build(doc)
""",
           ("tests/test_fileio.py::test_load_motion_starts_no_collection",),
           "a reader builds from the decoded tree with the collector still paused"),
    Mutant("stream_index_kept_when_rows_end", "env.py",
           "self.running_streams = np.unique(",
           "self.running_streams = self.running_streams if running.size < self._steps.size "
           "else np.unique(",
           ("tests/test_rollout.py::test_shared_generators_equal_rows_on_copies",),
           "the running rows' stream index is rebuilt when the running set shrinks"),
    Mutant("shared_stream_drawn_per_row", "distill.py",
           "for k in streams])[stream_row]",
           "for k in streams[stream_row]])",
           ("tests/test_rollout.py::test_shared_generators_equal_rows_on_copies",
            "tests/test_rollout.py::test_refine_batches_draw_once_per_seed_per_step"),
           "a stream that feeds several rows draws each step's noise once"),
    Mutant("frame_missing_keys_pass", "motion.py",
           "fr.keys() == _FRAMES.keys()",
           "fr.keys() <= _FRAMES.keys()",
           ("tests/test_motion.py::TestLoadSave::test_missing_frame_key_named",),
           "a frame missing a key is a SchemaError naming it"),
    Mutant("skip_draws_uniform_noise", "env.py",
           "rng.standard_normal(noise_dim)",
           "rng.random(noise_dim)",
           ("tests/test_rollout.py::test_dagger_oracle_covers_early_ends_and_held_frames",
            "tests/test_rollout.py::test_dagger_reruns_after_each_early_end"),
           "a skipped episode advances the stream past its policy's normal draws"),
    Mutant("label_params_from_row_0", "env.py",
           "replace(p, mu_s=p.mu_s[row], mu_d=p.mu_d[row])",
           "replace(p, mu_s=p.mu_s[0], mu_d=p.mu_d[0])",
           ("tests/test_rollout.py::test_dagger_oracle_covers_early_ends_and_held_frames",),
           "each row's labels use its own episode's friction"),
    Mutant("sampler_steps_ignored", "flow.py",
           "D, A, E = net.sampler_steps, net.action_dim, net.time_embed_dim",
           "D, A, E = 5, net.action_dim, net.time_embed_dim",
           ("tests/test_flow.py::TestEulerSampler::test_matches_per_step_forward_loop_bit_for_bit",
            "tests/test_cli.py::TestSamplerSteps::test_eval_samples_as_trained"),
           "a policy is sampled with its own Euler step count"),
    Mutant("float_array_takes_booleans", "fileio.py",
           "({bool} if dtype is bool else {int, float})",
           "({bool} if dtype is bool else {int, float, bool})",
           ("tests/test_motion.py::TestLoadSave::test_non_numeric_value_named",
            "tests/test_fuzz.py::test_boolean_in_place_of_a_number"),
           "a JSON boolean among a float array's numbers is refused"),
    Mutant("motion_files_take_directories", "cli.py",
           "return [p for p in paths if os.path.isfile(p)]",
           "return paths",
           ("tests/test_cli.py::test_directory_named_json_is_skipped_once",),
           "a motion directory's *.json entries are read only if regular files"),
)

# Loaded by the pytest runs with -p: hypothesis generates examples but does
# not shrink or store a failing one.
PLUGIN = """\
from hypothesis import Phase, settings

settings.register_profile("mutation", phases=(Phase.explicit, Phase.generate), database=None)
settings.load_profile("mutation")
"""


def mutated_text(mutant: Mutant) -> str:
    """The mutant's file with its snippet replaced; SystemExit naming the
    mutant unless the snippet occurs exactly once."""
    text = (ROOT / "src" / "flowtrack" / mutant.file).read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"re-anchor mutant {mutant.id}: its snippet occurs {count} times "
                         f"in src/flowtrack/{mutant.file}")
    return text.replace(mutant.snippet, mutant.replacement)


def run_mutant(mutant: Mutant, work: Path) -> str:
    """The verdict of the mutant's tests, run against a mutated copy of
    `src/` under `work`: "killed", "SURVIVED", or "ERROR" with pytest's last
    output line when the run checked nothing (a bad node id, a plugin that did
    not load)."""
    src = work / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "flowtrack" / mutant.file).write_text(mutated_text(mutant), encoding="utf-8")
    (work / "mutation_profile.py").write_text(PLUGIN, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(work)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-p", "mutation_profile", *mutant.tests]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    last = (run.stdout.strip().splitlines() or run.stderr.strip().splitlines() or [""])[-1]
    # pytest exits 1 both when tests fail and when a plugin fails to load; only
    # a summary that counts failed tests or errors kills the mutant
    if run.returncode == 1 and re.search(r"\b\d+ (failed|errors?)\b", last):
        return "killed"
    return "SURVIVED" if run.returncode == 0 else f"ERROR ({last})"


def main() -> int:
    for mutant in MUTANTS:  # every anchor is checked before any test runs
        mutated_text(mutant)
    failed, start = 0, time.monotonic()
    for mutant in MUTANTS:
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="flowtrack-mutant-") as work:
            verdict = run_mutant(mutant, Path(work))
        failed += verdict != "killed"
        print(f"{verdict:<8} {mutant.id:<34} {time.monotonic() - t0:6.1f}s  {mutant.reason}",
              flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - start:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

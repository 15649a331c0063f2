"""flowtrack benchmark: one workload per run, driven through `flowtrack.cli.main`.

    python3 perfbench/run.py --workload distill --seed 1 --seconds 24 --trace 0

A run generates the workload's inputs from the seed, times the program's
set-up in fresh processes, then repeats the CLI invocation in this process
until `--seconds` are used, checking every invocation's outputs. With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` invocations alternate between untraced
and traced, and the metrics are the per-layer ones. The same numbers, the
seed and an environment record are also written to
.bench_results/<workload>-seed<seed>-trace<0|1>.json. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import os

# One process with one BLAS thread: the steadiest setting on a small shared box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBES = 7  # set-up is timed this many times per run; the median is reported
CAL_ITERS = 1500
CAL_REF_S = 0.1  # typical duration of calibrate() on the reference machine (README)

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class SetupError(RuntimeError):
    """The benchmark could not prepare its run; no result is printed."""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() or "unavailable"


def environment_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def calibrate() -> float:
    """Seconds a fixed reference loop takes now.

    The loop mixes what the program spends its time on: interpreter work,
    numpy calls on tiny arrays (a 2x2 solve, as in the arm dynamics), an
    occasional small matrix product, and JSON decoding into arrays (as in
    motion loading). It is the benchmark's own code, so it does not change
    with the program. Timings are scaled by CAL_REF_S / calibrate() measured
    around them, which removes most of the shared machine's speed swings
    (README, "Calibrated seconds").
    """
    import numpy as np
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    a, b = np.full((128, 96), 0.01), np.full((96, 96), 0.01)
    text = json.dumps({"frames": [{"q": [0.1 * k + 0.01 * j for k in range(4)],
                                   "body_pos": [[0.5, 0.0, 0.25 * k] for k in range(4)],
                                   "contacts": [True]} for j in range(6)]})
    q, acc = np.zeros(2), 0.0
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        th = np.cumsum(q)
        c = np.cos(np.subtract.outer(th, th)) * m
        q = np.clip(np.linalg.solve(c + np.eye(2), np.tanh(q + 0.001 * i)), -1.0, 1.0)
        acc += float(q[0]) * 0.5 + (i % 5) * 0.25
        if i % 2 == 0:
            acc += float(np.array([f["body_pos"] for f in json.loads(text)["frames"]]).sum())
        if i % 30 == 0:
            acc += float(np.tanh(a @ b)[0, 0])
    return time.perf_counter() - t0


def calibrated(raw: list[float], cals: list[tuple[float, float]]) -> list[float]:
    """Scale each timing by the mean of the calibrations taken just before and after it."""
    return [t * 2.0 * CAL_REF_S / (before + after) for t, (before, after) in zip(raw, cals)]


def midmean(values: list[float]) -> float:
    """Mean of the middle half of the sorted values (the median below 4 values).

    Like the median it ignores the fastest and slowest quarter; unlike it, it
    averages the rest, which narrows the run-to-run spread of `wall_s` when a
    run holds only 7 to 12 invocations (README).
    """
    v = sorted(values)
    k = len(v) // 4
    return statistics.mean(v[k:len(v) - k]) if k else statistics.median(v)


def _run_child(cmd: list[str], what: str) -> str:
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise SetupError(f"{what} failed with exit code {res.returncode}: {res.stderr.strip()}")
    return res.stdout


def time_setup(wl, argv: list[str]) -> float:
    """Seconds from process start to entering the workflow function."""
    probe = [sys.executable, os.path.join(HERE, "probe.py"), SRC, wl.workflow, *argv]
    t0 = time.perf_counter()
    entered = float(_run_child(probe, "set-up probe").split()[-1])
    return entered - t0


class EpisodeCensus:
    """Counts env steps without a per-step hook.

    The only wrapper is on `ArmEnv.reset`, called once per episode: it adds
    the step count of the episode that the reset ends, and `finish()` adds
    the last one.
    """

    def __init__(self):
        from flowtrack.env import ArmEnv
        self._cls, self._reset = ArmEnv, ArmEnv.__dict__["reset"]
        self.envs, self.steps = [], 0
        census, original = self, self._reset

        def reset(env, *args, **kwargs):
            if any(e is env for e in census.envs):
                census.steps += env.step_count
            else:
                census.envs.append(env)
            return original(env, *args, **kwargs)

        ArmEnv.reset = reset

    def finish(self) -> int:
        self._cls.reset = self._reset
        return self.steps + sum(e.step_count for e in self.envs)


def _read_outputs(wl, out: str) -> dict | None:
    texts = {}
    for name in wl.outputs:
        try:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
        except OSError:
            return None
    return texts


class Run:
    """The measured phase of one run: repeated invocations and their checks."""

    def __init__(self, wl, seed: int, work: str, manifest: dict, references: dict | None):
        self.wl, self.manifest, self.references = wl, manifest, references
        self.out = os.path.join(work, "out")
        self.argv = wl.argv(seed, os.path.join(work, "inputs"), self.out)
        self.first = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.env_steps: list[int] = []
        self.cals: list[tuple[float, float]] = []  # around each untraced invocation
        self.probes: list[float] = []

    def invoke(self, tracer=None) -> None:
        from flowtrack import cli
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        census = EpisodeCensus() if tracer is None else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(self.argv)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
            else:
                self.env_steps.append(census.finish())
        (self.walls if tracer is None else self.traced_walls).append(wall)
        self._check(rc)

    def _check(self, rc: int) -> None:
        ops = self.wl.ops(self.manifest)
        self.attempted += ops
        texts = _read_outputs(self.wl, self.out)
        if rc != 0 or texts is None:
            failed, problems = ops, [f"exit code {rc}, outputs {'missing' if texts is None else 'present'}"]
        else:
            failed, problems = self.wl.check(self.manifest, texts)
            if self.first is None:
                self.first = texts
            elif texts != self.first:
                failed, problems = ops, problems + ["outputs differ between invocations"]
            if self.references is not None and texts != self.references:
                failed, problems = ops, problems + ["outputs differ from the stored references"]
        self.failed += failed
        self.problems += problems

    def measure(self, seconds: float, tracer=None, probe=None) -> None:
        """Invoke until `seconds` are used, stopping where the measured time
        comes closest to `seconds`.

        Untraced, every invocation is bracketed by calibrations, and `probe`
        (a set-up timing) runs after each of the first PROBES invocations, so
        the probes sample the machine across the run instead of at its start.
        With a tracer, invocations alternate untraced / traced, so both sides
        see the same machine conditions; at least one of each runs.
        """
        begin = time.perf_counter()
        before = calibrate() if tracer is None else 0.0
        while True:
            traced = tracer is not None and len(self.walls) > len(self.traced_walls)
            self.invoke(tracer if traced else None)
            if tracer is None:
                after = calibrate()
                self.cals.append((before, after))
                before = after
                if len(self.probes) < PROBES:
                    self.probes.append(probe())
                    before = calibrate()
            if tracer is not None and not self.traced_walls:
                continue
            typical = statistics.median(self.walls + self.traced_walls)
            if time.perf_counter() - begin + typical / 2 > seconds:
                break
        while tracer is None and len(self.probes) < PROBES:
            self.probes.append(probe())


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(metrics listed in BENCHMARK.json, every end-to-end metric printed).

    Times are in calibrated seconds; the raw medians are printed beside them.
    A probe is too short for the calibrations around it to say much, so
    set-up time is scaled by the median of all the run's calibrations.
    """
    wall = midmean(calibrated(run.walls, run.cals))
    ops = run.wl.ops(run.manifest)
    cal = statistics.median(c for pair in run.cals for c in pair)
    gated = {
        "setup_s": (statistics.median(run.probes) * CAL_REF_S / cal, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"failed_ops_frac": (run.failed / run.attempted, "1")}
    steps = statistics.median(run.env_steps)
    if steps:
        extra["env_steps_per_s"] = (steps / wall, "1/s")
    per_op = {"refine": "es_candidates_per_s", "evaluate": "episodes_per_s"}
    if run.wl.name in per_op:
        extra[per_op[run.wl.name]] = (ops / wall, "1/s")
    if run.wl.name == "analyze":
        extra["frames_per_s"] = (run.manifest["frames"] / wall, "1/s")
    extra["setup_raw_s"] = (statistics.median(run.probes), "s")
    extra["wall_raw_s"] = (statistics.median(run.walls), "s")
    extra["calibration_s"] = (cal, "s")
    return gated, {**gated, **extra}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def prepare(wl, seed: int, work: str) -> tuple[dict, dict | None]:
    """Check the checkout and fixtures, write the inputs; returns the
    manifest and, at the default seed, the reference outputs."""
    if not os.path.isfile(os.path.join(SRC, "flowtrack", "cli.py")):
        raise SetupError(f"no flowtrack sources under {SRC}; run from a repository checkout")
    if wl.uses_base_policy and _sha256(workloads.BASE_POLICY) != workloads.BASE_POLICY_SHA256:
        raise SetupError(f"{workloads.BASE_POLICY}: sha256 does not match the stored value")
    references = None
    if seed == workloads.DEFAULT_SEED:
        references = _read_outputs(wl, os.path.join(workloads.REFERENCES, wl.name))
        if references is None:
            raise SetupError(f"reference outputs of {wl.name} are missing")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    _run_child([sys.executable, os.path.join(HERE, "workloads.py"), wl.name, str(seed), inputs],
               "input generation")
    with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh), references


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    record = environment_record()
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-seed{args.seed}-{os.getpid()}")
    try:
        manifest, references = prepare(wl, args.seed, work)
        probe_argv = wl.argv(args.seed, os.path.join(work, "inputs"),
                             os.path.join(work, "probe-out"))
        time_setup(wl, probe_argv)  # fails here, before any result, if set-up is broken
    except (SetupError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        shutil.rmtree(work, ignore_errors=True)
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(wl, args.seed, work, manifest, references)
    tracer = None
    try:
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        # The traced run reports no set-up time, so it spends none on probes.
        run.measure(args.seconds, tracer, lambda: time_setup(wl, probe_argv))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_1m_end"] = os.getloadavg()[0]

    if tracer is not None:
        metrics = shown = tracer.per_layer(len(run.traced_walls))
        metrics["trace.overhead_s"] = (
            statistics.median(run.traced_walls) - statistics.median(run.walls), "s")
    else:
        metrics, shown = end_to_end(run)
    correct = run.failed == 0 and not run.problems
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": record, "correct": correct,
                   "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
                   "setup_probes_s": run.probes, "walls_s": run.walls,
                   "traced_walls_s": run.traced_walls, "calibrations_s": run.cals,
                   "env_steps": run.env_steps, "metrics": _as_json(shown)}, fh, indent=2)

    print(f"flowtrack benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(record))
    print(f"samples: {len(run.walls)} untraced and {len(run.traced_walls)} traced "
          f"invocations, {len(run.probes)} set-up probes")
    for key, (value, unit) in shown.items():
        print(f"  {key:<40s} {value:>14.6g} {unit}")
    for problem in run.problems:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": _as_json(metrics)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the benchmark's stored fixtures.

    python3 perfbench/make_fixtures.py checkpoint   # base policy (about a minute)
    python3 perfbench/make_fixtures.py references   # default-seed reference outputs

`checkpoint` trains the base policy of the `refine` and `evaluate` workloads
with `flowtrack train` at its CLI defaults (seed 0) on the criterion-9 1 Hz
motion, writes it to data/base_policy.json and prints its sha256, which
belongs in workloads.BASE_POLICY_SHA256. The stored file keeps those two
workloads independent of later changes to the training numerics.

`references` runs every workload once at the default seed and stores the
checked outputs under references/<workload>/. Regenerate them only when a
change is meant to alter the program's outputs.
"""

from __future__ import annotations

import hashlib
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # the benchmark's setting (see run.py)
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from flowtrack import cli  # noqa: E402


def _fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def make_checkpoint(work: str) -> None:
    mdir = _fresh(os.path.join(work, "motions"))
    workloads.write_motion(os.path.join(mdir, "fast1hz.json"), 10.0, **workloads.FAST_1HZ)
    out = os.path.join(work, "train")
    rc = cli.main(["--seed", "0", "train", "--motions", mdir, "--out", out])
    if rc != 0:
        raise SystemExit(f"flowtrack train failed with exit code {rc}")
    os.makedirs(os.path.dirname(workloads.BASE_POLICY), exist_ok=True)
    shutil.copyfile(os.path.join(out, "policy.json"), workloads.BASE_POLICY)
    with open(workloads.BASE_POLICY, "rb") as fh:
        print(f"{workloads.BASE_POLICY}: sha256 {hashlib.sha256(fh.read()).hexdigest()}")


def make_references(work: str) -> None:
    for wl in workloads.WORKLOADS.values():
        inputs = _fresh(os.path.join(work, wl.name))
        manifest = wl.make_inputs(workloads.DEFAULT_SEED, inputs)
        out = _fresh(os.path.join(work, wl.name + "-out"))
        rc = cli.main(wl.argv(workloads.DEFAULT_SEED, inputs, out))
        texts = {f: open(os.path.join(out, f), encoding="utf-8").read() for f in wl.outputs}
        failed, problems = wl.check(manifest, texts)
        if rc != 0 or failed:
            raise SystemExit(f"{wl.name}: exit code {rc}, problems {problems}")
        ref = _fresh(os.path.join(workloads.REFERENCES, wl.name))
        for f, text in texts.items():
            with open(os.path.join(ref, f), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"{wl.name}: stored {', '.join(texts)}")


def main(argv) -> int:
    steps = {"checkpoint": make_checkpoint, "references": make_references}
    if len(argv) != 1 or argv[0] not in steps:
        print(__doc__, file=sys.stderr)
        return 1
    work = os.path.join(ROOT, ".bench_work", "fixtures")
    steps[argv[0]](work)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

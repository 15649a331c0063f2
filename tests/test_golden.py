"""Golden byte-identity of seeded CLI outputs.

Speed-ups of the serial paths (DAgger, the sampler, the actuation and dynamics
kernels, the checkpoint writers) must not move a single bit of a seeded run.
The sha256 values below were recorded before those paths were optimised; a
change that alters any of them changes training or refinement, not only their
speed. The values hold for numpy 2.4 with OpenBLAS on x86-64; a BLAS that
rounds small matrix products differently needs its own record.
"""

import hashlib

import pytest

from flowtrack import cli
from flowtrack.motion import SynthMotionSpec, save_motion, synth_motion

GOLDEN = {
    "motions/a.json": "5164a058344579373e87a6d75db699e9202c162f66975faff39234250d21a099",
    "motions/b.json": "28efb48b6e737e7aaeed4369f9e7ebbc9b623672c4e90bf0b70ff27e59211bc7",
    "train/policy_iter1.json": "dd535e9389148cddea28c5aa57114cd0d55da75fbd7dbeabf8c68bf82693c86f",
    "train/policy.json": "9d0fc0a5a5dbb0c809c33979067073de0fb9bb572feac44e77c3269e2bcfbb47",
    "train/loss.csv": "f3e3747679600210e793d3af762a50fb4a4dda2cffbd74843d8efb2757ee4250",
    "train/config.json": "a61e8a67fd6f95e7ede089e05064ae9bb23ec196c735dd1300082e0c625c3895",
    "refine/residual.json": "59d2baf84fd0843c14ac9f8931dd6a1bb4d31165f625ef7048a2b49f6475c544",
    "refine/reward.csv": "70b78d956b1ffa2572d9ac9ace8b74f7f34948d904c78e96be6cdcdd3785ac30",
    "refine/config.json": "37c8d2cae907dd73f396470ab39f47bb34e915862cdd3c2c3021d80e7545a1b4",
    "metrics.json": "d13e73b0b59197976f2b05865367092ea0a9d76d3ce310d665848f3fdb466306",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    motions = root / "motions"
    motions.mkdir()
    for name, amp, freq in (("a", 0.3, 0.5), ("b", (0.4, 0.2), (0.25, 0.75))):
        clip = synth_motion(SynthMotionSpec(2, 3.0, 50.0, amplitude=amp, frequency=freq,
                                            link_lengths=(0.5, 0.4)))
        save_motion(clip, motions / f"{name}.json")
    env_sets = ["--set", "env.episode_len=40", "--set", "env.envelope_scale=0.7"]
    assert cli.main([
        "--seed", "3", "--quiet", "train", "--motions", str(motions),
        "--out", str(root / "train"), *env_sets,
        "--set", "train.iterations=2", "--set", "train.episodes_per_iter=3",
        "--set", "train.gradient_steps=12", "--set", "train.batch_size=48",
        "--set", "train.hidden=[16,16]", "--set", "train.checkpoint_every=1",
    ]) == 0
    policy = root / "train" / "policy.json"
    assert cli.main([
        "--seed", "4", "--quiet", "refine", "--motions", str(motions / "b.json"),
        "--policy", str(policy), "--out", str(root / "refine"), *env_sets,
        "--set", "es.generations=2", "--set", "es.population=3",
        "--set", "es.episodes_per_eval=2", "--set", "es.residual_hidden=[8]",
    ]) == 0
    assert cli.main([
        "--seed", "5", "--quiet", "eval", "--motions", str(motions),
        "--policy", str(policy), "--residual", str(root / "refine" / "residual.json"),
        "--rollouts", "2", "--out", str(root / "metrics.json"), *env_sets,
    ]) == 0
    return root


@pytest.mark.parametrize("rel", sorted(GOLDEN))
def test_output_bytes_unchanged(golden_run, rel):
    assert _sha(golden_run / rel) == GOLDEN[rel]

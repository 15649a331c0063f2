import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowtrack
from flowtrack import cli, distill, flow
from flowtrack.distill import MAX_EPISODES_PER_ITER, MAX_POPULATION
from flowtrack.env import MAX_GRAVITY, MAX_HISTORY_LEN, MAX_LINKS, ArmEnv
from flowtrack.flow import MAX_LAYER_WIDTH, MAX_SAMPLER_STEPS, MAX_TIME_EMBED_DIM
from flowtrack.motion import SynthMotionSpec, load_motion, save_motion, synth_motion


@pytest.fixture(scope="module")
def motions_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("motions")
    specs = [
        ("a_slow", 0.3, 0.25),
        ("b_mid", 0.4, 0.5),
        ("c_static", 0.0, 0.0),
    ]
    for name, amp, freq in specs:
        clip = synth_motion(SynthMotionSpec(2, 4.0, 50.0, amplitude=amp, frequency=freq,
                                            link_lengths=(0.5, 0.4)))
        save_motion(clip, d / f"{name}.json")
    return d


@pytest.fixture(scope="module")
def tiny_policy_dir(tmp_path_factory, motions_dir):
    out = tmp_path_factory.mktemp("train_out")
    rc = cli.main([
        "--seed", "1", "--quiet", "train",
        "--motions", str(motions_dir / "a_slow.json"),
        "--out", str(out),
        "--set", "train.iterations=2", "--set", "train.gradient_steps=40",
        "--set", "train.hidden=[24,24]", "--set", "env.episode_len=80",
    ])
    assert rc == 0
    return out


# A motion file the env cannot track, and the error naming it: a frame rate
# other than the 50 Hz control rate, a body count other than one per link, or
# a joint count other than the env's.
MISMATCHES = {
    "fps": "motion fps 25.0 does not match 50 Hz control",
    "bodies": "motion has 3 bodies; expected one per link",
    "joints": "motion has 3 joints, env has 2",
}


def mismatched_motions(tmp_path, kind):
    """A directory holding a good motion file and, after it, one of `kind`."""
    d = tmp_path / "motions"
    d.mkdir()
    spec = SynthMotionSpec(2, 4.0, 50.0, amplitude=0.3, frequency=0.25, link_lengths=(0.5, 0.4))
    save_motion(synth_motion(spec), d / "a_good.json")
    if kind == "fps":
        clip = synth_motion(dataclasses.replace(spec, fps=25.0))
    elif kind == "bodies":
        clip = synth_motion(spec)
        clip = dataclasses.replace(clip, body_pos=np.concatenate(
            [clip.body_pos, clip.body_pos[:, -1:]], axis=1))
    else:
        clip = synth_motion(SynthMotionSpec(3, 4.0, 50.0, amplitude=0.3, frequency=0.25))
    save_motion(clip, d / f"b_{kind}.json")
    return d, d / f"b_{kind}.json"


@pytest.mark.parametrize("kind", sorted(MISMATCHES))
@pytest.mark.parametrize("command", ["train", "eval"])
def test_mismatched_motion_file_exits_1(tmp_path, tiny_policy_dir, monkeypatch, capsys,
                                        command, kind):
    """The env's own motion check runs on every file at load, before any
    episode starts (train with zero iterations included), and names the file."""
    d, path = mismatched_motions(tmp_path, kind)
    resets = []
    monkeypatch.setattr(ArmEnv, "reset", lambda *args, **kwargs: resets.append(args))
    argv = ["--quiet", command, "--motions", str(d), "--set", "env.episode_len=50"]
    if command == "train":
        argv += ["--out", str(tmp_path / "out"), "--set", "train.iterations=0"]
    else:
        argv += ["--policy", str(tiny_policy_dir / "policy.json"), "--rollouts", "1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {MISMATCHES[kind]}\n"
    assert not resets and not (tmp_path / "out").exists()


def test_gravity_out_of_range_exits_1(motions_dir, tiny_policy_dir, capsys):
    # uncapped, 1e308 passed set-up, overflowed the first step's dynamics and
    # exited 2 with "state became non-finite at step 1"
    argv = ["--quiet", "eval", "--policy", str(tiny_policy_dir / "policy.json"),
            "--motions", str(motions_dir / "a_slow.json"), "--rollouts", "1",
            "--set", "env.episode_len=20"]
    assert cli.main([*argv, "--set", "env.gravity=1e308"]) == 1
    assert capsys.readouterr().err == (
        f"error: env.gravity must be in [-{MAX_GRAVITY}, {MAX_GRAVITY}], got 1e+308\n")
    assert cli.main([*argv, "--set", f"env.gravity={-MAX_GRAVITY}"]) == 0


@pytest.mark.parametrize("key, cap", [
    ("disturbance", "1000.0"), ("pose_noise", "3.141592653589793"),
    ("q0_offset", "3.141592653589793"),
])
def test_randomization_range_out_of_range_exits_1(motions_dir, tiny_policy_dir, capsys, key,
                                                  cap):
    # uncapped, 1e308 made the uniform draws' span overflow, and eval exited 2
    # with numpy's "high - low range exceeds valid bounds", naming no key
    argv = ["--quiet", "eval", "--policy", str(tiny_policy_dir / "policy.json"),
            "--motions", str(motions_dir / "a_slow.json"), "--rollouts", "1",
            "--set", "env.episode_len=20"]
    assert cli.main([*argv, "--set", f"env.randomization.{key}=1e308"]) == 1
    assert capsys.readouterr().err == (
        f"error: env.randomization.{key} must be in [0, {cap} / aggressive_factor], got "
        f"1e+308 with env.randomization.aggressive_factor=1.5\n")


@pytest.mark.parametrize("command, key, item", [
    ("train", "train.hidden", '"x"'), ("refine", "es.residual_hidden", "1.5")])
def test_set_after_emptied_list_types_items(tmp_path, motions_dir, tiny_policy_dir, capsys,
                                            command, key, item):
    # the tree is typed against the defaults, not the list the first --set
    # left; typed against that empty list, the item reached the net's set-up
    # and failed there with a TypeError (exit 2)
    argv = ["--quiet", command, "--motions", str(motions_dir / "a_slow.json"),
            "--out", str(tmp_path / "x"), "--set", f"{key}=[]", "--set", f"{key}=[{item}]"]
    if command == "refine":
        argv += ["--policy", str(tiny_policy_dir / "policy.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: --set: '{key}.0' must be an integer\n"


@pytest.mark.parametrize("argv", [
    ["analyze"],  # no --motions
    ["eval", "--motions", "m.json", "--policy", "p.json", "--rollouts", "abc"],
    ["bogus"],
])
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: flowtrack") and "error: " in err


@pytest.mark.parametrize("command, kind, message", [
    ("analyze", "missing", "error: motion path '{path}' is neither a file nor a directory\n"),
    ("eval", "missing", "error: motion path '{path}' is neither a file nor a directory\n"),
    ("analyze", "empty", "no motion files found\n"),
    ("eval", "empty", "error: no motion files in '{path}'\n"),
])
def test_motion_path_without_files_exits_1(tmp_path, tiny_policy_dir, capsys, command, kind,
                                           message):
    path = tmp_path / "motions"
    if kind == "empty":
        path.mkdir()
    argv = [command, "--motions", str(path)]
    if command == "eval":
        argv += ["--policy", str(tiny_policy_dir / "policy.json")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == message.format(path=path)
    assert not captured.out


@pytest.mark.parametrize("command", ["analyze", "eval"])
def test_directory_named_json_is_skipped_once(tmp_path, motions_dir, tiny_policy_dir, capsys,
                                              command):
    """Only regular files are motion files: a directory `x.json` is named in
    one warning and skipped, where `open` raised an OSError that named it
    twice."""
    d = tmp_path / "motions"
    d.mkdir()
    (d / "a_slow.json").write_bytes((motions_dir / "a_slow.json").read_bytes())
    (d / "x.json").mkdir()
    argv = ["--quiet", command, "--motions", str(d), "--out", str(tmp_path / "out.json")]
    if command == "eval":
        argv += ["--policy", str(tiny_policy_dir / "policy.json"), "--rollouts", "1",
                 "--set", "env.episode_len=20"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == f"warning: skipping {d / 'x.json'}: not a regular file\n"
    doc = json.loads((tmp_path / "out.json").read_text())
    assert ([e["motion"] for e in doc] if command == "analyze" else list(doc["motions"])) == [
        "a_slow"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: flowtrack")


def run_module(*argv):
    """`python -m flowtrack argv...` in a child interpreter that imports this
    package."""
    src = str(Path(flowtrack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "flowtrack", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_main(capsys):
    argv = ["actuator", "5020-16", "--v", "3", "--tau", "5"]
    run = run_module(*argv)
    assert run.returncode == 0, run.stderr
    assert cli.main(argv) == 0
    assert run.stdout == capsys.readouterr().out != ""


def test_module_entry_point_without_subcommand_exits_1():
    run = run_module()
    assert run.returncode == 1
    assert run.stderr.startswith("usage: flowtrack") and "command" in run.stderr


class TestAnalyze:
    def test_report_entries_sorted(self, motions_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(["--quiet", "analyze", "--motions", str(motions_dir),
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert [e["motion"] for e in report] == ["a_slow", "b_mid", "c_static"]
        for entry in report:
            assert list(entry["raw"]) == ["v_max", "a_max", "j_max", "ang_max",
                                          "v_com_z_max", "airborne", "f_switch"]
            assert len(entry["scores"]) == 6

    def test_static_clip_zero_scores(self, motions_dir, tmp_path):
        out = tmp_path / "report.json"
        cli.main(["--quiet", "analyze", "--motions", str(motions_dir), "--out", str(out)])
        report = json.loads(out.read_text())
        static = [e for e in report if e["motion"] == "c_static"][0]
        assert static["scores"] == [0.0] * 6

    def test_rerun_byte_identical(self, motions_dir, tmp_path):
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cli.main(["--quiet", "analyze", "--motions", str(motions_dir), "--out", str(o1)])
        cli.main(["--quiet", "analyze", "--motions", str(motions_dir), "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_bad_file_warns_but_continues(self, motions_dir, tmp_path, capsys):
        d = tmp_path / "mixed"
        d.mkdir()
        (d / "bad.json").write_text("{not json")
        clip = synth_motion(SynthMotionSpec(2, 4.0, 50.0, amplitude=0.1, frequency=0.3,
                                            link_lengths=(0.5, 0.4)))
        save_motion(clip, d / "good.json")
        rc = cli.main(["--quiet", "analyze", "--motions", str(d), "--out",
                       str(tmp_path / "r.json")])
        assert rc == 0
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_h_air_exits_1(self, motions_dir, capsys, value):
        # a NaN threshold scored every clip 0 airborne and exited 0
        assert cli.main(["analyze", "--motions", str(motions_dir), f"--h-air={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --h-air must be finite, got {value}\n"
        assert not captured.out

    def test_non_finite_metric_skips_file(self, motions_dir, tmp_path, capsys):
        # at fps 1e308 the finite differences overflow; the report held
        # "a_max": Infinity and "j_max": NaN, which is not JSON
        d = tmp_path / "huge_fps"
        d.mkdir()
        doc = json.loads((motions_dir / "a_slow.json").read_text())
        (d / "a_slow.json").write_text(json.dumps(doc))
        (d / "fast.json").write_text(json.dumps({**doc, "fps": 1e308}))
        out = tmp_path / "r.json"
        rc = cli.main(["--quiet", "analyze", "--motions", str(d), "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"warning: skipping {d / 'fast.json'}: a_max is not finite" in err
        assert "RuntimeWarning" not in err
        report = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(c))
        assert [e["motion"] for e in report] == ["a_slow"]

    def test_report_to_stdout_without_out(self, motions_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["--quiet", "analyze", "--motions", str(motions_dir),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", "--motions", str(motions_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text() and not captured.err

    def test_clip_without_feet_skipped(self, motions_dir, tmp_path, capsys):
        """A clip with no feet indices loads, but has no airborne score: the
        report warns and leaves it out."""
        d = tmp_path / "no_feet"
        d.mkdir()
        doc = json.loads((motions_dir / "a_slow.json").read_text())
        (d / "a_slow.json").write_text(json.dumps(doc))
        (d / "b_no_feet.json").write_text(json.dumps({**doc, "feet_indices": []}))
        assert load_motion(d / "b_no_feet.json").feet_indices == ()
        out = tmp_path / "r.json"
        assert cli.main(["--quiet", "analyze", "--motions", str(d), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: skipping {d / 'b_no_feet.json'}: clip has no feet indices\n"
        assert [e["motion"] for e in json.loads(out.read_text())] == ["a_slow"]

    def test_load_error_names_the_file_once(self, motions_dir, tmp_path, capsys):
        # the warning read "skipping <path>: <path>: 'q' must be numeric"
        d = tmp_path / "bad_q"
        d.mkdir()
        doc = json.loads((motions_dir / "a_slow.json").read_text())
        (d / "a_slow.json").write_text(json.dumps(doc))
        doc["frames"][3]["q"] = ["x"] * len(doc["frames"][3]["q"])
        (d / "m.json").write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert cli.main(["--quiet", "analyze", "--motions", str(d), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: skipping {d / 'm.json'}: 'q' must be numeric\n"
        assert [e["motion"] for e in json.loads(out.read_text())] == ["a_slow"]

    def test_all_bad_files_exit_1(self, tmp_path, capsys):
        d = tmp_path / "allbad"
        d.mkdir()
        (d / "x.json").write_text("{nope")
        rc = cli.main(["--quiet", "analyze", "--motions", str(d)])
        assert rc == 1


class TestActuator:
    def test_hand_value_printed(self, capsys):
        rc = cli.main(["actuator", "7520-22.5", "--v", "18.6", "--tau", "200"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "55.5" in out

    def test_zero_velocity_within_ceiling(self, capsys):
        rc = cli.main(["actuator", "7520-22.5", "--v", "0", "--tau", "50"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        friction = [l for l in lines if "friction" in l][0]
        applied = [l for l in lines if "applied" in l][0]
        assert friction.split()[-1] == "0"
        assert applied.split()[-1] == "50"

    def test_unknown_name_lists_catalog(self, capsys):
        rc = cli.main(["actuator", "9999"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "7520-22.5" in err and "5020-16" in err

    @pytest.mark.parametrize("flags, message", [
        (["--sweep", "-3"], "--sweep must be >= 0, got -3"),
        (["--v", "nan"], "--v must be finite, got nan"),
        (["--tau", "inf"], "--tau must be finite, got inf"),
        (["--sweep", "5", "--tau=-inf"], "--tau must be finite, got -inf"),
        # negative values that argparse alone takes for options
        (["--v", "-inf"], "--v must be finite, got -inf"),
        (["--tau", "-1e400", "--v", "-1e1"], "--tau must be finite, got -inf"),
        # uncapped, a huge sweep failed at allocation (exit 2)
        (["--sweep", "1000000000000"], f"--sweep must be <= {cli.MAX_SWEEP}, got 1000000000000"),
        (["--sweep", str(cli.MAX_SWEEP + 1)],
         f"--sweep must be <= {cli.MAX_SWEEP}, got {cli.MAX_SWEEP + 1}"),
    ])
    def test_bad_flag_exits_1(self, capsys, flags, message):
        assert cli.main(["actuator", "5020-16", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out

    def test_negative_exponent_value(self, capsys):
        assert cli.main(["actuator", "5020-16", "--v", "-1e1", "--tau", "5"]) == 0
        joined = capsys.readouterr().out
        assert cli.main(["actuator", "5020-16", "--v=-10", "--tau=5"]) == 0
        assert capsys.readouterr().out == joined and "v=-10 rad/s" in joined
        # an abbreviated option that argparse accepts takes the number too
        assert cli.main(["actuator", "5020-16", "--ta", "-1e1", "--v", "1"]) == 0
        abbreviated = capsys.readouterr().out
        assert cli.main(["actuator", "5020-16", "--tau=-1e1", "--v=1"]) == 0
        assert capsys.readouterr().out == abbreviated

    def test_sweep_limit_non_increasing(self, capsys):
        rc = cli.main(["actuator", "5020-16", "--tau", "100", "--sweep", "50"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "v,limit,clipped,friction,applied"
        limits = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(limits, limits[1:]))


class TestTrain:
    def test_outputs_exist_and_load(self, tiny_policy_dir):
        net = flow.load_policy(tiny_policy_dir / "policy.json")
        assert net.action_dim == 2
        lines = (tiny_policy_dir / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 3

    def test_seeded_rerun_identical(self, motions_dir, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = cli.main([
                "--seed", "5", "--quiet", "train",
                "--motions", str(motions_dir / "a_slow.json"), "--out", str(out),
                "--set", "train.iterations=1", "--set", "train.gradient_steps=15",
                "--set", "train.hidden=[16]", "--set", "env.episode_len=50",
            ])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "policy.json").read_bytes() == (outs[1] / "policy.json").read_bytes()
        assert (outs[0] / "loss.csv").read_bytes() == (outs[1] / "loss.csv").read_bytes()

    def test_checkpoint_every(self, motions_dir, tmp_path):
        out = tmp_path / "ck"
        rc = cli.main([
            "--quiet", "train", "--motions", str(motions_dir / "a_slow.json"),
            "--out", str(out),
            "--set", "train.iterations=4", "--set", "train.gradient_steps=5",
            "--set", "train.hidden=[8]", "--set", "train.checkpoint_every=2",
            "--set", "env.episode_len=50",
        ])
        assert rc == 0
        assert (out / "policy_iter2.json").exists()
        assert (out / "policy_iter4.json").exists()
        mid = flow.load_policy(out / "policy_iter2.json")
        assert mid.action_dim == 2

    def test_config_snapshot_has_default_types(self, motions_dir, tmp_path):
        # settings come back in their defaults' types: an integer for the
        # float gravity is written as 10.0, an integral 1.0 for a width as 1
        out = tmp_path / "typed"
        rc = cli.main(["--quiet", "train", "--motions", str(motions_dir / "a_slow.json"),
                       "--out", str(out), "--set", "env.gravity=10",
                       "--set", "train.hidden=[8,1.0]", "--set", "train.iterations=1",
                       "--set", "train.gradient_steps=2", "--set", "env.episode_len=20"])
        assert rc == 0
        text = (out / "config.json").read_text()
        assert '"gravity": 10.0,' in text
        snapshot = json.loads(text)
        assert snapshot["train"]["hidden"] == [8, 1]
        assert all(type(h) is int for h in snapshot["train"]["hidden"])

    def test_bad_set_path_exits_1(self, motions_dir, tmp_path, capsys):
        rc = cli.main(["--quiet", "train", "--motions", str(motions_dir),
                       "--out", str(tmp_path / "x"), "--set", "train.nope=1"])
        assert rc == 1

    @pytest.mark.parametrize("flag, name, text", [
        ("--env", "env.json", "[1]"),
        ("--cfg", "train.json", "[1]"),
        ("--env", "env.json", '{"pd": 3}'),
        ("--cfg", "train.json", '{"sampler": [5]}'),
    ])
    def test_malformed_config_file_exits_1(self, motions_dir, tmp_path, capsys,
                                           flag, name, text):
        path = tmp_path / name
        path.write_text(text)
        rc = cli.main(["--quiet", "train", "--motions", str(motions_dir / "a_slow.json"),
                       "--out", str(tmp_path / "x"), flag, str(path)])
        assert rc == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, doc, sets, message", [
        # the key's range is checked by the env's table, or by its dataclass
        ("train", "--env",
         {"links": [{"mass": -1.0, "length": 0.5}, {"mass": 1.0, "length": 0.4}]}, [],
         "{file}: env.links.0.mass must be positive, got -1.0"),
        ("train", "--env", {"thresholds": {"z_err_max": 0.0}}, [],
         "{file}: env.thresholds.z_err_max must be positive, got 0.0"),
        # with an env --set the value may come from either source
        ("train", "--env", {"thresholds": {"z_err_max": 0.0}}, ["env.episode_len=80"],
         "env.thresholds.z_err_max must be positive, got 0.0"),
        # the same rule for the train and es sections of a --cfg file
        ("train", "--cfg", {"hidden": [0, 8]}, [],
         f"{{file}}: train.hidden.0 must be in [1, {MAX_LAYER_WIDTH}], got 0"),
        ("train", "--cfg", {"lr_decay": 2.0}, [],
         "{file}: train.lr_decay must be in (0, 1], got 2.0"),
        ("train", "--cfg", {"hidden": [0, 8]}, ["train.iterations=1"],
         f"train.hidden.0 must be in [1, {MAX_LAYER_WIDTH}], got 0"),
        ("refine", "--cfg", {"sigma": -1}, [], "{file}: es.sigma must be non-negative, got -1.0"),
        ("refine", "--cfg", {"residual_hidden": [0]}, ["env.episode_len=80"],
         f"{{file}}: es.residual_hidden.0 must be in [1, {MAX_LAYER_WIDTH}], got 0"),
        ("refine", "--cfg", {"sigma": -1}, ["es.generations=1"],
         "es.sigma must be non-negative, got -1.0"),
    ], ids=["table_key", "dataclass_key", "env_set", "train_cfg_table_key",
            "train_cfg_dataclass_key", "train_cfg_set", "es_cfg_dataclass_key",
            "es_cfg_table_key", "es_cfg_set"])
    def test_env_file_range_error_names_file(self, motions_dir, tiny_policy_dir, tmp_path,
                                             capsys, command, flag, doc, sets, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ["--quiet", command, "--motions", str(motions_dir / "a_slow.json"),
                "--out", str(tmp_path / "x"), flag, str(path)]
        if command == "refine":
            argv += ["--policy", str(tiny_policy_dir / "policy.json")]
        for assignment in sets:
            argv += ["--set", assignment]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message.format(file=path)}\n"

    @pytest.mark.parametrize("assignment", [
        "env.links.5.mass=1", "env.links.x.mass=1", "env.pd.f_hz.x=1", "env.pd=3",
        "env.episode_len=\"long\"", "train.hidden=[\"a\"]",
        "env.episode_len",  # no value
    ])
    def test_bad_set_path_names_key(self, motions_dir, tmp_path, capsys, assignment):
        rc = cli.main(["--quiet", "train", "--motions", str(motions_dir / "a_slow.json"),
                       "--out", str(tmp_path / "x"), "--set", assignment])
        assert rc == 1
        assert assignment.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", [
        "env.pd.zeta=0", "env.pd.f_hz=0", "env.links.0.mass=-1", "env.thresholds.z_err_max=0",
        "env.randomization.aggressive_factor=0.5", "env.power_penalty.norm=0",
        "env.power_penalty.joints=[0,0]", "train.expert.lookahead=-1",
        "train.time_embed_dim=3", "train.hidden=[8,0]",
        "train.sampler.alpha=0", "train.sampler.steps=0", "train.lr_decay=2",
        # sizes that allocate, above their caps; uncapped, a huge one failed
        # at allocation ("runtime failure", exit 2)
        f"env.history_len={MAX_HISTORY_LEN + 1}", "env.history_len=100000000",
        "env.links=" + json.dumps([{"mass": 1.0, "length": 0.01}] * (MAX_LINKS + 1)),
        f"train.hidden=[8,{MAX_LAYER_WIDTH + 1}]",
        f"train.time_embed_dim={MAX_TIME_EMBED_DIM + 2}", "train.time_embed_dim=2000000000",
        f"train.sampler.steps={MAX_SAMPLER_STEPS + 1}", "train.sampler.steps=1000000000000",
        # too large for the int64 frame index ("Python int too large to convert to C long")
        "train.expert.lookahead=100000000000000000000",
        "train.expert.action_limit=0", "train.checkpoint_every=-1",
        # an iteration's episodes run as one batch, its logs preallocated
        f"train.episodes_per_iter={MAX_EPISODES_PER_ITER + 1}",
        "train.episodes_per_iter=1000000000000",
    ])
    def test_out_of_range_set_names_key(self, motions_dir, tmp_path, capsys, assignment):
        rc = cli.main(["--quiet", "train", "--motions", str(motions_dir / "a_slow.json"),
                       "--out", str(tmp_path / "x"), "--set", assignment])
        assert rc == 1
        err = capsys.readouterr().err
        assert assignment.split("=")[0] in err and " must be " in err

    def test_set_into_emptied_list_checks_items(self, motions_dir, tmp_path, capsys):
        # the second --set replaces an empty list, which gives no item type;
        # the tree is typed against the defaults, whose list has one
        rc = cli.main(["--quiet", "train", "--motions", str(motions_dir / "a_slow.json"),
                       "--out", str(tmp_path / "x"),
                       "--set", "env.links=[]", "--set", "env.links=[5]"])
        assert rc == 1
        assert "--set: 'env.links.0' must be an object" in capsys.readouterr().err

    def test_joint_mismatch_exits_1(self, tmp_path):
        clip = synth_motion(SynthMotionSpec(3, 4.0, 50.0, amplitude=0.1, frequency=0.3))
        save_motion(clip, tmp_path / "three.json")
        rc = cli.main(["--quiet", "train", "--motions", str(tmp_path / "three.json"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1


class TestEval:
    def test_metrics_schema_and_determinism(self, motions_dir, tiny_policy_dir, tmp_path):
        args = ["--seed", "2", "--quiet", "eval",
                "--policy", str(tiny_policy_dir / "policy.json"),
                "--motions", str(motions_dir / "a_slow.json"),
                "--rollouts", "2", "--set", "env.episode_len=80"]
        o1, o2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert cli.main(args + ["--out", str(o1)]) == 0
        assert cli.main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()
        doc = json.loads(o1.read_text())
        assert set(doc) == {"motions", "aggregate"}
        entry = doc["motions"]["a_slow"]
        assert set(entry) == {"mpjpe_mm", "dvel", "dacc", "success", "n_episodes"}
        assert 0.0 <= entry["success"] <= 1.0

    def test_dim_mismatch_exits_1(self, motions_dir, tmp_path, capsys):
        net = flow.init_net(3, 11, hidden=(4,), rng=np.random.default_rng(0))
        path = tmp_path / "p.json"
        flow.save_policy(net, path)
        rc = cli.main(["--quiet", "eval", "--policy", str(path),
                       "--motions", str(motions_dir / "a_slow.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not match" in err
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("dims", [
        (9, 8, 3),
        (7, 5, 2),  # the env's input width, 6 + 6 + 2: it ran on the wrong column split
    ])
    def test_residual_dim_mismatch_exits_1(self, motions_dir, tiny_policy_dir, tmp_path,
                                           capsys, dims):
        path = tmp_path / "r.json"
        distill.save_residual(distill.ResidualPolicy(*dims, hidden=(4,)), path)
        rc = cli.main(["--quiet", "eval", "--policy", str(tiny_policy_dir / "policy.json"),
                       "--residual", str(path), "--motions", str(motions_dir / "a_slow.json"),
                       "--rollouts", "1", "--set", "env.episode_len=20"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: checkpoint dims ")

    def test_huge_episode_len_exits_1(self, motions_dir, tiny_policy_dir, capsys):
        # rollouts preallocate (episode_len, ...) logs: without a ceiling this
        # failed at allocation ("runtime failure", exit 2)
        rc = cli.main(["--quiet", "eval", "--policy", str(tiny_policy_dir / "policy.json"),
                       "--motions", str(motions_dir / "a_slow.json"),
                       "--set", "env.episode_len=1000000000000"])
        assert rc == 1
        assert "env.episode_len must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        # uncapped, each control step looped n_substeps times, and a clip's
        # seed list was built whole before its batch: both ran without end
        (["--set", "env.n_substeps=1000000000000"], "env.n_substeps"),
        (["--rollouts", "1000000000000"], "--rollouts"),
        (["--rollouts", str(distill.MAX_ROLLOUTS + 1)], "--rollouts"),
        (["--rollouts", "0"], "--rollouts"),
        # a link mass could turn non-positive (exit 0 on non-physical
        # episodes), a friction coefficient negative (an unnamed error at reset)
        (["--set", "env.randomization.mass_scale=3"], "env.randomization.mass_scale"),
        (["--set", "env.randomization.friction_scale=3"], "env.randomization.friction_scale"),
    ])
    def test_out_of_range_exits_1(self, motions_dir, tiny_policy_dir, capsys, args, key):
        rc = cli.main(["--quiet", "eval", "--policy", str(tiny_policy_dir / "policy.json"),
                       "--motions", str(motions_dir / "a_slow.json"),
                       "--set", "env.episode_len=20", *args])
        assert rc == 1
        assert f"{key} must be in" in capsys.readouterr().err

    def test_runtime_failure_exits_2(self, motions_dir, tiny_policy_dir, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("synthetic failure")
        monkeypatch.setattr(distill, "evaluate_policy", boom)
        rc = cli.main(["--quiet", "eval",
                       "--policy", str(tiny_policy_dir / "policy.json"),
                       "--motions", str(motions_dir / "a_slow.json"),
                       "--set", "env.episode_len=80"])
        assert rc == 2


class TestRefine:
    def test_reward_csv_monotone_and_rerun_identical(self, motions_dir, tiny_policy_dir, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            rc = cli.main([
                "--seed", "4", "--quiet", "refine",
                "--policy", str(tiny_policy_dir / "policy.json"),
                "--motions", str(motions_dir / "a_slow.json"), "--out", str(out),
                "--set", "es.generations=2", "--set", "es.population=2",
                "--set", "es.episodes_per_eval=1", "--set", "env.episode_len=60",
            ])
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "residual.json").read_bytes() == (outs[1] / "residual.json").read_bytes()
        lines = (outs[0] / "reward.csv").read_text().strip().splitlines()
        assert lines[0] == "generation,best_reward"
        best = [float(l.split(",")[1]) for l in lines[1:]]
        assert len(best) == 3
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_zero_generations_keeps_initial_residual(self, motions_dir, tiny_policy_dir, tmp_path):
        out = tmp_path / "zero"
        rc = cli.main([
            "--seed", "4", "--quiet", "refine",
            "--policy", str(tiny_policy_dir / "policy.json"),
            "--motions", str(motions_dir / "a_slow.json"), "--out", str(out),
            "--set", "es.generations=0", "--set", "env.episode_len=60",
        ])
        assert rc == 0
        saved = distill.load_residual(out / "residual.json")
        from flowtrack.env import ArmEnv
        env = ArmEnv({"episode_len": 60})
        fresh = distill.init_residual(env, hidden=(24,), bound=0.4,
                                      rng=np.random.default_rng(4))
        for (W1, b1), (W2, b2) in zip(saved.params, fresh.params):
            assert np.array_equal(W1, W2) and np.array_equal(b1, b2)

    @pytest.mark.parametrize("assignment", [
        "es.sigma=-0.1", "es.episodes_per_eval=0", "es.population=-1",
        "es.residual_hidden=[0]", "es.residual_bound=-1",
        f"es.residual_hidden=[{MAX_LAYER_WIDTH + 1}]",
        # uncapped, these failed at run time: 1e12 episodes at allocation
        # (exit 2), and the population's noise vectors are all drawn up front
        "es.episodes_per_eval=1000000000000", f"es.population={MAX_POPULATION + 1}",
    ])
    def test_out_of_range_set_names_key(self, motions_dir, tiny_policy_dir, tmp_path, capsys,
                                        assignment):
        rc = cli.main(["--quiet", "refine", "--policy", str(tiny_policy_dir / "policy.json"),
                       "--motions", str(motions_dir / "a_slow.json"), "--out", str(tmp_path),
                       "--set", assignment])
        assert rc == 1
        err = capsys.readouterr().err
        assert assignment.split("=")[0] in err and " must be " in err


class TestSamplerSteps:
    """A policy trained with `train.sampler.steps` carries that Euler step
    count in its checkpoint, and `eval` and `refine` sample with it; they
    sampled every policy with 5 steps when the checkpoint held no count."""

    SETS = ["--set", "env.episode_len=40"]

    @pytest.fixture(scope="class")
    def two_step_dir(self, tmp_path_factory, motions_dir):
        out = tmp_path_factory.mktemp("two_step")
        rc = cli.main(["--seed", "1", "--quiet", "train",
                       "--motions", str(motions_dir / "a_slow.json"), "--out", str(out),
                       "--set", "train.iterations=1", "--set", "train.gradient_steps=20",
                       "--set", "train.hidden=[16]", "--set", "train.sampler.steps=2",
                       *self.SETS])
        assert rc == 0
        return out

    def test_only_a_non_default_count_is_written(self, two_step_dir, tiny_policy_dir):
        assert json.loads((two_step_dir / "policy.json").read_text())["sampler_steps"] == 2
        assert "sampler_steps" not in json.loads((tiny_policy_dir / "policy.json").read_text())
        assert flow.load_policy(tiny_policy_dir / "policy.json").sampler_steps == 5

    def test_eval_samples_as_trained(self, two_step_dir, motions_dir, tmp_path):
        out = tmp_path / "metrics.json"
        assert cli.main(["--seed", "3", "--quiet", "eval", "--policy",
                         str(two_step_dir / "policy.json"), "--motions",
                         str(motions_dir / "a_slow.json"), "--rollouts", "2", "--out", str(out),
                         *self.SETS]) == 0
        got = json.loads(out.read_text())["motions"]["a_slow"]
        net = flow.load_policy(two_step_dir / "policy.json")
        motions = {"a_slow": load_motion(motions_dir / "a_slow.json")}

        def library(steps):
            m = distill.evaluate_policy(dataclasses.replace(net, sampler_steps=steps),
                                        ArmEnv({"episode_len": 40}), motions, n_rollouts=2,
                                        seed=3)["a_slow"]
            return {k: v if k == "n_episodes" else cli._round6(v) for k, v in vars(m).items()}

        assert got == library(2) != library(5)

    def test_refine_samples_as_trained(self, two_step_dir, motions_dir, tmp_path):
        es_sets = ["--set", "es.generations=2", "--set", "es.population=2",
                   "--set", "es.episodes_per_eval=1"]
        assert cli.main(["--seed", "4", "--quiet", "refine", "--policy",
                         str(two_step_dir / "policy.json"), "--motions",
                         str(motions_dir / "a_slow.json"), "--out", str(tmp_path),
                         *es_sets, *self.SETS]) == 0
        lines = (tmp_path / "reward.csv").read_text().splitlines()[1:]
        got = [float(line.split(",")[1]) for line in lines]
        net = flow.load_policy(two_step_dir / "policy.json")
        env = ArmEnv({"episode_len": 40})
        cfg = {**cli.DEFAULT_ES_CFG, "generations": 2, "population": 2, "episodes_per_eval": 1}

        def library(steps):
            residual, escfg = cli._es_setup(cfg, env, 4)
            _, history = distill.es_refine(dataclasses.replace(net, sampler_steps=steps),
                                           residual, env, load_motion(
                                               motions_dir / "a_slow.json"), escfg)
            return [cli._round6(h) for h in history]

        assert got == library(2) != library(5)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack.errors import DimensionError, SchemaError, ValidationError
from flowtrack.motion import (MotionClip, SynthMotionSpec, arm_forward_kinematics,
                              finite_difference, load_motion, quat_angular_speed,
                              save_motion, segment_clips, synth_motion)

from conftest import make_sine, random_clip


def minimal_doc():
    return {
        "fps": 50.0,
        "joint_names": ["j0"],
        "frames": [
            {"q": [0.0], "base_pos": [0.0, 0.0, 0.0], "base_quat": [1.0, 0.0, 0.0, 0.0],
             "body_pos": [[0.0, 0.0, 0.0]], "contacts": [True]},
            {"q": [0.1], "base_pos": [0.0, 0.0, 0.0], "base_quat": [1.0, 0.0, 0.0, 0.0],
             "body_pos": [[0.0, 0.0, 0.1]], "contacts": [True]},
        ],
        "feet_indices": [0],
    }


class TestLoadSave:
    def test_minimal_two_frame_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(minimal_doc()))
        clip = load_motion(path)
        assert clip.n_frames == 2
        assert clip.n_joints == 1

    def test_missing_key_named(self, tmp_path):
        doc = minimal_doc()
        del doc["feet_indices"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="feet_indices"):
            load_motion(path)

    def test_extra_key_named(self, tmp_path):
        doc = minimal_doc()
        doc["bogus"] = 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="bogus"):
            load_motion(path)

    def test_missing_frame_key_named(self, tmp_path):
        doc = minimal_doc()
        del doc["frames"][1]["contacts"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="contacts"):
            load_motion(path)

    @pytest.mark.parametrize("key, rows", [
        ("q", [[0.0], [0.0, 0.1]]),
        ("q", [[0.0], 0.1]),  # a scalar in place of a row
        ("base_pos", [[0.0, 0.0, 0.0], [0.0, 0.0]]),
        ("base_quat", [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        ("body_pos", [[[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.1], [0.0, 0.0]]]),
        ("body_pos", [[[0.0, 0.0]], [[0.0, 0.1]]]),  # pairs in place of xyz triples
        ("contacts", [[True], [True, False]]),
    ], ids=["q", "q-scalar_row", "base_pos", "base_quat", "body_pos", "body_pos-pairs",
            "contacts"])
    def test_ragged_frames_are_dimension_errors(self, tmp_path, key, rows):
        doc = minimal_doc()
        for frame, row in zip(doc["frames"], rows):
            frame[key] = row
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError, match=rf"m\.json: '?{key}'? ") as info:
            load_motion(path)
        assert str(info.value).count("m.json") == 1

    @pytest.mark.parametrize("key, edit", [
        ("fps", lambda d: d.update(fps="fast")),
        ("q", lambda d: d["frames"][1].update(q=["x"])),
        pytest.param("q", lambda d: d["frames"][1].update(q=["0.1"]), id="q-string"),
        pytest.param("q", lambda d: d["frames"][1].update(q=[None]), id="q-null"),
        pytest.param("contacts", lambda d: d["frames"][1].update(contacts=["false"]),
                     id="contacts-string"),
        pytest.param("contacts", lambda d: d["frames"][1].update(contacts=[0]),
                     id="contacts-number"),
    ])
    def test_non_numeric_value_named(self, tmp_path, key, edit):
        doc = minimal_doc()
        edit(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=rf"m\.json: '{key}' must be numeric") as info:
            load_motion(path)
        assert str(info.value).count("m.json") == 1

    def test_quat_norm_error(self, tmp_path):
        doc = minimal_doc()
        doc["frames"][0]["base_quat"] = [1.01, 0.0, 0.0, 0.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="norm"):
            load_motion(path)

    def test_small_quat_drift_renormalized(self):
        doc = minimal_doc()
        clip = MotionClip(
            fps=50.0, joint_names=["j0"],
            q=[[0.0], [0.1]],
            base_pos=np.zeros((2, 3)),
            base_quat=[[1.0 + 5e-4, 0, 0, 0], [1, 0, 0, 0]],
            body_pos=np.zeros((2, 1, 3)),
            contacts=np.ones((2, 1), bool),
            feet_indices=[0],
        )
        assert np.all(np.abs(np.linalg.norm(clip.base_quat, axis=1) - 1.0) < 1e-6)

    def test_save_writes_exactly_t_frames(self, tmp_path):
        clip = random_clip(np.random.default_rng(0), T=2)
        path = tmp_path / "m.json"
        save_motion(clip, path)
        doc = json.loads(path.read_text())
        assert len(doc["frames"]) == 2

    def test_nan_rejected_before_write(self, tmp_path):
        clip = random_clip(np.random.default_rng(1))
        q = clip.q.copy()
        q[0, 0] = np.nan
        bad = MotionClip.__new__(MotionClip)
        for name, val in vars(clip).items():
            object.__setattr__(bad, name, val)
        object.__setattr__(bad, "q", q)
        path = tmp_path / "m.json"
        with pytest.raises(ValidationError):
            save_motion(bad, path)
        assert not path.exists()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_roundtrip_bit_exact(self, seed, tmp_path_factory):
        clip = random_clip(np.random.default_rng(seed))
        path = tmp_path_factory.mktemp("rt") / "m.json"
        save_motion(clip, path)
        back = load_motion(path)
        assert back.allclose(clip)
        assert back.fps == clip.fps


class TestFiniteDifference:
    def test_constant_series_zero(self):
        out = finite_difference(np.ones((6, 3)), 0.02)
        assert out.shape == (6, 3)
        assert np.all(out == 0.0)

    def test_linear_ramp(self):
        t = np.arange(10) * 0.02
        out = finite_difference(2.0 * t, 0.02)
        assert np.allclose(out, 2.0, atol=1e-12)

    def test_sin_taylor_bound(self):
        dt = 0.01
        t = np.arange(200) * dt
        fd = finite_difference(np.sin(2 * np.pi * t), dt)
        analytic = 2 * np.pi * np.cos(2 * np.pi * t)
        # hold rows at the tail are not data; compare the valid region
        err = np.max(np.abs(fd[:-2] - analytic[:-2]))
        assert err <= 2 * np.pi ** 2 * dt

    def test_double_difference_of_quadratic(self):
        t = np.arange(12) * 1.0
        dd = finite_difference(finite_difference(t ** 2, 1.0), 1.0)
        assert np.allclose(dd[:-3], 2.0, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(DimensionError):
            finite_difference(np.zeros((1, 2)), 0.02)


class TestSegmentClips:
    def test_exact_ten_seconds_is_one_clip(self):
        clip = make_sine(0.2, 0.3, duration=10.0)
        segs = segment_clips(clip, 10.0)
        assert len(segs) == 1
        assert segs[0].n_frames == 500

    def test_short_motion_returned_whole(self):
        clip = make_sine(0.2, 0.3, duration=9.0)
        segs = segment_clips(clip, 10.0)
        assert len(segs) == 1
        assert segs[0].n_frames == clip.n_frames

    def test_remainder_rule(self):
        clip = make_sine(0.2, 0.3, duration=25.0)
        segs = segment_clips(clip, 10.0)
        assert [s.n_frames for s in segs] == [500, 500, 250]

    def test_sub_second_remainder_dropped(self):
        clip = make_sine(0.2, 0.3, duration=20.5)
        segs = segment_clips(clip, 10.0)
        assert [s.n_frames for s in segs] == [500, 500]

    def test_segments_concatenate_to_prefix(self):
        clip = make_sine(0.2, 0.3, duration=23.0)
        segs = segment_clips(clip, 10.0)
        q_cat = np.concatenate([s.q for s in segs], axis=0)
        assert np.array_equal(q_cat, clip.q[: q_cat.shape[0]])


class TestSynthMotion:
    def test_zero_amplitude(self):
        clip = synth_motion(SynthMotionSpec(2, 2.0, 50.0, amplitude=0.0, frequency=1.0))
        assert np.all(clip.q == 0.0)

    def test_scalar_oracle(self):
        clip = synth_motion(SynthMotionSpec(1, 2.0, 50.0, amplitude=1.0, frequency=0.5))
        expected = math.sin(2.0 * math.pi * 0.5 * 50 * 0.02)
        assert abs(clip.q[50, 0] - expected) < 1e-12

    def test_opposite_phases_negate(self):
        clip = synth_motion(SynthMotionSpec(
            2, 2.0, 50.0, amplitude=0.4, frequency=0.7, phase=(0.0, math.pi)))
        assert np.allclose(clip.q[:, 0], -clip.q[:, 1], atol=1e-12)

    def test_base_pose_identity_and_contacts(self):
        clip = synth_motion(SynthMotionSpec(2, 2.0, 50.0, amplitude=0.2, frequency=0.5))
        assert np.all(clip.base_pos == 0.0)
        assert np.all(clip.base_quat == np.array([1.0, 0.0, 0.0, 0.0]))
        assert clip.contacts.all()

    def test_fk_hanging_tip_touches_ground(self):
        pos = arm_forward_kinematics(np.zeros(3), [0.5, 0.3, 0.2])
        assert np.allclose(pos[-1], [0.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(pos[0], [0.0, 0.0, 0.5], atol=1e-12)


class TestQuatAngularSpeed:
    def test_constant_quats_zero(self):
        quat = np.tile([1.0, 0, 0, 0], (5, 1))
        assert np.all(quat_angular_speed(quat, 0.02) == 0.0)

    def test_known_rotation_rate(self):
        omega, dt = 1.3, 0.02
        t = np.arange(20) * dt
        half = omega * t / 2.0
        quat = np.stack([np.cos(half), np.zeros_like(t), np.zeros_like(t), np.sin(half)], axis=1)
        speed = quat_angular_speed(quat, dt)
        assert np.allclose(speed, omega, atol=1e-9)

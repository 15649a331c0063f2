import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtrack import metrics
from flowtrack.errors import DimensionError, ValidationError
from flowtrack.metrics import (TerminationThresholds, airborne_ratio,
                               check_termination, com_vertical_speed,
                               contact_switch_freq, delta_acc, delta_vel,
                               difficulty_scores, max_kinematics, mpjpe,
                               success_rate)
from flowtrack.motion import MotionClip

from conftest import random_clip


def clip_with_bodies(body_pos, feet=(0,), fps=50.0):
    T, B = body_pos.shape[0], body_pos.shape[1]
    quat = np.zeros((T, 4))
    quat[:, 0] = 1.0
    return MotionClip(fps=fps, joint_names=["j0"], q=np.zeros((T, 1)),
                      base_pos=np.zeros((T, 3)), base_quat=quat, body_pos=body_pos,
                      contacts=np.ones((T, 1), bool), feet_indices=feet)


class TestMaxKinematics:
    def test_constant(self):
        assert max_kinematics(np.ones((8, 2)), 0.02) == (0.0, 0.0, 0.0)

    def test_sin_velocity_within_one_percent(self):
        dt = 0.01
        t = np.arange(200) * dt
        v, _, _ = max_kinematics(np.sin(2 * np.pi * t)[:, None], dt)
        assert abs(v - 2 * np.pi) / (2 * np.pi) < 0.01

    def test_linear_ramp(self):
        t = np.arange(10) * 0.02
        v, a, j = max_kinematics(3.0 * t, 0.02)
        assert abs(v - 3.0) < 1e-9
        assert abs(a) < 1e-9
        assert abs(j) < 1e-9

    def test_too_short(self):
        with pytest.raises(DimensionError):
            max_kinematics(np.zeros((3, 1)), 0.02)


class TestComVerticalSpeed:
    def test_static(self):
        body = np.zeros((10, 3, 3))
        assert com_vertical_speed(clip_with_bodies(body)) == 0.0

    def test_uniform_rise(self):
        T, dt = 20, 0.02
        body = np.zeros((T, 2, 3))
        body[:, :, 2] = 1.5 * np.arange(T)[:, None] * dt
        assert abs(com_vertical_speed(clip_with_bodies(body)) - 1.5) < 1e-9

    def test_one_fixed_one_rising(self):
        T, dt = 20, 0.02
        body = np.zeros((T, 2, 3))
        body[:, 1, 2] = 2.0 * np.arange(T) * dt
        assert abs(com_vertical_speed(clip_with_bodies(body)) - 1.0) < 1e-9


class TestAirborneRatio:
    def test_grounded(self):
        body = np.zeros((10, 2, 3))
        assert airborne_ratio(clip_with_bodies(body, feet=(0, 1)), 0.05) == 0.0

    def test_half_airborne(self):
        body = np.zeros((10, 1, 3))
        body[5:, 0, 2] = 0.1
        assert airborne_ratio(clip_with_bodies(body), 0.05) == 0.5

    def test_min_over_feet(self):
        body = np.zeros((10, 2, 3))
        body[:, 1, 2] = 0.5  # one foot always airborne, other grounded
        assert airborne_ratio(clip_with_bodies(body, feet=(0, 1)), 0.05) == 0.0

    def test_ratio_invariant_to_proportional_extension(self):
        body = np.zeros((10, 1, 3))
        body[7:, 0, 2] = 0.2
        clip1 = clip_with_bodies(body)
        clip2 = clip_with_bodies(np.concatenate([body, body], axis=0))
        assert airborne_ratio(clip1) == airborne_ratio(clip2)


class TestContactSwitchFreq:
    def test_constant(self):
        assert contact_switch_freq(np.ones((50, 2), bool), 0.02) == 0.0

    def test_alternating_every_frame(self):
        c = (np.arange(100) % 2 == 0)[:, None]
        f = contact_switch_freq(c, 0.02)
        assert abs(f - 99 / (99 * 0.02)) < 1e-12
        assert abs(f - 50.0) < 1e-9

    def test_single_flip(self):
        c = np.zeros((100, 1), bool)
        c[50:] = True
        f = contact_switch_freq(c, 0.02)
        assert abs(f - 1.0 / (99 * 0.02)) < 1e-12

    def test_negation_invariance(self):
        rng = np.random.default_rng(0)
        c = rng.integers(0, 2, (40, 3)).astype(bool)
        assert contact_switch_freq(c, 0.02) == contact_switch_freq(~c, 0.02)


class TestDifficultyScores:
    def test_hand_values(self):
        s = difficulty_scores(v_max=10.0, a_max=0.0, ang_max=0.0,
                              v_com_z_max=0.0, airborne=0.0, f_switch=25.0)
        assert s[1] == 0.5   # v axis
        assert s[5] == 1.0   # switch axis clamps
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_all_zero(self):
        s = difficulty_scores(0, 0, 0, 0, 0, 0)
        assert np.all(s == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=6, max_size=6))
    def test_always_in_unit_interval(self, raw):
        s = difficulty_scores(raw[0], raw[1], raw[2], raw[3], raw[4], raw[5])
        assert np.all(s >= 0.0) and np.all(s <= 1.0)


class TestTrackingMetrics:
    def test_mpjpe_identical(self):
        x = np.random.default_rng(0).standard_normal((5, 3, 3))
        assert mpjpe(x, x) == 0.0

    def test_mpjpe_uniform_offset(self):
        x = np.zeros((4, 2, 3))
        y = x + np.array([0.005, 0.0, 0.0])
        assert abs(mpjpe(x, y) - 5.0) < 1e-9

    def test_mpjpe_pythagoras(self):
        ref = np.array([[[0.0, 0.0, 0.0]]])
        rob = np.array([[[0.003, 0.004, 0.0]]])
        assert abs(mpjpe(ref, rob) - 5.0) < 1e-9

    def test_mpjpe_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mpjpe(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))

    def test_delta_vel_values(self):
        v = np.zeros((6, 2, 3))
        w = v + np.array([1.0, 0.0, 0.0])
        assert abs(delta_vel(v, w, 0.02) - 20.0) < 1e-9
        w = v + np.array([0.5, 0.0, 0.0])
        assert abs(delta_vel(v, w, 0.02) - 10.0) < 1e-9
        assert delta_vel(v, v, 0.02) == 0.0

    def test_delta_acc_uniform(self):
        dt = 0.02
        t = np.arange(10) * dt
        ref = np.zeros((10, 1, 3))
        rob = np.zeros((10, 1, 3))
        rob[:, 0, 0] = 1.0 * t  # constant 1 m/s^2 acceleration error
        assert abs(delta_acc(ref, rob, dt) - 1000 * dt * dt * 1.0) < 1e-9
        assert delta_acc(ref, ref, dt) == 0.0

    def test_linear_scaling(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((6, 2, 3))
        err = rng.standard_normal((6, 2, 3))
        m1 = mpjpe(ref, ref + err)
        m2 = mpjpe(ref, ref + 2 * err)
        assert abs(m2 - 2 * m1) < 1e-9


class TestTermination:
    thr = TerminationThresholds()

    def test_zero_error(self):
        assert check_termination([0.0, 0.0], 0.0, self.thr) is False

    def test_z_error(self):
        assert check_termination([0.1, 0.3], 0.0, self.thr) is True

    def test_orientation_relaxation(self):
        assert check_termination([0.0], 1.0, self.thr, relaxed=False) is True
        assert check_termination([0.0], 1.0, self.thr, relaxed=True) is False
        assert check_termination([0.0], 1.3, self.thr, relaxed=True) is True

    def test_relaxation_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            orient = float(rng.uniform(0, 2.0))
            if not check_termination([0.0], orient, self.thr, relaxed=False):
                assert not check_termination([0.0], orient, self.thr, relaxed=True)

    def test_rows_match_single_decisions(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(-0.4, 0.4, (40, 2))
        orient = rng.uniform(0.0, 1.5, 40)
        for relaxed in (False, True):
            rows = check_termination(z, orient, self.thr, relaxed=relaxed)
            assert rows.shape == (40,)
            assert rows.tolist() == [check_termination(zi, oi, self.thr, relaxed=relaxed)
                                     for zi, oi in zip(z, orient)]

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            TerminationThresholds(z_err_max=-1.0)


class TestSuccessRate:
    def test_values(self):
        assert success_rate([{"terminated_early": False}] * 4) == 1.0
        eps = [{"terminated_early": i >= 7} for i in range(10)]
        assert success_rate(eps) == 0.7
        assert success_rate([{"terminated_early": True}] * 3) == 0.0

    def test_empty(self):
        with pytest.raises(ValidationError):
            success_rate([])


class TestComputeComplexity:
    def test_static_clip_zero_scores(self):
        body = np.zeros((10, 2, 3))
        clip = clip_with_bodies(body, feet=(0, 1))
        scores = metrics.compute_complexity(clip)
        assert np.all(scores.s == 0.0)

    def test_random_clip_scores_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            clip = random_clip(rng, T=10)
            scores = metrics.compute_complexity(clip)
            assert np.all(scores.s >= 0.0) and np.all(scores.s <= 1.0)
            assert scores.v_max >= 0.0 and scores.f_switch >= 0.0

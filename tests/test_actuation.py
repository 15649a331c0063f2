import dataclasses
import importlib
import json
import math
import pathlib
import shutil
import sys

import numpy as np
import pytest

from flowtrack import actuation
from flowtrack.actuation import (ActuatorParams, PowerPenaltyCfg, actuate,
                                 clip_torque, default_catalog, envelope_limit,
                                 friction_torque, joint_power, load_catalog,
                                 neg_power_penalty, pd_gains, stack)
from flowtrack.errors import SchemaError, ValidationError

CAT = default_catalog()
M7522 = CAT["7520-22.5"]
M5020 = CAT["5020-16"]


class TestCatalog:
    def test_four_models_with_expected_constants(self):
        assert set(CAT) == {"5020-16", "7520-14.3", "7520-22.5", "4010-25"}
        assert M7522.tau_y1 == 111.0 and M7522.tau_y2 == 131.0
        assert M7522.v_x1 == 14.5 and M7522.v_x2 == 22.7
        assert M7522.mu_s == 2.4 and M7522.mu_d == 0.24
        assert M7522.armature_I == 2.510e-02
        assert M5020.tau_y1 == 24.8 and M5020.v_x1 == 30.86 and M5020.v_x2 == 40.13

    def test_load_catalog_roundtrip(self, tmp_path):
        path = tmp_path / "cat.json"
        doc = {name: dataclasses.asdict(p) for name, p in CAT.items()}
        path.write_text(json.dumps(doc))
        again = load_catalog(path)
        assert again == CAT

    def test_catalog_schema_errors(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"x": {"tau_y1": 1.0}}))
        with pytest.raises(SchemaError, match="tau_y2"):
            load_catalog(path)
        path.write_text(json.dumps({"x": dict(dataclasses.asdict(M5020), gear=9)}))
        with pytest.raises(SchemaError, match="gear"):
            load_catalog(path)

    @pytest.mark.parametrize("entry, key", [
        (5, "a"),
        (dict(dataclasses.asdict(M5020), tau_y1="x"), "a.tau_y1"),
        (dict(dataclasses.asdict(M5020), tau_y1=None), "a.tau_y1"),
        (dict(dataclasses.asdict(M5020), mu_d=True), "a.mu_d"),
    ])
    def test_malformed_entry_names_file_actuator_and_key(self, tmp_path, entry, key):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"a": entry}))
        with pytest.raises(SchemaError, match=rf"cat\.json: '{key}' must be"):
            load_catalog(path)

    def test_renamed_copy_reads_its_own_catalog(self, tmp_path, monkeypatch):
        # a copy of the package imported under another name, beside this one
        src = pathlib.Path(actuation.__file__).parent
        twin = tmp_path / "flowtrack_twin"
        shutil.copytree(src, twin, ignore=shutil.ignore_patterns("__pycache__"))
        doc = json.loads((twin / "data" / "actuators.json").read_text())
        doc["4010-25"]["tau_y1"] = 123.0
        (twin / "data" / "actuators.json").write_text(json.dumps(doc))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            twin_catalog = importlib.import_module("flowtrack_twin.actuation").default_catalog()
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] == "flowtrack_twin"]:
                del sys.modules[name]
        assert twin_catalog["4010-25"].tau_y1 == 123.0
        assert default_catalog()["4010-25"].tau_y1 == 4.8

    def test_invalid_constants_name_file_and_actuator(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"a": dict(dataclasses.asdict(M5020), v_x1=99.0)}))
        with pytest.raises(ValidationError, match=r"cat\.json: actuator 'a'"):
            load_catalog(path)

    @pytest.mark.parametrize("field, value, message", [
        ("tau_y2", -1.0, "tau_y2 must be positive, got -1.0"),
        ("mu_d", -0.5, "mu_d must be non-negative, got -0.5"),
        ("armature_I", 0.0, "armature_I must be positive, got 0.0"),
        ("v_x1", 99.0, "v_x1 must be in (0, v_x2), got 99.0 with v_x2=40.13"),
    ])
    def test_invalid_constant_names_its_field(self, tmp_path, field, value, message):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"a": dict(dataclasses.asdict(M5020), **{field: value})}))
        with pytest.raises(ValidationError) as info:
            load_catalog(path)
        assert str(info.value) == f"{path}: actuator 'a': {message}"

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            ActuatorParams(1.0, 1.0, 5.0, 2.0, 0.1, 0.01, 0.1, 1e-3)  # v_x1 > v_x2


class TestPDGains:
    def test_hand_values(self):
        omega = 2 * math.pi * 10.0
        for name in CAT:
            p = CAT[name]
            g = pd_gains(p)
            assert abs(g.kp - p.armature_I * omega ** 2) / g.kp < 1e-12
            assert abs(g.kd - 2 * p.armature_I * 2.0 * omega) / g.kd < 1e-12
        g = pd_gains(M7522)
        assert abs(g.kp - 99.09) < 0.01
        assert abs(g.kd - 6.308) < 0.001
        g = pd_gains(M5020)
        assert abs(g.kp - 14.25) < 0.01
        assert abs(g.kd - 0.9073) < 0.0001

    def test_zero_damping_names_zeta(self):
        with pytest.raises(ValidationError, match="^zeta must be positive"):
            pd_gains(M5020, zeta=0)

    def test_action_scale(self):
        g = pd_gains(M7522)
        assert abs(g.action_scale - 0.25 * 111.0 / g.kp) < 1e-12

    def test_linear_in_inertia(self):
        doubled = dataclasses.replace(M5020, armature_I=2 * M5020.armature_I)
        g1, g2 = pd_gains(M5020), pd_gains(doubled)
        assert abs(g2.kp - 2 * g1.kp) < 1e-9
        assert abs(g2.kd - 2 * g1.kd) < 1e-9


class TestEnvelope:
    def test_ceiling_branches(self):
        # below the knee v_x1 the limit is the ceiling itself
        assert envelope_limit(5.0, 10.0, M7522) == 111.0
        assert envelope_limit(5.0, -10.0, M7522) == 131.0
        assert envelope_limit(0.0, 10.0, M7522) == 131.0  # v*tau == 0 is braking branch

    def test_midpoint_hand_value(self):
        # motoring, |v| at the midpoint of the derating ramp
        assert abs(clip_torque(200.0, 18.6, M7522) - 55.5) < 1e-9
        assert abs(envelope_limit(18.6, 200.0, M7522) - 111.0 * (1 - 4.1 / 8.2)) < 1e-9

    def test_5020_hand_value(self):
        expected = 24.8 * (1.0 - (35.5 - 30.86) / (40.13 - 30.86))
        assert abs(clip_torque(100.0, 35.5, M5020) - expected) < 1e-9
        assert round(expected, 2) == 12.39

    def test_beyond_vx2_zero(self):
        assert clip_torque(500.0, 23.0, M7522) == 0.0
        assert clip_torque(-500.0, -25.0, M7522) == 0.0

    def test_limit_continuous_and_non_increasing(self):
        # fixed motoring branch: v > 0 with a positive command
        v = np.linspace(1e-6, 1.5 * M7522.v_x2, 10_000)
        lim = envelope_limit(v, np.full_like(v, 10.0), M7522)
        assert np.all(np.diff(lim) <= 1e-12)
        # no jump anywhere on the branch, in particular at v_x1 and v_x2
        slope_bound = 111.0 * (v[1] - v[0]) / (M7522.v_x2 - M7522.v_x1) + 1e-9
        assert np.max(np.abs(np.diff(lim))) < slope_bound
        for knee in (M7522.v_x1, M7522.v_x2):
            below = envelope_limit(knee - 1e-13, 10.0, M7522)
            above = envelope_limit(knee + 1e-13, 10.0, M7522)
            assert abs(below - above) < 1e-10

    def test_clip_bounded_by_limit(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            tau = float(rng.uniform(-500, 500))
            v = float(rng.uniform(-60, 60))
            out = clip_torque(tau, v, M7522)
            assert abs(out) <= envelope_limit(v, tau, M7522) + 1e-12


class TestFriction:
    def test_zero(self):
        assert friction_torque(0.0, M7522) == 0.0

    def test_hand_value(self):
        expected = 2.4 * math.tanh(100.0) + 0.24
        assert abs(friction_torque(1.0, M7522) - expected) < 1e-12
        assert abs(friction_torque(1.0, M7522) - 2.64) < 1e-3

    def test_odd_and_monotone(self):
        v = np.linspace(-20, 20, 4001)
        f = friction_torque(v, M7522)
        assert np.allclose(f, -f[::-1], atol=1e-12)
        assert np.all(np.diff(f) > 0)


class TestActuate:
    def test_zero_velocity_no_friction(self):
        assert actuate(12.0, 0.0, M7522) == clip_torque(12.0, 0.0, M7522)

    def test_pure_friction(self):
        expected = -(2.4 * math.tanh(200.0) + 0.24 * 2.0)
        assert abs(actuate(0.0, 2.0, M7522) - expected) < 1e-12
        assert abs(actuate(0.0, 2.0, M7522) - (-2.88)) < 1e-3

    def test_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tau, v = rng.uniform(-300, 300), rng.uniform(-50, 50)
            assert actuate(tau, v, M7522) == clip_torque(tau, v, M7522) - friction_torque(v, M7522)


class TestStackedParams:
    """Per-joint parameter arrays evaluate every joint of every row in one call,
    with the same values as the scalar kernels."""

    @staticmethod
    def friction_scaled(p, f):
        return dataclasses.replace(p, mu_s=p.mu_s * f, mu_d=p.mu_d * f)

    def test_actuate_rows_equal_scalar_calls(self):
        cat = default_catalog()
        joints = [cat["7520-22.5"], cat["5020-16"], cat["7520-14.3"]]
        stacked = self.friction_scaled(stack(joints), np.array([[0.9], [1.2]]))
        rng = np.random.default_rng(4)
        tau, v = rng.uniform(-300, 300, (2, 3)), rng.uniform(-30, 30, (2, 3))
        out = actuate(tau, v, stacked)
        assert out.shape == (2, 3)
        for i, f in enumerate((0.9, 1.2)):
            for j, p in enumerate(joints):
                assert out[i, j] == actuate(tau[i, j], v[i, j], self.friction_scaled(p, f))

    def test_stack_validates_every_entry(self):
        with pytest.raises(ValidationError):
            self.friction_scaled(stack([M7522, M7522]), np.array([[1.0], [-1.0]]))

    def test_penalty_rows(self):
        cfg = PowerPenaltyCfg(joints=(1,))
        powers = np.array([[-1000.0, -400.0], [0.0, -650.0]])
        cost, reward = neg_power_penalty(powers, cfg)
        assert cost.shape == (2,)
        for row, c, r in zip(powers, cost, reward):
            assert (c, r) == neg_power_penalty(row, cfg)


class TestPower:
    def test_joint_power(self):
        assert joint_power(0.0, 3.0) == 0.0
        assert joint_power(-200.0, 2.0) == -400.0
        assert joint_power(5.0, 2.0) > 0.0

    def test_penalty_hand_value(self):
        cost, reward = neg_power_penalty([-400.0], PowerPenaltyCfg())
        assert abs(cost - 0.25) < 1e-12
        assert abs(reward - (-2.5)) < 1e-12

    def test_deadband_boundary_and_positive(self):
        assert neg_power_penalty([-150.0], PowerPenaltyCfg()) == (0.0, -0.0)
        assert neg_power_penalty([1000.0], PowerPenaltyCfg())[0] == 0.0

    def test_zero_inside_deadband_increasing_beyond(self):
        cfg = PowerPenaltyCfg()
        for p in np.linspace(-150, 1000, 50):
            assert neg_power_penalty([p], cfg)[0] == 0.0
        costs = [neg_power_penalty([p], cfg)[0] for p in np.linspace(-151, -2000, 50)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_joint_selector(self):
        cfg = PowerPenaltyCfg(joints=(1,))
        cost, _ = neg_power_penalty([-1000.0, -400.0], cfg)
        assert abs(cost - 0.25) < 1e-12

    def test_quadratic_growth(self):
        cfg = PowerPenaltyCfg()
        over = np.linspace(1.0, 500.0, 20)
        costs = np.array([neg_power_penalty([-150.0 - o], cfg)[0] for o in over])
        assert np.allclose(costs, (over / 500.0) ** 2, atol=1e-12)

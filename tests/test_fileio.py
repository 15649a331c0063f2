"""The typed file boundary: `read_json` decodes with the cyclic collector
paused and leaves it as it found it, `check_like` returns a document in its
example's types, both checkpoint kinds load their header fields typed, and
`require` writes every range error, which NaN fails."""

import gc
import json

import numpy as np
import pytest

from flowtrack import distill, flow
from flowtrack.actuation import PowerPenaltyCfg
from flowtrack.env import ArmEnv, RandomizationCfg
from flowtrack.errors import ConfigError, SchemaError, ValidationError
from flowtrack.fileio import check_like, config_section, read_json, require
from flowtrack.motion import SynthMotionSpec, load_motion, save_motion

from conftest import random_clip

NAN = float("nan")


@pytest.fixture
def gc_state():
    """Restores the collector's switch after a test that sets it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_read_json_leaves_the_collector_as_found(tmp_path, gc_state, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": [1, 2.5]}')
    bad.write_text('{"a": ')
    (gc.enable if enabled else gc.disable)()
    assert read_json(good, SchemaError, dict) == {"a": [1, 2.5]}
    assert gc.isenabled() is enabled
    with pytest.raises(SchemaError, match="not valid JSON"):
        read_json(bad, SchemaError, dict)
    assert gc.isenabled() is enabled


def collections_during(call):
    """(the result of `call()`, the generations of the collections that
    started while it ran), from a fresh collector count."""
    gc.enable()
    gc.collect()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        return call(), starts
    finally:
        gc.callbacks.remove(hook)


@pytest.fixture
def motion_file(tmp_path):
    path = tmp_path / "m.json"
    save_motion(random_clip(np.random.default_rng(0), T=2000, J=3, B=3, K=2), path)
    return path


def test_read_json_starts_no_collection(motion_file, gc_state):
    doc, starts = collections_during(lambda: read_json(motion_file, SchemaError, lambda doc: doc))
    assert len(doc["frames"]) == 2000
    assert starts == []


def test_load_motion_starts_no_collection(motion_file, gc_state):
    """The pause lasts while the clip's arrays are built from the decoded
    tree, until the tree is freed."""
    clip, starts = collections_during(lambda: load_motion(motion_file))
    assert clip.n_frames == 2000
    assert starts == []


@pytest.mark.parametrize("value, example, expected", [
    (2.0, 0, 2),
    (-3.0, 7, -3),
    (5, 0, 5),
    (1, 0.0, 1.0),
    (10 ** 20, 0.0, 1e20),
    (0.25, 0.0, 0.25),
    ("x", "", "x"),
    ([1, 2.0], [0.0], [1.0, 2.0]),
    ([2.0, 3], [0], [2, 3]),
    ([[2.0, 1]], [[0]], [[2, 1]]),
    ([], [0], []),
    ([1.5, "a"], [], [1.5, "a"]),  # an empty example list gives no item type
    ({"b": 1, "a": 2.0}, {"a": 0, "b": 0.0}, {"b": 1.0, "a": 2}),
    ({"l": [{"m": 1}]}, {"l": [{"m": 0.0}]}, {"l": [{"m": 1.0}]}),
    ([3.0, None], None, [3.0, None]),
    (True, None, True),
])
def test_check_like_types(value, example, expected):
    out = check_like(value, example, ConfigError, "doc")
    assert out == expected
    assert json.dumps(out) == json.dumps(expected)  # 1.0 and 1 dump differently
    if isinstance(expected, dict):
        assert list(out) == list(value)  # the document's key order is kept


def test_none_example_returns_the_value_itself():
    value = {"a": [1.0]}
    assert check_like(value, None, ConfigError, "doc") is value


@pytest.mark.parametrize("value, example, message", [
    (2.5, 0, "'k' must be an integer"),
    (True, 0, "'k' must be an integer"),
    (float("inf"), 0.0, "'k' must be numeric and finite"),
    ([1, "a"], [0], "'k.1' must be an integer"),
    ({"a": 1}, {"a": 0, "b": 0}, "missing key 'k.b'"),
])
def test_check_like_rejects(value, example, message):
    with pytest.raises(ConfigError, match=message):
        check_like(value, example, ConfigError, "doc", "k")


def _rewrite(path, **fields):
    doc = json.loads(path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))


def test_policy_header_loads_typed(tmp_path):
    net = flow.init_net(2, 3, hidden=(4,), rng=np.random.default_rng(0))
    path = tmp_path / "policy.json"
    flow.save_policy(net, path)
    _rewrite(path, action_dim=2.0, obs_dim=3.0, hidden=[4.0], time_embed_dim=8.0,
             alpha=2, beta=1)
    loaded = flow.load_policy(path)
    dims = (loaded.action_dim, loaded.obs_dim, *loaded.hidden, loaded.time_embed_dim)
    assert dims == (2, 3, 4, 8) and all(type(d) is int for d in dims)
    assert type(loaded.alpha) is float and type(loaded.beta) is float


def test_residual_header_loads_typed(tmp_path):
    env = ArmEnv({"episode_len": 20})
    res = distill.init_residual(env, hidden=(3,), rng=np.random.default_rng(1))
    path = tmp_path / "residual.json"
    distill.save_residual(res, path)
    _rewrite(path, proprio_dim=float(res.proprio_dim), command_dim=float(res.command_dim),
             action_dim=2.0, hidden=[3.0], bound=1)
    loaded = distill.load_residual(path)
    dims = (loaded.proprio_dim, loaded.command_dim, loaded.action_dim, *loaded.hidden)
    assert dims == (res.proprio_dim, res.command_dim, 2, 3)
    assert all(type(d) is int for d in dims) and type(loaded.bound) is float


def test_require_message():
    require("k", 1.0, True, "positive")
    with pytest.raises(ValidationError) as info:
        require("k", -1.0, False, "positive")
    assert str(info.value) == "k must be positive, got -1.0"


def test_require_rejects_nan():
    with pytest.raises(ValidationError, match=r"^k must be positive, got nan$"):
        require("k", NAN, NAN > 0, "positive")


@pytest.mark.parametrize("value, bound_by", [
    ("0.9 with aggressive_factor=1.5", {}),  # pre-formatted
    (0.9, {"aggressive_factor": 1.5}),
])
def test_require_names_the_other_field_of_a_bound(value, bound_by):
    with pytest.raises(ConfigError) as info, config_section("env.randomization"):
        require("mass_scale", value, False, "in [0, 1 / aggressive_factor)", **bound_by)
    assert str(info.value) == ("env.randomization.mass_scale must be in [0, 1 / "
                               "aggressive_factor), got 0.9 with "
                               "env.randomization.aggressive_factor=1.5")


@pytest.mark.parametrize("build, key", [
    (lambda: distill.DistillCfg(learning_rate=NAN), "learning_rate"),
    (lambda: distill.ESCfg(sigma=NAN), "sigma"),
    (lambda: PowerPenaltyCfg(deadband=NAN), "deadband"),
    (lambda: PowerPenaltyCfg(norm=NAN), "norm"),
    (lambda: RandomizationCfg(pose_noise=NAN), "pose_noise"),
    (lambda: RandomizationCfg(disturbance=NAN), "disturbance"),
    (lambda: RandomizationCfg(q0_offset=NAN), "q0_offset"),
    # NaN passed its old check and failed the next, which named mass_scale
    (lambda: RandomizationCfg(aggressive_factor=NAN), "aggressive_factor"),
    # and this one reached int(), a bare "cannot convert float NaN to integer"
    (lambda: SynthMotionSpec(2, NAN, 50.0, amplitude=0.1, frequency=0.2), "duration"),
])
def test_nan_setting_is_a_range_error_naming_it(build, key):
    with pytest.raises(ValidationError, match=rf"^{key} must be .*, got nan"):
        build()

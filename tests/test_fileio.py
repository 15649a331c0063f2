"""The typed file boundary: `check_like` returns a document in its example's
types, and both checkpoint kinds load their header fields typed."""

import json

import numpy as np
import pytest

from flowtrack import distill, flow
from flowtrack.env import ArmEnv
from flowtrack.errors import ConfigError
from flowtrack.fileio import check_like


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

"""Fuzz tests of the input boundary: mutated valid documents either load or
raise a flowtrack error that names the file, and `--set` assignments either
load or raise one that names the key.

Each case starts from a valid document (a policy or residual checkpoint, the
built-in actuator catalog, an env config, a motion file), applies a few random
edits anywhere in its tree (replace a value with any JSON value, delete a key
or an item, add a key or an item), writes it and loads it. No case may end in
TypeError, KeyError, IndexError, a bare ValueError or any other exception
outside `flowtrack.errors`.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowtrack import cli, distill, errors, flow
from flowtrack.actuation import default_catalog, load_catalog
from flowtrack.env import DEFAULT_ENV_CONFIG, ArmEnv, load_env_config
from flowtrack.motion import load_motion, save_motion

from conftest import make_sine

FLOWTRACK_ERRORS = (errors.SchemaError, errors.DimensionError, errors.ValidationError,
                    errors.CheckpointError, errors.ConfigError)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mutate(data, doc):
    """A copy of `doc` with one random edit at a random place in its tree."""
    root = [copy.deepcopy(doc)]
    holder, key = root, 0
    while isinstance(holder[key], (dict, list)) and holder[key] and data.draw(st.booleans()):
        node = holder[key]
        holder, key = node, data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    node = holder[key]
    if op == "add" and isinstance(node, dict):
        node[data.draw(st.text(max_size=3))] = data.draw(JSON_VALUES)
    elif op == "add" and isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), data.draw(JSON_VALUES))
    elif op == "delete" and holder is not root:
        del holder[key]
    else:
        holder[key] = data.draw(JSON_VALUES)
    return root[0]


def _fuzzed(data, doc, path):
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    path.write_text(json.dumps(doc))
    return path


def _assert_typed_like(value, default, key="top level"):
    """`value` has the type of `default` at every leaf: lists item by item
    against the default's first item, objects key by key; a None default
    takes anything."""
    if default is None:
        return
    assert type(value) is type(default), f"{key}: {value!r} is not a {type(default).__name__}"
    if isinstance(default, dict):
        assert value.keys() == default.keys(), key
        for k in default:
            _assert_typed_like(value[k], default[k], f"{key}.{k}")
    for i, item in enumerate(value if isinstance(default, list) and default else ()):
        _assert_typed_like(item, default[0], f"{key}.{i}")


def _loads_or_names_file(load, path):
    try:
        return load(path)
    except FLOWTRACK_ERRORS as exc:
        assert path.name in str(exc)
        return None


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    env = ArmEnv({"episode_len": 20})
    net = flow.init_net(2, 3, hidden=(4,), rng=np.random.default_rng(0))
    flow.save_policy(net, root / "policy.json")
    res = distill.init_residual(env, hidden=(3,), rng=np.random.default_rng(1))
    distill.save_residual(res, root / "residual.json")
    save_motion(make_sine(0.2, 0.5, duration=0.1), root / "motion.json")
    return {
        "policy": json.loads((root / "policy.json").read_text()),
        "residual": json.loads((root / "residual.json").read_text()),
        "motion": json.loads((root / "motion.json").read_text()),
        "catalog": {name: dataclasses.asdict(p) for name, p in default_catalog().items()},
        "env": copy.deepcopy(DEFAULT_ENV_CONFIG),
    }


@FUZZ
@given(data=st.data())
def test_policy_checkpoint(documents, tmp_path, data):
    _loads_or_names_file(flow.load_policy,
                         _fuzzed(data, documents["policy"], tmp_path / "fz_policy.json"))


@FUZZ
@given(data=st.data())
def test_residual_checkpoint(documents, tmp_path, data):
    _loads_or_names_file(distill.load_residual,
                         _fuzzed(data, documents["residual"], tmp_path / "fz_residual.json"))


@FUZZ
@given(data=st.data())
def test_actuator_catalog(documents, tmp_path, data):
    _loads_or_names_file(load_catalog,
                         _fuzzed(data, documents["catalog"], tmp_path / "fz_catalog.json"))


@FUZZ
@given(data=st.data())
def test_motion(documents, tmp_path, data):
    _loads_or_names_file(load_motion,
                         _fuzzed(data, documents["motion"], tmp_path / "fz_motion.json"))


@FUZZ
@given(data=st.data())
def test_env_config(documents, tmp_path, data):
    cfg = _loads_or_names_file(load_env_config,
                               _fuzzed(data, documents["env"], tmp_path / "fz_env.json"))
    if cfg is not None:
        # a config that merges has the default's types everywhere; building
        # the env checks ranges and raises only flowtrack errors
        _assert_typed_like(cfg, DEFAULT_ENV_CONFIG)
        try:
            ArmEnv(cfg)
        except FLOWTRACK_ERRORS:
            pass


# ---------------------------------------------------------------------------
# --set assignments over the config tree of the train and refine commands.

SET_TREE = {"env": DEFAULT_ENV_CONFIG, "es": cli.DEFAULT_ES_CFG, "train": cli.DEFAULT_TRAIN_CFG}


def _entries(node, key=""):
    """(dotted path, value) of every entry of a config tree, objects and list
    items included."""
    if key:
        yield key, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for sub, child in items:
        yield from _entries(child, f"{key}.{sub}" if key else str(sub))


SET_ENTRIES = list(_entries(SET_TREE))


@st.composite
def assignments(draw):
    """A --set KEY=VALUE: a path of the tree (sometimes with a bogus last
    part) and a value of the tree (sometimes altered, or another JSON type)."""
    key, value = draw(st.sampled_from(SET_ENTRIES))
    if draw(st.integers(0, 9)) == 0:
        key += draw(st.sampled_from([".x", ".0", ".7"]))
    if draw(st.booleans()):
        value = draw(st.sampled_from(SET_ENTRIES))[1]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # 10**12 is a size no set-up may try to allocate or overflow on
        value = draw(st.sampled_from([value, -value, 0, value + 1, 2 * value, 0.5, -1, 10**12]))
    value = draw(st.sampled_from([value, value, [value], [], {"mass": value}, None, True, "x"]))
    raw = json.dumps(value) if draw(st.booleans()) or value != "x" else "x"
    return key, raw


MOTION = make_sine((0.3, 0.2), 0.5, duration=1.0)


@settings(max_examples=500, deadline=None)
@given(assigned=st.lists(assignments(), min_size=1, max_size=3))
def test_set_assignment(assigned):
    """The train and refine set-up of the assigned tree either loads or
    raises a flowtrack error naming the full key of one assignment; a tree
    that takes the assignments has its defaults' types at every leaf."""
    try:
        tree = cli._apply_sets(copy.deepcopy(SET_TREE), [f"{key}={raw}" for key, raw in assigned])
        _assert_typed_like(tree, SET_TREE)
        env = ArmEnv(tree["env"], section="env")
        cli._es_setup(tree["es"], env, 0)
        cli._train_setup(tree["train"], env, [MOTION], 0)
    except FLOWTRACK_ERRORS as exc:
        assert any(key in str(exc) for key, _ in assigned), str(exc)

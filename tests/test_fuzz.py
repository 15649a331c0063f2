"""Fuzz tests of the input boundary: mutated valid documents either load and
mean what they say, or raise a flowtrack error that names the file, and
`--set` assignments either load or raise one that names the key.

Each case starts from a valid document (a policy or residual checkpoint, the
built-in actuator catalog, an env config, a motion file), applies a few random
edits anywhere in its tree (replace a value with any JSON value, delete a key
or an item, add a key or an item), writes it and loads it. No case may end in
TypeError, KeyError, IndexError, a bare ValueError or any other exception
outside `flowtrack.errors`. A document that loads is re-typed from what
loaded (written again by the program's own writer, for a motion or a
checkpoint), and every value the document states must come back, a boolean
as a boolean: a load may fill in defaults, but never change a value.
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
from flowtrack.env import DEFAULT_ENV_CONFIG, ArmEnv
from flowtrack.fileio import read_config
from flowtrack.motion import QUAT_NORM_TOL, load_motion, save_motion

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
    return path, doc


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


LOADERS = {"policy": flow.load_policy, "residual": distill.load_residual,
           "catalog": load_catalog, "motion": load_motion,
           "env": lambda path: read_config(DEFAULT_ENV_CONFIG, path)}


def _retyped(kind, loaded, path):
    """What loaded, as the JSON document it stands for. A motion or a
    checkpoint is written again to `path` by its saver, which leaves out a
    policy's `sampler_steps` at its default; it is put back."""
    if kind == "catalog":
        return {name: dataclasses.asdict(p) for name, p in loaded.items()}
    if kind == "env":
        return loaded
    {"policy": flow.save_policy, "residual": distill.save_residual,
     "motion": save_motion}[kind](loaded, path)
    doc = json.loads(path.read_text())
    return {**doc, "sampler_steps": loaded.sampler_steps} if kind == "policy" else doc


def _assert_same_values(loaded, doc, key="top level"):
    """Every value that `doc` states is the one at its place in `loaded`, a
    re-typed document: objects key by key (`loaded` may hold more keys, the
    defaults a load fills in), arrays item by item, a boolean as the same
    boolean, a number as an equal number that is no boolean (an integer may
    come back as the float it rounds to), and a quaternion entry within the
    renormalization a load applies."""
    if isinstance(doc, dict):
        assert isinstance(loaded, dict), key
        for k, v in doc.items():
            assert k in loaded, f"{key}: key {k!r} was dropped"
            _assert_same_values(loaded[k], v, f"{key}.{k}")
    elif isinstance(doc, list):
        assert isinstance(loaded, list) and len(loaded) == len(doc), key
        for i, (a, b) in enumerate(zip(loaded, doc)):
            _assert_same_values(a, b, f"{key}.{i}")
    elif isinstance(doc, bool) or isinstance(loaded, bool):
        assert loaded is doc, f"{key}: {doc!r} loaded as {loaded!r}"
    elif isinstance(doc, (int, float)):
        assert isinstance(loaded, (int, float)), f"{key}: {doc!r} loaded as {loaded!r}"
        want = float(doc) if isinstance(loaded, float) else doc
        tol = 2 * QUAT_NORM_TOL if ".base_quat." in key else 0.0
        assert abs(loaded - want) <= tol, f"{key}: {doc!r} loaded as {loaded!r}"
    else:
        assert loaded == doc, f"{key}: {doc!r} loaded as {loaded!r}"


def _loads_as_written(kind, path, doc):
    """The document `doc` at `path`, loaded: either what loaded means what
    `doc` says, or the load raised a flowtrack error naming the file (None)."""
    loaded = _loads_or_names_file(LOADERS[kind], path)
    if loaded is not None:
        _assert_same_values(_retyped(kind, loaded, path.with_name("again.json")), doc)
    return loaded


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
    _loads_as_written("policy", *_fuzzed(data, documents["policy"], tmp_path / "fz_policy.json"))


@FUZZ
@given(data=st.data())
def test_residual_checkpoint(documents, tmp_path, data):
    _loads_as_written("residual",
                      *_fuzzed(data, documents["residual"], tmp_path / "fz_residual.json"))


@FUZZ
@given(data=st.data())
def test_actuator_catalog(documents, tmp_path, data):
    _loads_as_written("catalog",
                      *_fuzzed(data, documents["catalog"], tmp_path / "fz_catalog.json"))


@FUZZ
@given(data=st.data())
def test_motion(documents, tmp_path, data):
    _loads_as_written("motion", *_fuzzed(data, documents["motion"], tmp_path / "fz_motion.json"))


@FUZZ
@given(data=st.data())
def test_env_config(documents, tmp_path, data):
    cfg = _loads_as_written("env", *_fuzzed(data, documents["env"], tmp_path / "fz_env.json"))
    if cfg is not None:
        # a config that merges has the default's types everywhere; building
        # the env checks ranges and raises only flowtrack errors
        _assert_typed_like(cfg, DEFAULT_ENV_CONFIG)
        try:
            ArmEnv(cfg)
        except FLOWTRACK_ERRORS:
            pass


@pytest.mark.parametrize("kind, place", [
    ("motion", ("frames", 1, "q", 0)),  # "q": [true, 0.03] loaded as [1.0, 0.03]
    ("motion", ("frames", 0, "body_pos", 1, 2)),
    ("policy", ("params", 0, 0, 1, 2)),
    ("policy", ("params", 1, 1, 0)),
    ("residual", ("params", 0, 0, 0, 0)),
    ("catalog", ("5020-16", "mu_s")),
    ("env", ("gravity",)),
    ("policy", ("version",)),
])
def test_boolean_in_place_of_a_number(documents, tmp_path, kind, place):
    """`true` where a number belongs is refused, never read as 1.0."""
    doc = copy.deepcopy(documents[kind])
    node = doc
    for part in place[:-1]:
        node = node[part]
    node[place[-1]] = True
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert _loads_as_written(kind, path, doc) is None


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


def _set_value(raw):
    """The value a --set gives: its JSON, or else the text itself."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _overlaps(key, other) -> bool:
    """One of the dotted paths is the other or lies below it."""
    a, b = key.split("."), other.split(".")
    return a[:len(b)] == b or b[:len(a)] == a


def _at_path(tree, key):
    for part in key.split("."):
        tree = tree[int(part) if isinstance(tree, list) else part]
    return tree


def _assert_holds(node, value, key):
    """`node` is `value` in the types of the tree: an object value was merged
    key by key, and anything else put in place, equal as a number."""
    if isinstance(value, dict) and isinstance(node, dict):
        for k, v in value.items():
            _assert_holds(node[k], v, f"{key}.{k}")
    else:
        assert node == value, f"{key}: {node!r} is not the assigned {value!r}"


MOTION = make_sine((0.3, 0.2), 0.5, duration=1.0)


@settings(max_examples=500, deadline=None)
@given(assigned=st.lists(assignments(), min_size=1, max_size=3))
def test_set_assignment(assigned):
    """The train and refine set-up of the assigned tree either loads or
    raises a flowtrack error naming the full key of one assignment; a tree
    that takes the assignments has its defaults' types at every leaf and
    holds each assignment that no later one overlaps at its path."""
    try:
        tree = cli._apply_sets(copy.deepcopy(SET_TREE), [f"{key}={raw}" for key, raw in assigned])
        _assert_typed_like(tree, SET_TREE)
        for i, (key, raw) in enumerate(assigned):
            if not any(_overlaps(key, later) for later, _ in assigned[i + 1:]):
                _assert_holds(_at_path(tree, key), _set_value(raw), key)
        env = ArmEnv(tree["env"], section="env")
        cli._es_setup(tree["es"], env, 0)
        cli._train_setup(tree["train"], env, [MOTION], 0)
    except FLOWTRACK_ERRORS as exc:
        assert any(key in str(exc) for key, _ in assigned), str(exc)

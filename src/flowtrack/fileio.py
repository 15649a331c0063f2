"""The program's file boundary. Every JSON input is parsed by `read_json`;
a config file or a `--set` value is laid over what it overrides (`overlay`),
and the result is typed once against the defaults, which are the schema
(`merge_over`, `check_like`), so no caller re-types a setting; each
setting's range is checked by the object it configures, every check through
`require`, which writes the one message form that `config_section` parses to
name the key of one that fails; both checkpoint kinds share one codec
(`save_checkpoint`, `load_checkpoint`); every writer uses `write_atomic`.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CheckpointError, ConfigError, DimensionError, SchemaError, ValidationError

CHECKPOINT_VERSION = 1


def write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temporary file and `os.replace`, so a
    reader never sees a partly written file. A failed write or replace
    removes the temporary file and re-raises."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):  # the open may have failed before creating it
            os.unlink(tmp)
        raise


def read_json(path, error_type, build):
    """`build(doc)` of the JSON document `doc` at `path`; a file that does not
    parse raises `error_type` naming it.

    The cyclic garbage collector is paused while the file decodes and
    `build` reads the decoded tree, until the tree is freed. A motion file
    decodes to 10^4 to 10^5 dicts and lists; each new one counts towards
    the collector's next automatic run, and each run walks part of the tree
    built so far, hundreds of runs that find nothing to free; with the
    collector back on while the tree lives, the next allocation starts a
    run that walks all of it. Freed inside the pause, the tree takes its
    count with it. A decoded tree holds no reference cycles, so no garbage
    waits on the pause. The switch is process-wide, which is safe because
    flowtrack runs on one thread; a caller that turned the collector off
    finds it off afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise error_type(f"{path}: not valid JSON ({exc})") from exc
        value = build(doc)
        del doc  # the tree goes here unless `value` holds it
        return value
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Typed documents: a default or example value stands for its JSON type, and
# errors name the dotted key of the offending entry ("" is the top level).

_EXPECTED = {dict: "an object", list: "an array", str: "a string", int: "an integer",
             float: "numeric and finite"}


def _at(key: str) -> str:
    return f"'{key}'" if key else "the top level"


def join_key(key: str, sub) -> str:
    return f"{key}.{sub}" if key else str(sub)


def check_like(value, example, error_type, origin, key: str = ""):
    """`value` in the types of `example`; `error_type` naming `origin` and the
    dotted `key` if it does not have the JSON type of `example`.

    An integer example takes an integral number as an int, a float example a
    finite number as a float (never a boolean), a list example a list whose
    items are like its first item, a dict example an object with exactly its
    keys, each like its example, and a None example anything, unchanged.
    """
    if example is None:
        return value
    if isinstance(example, (dict, list, str)):
        ok = isinstance(value, type(example))
    elif isinstance(example, int):
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    else:  # the comparison is False for NaN, infinities and ints beyond float range
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if not ok or isinstance(value, bool):
        raise error_type(f"{origin}: {_at(key)} must be {_EXPECTED[type(example)]}")
    if isinstance(example, dict):
        for k in {**example, **value}:
            if k not in value or k not in example:
                problem = "missing" if k not in value else "unknown"
                raise error_type(f"{origin}: {problem} key '{join_key(key, k)}'")
        return {k: check_like(v, example[k], error_type, origin, join_key(key, k))
                for k, v in value.items()}
    if isinstance(example, list):
        return [check_like(item, example[0], error_type, origin, join_key(key, i))
                for i, item in enumerate(value)] if example else value
    return type(example)(value)


def json_array(rows, ndim: int, dtype=float, what: str = "") -> np.ndarray:
    """`rows`, JSON arrays nested `ndim` deep, as one `dtype` array, built from
    the flattened values after one pass types them. Errors begin with `what`: a
    DimensionError unless each depth's arrays have one length, a SchemaError
    unless the values are numbers (booleans for a bool dtype; a boolean is no number)."""
    shape, flat = [], [rows]
    for _ in range(ndim):
        try:  # a number has no length; a string or an object fails the value check
            (n,) = set(map(len, flat)) or {0}
        except (TypeError, ValueError) as exc:  # or the arrays have two lengths
            raise DimensionError(f"{what}rows differ in shape") from exc
        shape.append(n)
        flat = list(chain.from_iterable(flat))
    if not set(map(type, flat)) <= ({bool} if dtype is bool else {int, float}):
        raise SchemaError(f"{what}must be " + ("JSON booleans" if dtype is bool else "numeric"))
    try:
        return np.fromiter(flat, dtype, len(flat)).reshape(shape)
    except OverflowError as exc:  # an integer beyond float range
        raise SchemaError(f"{what}must be numeric and finite") from exc


def require(key: str, value, ok, what: str, **bound_by) -> None:
    """Raise `ValidationError("<key> must be <what>, got <value>")` unless
    `ok`, the condition a valid value meets, so that NaN, which meets none,
    fails. `key` is the field's name; `bound_by` holds the other field of a
    bound on two, whose value the message gives after `value` (`got 0.9 with
    aggressive_factor=1.5`). `config_section` turns both names into keys.
    Nothing is formatted unless the check fails."""
    if not ok:
        raise ValidationError(f"{key} must be {what}, got {value}"
                              + "".join(f" with {k}={v}" for k, v in bound_by.items()))


@contextmanager
def config_section(section: str, renamed: dict | None = None):
    """Re-raise a ValidationError of the settings objects built in the block
    as a ConfigError naming the dotted key below `section`. Their messages
    begin with the field name, such as `bound` or `hidden.0`, which is the key
    unless `renamed` maps its part before the first dot to another
    (`{"hidden": "residual_hidden"}` gives `residual_hidden.0`). A field that
    a message names later as `name=value`, the other side of a bound on two
    fields, becomes its key the same way; quoted text, such as an actuator
    name, is a value and stays as it is."""
    try:
        yield
    except ValidationError as exc:
        def qualify(match):
            if match[0][0] in "'\"":
                return match[0]
            head, dot, tail = match[0].partition(".")
            return join_key(section, (renamed or {}).get(head, head) + dot + tail)
        raise ConfigError(re.sub(r"'[^']*'|\"[^\"]*\"|^\S+|\b[A-Za-z_]\w*(?==)", qualify,
                                 str(exc))) from exc


def read_config(defaults: dict, path) -> dict:
    """`defaults` with the JSON config file at `path`, if one is given, merged in."""
    if not path:
        return merge_over(defaults, {}, path)
    return read_json(path, ConfigError, lambda doc: merge_over(defaults, doc, path))


def overlay(node, value):
    """`value` put in place of `node`: an object is merged into an object key
    by key, anything else replaces what is there. Nothing is typed here."""
    if isinstance(node, dict) and isinstance(value, dict):
        return {**node, **{k: overlay(node.get(k), v) for k, v in value.items()}}
    return value


def merge_over(defaults: dict, overrides, origin) -> dict:
    """`defaults` with `overrides` laid over them (`overlay`), in the types of
    `defaults`.

    The defaults are the schema (see `check_like`): an override key must exist
    there, an object default takes an object, merged key by key, and any
    other default a value of its type. Errors are ConfigErrors naming
    `origin` and the dotted key, such as `randomization.bogus`.
    """
    return check_like(overlay(defaults, overrides), defaults, ConfigError, origin)


# ---------------------------------------------------------------------------
# Checkpoints: {"version", "kind", <header fields in the kind's order>,
# "params"}. A header lists each field with an example of its type; a field
# is the model's attribute of its name, but "layer_shapes", derived from the
# parameters.

@dataclass(frozen=True)
class Default:
    """The example of a header field that a file may lack: it then reads as
    `value`, and is not written at `value`, so files older than the field keep
    loading and keep their bytes."""

    value: object


def save_checkpoint(path, kind: str, header: dict, model) -> None:
    """Write `model` as a `kind` checkpoint: the header fields, in the order
    of `header`, are its attributes (a tuple is written as a list; a
    `Default` field is left out at its value), and its `params` are written
    at full precision, so they round-trip bit-exactly."""
    params = model.params
    doc = {"version": CHECKPOINT_VERSION, "kind": kind}
    for key, example in header.items():
        value = ([list(W.shape) for W, _ in params] if key == "layer_shapes"
                 else getattr(model, key))
        if not (isinstance(example, Default) and value == example.value):
            doc[key] = value
    doc["params"] = [[W.tolist(), b.tolist()] for W, b in params]
    write_atomic(path, json.dumps(doc) + "\n")


def load_checkpoint(path, kind: str, header: dict, build):
    """Read a `kind` checkpoint and return `build(**fields, params=params)`,
    where `fields` holds its header fields in the types of `header`, all but
    the derived "layer_shapes"; an absent `Default` field takes its value.

    The version, the kind, every header field's presence and type, and the
    parameter blocks are checked here; `build` may raise DimensionError or
    ValidationError for a checkpoint that is well formed but inconsistent.
    Every failure is a CheckpointError naming the file and the key.
    """
    return read_json(path, CheckpointError, lambda doc: _checkpoint_from_doc(doc, path, kind,
                                                                         header, build))


def _checkpoint_from_doc(doc, path, kind: str, header: dict, build):
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: top level must be an object")
    keys = ("version", "kind", *header, "params")
    for key in (*keys, *doc):
        if isinstance(header.get(key), Default):
            doc.setdefault(key, header[key].value)
        elif key not in doc or key not in keys:
            problem = "missing" if key not in doc else "unknown"
            raise CheckpointError(f"{path}: {problem} checkpoint key '{key}'")
    if isinstance(doc["version"], bool) or doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {doc['version']} "
                              f"(expected {CHECKPOINT_VERSION})")
    if doc["kind"] != kind:
        raise CheckpointError(f"{path}: not a {kind} checkpoint ({doc['kind']})")
    for key, example in header.items():
        example = example.value if isinstance(example, Default) else example
        doc[key] = check_like(doc[key], example, CheckpointError, path, key)
    params = _decode_params(doc, path)
    try:
        return build(**{k: doc[k] for k in header if k != "layer_shapes"}, params=params)
    except (DimensionError, ValidationError) as exc:
        raise CheckpointError(f"{path}: inconsistent checkpoint ({exc})") from exc


def _decode_params(doc: dict, path) -> list:
    """The (W, b) blocks of a checkpoint document, checked against its header."""
    shapes, blocks = doc["layer_shapes"], doc["params"]  # shapes: typed with the header
    if not isinstance(blocks, list):
        raise CheckpointError(f"{path}: 'params' must be a list")
    if len(shapes) != len(blocks):
        raise CheckpointError(
            f"{path}: {len(shapes)} layer shapes but {len(blocks)} parameter blocks")
    if not blocks:
        raise CheckpointError(f"{path}: 'params' holds no layer")
    params = []
    for i, (shape, block) in enumerate(zip(shapes, blocks)):
        if len(shape) != 2:
            raise CheckpointError(f"{path}: 'layer_shapes[{i}]' must be [rows, cols]")
        if not (isinstance(block, list) and len(block) == 2):
            raise CheckpointError(f"{path}: 'params[{i}]' must be a [W, b] pair")
        try:
            W, b = json_array(block[0], 2), json_array(block[1], 1)
        except (DimensionError, SchemaError) as exc:
            raise CheckpointError(
                f"{path}: 'params[{i}]' is not a rectangular numeric array ({exc})") from exc
        if list(W.shape) != shape or b.shape != (W.shape[0],):
            raise CheckpointError(
                f"{path}: 'params[{i}]' does not match header shape {shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise CheckpointError(f"{path}: 'params[{i}]' holds non-finite values")
        params.append((W, b))
    return params

"""The names the benchmark harness looks up in the program still exist.

`perfbench/` reaches into `flowtrack` by name in three places: the tracer
patches each of its `SITES`, the episode census wraps `ArmEnv.reset` and
reads `step_count`, and each workload's set-up probe stops at its `workflow`
function. A rename in `src/` would otherwise show only in the benchmark's
own runs. The harness modules are imported read-only; nothing is patched.
"""

import importlib
import os
import sys
from unittest import mock

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def harness():
    """The `tracing`, `workloads` and `run` modules of perfbench/. `run` sets
    the BLAS thread variables when imported; they are restored after."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [PERFBENCH, *sys.path]):
        modules = {name: importlib.import_module(name)
                   for name in ("tracing", "workloads", "run")}
    yield modules
    for name in modules:
        sys.modules.pop(name, None)


def test_every_traced_site_exists(harness):
    tracing = harness["tracing"]
    assert len(tracing.SITES) == 34
    for module, path, _name, _extra in tracing.SITES:
        owner, attr = tracing._owner(module, path)
        assert attr in owner.__dict__, f"{module}.{path}"


def test_episode_census_names_exist(harness):
    from flowtrack.env import ArmEnv
    assert "EpisodeCensus" in vars(harness["run"])
    assert "reset" in ArmEnv.__dict__ and callable(ArmEnv.__dict__["reset"])
    assert isinstance(ArmEnv.__dict__["step_count"], property)


def test_every_workflow_function_exists(harness):
    workloads = harness["workloads"].WORKLOADS
    assert sorted(workloads) == ["analyze", "distill", "evaluate", "refine"]
    for wl in workloads.values():
        module, attr = wl.workflow.split(":")
        assert callable(importlib.import_module(module).__dict__.get(attr)), wl.workflow

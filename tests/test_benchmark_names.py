"""The package names the benchmark relies on must exist.

`perfbench/tracer.py` replaces each cross-module import it lists in
``CROSS_MODULE_CALLS`` with a timing wrapper, and its `Api` reads the entry
points the benchmark calls. A refactor that renames or drops one of them
breaks the benchmark; these tests catch that without running a workload.
The tracer is read and executed from its source, so nothing is written
beside it.
"""

import importlib
import os
import types

import pytest

import subspace_net

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")
MODULES = ("cli", "config", "data", "experiments", "layer", "network")


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = TRACER
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    for name in MODULES:
        importlib.import_module(f"subspace_net.{name}")
    return module


def test_patched_cross_module_calls_exist(tracer):
    missing = [(module, attr) for module, attr, _ in tracer.CROSS_MODULE_CALLS
               if not callable(getattr(getattr(subspace_net, module), attr, None))]
    assert missing == []


def test_api_entry_points_exist(tracer):
    api = tracer.Api(subspace_net)  # reads every entry point it offers
    assert set(tracer.API_SPANS) <= set(vars(api))
    assert all(callable(fn) for fn in vars(api).values())

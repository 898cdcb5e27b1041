"""The package names the benchmark relies on must exist.

`perfbench/tracer.py` replaces each cross-module import it lists in
``CROSS_MODULE_CALLS`` with a timing wrapper, and its `Api` reads the entry
points the benchmark calls. A refactor that renames or drops one of them
breaks the benchmark; these tests catch that without running a workload.
The config keys the workloads pin must also stay in the schema. The
benchmark modules are read and executed from their source, so nothing is
written beside them.
"""

import copy
import importlib
import json
import os
import sys
import types

import numpy as np
import pytest

import subspace_net
from subspace_net import cli
from subspace_net.config import validate_config_dict
from subspace_net.data import parse_numeric_csv
from subspace_net.layer import SubspaceLayer
from subspace_net.network import SubspaceNetwork, save_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
MODULES = ("cli", "config", "data", "experiments", "layer", "network")


def _from_source(stem):
    """``perfbench/<stem>.py`` executed as a module registered in
    ``sys.modules``, which its dataclasses read while being defined."""
    path = os.path.join(PERFBENCH, f"{stem}.py")
    module = types.ModuleType(f"perfbench_{stem}")
    module.__file__ = path
    sys.modules[module.__name__] = module
    try:
        with open(path, encoding="utf-8") as fh:
            exec(compile(fh.read(), path, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def tracer():
    module = _from_source("tracer")
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


def test_predict_reads_features_through_the_patched_name(tmp_path, monkeypatch):
    # the tracer times `ssn predict`'s read as data.parse_csv by wrapping
    # cli.parse_numeric_csv; a read that bypassed that name would drop the
    # stage from the trace unnoticed
    net = SubspaceNetwork(layers=[SubspaceLayer(U=np.ones((2, 1)), V=np.ones((1, 3)),
                                                sigma=np.ones(2))])
    save_model(net, tmp_path / "model.ssnw")
    (tmp_path / "features.csv").write_text("a,b,c\n1,2,3\n4,5,6\n")
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return parse_numeric_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_numeric_csv", counting_parse)
    assert cli.main(["predict", "--model", str(tmp_path / "model.ssnw"),
                     "--features", str(tmp_path / "features.csv"),
                     "--out", str(tmp_path / "predictions.csv")]) == 0
    assert calls == [(str(tmp_path / "features.csv"),)]
    assert len((tmp_path / "predictions.csv").read_text().splitlines()) == 3


def test_workload_configs_validate(tmp_path):
    # each config completed as its workload completes it, so a schema that
    # drops or renames a key the benchmark writes fails here
    workloads = _from_source("workloads")
    ref = copy.deepcopy(workloads.TRAIN_REF_CONFIG)
    ref["data"]["n"] = workloads.SIZES["ref"]["train_n"]
    sweep = dict(workloads.SWEEP_CONFIG,
                 data={"kind": "csv", "features_path": str(tmp_path / "features.csv"),
                       "targets_path": str(tmp_path / "targets.csv")})
    for cfg in (ref, sweep):
        cfg.update(seeds=[0, 1], output_dir=str(tmp_path / "out"))
        assert validate_config_dict(cfg) == []


def test_workload_configs_train_as_the_shipped_configs():
    # the workloads copy these train sections; a step-policy change to a
    # shipped config must reach the benchmark, or it times the old steps
    workloads = _from_source("workloads")
    for copied, recipe in ((workloads.TRAIN_REF_CONFIG, "single_layer_recovery"),
                           (workloads.SWEEP_CONFIG, "depth_sweep")):
        with open(os.path.join(ROOT, "configs", f"{recipe}.json"), encoding="utf-8") as fh:
            assert copied["train"] == json.load(fh)["train"], recipe

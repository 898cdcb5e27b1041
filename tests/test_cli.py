"""Tests for config validation and the command-line workflows."""

import csv
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import subspace_net
from subspace_net.cli import main
from subspace_net.config import (
    DataConfig,
    ExperimentConfig,
    TrainSection,
    load_config,
    validate_config_dict,
)
from subspace_net.data import gen_single_layer, load_csv, save_csv
from subspace_net import experiments, network
from subspace_net.errors import ConfigError
from subspace_net.experiments import _trace_csv
from subspace_net.layer import SubspaceLayer, TraceLog
from subspace_net.network import SubspaceNetwork, forward_batch, load_model, save_model


def write_config(tmp_path, **overrides):
    cfg = {
        "experiment": "depth_sweep",
        "output_dir": str(tmp_path / "out"),
        "seeds": [0, 1],
        "data": {"kind": "planted", "n": 200, "d": 8, "t": 4, "r": 2, "sigma": 1.0},
        "train": {"rank": 2, "v_inner_steps": 2, "scale_steps": True},
        "depth": 2,
        "fractions": [0.5],
        "include_baselines": True,
        "save_models": False,
        "save_traces": False,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, banana=1)
        assert main(["validate", str(path)]) == 1
        assert "banana" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            train={"rank": 2, "warp_speed": 9})
        assert main(["validate", str(path)]) == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_key_of_another_data_kind_is_checked(self, tmp_path, capsys):
        # a planted config carrying a malformed sigma_set must fail validation,
        # not crash the run while the config is built
        path = write_config(tmp_path, data={"kind": "planted", "sigma_set": 5})
        assert main(["validate", str(path)]) == 1
        assert "data.sigma_set" in capsys.readouterr().err
        assert main(["run", str(path)]) == 1
        assert "data.sigma_set" in capsys.readouterr().err

    def test_planted_sigma_needs_planted_data(self, tmp_path, capsys):
        # csv data has no planted noise scales: the config is rejected
        # before any cell, by validate and run alike
        data, _ = gen_single_layer(60, 8, 4, 2, 1.0, seed=31)
        fx, fy = tmp_path / "features.csv", tmp_path / "targets.csv"
        save_csv(data, fx, fy)
        path = write_config(
            tmp_path, train={"rank": 2, "sigma": "planted"},
            data={"kind": "csv", "features_path": str(fx), "targets_path": str(fy)})
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"{path}: train.sigma: 'planted' requires "
                                    "planted data, not csv\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["output_dir", "features_path", "targets_path"])
    @pytest.mark.parametrize("bad", ["o\u0000x", "o\ud800", "o\udc80"])
    def test_a_path_that_validates_also_opens(self, tmp_path, capsys, key, bad):
        # a path that `open` or `os.makedirs` would refuse, or that UTF-8
        # results.csv cannot hold, is a config error for validate and run
        fx, fy = tmp_path / "features.csv", tmp_path / "targets.csv"
        save_csv(gen_single_layer(60, 8, 4, 2, 1.0, seed=31)[0], fx, fy)
        data = {"kind": "csv", "features_path": str(fx), "targets_path": str(fy)}
        if key == "output_dir":
            path = write_config(tmp_path, data=data, output_dir=str(tmp_path / bad))
        else:
            path = write_config(tmp_path, data={**data, key: str(tmp_path / bad)})
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{key}: must" in captured.err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "features.csv", "targets.csv"]

    def test_out_of_range_fraction(self, tmp_path, capsys):
        path = write_config(tmp_path, fractions=[1.5])
        assert main(["validate", str(path)]) == 1
        assert "fractions[0]" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": }')
        assert main(["validate", str(path)]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"experiment": "depth_sweep", "output_dir": "o\xe9", '
                         b'"seeds": [0]}')
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == (
                f"{path}: not UTF-8 text (invalid continuation byte)\n")

    def test_deeply_nested_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"a":' * 100000)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err == (
                f"{path}: invalid JSON: nested too deeply\n")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")

    def test_validator_lists_all_problems(self):
        problems = validate_config_dict({"experiment": "nope", "seeds": []})
        assert len(problems) >= 3

    def test_load_config_raises(self, tmp_path):
        path = write_config(tmp_path, seeds="zero")
        with pytest.raises(ConfigError):
            load_config(path)


EXPERIMENTS = ("single_layer_recovery", "deep_recovery", "depth_sweep",
               "calibration_study")
DATA_KINDS = ("planted", "planted_deep", "planted_hetero", "csv")
MINIMAL = {"experiment": "depth_sweep", "output_dir": "out", "seeds": [0]}

# (overrides of MINIMAL, keys dropped from it, the exact problems reported)
PROBLEM_TABLE = [
    ({}, (), []),
    ({"schema_version": 1}, (), []),
    ({"schema_version": 2}, (), ["$.schema_version: unsupported version 2 (expected 1)"]),
    ({"schema_version": "1"}, (),
     ["$.schema_version: unsupported version '1' (expected 1)"]),
    ({}, ("experiment",), [f"$.experiment: must be one of {EXPERIMENTS}"]),
    ({}, ("output_dir",), ["$.output_dir: required nonempty string"]),
    ({}, ("seeds",), ["$.seeds: must be a nonempty list"]),
    ({}, ("experiment", "output_dir", "seeds"),
     [f"$.experiment: must be one of {EXPERIMENTS}",
      "$.output_dir: required nonempty string",
      "$.seeds: must be a nonempty list"]),
    ({"experiment": "nope"}, (), [f"$.experiment: must be one of {EXPERIMENTS}"]),
    ({"output_dir": ""}, (), ["$.output_dir: required nonempty string"]),
    ({"output_dir": 7}, (), ["$.output_dir: required nonempty string"]),
    ({"seeds": []}, (), ["$.seeds: must be a nonempty list"]),
    ({"seeds": [1.5]}, (), ["$.seeds[0]: must be an integer"]),
    ({"seeds": [True]}, (), ["$.seeds[0]: must be a number, got bool"]),
    ({"seeds": 3}, (), ["$.seeds: must be a nonempty list"]),
    ({"banana": 1}, (), ["$.banana: unknown key"]),
    ({"data": 5}, (), ["$.data: must be an object"]),
    ({"data": None}, (), ["$.data: must be an object"]),
    ({"train": []}, (), ["$.train: must be an object"]),
    # numeric rules: type, integrality, bounds
    ({"depth": 0}, (), ["$.depth: must be >= 1, got 0"]),
    ({"depth": 1.5}, (), ["$.depth: must be an integer"]),
    ({"depth": "3"}, (), ["$.depth: must be a number, got str"]),
    ({"depth": True}, (), ["$.depth: must be a number, got bool"]),
    ({"depth": None}, (), ["$.depth: must be a number, got NoneType"]),
    # at depth 1 a calibration study calibrates nothing
    ({"experiment": "calibration_study", "depth": 1}, (),
     ["$.depth: must be >= 2 for calibration_study, got 1"]),
    # keys of retired network knobs are unknown like any other
    ({"pred_scale": 0}, (), ["$.pred_scale: unknown key"]),
    ({"skip_mode": "concat"}, (), ["$.skip_mode: unknown key"]),
    ({"residual_set": "uncensored"}, (), ["$.residual_set: unknown key"]),
    # the ridge baselines' regularization is a constant, not a key
    ({"ridge_lambda": -1}, (), ["$.ridge_lambda: unknown key"]),
    ({"ridge_lambda": 0}, (), ["$.ridge_lambda: unknown key"]),
    # choice and boolean keys
    ({"calibrate": 1}, (), ["$.calibrate: must be a boolean"]),
    ({"include_baselines": "yes"}, (), ["$.include_baselines: must be a boolean"]),
    ({"save_models": None}, (), ["$.save_models: must be a boolean"]),
    ({"save_traces": 0}, (), ["$.save_traces: must be a boolean"]),
    # list keys
    ({"fractions": None}, (), []),
    ({"fractions": []}, (), ["$.fractions: must be a nonempty list"]),
    ({"fractions": 0.5}, (), ["$.fractions: must be a nonempty list"]),
    ({"fractions": [0.0, 0.5, 1.0, True, "x"]}, (),
     ["$.fractions[0]: must lie strictly in (0, 1), got 0.0",
      "$.fractions[2]: must lie strictly in (0, 1), got 1.0",
      "$.fractions[3]: must lie strictly in (0, 1), got True",
      "$.fractions[4]: must lie strictly in (0, 1), got x"]),
    ({"ranks": None}, (), []),
    ({"ranks": []}, (), ["$.ranks: must be a nonempty list"]),
    ({"ranks": [0]}, (), ["$.ranks[0]: must be >= 1, got 0"]),
    ({"ranks": [2.0]}, (), ["$.ranks[0]: must be an integer"]),
    ({"ranks": [True]}, (), ["$.ranks[0]: must be a number, got bool"]),
    # data section
    ({"data": {"banana": 1}}, (), ["data.banana: unknown key"]),
    ({"data": {"kind": "tsv"}}, (), [f"data.kind: must be one of {DATA_KINDS}"]),
    ({"data": {"n": 0}}, (), ["data.n: must be >= 1, got 0"]),
    ({"data": {"d": 2.5}}, (), ["data.d: must be an integer"]),
    ({"data": {"t": "4"}}, (), ["data.t: must be a number, got str"]),
    ({"data": {"r": True}}, (), ["data.r: must be a number, got bool"]),
    ({"data": {"sigma": -0.5}}, (), ["data.sigma: must be >= 0.0, got -0.5"]),
    ({"data": {"sigma": 0}}, (), []),
    ({"data": {"n": 0, "d": 0, "t": 0, "r": 0, "sigma": -1}}, (),
     ["data.n: must be >= 1, got 0", "data.d: must be >= 1, got 0",
      "data.t: must be >= 1, got 0", "data.r: must be >= 1, got 0",
      "data.sigma: must be >= 0.0, got -1"]),
    ({"data": {"kind": "planted_deep", "depth": 0}}, (),
     ["data.depth: must be >= 1, got 0"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [0.5, 3]}}, (), []),
    ({"data": {"kind": "planted_hetero", "sigma_set": []}}, (),
     ["data.sigma_set: must be a nonempty list"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [0.5, 0]}}, (),
     ["data.sigma_set[1]: must be > 0.0, got 0"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [True]}}, (),
     ["data.sigma_set[0]: must be a number, got bool"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": 2.0}}, (),
     ["data.sigma_set: must be a nonempty list"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "y.csv"}}, (), []),
    ({"data": {"kind": "csv"}}, (),
     ["data.features_path: required string for csv data",
      "data.targets_path: required string for csv data"]),
    ({"data": {"kind": "csv", "features_path": 5, "targets_path": None}}, (),
     ["data.features_path: required nonempty string",
      "data.targets_path: required string for csv data"]),
    # train section
    ({"train": {"warp_speed": 9}}, (), ["train.warp_speed: unknown key"]),
    ({"train": {"lam": 0.1}}, (), ["train.lam: unknown key"]),
    ({"train": {"eta": 0}}, (), ["train.eta: must be > 0.0, got 0"]),
    ({"train": {"mu": -1e-3}}, (), ["train.mu: must be > 0.0, got -0.001"]),
    ({"train": {"lambda": -1}}, (), ["train.lambda: must be >= 0.0, got -1"]),
    ({"train": {"lambda": 0}}, (), []),
    ({"train": {"rank": 0}}, (), ["train.rank: must be >= 1, got 0"]),
    ({"train": {"v_inner_steps": 1.0}}, (), ["train.v_inner_steps: must be an integer"]),
    # the init scale follows the target RMS, not a key
    ({"train": {"init_scale": 0.0}}, (), ["train.init_scale: unknown key"]),
    ({"train": {"step_offset": "500"}}, (),
     ["train.step_offset: must be a number, got str"]),
    ({"train": {"sigma_scale": 0}}, (), ["train.sigma_scale: must be > 0.0, got 0"]),
    ({"train": {"step_decay": 1}}, (), ["train.step_decay: must be a boolean"]),
    ({"train": {"scale_steps": "no"}}, (), ["train.scale_steps: must be a boolean"]),
    ({"train": {"sigma": 2.5}}, (), []),
    ({"train": {"sigma": "planted"}}, (), []),
    ({"train": {"sigma": "fitted"}}, (),
     ["train.sigma: must be a positive number or one of ('scaled', 'planted')"]),
    ({"train": {"sigma": 0}}, (),
     ["train.sigma: must be a positive number or one of ('scaled', 'planted')"]),
    ({"train": {"sigma": True}}, (),
     ["train.sigma: must be a positive number or one of ('scaled', 'planted')"]),
    # problems at every level are all reported
    ({"experiment": "nope", "seeds": [], "banana": 1,
      "data": {"n": 0, "apple": 2}, "train": {"rank": 0, "cherry": 3},
      "depth": 0}, (),
     ["$.banana: unknown key",
      f"$.experiment: must be one of {EXPERIMENTS}",
      "$.seeds: must be a nonempty list",
      "data.apple: unknown key", "data.n: must be >= 1, got 0",
      "train.cherry: unknown key", "train.rank: must be >= 1, got 0",
      "$.depth: must be >= 1, got 0"]),
    # a repeated seed, fraction or rank would rerun identical cells
    ({"seeds": [0, 0]}, (), ["$.seeds: must not repeat an entry, got [0, 0]"]),
    ({"fractions": [0.5, 0.7, 0.5]}, (),
     ["$.fractions: must not repeat an entry, got [0.5, 0.7, 0.5]"]),
    ({"ranks": [2, 2, 5, 5]}, (), ["$.ranks: must not repeat an entry, got [2, 2, 5, 5]"]),
    ({"seeds": [3, 3], "fractions": [0.5, 0.5], "ranks": [1, 1]}, (),
     ["$.seeds: must not repeat an entry, got [3, 3]",
      "$.fractions: must not repeat an entry, got [0.5, 0.5]",
      "$.ranks: must not repeat an entry, got [1, 1]"]),
    ({"ranks": [1, 1.0, True]}, (),
     ["$.ranks[1]: must be an integer", "$.ranks[2]: must be a number, got bool"]),
    ({"seeds": [[0], [0]]}, (),
     ["$.seeds[0]: must be a number, got list", "$.seeds[1]: must be a number, got list",
      "$.seeds: must not repeat an entry, got [[0], [0]]"]),
    # numpy cannot seed from a negative integer
    ({"seeds": [0, -1]}, (), ["$.seeds[1]: must be >= 0, got -1"]),
    ({"seeds": [0, 2**64]}, (), []),
]

# keys that apply to one data kind only are checked whatever the kind
NEW_REJECTIONS = [
    ({"data": {"kind": "planted", "sigma_set": 5}}, (),
     ["data.sigma_set: must be a nonempty list"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": None}}, (),
     ["data.sigma_set: must be a nonempty list"]),
    ({"data": {"kind": "planted", "depth": 0}}, (),
     ["data.depth: must be >= 1, got 0"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "y.csv",
               "n": "many"}}, (),
     ["data.n: must be a number, got str"]),
    ({"data": {"kind": "planted", "features_path": 5}}, (),
     ["data.features_path: required nonempty string"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "y.csv"},
      "train": {"sigma": "planted"}}, (),
     ["train.sigma: 'planted' requires planted data, not csv"]),
    # json parses NaN and Infinity; no numeric key accepts them
    ({"train": {"eta": math.nan, "mu": math.inf}, "ridge_lambda": math.nan,
      "data": {"sigma": math.inf}}, (),
     ["train.eta: must be finite, got nan", "train.mu: must be finite, got inf",
      "$.ridge_lambda: unknown key",
      "data.sigma: must be finite, got inf"]),
    ({"depth": -math.inf, "data": {"sigma": math.nan}}, (),
     ["$.depth: must be finite, got -inf", "data.sigma: must be finite, got nan"]),
    ({"train": {"lambda": math.nan, "init_scale": math.inf,
                "step_offset": math.nan, "sigma_scale": math.inf}}, (),
     ["train.lambda: must be finite, got nan",
      "train.init_scale: unknown key",
      "train.step_offset: must be finite, got nan",
      "train.sigma_scale: must be finite, got inf"]),
    ({"train": {"sigma": math.inf}}, (),
     ["train.sigma: must be a positive number or one of ('scaled', 'planted')"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [0.5, math.inf]}}, (),
     ["data.sigma_set[1]: must be finite, got inf"]),
    # a path that validates also opens: no NUL, and no lone surrogate
    ({"output_dir": "o\u0000x"}, (),
     ["$.output_dir: must not contain a NUL character, got 'o\\x00x'"]),
    ({"output_dir": "o\ud800"}, (),
     ["$.output_dir: must encode as a file name and as UTF-8, got 'o\\ud800'"]),
    ({"data": {"kind": "csv", "features_path": "o\u0000x", "targets_path": "y.csv"}}, (),
     ["data.features_path: must not contain a NUL character, got 'o\\x00x'"]),
    ({"data": {"kind": "csv", "features_path": "o\ud800", "targets_path": "y.csv"}}, (),
     ["data.features_path: must encode as a file name and as UTF-8, got 'o\\ud800'"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "o\u0000x"}}, (),
     ["data.targets_path: must not contain a NUL character, got 'o\\x00x'"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "o\ud800"}}, (),
     ["data.targets_path: must encode as a file name and as UTF-8, got 'o\\ud800'"]),
    # an empty path, and a surrogate-escaped byte that results.csv cannot hold
    ({"data": {"kind": "csv", "features_path": "", "targets_path": "y\udc80"}}, (),
     ["data.features_path: required nonempty string",
      "data.targets_path: must encode as a file name and as UTF-8, got 'y\\udc80'"]),
]


def _problems(overrides, dropped):
    obj = {k: v for k, v in {**MINIMAL, **overrides}.items() if k not in dropped}
    # the reporting order is not part of the contract; the problems are
    return sorted(validate_config_dict(obj))


@pytest.mark.parametrize("overrides, dropped, expected", PROBLEM_TABLE)
def test_validation_problems_are_pinned(overrides, dropped, expected):
    assert _problems(overrides, dropped) == sorted(expected)


@pytest.mark.parametrize("overrides, dropped, expected", NEW_REJECTIONS)
def test_every_present_key_is_checked(overrides, dropped, expected):
    assert _problems(overrides, dropped) == sorted(expected)


def test_non_object_config():
    assert validate_config_dict([1]) == ["$: config must be a JSON object"]


def test_schema_docstring_quotes_every_key_once():
    # the module docstring states the schema by hand; each JSON member it
    # quotes must be a key the validator reads, and each such key quoted
    quoted = re.findall(r'(?:^|[{,])\s*"(\w+)":', subspace_net.config.__doc__,
                        flags=re.M)
    keys = ["schema_version"] + [
        f.metadata.get("key") or f.name
        for cls in (ExperimentConfig, DataConfig, TrainSection) for f in fields(cls)]
    assert Counter(quoted) == Counter(keys)


# a tiny config, and per key the values at the edge of what the schema
# accepts, with a few just past it
TINY = {"output_dir": "out", "seeds": [0],
        "data": {"kind": "planted", "n": 40, "d": 5, "t": 4, "r": 2, "sigma": 1.0},
        "train": {"rank": 2, "v_inner_steps": 2, "scale_steps": True},
        "depth": 2, "save_models": False, "save_traces": False}
EDGES = {
    "seeds": [[0], [-1], [1, 0], [2**64]],
    "data.kind": ["planted_deep", "planted_hetero", "csv"],
    "data.n": [0, 1, 2, 60],
    "data.d": [1, 6],
    "data.t": [1, 6],
    "data.r": [1, 6],
    "data.sigma": [0, 1e300],
    "data.sigma_set": [[1e-300], [0.5, 1e300]],
    "data.depth": [1, 2],
    "train.eta": [1e-300, 1e6],
    "train.mu": [1e-300, 1e6],
    "train.lambda": [0, 1e300],
    "train.rank": [1, 6],
    "train.v_inner_steps": [1, 3],
    "train.step_decay": [False],
    "train.step_offset": [1e-300, 1e300],
    "train.scale_steps": [False],
    "train.sigma": ["planted", 1e-300, 1e300],
    "train.sigma_scale": [1e-300, 1e300],
    "depth": [1],
    "calibrate": [True],
    "fractions": [[1e-9], [0.999999], [0.5, 0.5000001]],
    "ranks": [[1, 6], [7]],
    "include_baselines": [True],
    "save_models": [True],
    "save_traces": [True],
}


@st.composite
def edge_configs(draw):
    """TINY for one recipe, with up to three keys set to edge values."""
    cfg = json.loads(json.dumps(TINY))
    cfg["experiment"] = draw(st.sampled_from(EXPERIMENTS))
    for key in draw(st.lists(st.sampled_from(sorted(EDGES)), max_size=3, unique=True)):
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = draw(st.sampled_from(EDGES[key]))
    return cfg


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=edge_configs())
def test_a_config_that_validates_also_runs(tmp_path, capsys, cfg):
    # `ssn validate` promises that `ssn run` gets past the config: every
    # cell either runs or records a typed error, and nothing escapes
    fx, fy = tmp_path / "features.csv", tmp_path / "targets.csv"
    if cfg["data"]["kind"] == "csv":
        save_csv(gen_single_layer(40, 5, 4, 2, 1.0, seed=0)[0], fx, fy)
        cfg["data"].update(features_path=str(fx), targets_path=str(fy))
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    if main(["validate", str(path)]) != 0:
        assert capsys.readouterr().err.startswith(f"{path}: ")
        return
    assert capsys.readouterr().out == "OK\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overflow and saturation on edge values
        code = main(["run", str(path)])
    assert code in (0, 3)
    failed = ("error: every cell failed; see the status column of "
              f"{tmp_path / 'out' / 'results.csv'}\n")
    assert capsys.readouterr().err == ("" if code == 0 else failed)


class TestRun:
    def test_run_produces_artifacts(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "results.csv").exists()
        assert (out / "summary.json").exists()
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 seeds
        summary = json.loads((out / "summary.json").read_text())
        assert summary["groups"]

    def test_rerun_bit_identical_modulo_wall_clock(self, tmp_path):
        path = write_config(tmp_path, seeds=[0, 1, 2])
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"

        def strip_wall_clock(text):
            lines = text.strip().splitlines()
            header = lines[0].split(",")
            assert header[-1] == "wall_clock_s"
            return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

        first = strip_wall_clock((out / "results.csv").read_text())
        assert main(["run", str(path)]) == 0
        second = strip_wall_clock((out / "results.csv").read_text())
        assert first == second

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, depth=0)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}: $.depth: must be >= 1, got 0\n"

    def test_all_cells_failing_exit_3(self, tmp_path, capsys):
        # a divergent step size fails every cell numerically; the sweep
        # completes, records the failures, and signals exit 3
        import warnings
        path = write_config(
            tmp_path, seeds=[0, 1],
            train={"rank": 2, "eta": 1e6, "mu": 1e6, "scale_steps": False,
                   "step_decay": False})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # saturation precedes the blow-up
            assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: every cell failed; ")
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert all("error:" in row for row in rows[1:])

    def test_all_cells_failing_names_the_status_column(self, tmp_path, capsys):
        # exit 3 says on stderr where the per-cell failures are recorded
        import warnings
        path = write_config(
            tmp_path, seeds=[0],
            train={"rank": 2, "eta": 1e6, "mu": 1e6, "scale_steps": False,
                   "step_decay": False})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # saturation precedes the blow-up
            assert main(["run", str(path)]) == 3
        results = tmp_path / "out" / "results.csv"
        assert capsys.readouterr().err == (
            f"error: every cell failed; see the status column of {results}\n")
        with open(results, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"] == "error: layer 0: sketch update diverged at sample 1"

    def test_per_layer_anmse_table_shape(self, tmp_path):
        # rows are (seed, fraction) cells, columns anmse_l1..anmse_lK
        path = write_config(tmp_path, depth=3, fractions=[0.5, 0.7], seeds=[0])
        assert main(["run", str(path)]) == 0
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        for col in ("anmse_l1", "anmse_l2", "anmse_l3", "ridge_anmse",
                    "ridge_relu_anmse", "eta", "mu", "lambda", "rank"):
            assert col in header.split(",")
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + one row per fraction

    def test_csv_data_kind_end_to_end(self, tmp_path):
        data, _ = gen_single_layer(150, 8, 4, 2, 1.0, seed=31)
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        save_csv(data, fx, fy)
        path = write_config(
            tmp_path, seeds=[0],
            data={"kind": "csv", "features_path": str(fx), "targets_path": str(fy)})
        assert main(["run", str(path)]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert ",ok," in rows[1]

    def test_non_utf8_csv_fails_the_cell(self, tmp_path, capsys):
        # the data files are read once, before any cell: a malformed one is
        # an IO error of the run, not a numeric failure of every cell
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_bytes(b"x0,x1\n1,\xff\n")
        fy.write_text("s\n0\n")
        path = write_config(
            tmp_path, seeds=[0],
            data={"kind": "csv", "features_path": str(fx), "targets_path": str(fy)})
        assert main(["run", str(path)]) == 2
        assert "features.csv: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_csv_data_read_once_per_run(self, tmp_path, monkeypatch):
        from subspace_net import experiments
        data, _ = gen_single_layer(150, 8, 4, 2, 1.0, seed=31)
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        save_csv(data, fx, fy)
        calls = []

        def counting_load_csv(*args):
            calls.append(args)
            return load_csv(*args)

        monkeypatch.setattr(experiments, "load_csv", counting_load_csv)
        path = write_config(
            tmp_path, seeds=[0, 1],
            data={"kind": "csv", "features_path": str(fx), "targets_path": str(fy)})
        assert main(["run", str(path)]) == 0
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 3 and all(",ok," in row for row in rows[1:])
        assert calls == [(str(fx), str(fy))]

    def test_failed_artifact_write_leaves_no_temp_file(self, tmp_path, capsys):
        # results.csv cannot replace a directory of that name: the run is an
        # IO error, and the temp file written beside it is removed
        path = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "results.csv").mkdir(parents=True)
        assert main(["run", str(path)]) == 2
        assert "results.csv" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["results.csv"]
        assert (out / "results.csv").is_dir()

    def test_failed_model_write_fails_only_its_cell(self, tmp_path, capsys):
        # seed 0's model path is a directory, so its save fails: that cell
        # records the error beside the metrics it computed before the save,
        # seed 1 still runs and saves its model, the run's reports are
        # written, and the exit code and message are the IO error's
        path = write_config(
            tmp_path, experiment="single_layer_recovery", fractions=None,
            seeds=[0, 1], save_models=True,
            data={"kind": "planted", "n": 100, "d": 8, "t": 4, "r": 2, "sigma": 1.0})
        models = tmp_path / "out" / "models"
        (models / "seed0_all_rank2.ssnw").mkdir(parents=True)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "seed0_all_rank2.ssnw" in err[0]
        out = tmp_path / "out"
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["seed"] for row in rows] == ["0", "1"]
        assert rows[0]["status"].startswith("error: ")
        assert "seed0_all_rank2.ssnw" in rows[0]["status"]
        for column in ("samples_seen", "weight_corr_median", "max_coherence",
                       "mean_coherence"):
            assert rows[0][column] != "", column
        assert rows[0]["samples_seen"] == "100"
        assert rows[1]["status"] == "ok"
        assert (models / "seed1_all_rank2.ssnw").is_file()
        assert (models / "seed0_all_rank2.ssnw").is_dir()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["groups"]

    @pytest.mark.parametrize("experiment, written", [
        ("calibration_study", ["results.csv", "summary.json"]),
        ("depth_sweep", ["models", "results.csv", "summary.json"]),
    ])
    def test_run_makes_only_the_directories_it_writes_into(
            self, tmp_path, experiment, written):
        # neither recipe returns traces, and calibration_study no model
        path = write_config(tmp_path, experiment=experiment, seeds=[0],
                            save_models=True, save_traces=True)
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == written
        if "models" in written:
            assert [p.name for p in (out / "models").iterdir()] == ["seed0_f0.5_rank2.ssnw"]

    def test_cells_name_their_artifacts_by_their_exact_fraction(self, tmp_path):
        # the two fractions print alike with :g; each cell keeps its own model
        path = write_config(tmp_path, seeds=[0], fractions=[0.5, 0.5000001],
                            save_models=True)
        assert main(["run", str(path)]) == 0
        assert sorted(p.name for p in (tmp_path / "out" / "models").iterdir()) == [
            "seed0_f0.5000001_rank2.ssnw", "seed0_f0.5_rank2.ssnw"]

    @pytest.mark.parametrize("sigma_set", [[0.5, 3.0], [1.0]])
    def test_sigma_rank_agreement_is_the_pairwise_count(self, tmp_path, monkeypatch,
                                                        sigma_set):
        # reference: the loop over the task pairs of unequal planted noise
        # and the scales calibration estimates from layer 0, the first
        # calibrate_sigma call of the run
        seen = {}

        def keep(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                seen.setdefault(name, result)
                return result
            monkeypatch.setattr(module, name, wrapper)

        keep(experiments, "gen_heteroscedastic")
        keep(network, "calibrate_sigma")
        path = write_config(tmp_path, experiment="calibration_study", seeds=[0],
                            data={"kind": "planted_hetero", "n": 200, "d": 8, "t": 6,
                                  "r": 2, "sigma_set": sigma_set})
        assert main(["run", str(path)]) == 0
        truth, sigma = seen["gen_heteroscedastic"][1].sigma, seen["calibrate_sigma"].sigma
        pairs = [(a, b) for a in range(6) for b in range(a + 1, 6) if truth[a] != truth[b]]
        agree = sum((sigma[a] - sigma[b]) * (truth[a] - truth[b]) > 0 for a, b in pairs)
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert float(row["sigma_rank_agreement"]) == (agree / len(pairs) if pairs else 1.0)
        assert bool(pairs) == (len(sigma_set) > 1)

    def test_calibration_study_trains_layer_0_once(self, tmp_path, monkeypatch):
        # both arms grow from one layer 0, so a depth-3 cell trains 5 layers
        trained, nets = [], []
        train_layer, forward = network.train_layer, experiments.forward_batch

        def counted(*args, **kwargs):
            trained.append(args)
            return train_layer(*args, **kwargs)

        def kept(net, x_mat):
            nets.append(net)
            return forward(net, x_mat)
        monkeypatch.setattr(network, "train_layer", counted)
        monkeypatch.setattr(experiments, "forward_batch", kept)
        path = write_config(tmp_path, experiment="calibration_study", seeds=[0], depth=3,
                            data={"kind": "planted_hetero", "n": 200, "d": 8, "t": 6,
                                  "r": 2, "sigma_set": [0.5, 3.0]})
        assert main(["run", str(path)]) == 0
        assert len(trained) == 5
        uncalibrated, calibrated = nets
        assert uncalibrated.depth == calibrated.depth == 3
        assert calibrated.layers[0] is uncalibrated.layers[0]

    def test_summary_covers_the_float_columns_recipes_write(self, tmp_path):
        # integer counts, config copies and the wall clock are not metrics
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        (group,) = json.loads((tmp_path / "out" / "summary.json").read_text())["groups"]
        assert sorted(group["metrics"]) == ["anmse", "anmse_l1", "anmse_l2",
                                            "ridge_anmse", "ridge_relu_anmse"]

    def test_summary_leaves_out_a_metric_a_group_lacks(self, tmp_path):
        # only the cells whose rank is the planted rank are probed
        path = write_config(
            tmp_path, experiment="single_layer_recovery", seeds=[0], ranks=[2, 3],
            data={"kind": "planted", "n": 100, "d": 8, "t": 4, "r": 3, "sigma": 1.0})
        assert main(["run", str(path)]) == 0
        groups = json.loads((tmp_path / "out" / "summary.json").read_text())["groups"]
        probed = {g["rank"]: "subspace_diff_final" in g["metrics"] for g in groups}
        assert probed == {2: False, 3: True}

    def test_models_path_that_is_a_file_fails_each_cell(self, tmp_path, capsys):
        # every cell computes its metrics, then fails to make models/; the
        # run still writes its reports and exits with the IO error
        path = write_config(tmp_path, seeds=[0, 1], save_models=True)
        out = tmp_path / "out"
        out.mkdir()
        (out / "models").write_text("")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "models" in err[0]
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["seed"] for row in rows] == ["0", "1"]
        for row in rows:
            assert row["status"].startswith("error: ") and "models" in row["status"]
            assert row["anmse"] != ""
        assert json.loads((out / "summary.json").read_text()) == {"groups": []}
        assert (out / "models").read_text() == ""

    def test_numeric_sigma_policy_is_installed(self, tmp_path):
        path = write_config(tmp_path, seeds=[0], save_models=True,
                            train={"rank": 2, "v_inner_steps": 2, "sigma": 2.5})
        assert main(["run", str(path)]) == 0
        out = tmp_path / "out"
        with open(out / "results.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["sigma_policy"] == "2.5"
        net = load_model(out / "models" / "seed0_f0.5_rank2.ssnw")
        for layer in net.layers:
            assert np.all(layer.sigma == 2.5)

    def test_failed_cell_keeps_the_columns_filled_before_the_failure(self, tmp_path, capsys):
        # task 3 is censored in every sample, so the validation ANMSE of
        # every cell is undefined; what the cell trained is still reported
        data, _ = gen_single_layer(150, 8, 4, 2, 1.0, seed=32)
        data.Y[:, 3] = 0.0
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        save_csv(data, fx, fy)
        path = write_config(
            tmp_path, seeds=[0],
            data={"kind": "csv", "features_path": str(fx), "targets_path": str(fy)})
        assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: every cell failed; see the status column of "
            f"{tmp_path / 'out' / 'results.csv'}\n")
        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["status"].startswith("error: ")
        assert "zero-variance" in row["status"]
        assert row["samples_seen"] == "75"
        assert int(row["trained_depth"]) >= 1
        assert "anmse" not in row

    def test_artifacts_take_the_umask_mode(self, tmp_path):
        # artifacts go through a private temp file, but end up with the mode
        # that a plain open() gives under the current umask
        path = write_config(tmp_path, seeds=[0], save_models=True)
        old = os.umask(0o027)
        try:
            assert main(["run", str(path)]) == 0
        finally:
            os.umask(old)
        out = tmp_path / "out"
        for artifact in (out / "results.csv", out / "models" / "seed0_f0.5_rank2.ssnw"):
            assert stat.S_IMODE(artifact.stat().st_mode) == 0o640, artifact

    def test_csv_kind_requires_paths(self, tmp_path, capsys):
        path = write_config(tmp_path, data={"kind": "csv"})
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "features_path" in err and "targets_path" in err

    def test_traces_written_for_recovery(self, tmp_path, monkeypatch):
        # iterwise_diff is each basis step's norm over the planted basis norm
        from subspace_net import experiments
        returned = {}

        def keep(name):
            original = getattr(experiments, name)

            def wrapped(*args, **kwargs):
                returned[name] = original(*args, **kwargs)
                return returned[name]
            monkeypatch.setattr(experiments, name, wrapped)

        keep("gen_single_layer")
        keep("train_layer")
        cfg_path = write_config(
            tmp_path, experiment="single_layer_recovery", fractions=None,
            save_traces=True, seeds=[0],
            data={"kind": "planted", "n": 100, "d": 8, "t": 4, "r": 2, "sigma": 1.0})
        assert main(["run", str(cfg_path)]) == 0
        trace = tmp_path / "out" / "traces" / "seed0_all_rank2" / "layer0.csv"
        header = trace.read_text().splitlines()[0]
        assert header == "i,cost,iterwise_diff,subspace_diff,subspace_diff_raw"
        with open(trace, newline="") as fh:
            written = [float(row["iterwise_diff"]) for row in csv.DictReader(fh)]
        (_, truth), (_, log) = returned["gen_single_layer"], returned["train_layer"]
        assert written == (log.du_norms / np.linalg.norm(truth.us[0])).tolist()


@pytest.mark.parametrize("probe", [False, True])
def test_trace_csv_bytes_are_those_of_csv_writer(probe):
    # oracle: the per-cell csv.writer rows over 17-significant-digit cells
    costs = np.array([1.5, -0.0, math.nan, 1e-300, 123456789.123456789])
    du = np.array([0.1, math.inf, 0.0, 2.0 / 3.0, 5e-324])
    diffs = np.array([0.5, 1.0 / 3.0, math.nan, 1e17, 0.25]) if probe else None
    trace = TraceLog(costs=costs, du_norms=du,
                     subspace_diffs=diffs,
                     subspace_diffs_raw=None if diffs is None else 2 * diffs)
    def cell(v):
        return f"{float(v):.17g}"

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "cost", "iterwise_diff", "subspace_diff", "subspace_diff_raw"])
    for j in range(5):
        writer.writerow([j + 1, cell(costs[j]), cell(du[j]),
                         cell(diffs[j]) if probe else "",
                         cell(2 * diffs[j]) if probe else ""])
    assert _trace_csv(trace) == buf.getvalue()


class TestPredict:
    def test_predict_round_trip(self, tmp_path):
        cfg_path = write_config(
            tmp_path, experiment="single_layer_recovery", fractions=None,
            seeds=[0], save_models=True,
            data={"kind": "planted", "n": 100, "d": 8, "t": 4, "r": 2, "sigma": 1.0})
        assert main(["run", str(cfg_path)]) == 0
        model = tmp_path / "out" / "models" / "seed0_all_rank2.ssnw"
        assert model.exists()
        data, _ = gen_single_layer(10, 8, 4, 2, 1.0, seed=5)
        fx = tmp_path / "feat.csv"
        fy = tmp_path / "targ.csv"
        save_csv(data, fx, fy)
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11
        preds = np.array([[float(v) for v in line.split(",")]
                          for line in lines[1:]])
        assert preds.shape == (10, 4)
        assert np.all(preds >= 0)

    def test_written_files_load_without_the_cell_rules(self, tmp_path, monkeypatch):
        # save_csv and ssn predict write plain files, which numpy reads in one
        # call; a fallback to the record walk would give the same values,
        # only slowly, so the cell rules are made to fail here
        rng = np.random.default_rng(7)
        net = SubspaceNetwork(layers=[SubspaceLayer(
            U=rng.standard_normal((4, 2)), V=rng.standard_normal((2, 8)),
            sigma=np.ones(4))])
        save_model(net, tmp_path / "m.ssnw")
        data, _ = gen_single_layer(30, 8, 4, 2, 1.0, seed=5)
        data.Y[0, 0] = -0.0
        fx, fy, out = tmp_path / "feat.csv", tmp_path / "targ.csv", tmp_path / "p.csv"
        save_csv(data, fx, fy)
        assert main(["predict", "--model", str(tmp_path / "m.ssnw"),
                     "--features", str(fx), "--out", str(out)]) == 0

        def no_cell_rules(*args):
            raise AssertionError("a written file went to the cell rules")

        monkeypatch.setattr(subspace_net.data, "_cell_values", no_cell_rules)
        back = load_csv(fx, fy)
        assert back.X.tobytes() == data.X.tobytes()
        assert back.Y.tobytes() == data.Y.tobytes()
        _, preds = subspace_net.data.parse_numeric_csv(out, nonnegative=True)
        assert preds.tobytes() == forward_batch(net, data.X).tobytes()

    def test_predict_dimension_mismatch(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, experiment="single_layer_recovery", fractions=None,
            seeds=[0], save_models=True,
            data={"kind": "planted", "n": 60, "d": 8, "t": 4, "r": 2, "sigma": 1.0})
        assert main(["run", str(cfg_path)]) == 0
        model = tmp_path / "out" / "models" / "seed0_all_rank2.ssnw"
        data, _ = gen_single_layer(5, 3, 2, 1, 1.0, seed=6)
        fx = tmp_path / "bad.csv"
        save_csv(data, fx, tmp_path / "unused.csv")
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: model expects 8 features, {fx} has 3\n"

    def test_predict_invalid_model_structure_exit_2(self, tmp_path, capsys):
        from test_network import write_invalid_model
        model = tmp_path / "model.ssnw"
        write_invalid_model(model, "zero_depth")
        data, _ = gen_single_layer(5, 4, 3, 1, 1.0, seed=6)
        fx = tmp_path / "feat.csv"
        save_csv(data, fx, tmp_path / "unused.csv")
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {model}: invalid model structure: a network needs at least one layer\n")

    def test_predict_naive_model_exit_2(self, tmp_path, capsys):
        from test_network import write_naive_model
        model = tmp_path / "model.ssnw"
        write_naive_model(model, t=3, d=4)
        data, _ = gen_single_layer(5, 4, 3, 1, 1.0, seed=6)
        fx = tmp_path / "feat.csv"
        save_csv(data, fx, tmp_path / "unused.csv")
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: {model}: unknown skip mode byte 1\n"
        assert not (tmp_path / "p.csv").exists()

    def test_predict_non_utf8_features_exit_2(self, tmp_path, capsys):
        from test_network import make_net
        model = tmp_path / "model.ssnw"
        save_model(make_net(np.random.default_rng(7), depth=1, t=2, d=2), model)
        fx = tmp_path / "feat.csv"
        fx.write_bytes(b"x0,x1\n1,\xff\n")
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(tmp_path / "p.csv")]) == 2
        assert "feat.csv: not UTF-8 text" in capsys.readouterr().err

    def test_predict_missing_model(self, tmp_path, capsys):
        assert main(["predict", "--model", str(tmp_path / "no.ssnw"),
                     "--features", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{tmp_path / 'no.ssnw'}'\n")


class TestThreadPool:
    def test_threaded_run_matches_sequential(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, seeds=[0, 1, 2])
        assert main(["run", str(path)]) == 0
        seq = (tmp_path / "out" / "results.csv").read_text()
        monkeypatch.setenv("SSN_THREADS", "3")
        assert main(["run", str(path)]) == 0
        par = (tmp_path / "out" / "results.csv").read_text()

        def strip(text):
            lines = text.strip().splitlines()
            return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

        assert strip(seq) == strip(par)


IMPORT_CONTRACT = """
import sys
import numpy as np
import subspace_net
from subspace_net import cli, config, data, experiments, layer, network

config_path, model, features, out = sys.argv[1:]
assert cli.main(["validate", config_path]) == 0
net = network.SubspaceNetwork(layers=[layer.SubspaceLayer(
    U=np.ones((2, 1)), V=np.ones((1, 3)), sigma=np.ones(2))])
network.save_model(net, model)
with open(features, "w") as fh:
    fh.write("a,b,c\\n1,2,3\\n4,5,6\\n")
# `import numpy` loads bz2 and lzma itself (through shutil), but not gzip
compressors = {"gzip", "bz2", "lzma"}
before = compressors & set(sys.modules)
assert "gzip" not in before, before
assert cli.main(["predict", "--model", model, "--features", features,
                 "--out", out]) == 0
loaded = [m for m in sys.modules if m.startswith("scipy")]
assert loaded == [], loaded
assert compressors & set(sys.modules) == before, sys.modules.keys() & compressors

train, _ = data.gen_single_layer(5, 3, 2, 1, 1.0, seed=0)
layer.train_layer(train, layer.TrainConfig(rank=1, v_inner_steps=1))
assert "scipy.special" in sys.modules
subspace_net.fit_ridge(train, 1.0)
assert "scipy.linalg" not in sys.modules
"""


def test_validate_and_predict_never_import_scipy(tmp_path):
    # importing the package, `ssn validate` and `ssn predict` run no SciPy
    # routine, so they must not pay for loading it; training loads only
    # scipy.special (the censored kernels), and the ridge baselines none.
    # `ssn predict` reads no compressed file, so it loads no decompressor
    src = os.path.dirname(os.path.dirname(os.path.abspath(subspace_net.__file__)))
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "configs", "depth_sweep.json")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CONTRACT, config, str(tmp_path / "m.ssnw"),
         str(tmp_path / "f.csv"), str(tmp_path / "p.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "OK\n"
    assert (tmp_path / "p.csv").read_text().count("\n") == 3

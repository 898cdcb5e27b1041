"""Tests for config validation and the command-line workflows."""

import csv
import json
import math
import os
import stat

import numpy as np
import pytest

from subspace_net.cli import main
from subspace_net.config import load_config, validate_config_dict
from subspace_net.data import gen_single_layer, load_csv, save_csv
from subspace_net.errors import ConfigError
from subspace_net.network import save_model


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

    def test_out_of_range_fraction(self, tmp_path, capsys):
        path = write_config(tmp_path, fractions=[1.5])
        assert main(["validate", str(path)]) == 1
        assert "fractions[0]" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": }')
        assert main(["validate", str(path)]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

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
    ({}, ("seeds",), ["$.seeds: required nonempty list of integers"]),
    ({}, ("experiment", "output_dir", "seeds"),
     [f"$.experiment: must be one of {EXPERIMENTS}",
      "$.output_dir: required nonempty string",
      "$.seeds: required nonempty list of integers"]),
    ({"experiment": "nope"}, (), [f"$.experiment: must be one of {EXPERIMENTS}"]),
    ({"output_dir": ""}, (), ["$.output_dir: required nonempty string"]),
    ({"output_dir": 7}, (), ["$.output_dir: required nonempty string"]),
    ({"seeds": []}, (), ["$.seeds: required nonempty list of integers"]),
    ({"seeds": [1.5]}, (), ["$.seeds: required nonempty list of integers"]),
    ({"seeds": [True]}, (), ["$.seeds: required nonempty list of integers"]),
    ({"seeds": 3}, (), ["$.seeds: required nonempty list of integers"]),
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
    ({"pred_scale": 0}, (), ["$.pred_scale: must be > 0.0, got 0"]),
    ({"ridge_lambda": -1}, (), ["$.ridge_lambda: must be >= 0.0, got -1"]),
    ({"ridge_lambda": 0}, (), []),
    # choice and boolean keys
    ({"skip_mode": "deep"}, (), ["$.skip_mode: must be 'concat' or 'naive'"]),
    ({"residual_set": "some"}, (), ["$.residual_set: must be 'all' or 'uncensored'"]),
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
    ({"ranks": []}, (), ["$.ranks: must be a nonempty list of positive integers"]),
    ({"ranks": [0]}, (), ["$.ranks: must be a nonempty list of positive integers"]),
    ({"ranks": [2.0]}, (), ["$.ranks: must be a nonempty list of positive integers"]),
    ({"ranks": [True]}, (), ["$.ranks: must be a nonempty list of positive integers"]),
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
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [0.5, 0]}}, (),
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [True]}}, (),
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": 2.0}}, (),
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "y.csv"}}, (), []),
    ({"data": {"kind": "csv"}}, (),
     ["data.features_path: required string for csv data",
      "data.targets_path: required string for csv data"]),
    ({"data": {"kind": "csv", "features_path": 5, "targets_path": None}}, (),
     ["data.features_path: required string for csv data",
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
    ({"train": {"init_scale": 0.0}}, (), ["train.init_scale: must be > 0.0, got 0.0"]),
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
      "$.seeds: required nonempty list of integers",
      "data.apple: unknown key", "data.n: must be >= 1, got 0",
      "train.cherry: unknown key", "train.rank: must be >= 1, got 0",
      "$.depth: must be >= 1, got 0"]),
]

# keys that apply to one data kind only are checked whatever the kind
NEW_REJECTIONS = [
    ({"data": {"kind": "planted", "sigma_set": 5}}, (),
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": None}}, (),
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
    ({"data": {"kind": "planted", "depth": 0}}, (),
     ["data.depth: must be >= 1, got 0"]),
    ({"data": {"kind": "csv", "features_path": "x.csv", "targets_path": "y.csv",
               "n": "many"}}, (),
     ["data.n: must be a number, got str"]),
    ({"data": {"kind": "planted", "features_path": 5}}, (),
     ["data.features_path: required string for csv data"]),
    # json parses NaN and Infinity; no numeric key accepts them
    ({"train": {"eta": math.nan, "mu": math.inf}, "ridge_lambda": math.nan,
      "data": {"sigma": math.inf}}, (),
     ["train.eta: must be finite, got nan", "train.mu: must be finite, got inf",
      "$.ridge_lambda: must be finite, got nan",
      "data.sigma: must be finite, got inf"]),
    ({"depth": -math.inf, "pred_scale": math.nan}, (),
     ["$.depth: must be finite, got -inf", "$.pred_scale: must be finite, got nan"]),
    ({"train": {"lambda": math.nan, "init_scale": math.inf,
                "step_offset": math.nan, "sigma_scale": math.inf}}, (),
     ["train.lambda: must be finite, got nan",
      "train.init_scale: must be finite, got inf",
      "train.step_offset: must be finite, got nan",
      "train.sigma_scale: must be finite, got inf"]),
    ({"train": {"sigma": math.inf}}, (),
     ["train.sigma: must be a positive number or one of ('scaled', 'planted')"]),
    ({"data": {"kind": "planted_hetero", "sigma_set": [0.5, math.inf]}}, (),
     ["data.sigma_set: must be a nonempty list of positive numbers"]),
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
        path = write_config(tmp_path)
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

    def test_invalid_config_exit_1(self, tmp_path):
        path = write_config(tmp_path, depth=0)
        assert main(["run", str(path)]) == 1

    def test_all_cells_failing_exit_3(self, tmp_path):
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
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert all("error:" in row for row in rows[1:])

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

    def test_failed_model_write_fails_only_its_cell(self, tmp_path):
        # seed 0's model path is a directory, so its save fails: that cell
        # records the error, seed 1 still runs and saves its model, the
        # run's reports are written, and the exit code is the IO error's
        path = write_config(
            tmp_path, experiment="single_layer_recovery", fractions=None,
            seeds=[0, 1], save_models=True,
            data={"kind": "planted", "n": 100, "d": 8, "t": 4, "r": 2, "sigma": 1.0})
        models = tmp_path / "out" / "models"
        (models / "seed0_all_rank2.ssnw").mkdir(parents=True)
        assert main(["run", str(path)]) == 2
        out = tmp_path / "out"
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["seed"] for row in rows] == ["0", "1"]
        assert rows[0]["status"].startswith("error: ")
        assert "seed0_all_rank2.ssnw" in rows[0]["status"]
        assert rows[1]["status"] == "ok"
        assert (models / "seed1_all_rank2.ssnw").is_file()
        assert (models / "seed0_all_rank2.ssnw").is_dir()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["groups"]

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

    def test_traces_written_for_recovery(self, tmp_path):
        cfg_path = write_config(
            tmp_path, experiment="single_layer_recovery", fractions=None,
            save_traces=True, seeds=[0],
            data={"kind": "planted", "n": 100, "d": 8, "t": 4, "r": 2, "sigma": 1.0})
        assert main(["run", str(cfg_path)]) == 0
        trace = tmp_path / "out" / "traces" / "seed0_all_rank2" / "layer0.csv"
        assert trace.exists()
        header = trace.read_text().splitlines()[0]
        assert header == "i,cost,iterwise_diff,subspace_diff,subspace_diff_raw"


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

    def test_predict_dimension_mismatch(self, tmp_path):
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

    def test_predict_invalid_model_structure_exit_2(self, tmp_path):
        from test_network import write_invalid_model
        model = tmp_path / "model.ssnw"
        write_invalid_model(model, "zero_depth")
        data, _ = gen_single_layer(5, 4, 3, 1, 1.0, seed=6)
        fx = tmp_path / "feat.csv"
        save_csv(data, fx, tmp_path / "unused.csv")
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(tmp_path / "p.csv")]) == 2

    def test_predict_non_utf8_features_exit_2(self, tmp_path, capsys):
        from test_network import make_net
        model = tmp_path / "model.ssnw"
        save_model(make_net(np.random.default_rng(7), depth=1, t=2, d=2), model)
        fx = tmp_path / "feat.csv"
        fx.write_bytes(b"x0,x1\n1,\xff\n")
        assert main(["predict", "--model", str(model),
                     "--features", str(fx), "--out", str(tmp_path / "p.csv")]) == 2
        assert "feat.csv: not UTF-8 text" in capsys.readouterr().err

    def test_predict_missing_model(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "no.ssnw"),
                     "--features", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "p.csv")]) == 2


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

"""Every shipped config in `configs/` validates and runs end to end at a
reduced size, and a rerun reproduces its artifacts byte for byte.

A reduced N can leave a validation split with a fully censored task; such a
cell records a typed error in its ``status`` (``depth_sweep`` seed 1 does),
so only one ``ok`` row per run is required.
"""

import csv
import glob
import json
import os

import pytest

from subspace_net.cli import main
from subspace_net.config import load_config

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def shipped(recipe):
    """The shipped config ``configs/<recipe>.json``."""
    return load_config(os.path.join(CONFIG_DIR, f"{recipe}.json"))


def _artifacts(out_dir) -> dict:
    """Every file a run wrote, results.csv without its wall-clock column."""
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir)] = fh.read()
    with open(os.path.join(out_dir, "results.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wall_clock_s"
    files["results.csv"] = [row[:-1] for row in rows]
    return files


def test_configs_cover_every_recipe():
    from subspace_net.experiments import _RECIPES
    loaded = []
    for path in CONFIGS:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    assert {cfg["experiment"] for cfg in loaded} == set(_RECIPES)
    assert any(cfg["train"].get("sigma") == "planted" for cfg in loaded)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: os.path.basename(p)[:-len(".json")])
def test_shipped_config_runs_and_reruns_identically(path, tmp_path, capsys):
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["data"]["n"] = 200
    cfg["seeds"] = [0, 1]
    cfg["output_dir"] = str(tmp_path / "out")
    small = tmp_path / "config.json"
    small.write_text(json.dumps(cfg))

    assert main(["run", str(small)]) == 0
    first = _artifacts(tmp_path / "out")
    statuses = [row[first["results.csv"][0].index("status")]
                for row in first["results.csv"][1:]]
    assert "ok" in statuses
    assert main(["run", str(small)]) == 0
    assert _artifacts(tmp_path / "out") == first

"""The benchmark's three workloads (see README.md for why each exists).

A workload is built from the run seed and a size preset, set up (possibly
several times, to time set-up), then run round by round. One round is one
user-visible job: an ``ssn run`` of the workload's config for the training
workloads, and one bulk ``ssn predict`` plus a burst of small requests and
model loads for serving. Each round checks its own outputs after its timer
stops and returns a `Round`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

now = time.perf_counter

# Per-preset sizes. "ref" is what the benchmark measures; "tiny" is the
# smallest size at which every correctness gate still holds (self-test).
SIZES = {
    "ref": {
        "train_n": 100, "recovery_n": 1000,
        "sweep_n": 1000,
        "serve_rows": 500, "serve_requests": 500, "serve_batch": 8,
        "serve_loads": 10,
        "model_loads": 5,
    },
    "tiny": {
        "train_n": 30, "recovery_n": 600,
        "sweep_n": 300,
        "serve_rows": 40, "serve_requests": 40, "serve_batch": 4,
        "serve_loads": 3,
        "model_loads": 2,
    },
}

WARMUP_N = 20

# configs/single_layer_recovery.json at the paper's reference shape
TRAIN_REF_CONFIG = {
    "experiment": "single_layer_recovery",
    "data": {"kind": "planted", "d": 200, "t": 100, "r": 10, "sigma": 3.0},
    "train": {"eta": 0.0002, "mu": 0.002, "lambda": 0.001, "rank": 10,
              "v_inner_steps": 32, "step_decay": True, "step_offset": 500,
              "scale_steps": False, "sigma": "planted"},
    "depth": 1,
    "save_models": True,
    "save_traces": True,
}

# configs/depth_sweep.json, on planted_deep data handed over as CSV, capped at
# depth 3 (see README.md: at depth 10 the guard stops anywhere from layer 2
# to 10, so the work per cell varies fivefold with the seed)
SWEEP_DATA = {"d": 50, "t": 20, "r": 5, "sigma": 1.0, "depth": 2}
SWEEP_FRACTION = 0.5
SWEEP_CONFIG = {
    "experiment": "depth_sweep",
    "train": {"eta": 1.74e-5, "mu": 1.74e-4, "lambda": 0.001, "rank": 5,
              "v_inner_steps": 8, "step_decay": True, "step_offset": 500,
              "scale_steps": True, "sigma": "scaled", "sigma_scale": 0.1},
    "depth": 3,
    "fractions": [SWEEP_FRACTION],
    "calibrate": False,
    "include_baselines": True,
    "save_models": True,
    "save_traces": False,
}
# every task keeps at least this share of positive targets, so that no
# validation split has a constant task (ANMSE is undefined there)
SWEEP_MIN_POSITIVE = 0.1

# serving: a depth-4 concat network at the reference shape
SERVE_SHAPE = {"d": 200, "t": 100, "r": 10, "depth": 4}


@dataclass
class Round:
    """What one round did and how long it took."""

    wall_s: float                 # the timed job
    work: float                   # samples x layers trained, or rows predicted
    work_s: float                 # time the work took (part of wall_s)
    op_s: list[float]             # per-operation times: cells or requests
    load_s: list[float]           # load_model times
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: list[float] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    layers_trained: int = 0
    samples_trained: int = 0      # summed over the trained layers

    def fail(self, message: str, count: int = 1):
        self.failed += count
        self.problems.append(message)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _as_float(text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _timed_loads(api, path, count: int, out: Round):
    nets = []
    for _ in range(count):
        start = now()
        nets.append(api.load_model(path))
        out.load_s.append(now() - start)
    return nets


class Workload:
    name = ""
    # sketch steps per sample, from which the traced run derives the exact
    # censored-kernel call counts
    inner_steps = 0

    def __init__(self, sn, api, tmp: str, seed: int, size: str, workers: int):
        self.sn = sn
        self.api = api
        self.tmp = tmp
        self.seed = seed
        self.size = SIZES[size]
        self.workers = workers
        self._dirs = 0

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{stem}{self._dirs}")
        os.makedirs(path)
        return path

    def _run_config(self, obj: dict, stem: str):
        """Write a config and run it the way ``ssn run`` does; return the
        output directory, the exit code and the wall time."""
        out_dir = self.fresh_dir(stem)
        obj = dict(obj, output_dir=out_dir)
        path = os.path.join(out_dir, "config.json")
        _write_json(path, obj)
        start = now()
        code = self.api.run_experiment(self.api.load_config(path))
        return out_dir, code, now() - start

    def setup(self) -> Round | None:
        """Prepare the inputs of the rounds; a set-up that runs the program
        returns what that run did, so that it is checked and counted."""
        raise NotImplementedError

    def round(self, r: int) -> Round:
        """Run and check round ``r``; its inputs depend on the seed and r."""
        raise NotImplementedError

    def final_check(self) -> Round | None:
        """An untimed extra check after the timed rounds, if any."""
        return None

    def close(self):
        pass


class TrainRef(Workload):
    """single_layer_recovery cells at the paper's reference shape."""

    name = "train_ref"
    inner_steps = TRAIN_REF_CONFIG["train"]["v_inner_steps"]

    def _config(self, n: int, seed: int) -> dict:
        cfg = json.loads(json.dumps(TRAIN_REF_CONFIG))
        cfg["data"]["n"] = n
        cfg["seeds"] = [seed]
        return cfg

    def setup(self) -> Round:
        # a short warm-up cell, so lazy imports and first-call costs are paid
        # before the timed rounds
        return self._cell(self.seed * 1000 + 998, WARMUP_N, recovery=False)

    def round(self, r: int) -> Round:
        return self._cell(self.seed * 1000 + r, self.size["train_n"], recovery=False)

    def final_check(self) -> Round:
        """One untimed cell long enough for the recovery rules to hold."""
        return self._cell(self.seed * 1000 + 999, self.size["recovery_n"], recovery=True)

    def _cell(self, seed: int, n: int, recovery: bool) -> Round:
        out_dir, code, wall = self._run_config(self._config(n, seed), "train")
        out = Round(wall_s=wall, work=float(n), work_s=wall, op_s=[],
                    load_s=[], attempted=1, layers_trained=1, samples_trained=n)
        if code != 0:
            out.fail(f"run exited with {code}")
            return out
        rows = _read_rows(os.path.join(out_dir, "results.csv"))
        out.rows = rows
        row = rows[0]
        out.op_s.append(_as_float(row["wall_clock_s"]))
        problems = self._check(out_dir, row, n, recovery, out)
        if problems:
            out.fail(f"cell seed {seed}: " + "; ".join(problems))
        return out

    def _check(self, out_dir, row, n, recovery, out: Round) -> list[str]:
        """The criterion-2 rules: one pass and finite factors for every
        cell; a falling subspace-difference moving average and a median
        weight correlation above 0.9 once the pass is long enough."""
        if row["status"] != "ok":
            return [f"status {row['status']!r}"]
        problems = []
        if int(row["samples_seen"]) != n:
            problems.append(f"samples_seen {row['samples_seen']} != {n}")
        stem = f"seed{row['seed']}_all_rank{row['rank']}"
        nets = _timed_loads(self.api, os.path.join(out_dir, "models", f"{stem}.ssnw"),
                            self.size["model_loads"], out)
        layer = nets[0].layers[0]
        if not (np.isfinite(layer.U).all() and np.isfinite(layer.V).all()):
            problems.append("trained U or V is not finite")
        final = _as_float(row["subspace_diff_final"])
        out.quality.append(final)
        if not math.isfinite(final):
            problems.append("subspace_diff_final is not finite")
        if not recovery:
            return problems
        if not _as_float(row["weight_corr_median"]) > 0.9:
            problems.append(f"weight_corr_median {row['weight_corr_median']} <= 0.9")
        trace = _read_rows(os.path.join(out_dir, "traces", stem, "layer0.csv"))
        diffs = np.array([_as_float(t["subspace_diff"]) for t in trace])
        window = max(1, n // 10)
        if len(diffs) != n or not np.isfinite(diffs).all():
            problems.append("trace has missing or non-finite subspace_diff")
        elif not diffs[-window:].mean() < diffs[:window].mean():
            problems.append("subspace-difference moving average did not fall")
        return problems


class SweepDeep(Workload):
    """A depth_sweep run of several cells on planted deep data."""

    name = "sweep_deep"
    inner_steps = SWEEP_CONFIG["train"]["v_inner_steps"]

    def __init__(self, *args):
        super().__init__(*args)
        n = self.size["sweep_n"]
        self.n = n
        self.n_train = int(math.floor(SWEEP_FRACTION * n))
        self.cells = max(2, self.workers)
        self.saved: list[tuple[str, object]] = []
        experiments = self.sn.experiments
        original = experiments.save_model

        # keeps each trained network, so the round can check that the saved
        # file reproduces it
        def save_and_keep(net, path):
            original(net, path)
            self.saved.append((os.fspath(path), net))

        experiments.save_model = save_and_keep
        self._restore = lambda: setattr(experiments, "save_model", original)

    def close(self):
        self._restore()

    def setup(self) -> None:
        """Generate planted deep data from the seed, redrawing any draw in
        which a task has too few positive targets, and write it as CSV."""
        d = SWEEP_DATA
        for draw in range(100):
            data, _ = self.api.gen_deep(self.n, d["d"], d["t"], d["r"], d["sigma"],
                                        d["depth"], seed=self.seed * 100 + draw)
            if (data.Y > 0).mean(axis=0).min() >= SWEEP_MIN_POSITIVE:
                break
        else:
            raise RuntimeError("no usable planted draw in 100 tries")
        self.X = data.X
        data_dir = self.fresh_dir("data")
        self.features = os.path.join(data_dir, "features.csv")
        self.targets = os.path.join(data_dir, "targets.csv")
        self.sn.data.save_csv(data, self.features, self.targets)

    def round(self, r: int) -> Round:
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg["data"] = {"kind": "csv", "features_path": self.features,
                       "targets_path": self.targets}
        cfg["seeds"] = [self.seed * 1000 + r * self.cells + j
                        for j in range(self.cells)]
        self.saved = []
        out_dir, code, wall = self._run_config(cfg, "sweep")
        out = Round(wall_s=wall, work=0.0, work_s=wall, op_s=[], load_s=[],
                    attempted=self.cells)
        if code != 0:
            out.fail(f"run exited with {code}", self.cells)
            return out
        rows = _read_rows(os.path.join(out_dir, "results.csv"))
        out.rows = rows
        depth = cfg["depth"]
        for row in rows:
            out.op_s.append(_as_float(row["wall_clock_s"]))
            if row["status"] != "ok":
                out.fail(f"cell seed {row['seed']}: status {row['status']!r}")
                continue
            value = _as_float(row["anmse"])
            out.quality.append(value)
            if not math.isfinite(value):
                out.fail(f"cell seed {row['seed']}: ANMSE is not finite")
                continue
            accepted = int(row["trained_depth"])
            # the guard stops at the first rejected layer, which was trained
            trained = accepted + (1 if accepted < depth else 0)
            out.layers_trained += trained
            out.samples_trained += self.n_train * trained
            out.work += self.n_train * trained
        if len(self.saved) != len(rows):
            out.fail(f"{len(self.saved)} models saved for {len(rows)} cells")
        for path, net in self.saved:
            loaded = _timed_loads(self.api, path, self.size["model_loads"], out)[0]
            if not np.array_equal(self.api.forward_batch(loaded, self.X),
                                  self.api.forward_batch(net, self.X)):
                out.fail(f"{os.path.basename(path)} does not reproduce its network")
        return out


class ServePredict(Workload):
    """Prediction from a fixed depth-4 network: bulk CSV, small requests,
    model loads. Nothing is trained."""

    name = "serve_predict"

    def setup(self):
        s = SERVE_SHAPE
        network = self.sn.network
        rng = np.random.default_rng(self.seed)
        layers = []
        for k in range(s["depth"]):
            d_in = s["d"] if k == 0 else s["t"] + s["d"]
            layers.append(self.sn.layer.SubspaceLayer(
                U=rng.normal(0.0, 1.0 / math.sqrt(s["r"]), size=(s["t"], s["r"])),
                V=rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(s["r"], d_in)),
                sigma=np.ones(s["t"]), lam=1e-3))
        net = network.SubspaceNetwork(layers=layers, skip_mode="concat")
        self.X = rng.standard_normal((self.size["serve_rows"], s["d"]))
        work_dir = self.fresh_dir("serve")
        self.model = os.path.join(work_dir, "model.ssnw")
        self.api.save_model(net, self.model)
        self.features = os.path.join(work_dir, "features.csv")
        with open(self.features, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j}" for j in range(s["d"])])
            for row in self.X:
                writer.writerow([f"{v:.17g}" for v in row])
        self.net = net
        self.served = self.api.load_model(self.model)
        self.expected = self.api.forward_batch(net, self.X)
        self.predictions = os.path.join(work_dir, "predictions.csv")

    def round(self, r: int) -> Round:
        size = self.size
        rows, batch = size["serve_rows"], size["serve_batch"]
        argv = ["predict", "--model", self.model, "--features", self.features,
                "--out", self.predictions]
        start = now()
        code = self.api.cli_main(argv)
        bulk = now() - start
        out = Round(wall_s=0.0, work=float(rows), work_s=bulk, op_s=[],
                    load_s=[], attempted=1 + size["serve_requests"] + size["serve_loads"])
        answers, loaded = [], []
        forward_batch, served = self.api.forward_batch, self.served
        load_every = max(1, size["serve_requests"] // size["serve_loads"])
        for i in range(size["serve_requests"]):
            first = (i * batch) % (rows - batch + 1)
            x = self.X[first:first + batch]
            t0 = now()
            answers.append((first, forward_batch(served, x)))
            out.op_s.append(now() - t0)
            # loads are spread over the requests, so that they are timed
            # under the same conditions
            if i % load_every == 0 and len(loaded) < size["serve_loads"]:
                loaded += _timed_loads(self.api, self.model, 1, out)
        out.wall_s = now() - start
        self._check(code, answers, loaded, out)
        return out

    def _check(self, code, answers, loaded, out: Round):
        if code != 0:
            out.fail(f"ssn predict exited with {code}")
        else:
            got = np.loadtxt(self.predictions, delimiter=",", skiprows=1, ndmin=2)
            if not np.array_equal(got, self.expected):
                out.fail("ssn predict CSV differs from forward_batch")
        for first, answer in answers:
            want = self.expected[first:first + answer.shape[0]]
            if answer.shape != want.shape or not np.allclose(answer, want, rtol=1e-12, atol=1e-12):
                out.fail(f"request at row {first} differs from the bulk result")
        for net in loaded:
            if not all(np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
                       for a, b in zip(net.layers, self.net.layers)):
                out.fail("loaded model differs from the saved network")


WORKLOADS = {w.name: w for w in (TrainRef, SweepDeep, ServePredict)}

"""Experiment recipes: dataset preparation, per-cell execution, and report
files (results.csv, summary.json, traces, model files).

A run evaluates a grid of cells (seed x fraction x rank as configured) one
after another, in sorted order. Recipes compute and the driver writes: a
recipe fills the cell's results row and returns the network to save (all
but ``calibration_study``) and the traces to write (the two recovery
recipes), and `_write_cell` writes them atomically as the config asks,
making ``traces/`` and ``models/`` only when it writes into them. A numeric
failure in one cell, or a failed write of one of its artifacts, is recorded
in its ``status`` column without aborting the sweep.

Every random stream of a cell derives from the cell seed and a tag (0 the
generator, 1 training, 2 the random coherence reference, 3 the train/valid
split), so no two of them alias.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import fit_ridge, predict_baseline
from .config import ExperimentConfig, TrainSection
from .data import (
    Dataset,
    PlantedTruth,
    _atomic_write,
    _sub_seed,
    gen_deep,
    gen_heteroscedastic,
    gen_single_layer,
    load_csv,
    split,
)
from .errors import SubspaceNetError
from .layer import TrainConfig, train_layer
from .metrics import anmse, mutual_coherence, weight_correlations
from .network import (
    SubspaceNetwork,
    expand,
    forward_batch,
    save_model,
)

# Reference target spread at which the default step sizes were tuned. With
# train.scale_steps on, eta and mu scale with the target RMS and the init
# scale is max(1, sqrt(rms / REFERENCE_TARGET_RMS)), so training behaves
# identically on targets of any spread at or above this reference only.
REFERENCE_TARGET_RMS = 11.5
# regularization of the ridge baselines of `depth_sweep`
RIDGE_LAMBDA = 1.0


@dataclass
class Cell:
    seed: int
    fraction: float | None
    rank: int


def _make_data(cfg: ExperimentConfig, data_seed: int):
    """A planted dataset and its truth, drawn from ``data_seed``."""
    d = cfg.data
    if d.kind == "planted":
        return gen_single_layer(d.n, d.d, d.t, d.r, d.sigma, seed=data_seed)
    if d.kind == "planted_deep":
        return gen_deep(d.n, d.d, d.t, d.r, d.sigma, d.depth, seed=data_seed)
    return gen_heteroscedastic(d.n, d.d, d.t, d.r, d.sigma_set, seed=data_seed)


def _train_policy(tr: TrainSection, rank: int, seed: int, targets: np.ndarray,
                  truth: PlantedTruth | None) -> tuple[TrainConfig, float | np.ndarray]:
    """The recipes' training config and likelihood noise scale for a cell
    that trains on ``targets`` of a plant with ``truth`` (None for csv data,
    which the config keeps from the "planted" policy)."""
    target_rms = float(np.sqrt(np.mean(targets ** 2)))
    scale = target_rms if tr.scale_steps else 1.0
    init = max(1.0, math.sqrt(scale / REFERENCE_TARGET_RMS))
    tc = TrainConfig(eta=tr.eta * scale, mu=tr.mu * scale, lam=tr.lam, rank=rank,
                     v_inner_steps=tr.v_inner_steps, seed=seed, init_scale=init,
                     step_decay=tr.step_decay, step_offset=tr.step_offset)
    if tr.sigma == "scaled":
        return tc, tr.sigma_scale * target_rms
    return tc, truth.sigma if tr.sigma == "planted" else float(tr.sigma)


def _base_row(cfg: ExperimentConfig, cell: Cell) -> dict:
    d, tr = cfg.data, cfg.train
    row = {
        "experiment": cfg.experiment, "seed": cell.seed,
        "fraction": "" if cell.fraction is None else cell.fraction,
        "rank": cell.rank, "depth": cfg.depth,
        "data_kind": d.kind,
    }
    if d.kind == "csv":
        row["data_source"] = f"{d.features_path};{d.targets_path}"
    else:
        row.update(n=d.n, d=d.d, t=d.t, r_true=d.r,
                   sigma_true=(d.sigma if d.kind != "planted_hetero"
                               else repr(list(d.sigma_set))),
                   gen_depth=d.depth if d.kind == "planted_deep" else 1)
    row.update({
        "eta": tr.eta, "mu": tr.mu, "lambda": tr.lam,
        "v_inner_steps": tr.v_inner_steps,
        "step_decay": tr.step_decay, "step_offset": tr.step_offset,
        "scale_steps": tr.scale_steps, "sigma_policy": str(tr.sigma),
        "sigma_scale": tr.sigma_scale, "calibrate": cfg.calibrate,
        "status": "ok",
    })
    return row


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _trace_csv(trace) -> str:
    """The trace as the bytes `csv.writer` gives over ``_fmt`` cells, each
    row one ``%`` format; the probe columns are empty without a probe."""
    cols = [np.arange(1, len(trace) + 1), trace.costs, trace.du_norms]
    line = "%d,%.17g,%.17g"
    for diffs in (trace.subspace_diffs, trace.subspace_diffs_raw):
        line += ",%.17g" if diffs is not None else ","
        cols += [] if diffs is None else [diffs]
    line += "\r\n"
    return ("i,cost,iterwise_diff,subspace_diff,subspace_diff_raw\r\n"
            + "".join(line % row for row in zip(*(c.tolist() for c in cols))))


def _setup(cfg: ExperimentConfig, cell: Cell, csv_data: Dataset | None):
    """The preamble of every recipe: the planted truth (None for csv data),
    the training and validation data (the full dataset and None unless the
    cell has a train fraction), and the `_train_policy` of the training
    data. ``csv_data`` is the run's loaded csv dataset, or None to draw the
    cell's planted data."""
    data, truth = ((csv_data, None) if csv_data is not None
                   else _make_data(cfg, _sub_seed(cell.seed, 0)))
    train, valid = data, None
    if cell.fraction is not None:
        train, valid = split(data, cell.fraction, seed=_sub_seed(cell.seed, 3))
    return (truth, train, valid,
            *_train_policy(cfg.train, cell.rank, _sub_seed(cell.seed, 1), train.Y, truth))


def _run_single_layer_recovery(cfg: ExperimentConfig, cell: Cell, csv_data, row: dict):
    truth, data, _, tc, sigma = _setup(cfg, cell, csv_data)
    probe = truth.us[0] if (truth is not None and cell.rank == cfg.data.r) else None
    layer, trace = train_layer(data, tc, probe=probe, sigma=sigma)
    row["samples_seen"] = len(trace)
    if truth is not None:
        w_hat, w_true = layer.U @ layer.V, truth.us[0] @ truth.vs[0]
        row["weight_corr_median"] = float(np.median(weight_correlations(w_hat, w_true)))
        coh = mutual_coherence(layer.U, truth.us[0])
        row["max_coherence"] = coh.max_coherence
        row["mean_coherence"] = coh.mean_coherence
        if probe is not None:
            row["subspace_diff_final"] = float(trace.subspace_diffs[-1])
            row["subspace_diff_raw_final"] = float(trace.subspace_diffs_raw[-1])
        # the trace reports basis steps relative to the planted basis
        trace = replace(trace, du_norms=trace.du_norms / np.linalg.norm(truth.us[0]))
    return SubspaceNetwork(layers=[layer]), [trace]


def _run_deep_recovery(cfg: ExperimentConfig, cell: Cell, csv_data, row: dict):
    truth, data, _, tc, sigma = _setup(cfg, cell, csv_data)
    net, traces = expand(data, cfg.depth, tc, calibrate=cfg.calibrate, sigma=sigma)
    row["trained_depth"] = net.depth
    if truth is not None:
        # the output-side planted basis structures every greedy layer's tasks
        ref = truth.us[-1]
        rand = np.random.default_rng(_sub_seed(cell.seed, 2)).standard_normal(ref.shape)
        row["random_max_coherence"] = mutual_coherence(rand, ref).max_coherence
        for k, layer in enumerate(net.layers):
            coh = mutual_coherence(layer.U, ref)
            row[f"max_coherence_l{k + 1}"] = coh.max_coherence
            row[f"mean_coherence_l{k + 1}"] = coh.mean_coherence
    return net, traces


def _anmse_curve(net, valid, depth: int) -> list[float]:
    return [anmse(valid.Y, forward_batch(SubspaceNetwork(net.layers[:k]), valid.X))
            for k in range(1, depth + 1)]


def _run_depth_sweep(cfg: ExperimentConfig, cell: Cell, csv_data, row: dict):
    _, train, valid, tc, sigma = _setup(cfg, cell, csv_data)
    net, traces = expand(train, cfg.depth, tc, calibrate=cfg.calibrate, sigma=sigma)
    row["trained_depth"] = net.depth
    row["samples_seen"] = len(traces[0])
    curve = _anmse_curve(net, valid, cfg.depth)
    for k, value in enumerate(curve, start=1):
        row[f"anmse_l{k}"] = value
    row["anmse"] = curve[-1]
    if cfg.include_baselines:
        model = fit_ridge(train, RIDGE_LAMBDA)
        row["ridge_anmse"] = anmse(valid.Y, predict_baseline(model, valid.X, censor=False))
        row["ridge_relu_anmse"] = anmse(valid.Y, predict_baseline(model, valid.X, censor=True))
    return net, []


def _run_calibration_study(cfg: ExperimentConfig, cell: Cell, csv_data, row: dict):
    truth, train, valid, tc, sigma = _setup(cfg, cell, csv_data)
    nets = {calibrate: expand(train, cfg.depth, tc, calibrate=calibrate, sigma=sigma,
                              stop_on_degrade=False)[0]
            for calibrate in (False, True)}
    row["anmse_noncalibrated"] = anmse(valid.Y, forward_batch(nets[False], valid.X))
    row["anmse_calibrated"] = anmse(valid.Y, forward_batch(nets[True], valid.X))
    if truth is not None:
        # the share of task pairs of unequal planted noise that the scales
        # calibrated from layer 0 order the same way; a pair of equal
        # noise has gap 0, so it never agrees
        sigma_hat = nets[True].layers[1].sigma
        a, b = np.triu_indices(train.t, k=1)
        gap = truth.sigma[a] - truth.sigma[b]
        agree = np.count_nonzero((sigma_hat[a] - sigma_hat[b]) * gap > 0)
        total = np.count_nonzero(gap)
        row["sigma_rank_agreement"] = agree / total if total else 1.0
    return None, []


# Each recipe fills the cell's row in place and returns (network or None, traces).
_RECIPES = {
    "single_layer_recovery": _run_single_layer_recovery,
    "deep_recovery": _run_deep_recovery,
    "depth_sweep": _run_depth_sweep,
    "calibration_study": _run_calibration_study,
}


def _cells(cfg: ExperimentConfig) -> list[Cell]:
    # recovery recipes train on the full dataset; fractions only apply to
    # the split-and-evaluate recipes
    if cfg.experiment in ("depth_sweep", "calibration_study"):
        fractions = cfg.fractions if cfg.fractions else [0.8]
    else:
        fractions = [None]
    ranks = cfg.ranks if cfg.ranks else [cfg.train.rank]
    return [Cell(seed=s, fraction=f, rank=r) for s in sorted(cfg.seeds)
            for f in sorted(fractions) for r in sorted(ranks)]


def _write_cell(cfg: ExperimentConfig, cell: Cell, net, traces):
    """Write ``traces/<cell>/layer<k>.csv`` and ``models/<cell>.ssnw`` as
    the config asks, making each directory when first writing into it."""
    frac = "all" if cell.fraction is None else f"f{cell.fraction!r}"
    stem = f"seed{cell.seed}_{frac}_rank{cell.rank}"
    if cfg.save_traces and traces:
        trace_dir = os.path.join(cfg.output_dir, "traces", stem)
        os.makedirs(trace_dir, exist_ok=True)
        for k, trace in enumerate(traces):
            _atomic_write(os.path.join(trace_dir, f"layer{k}.csv"),
                          _trace_csv(trace).encode("utf-8"))
    if cfg.save_models and net is not None:
        model_dir = os.path.join(cfg.output_dir, "models")
        os.makedirs(model_dir, exist_ok=True)
        save_model(net, os.path.join(model_dir, f"{stem}.ssnw"))


def _run_cell(cfg: ExperimentConfig, cell: Cell,
              csv_data: Dataset | None) -> tuple[dict, OSError | None]:
    """The cell's results row, and the error of a failed write of one of its
    artifacts, if any. The recipe fills the row as it goes; a numeric
    failure or a failed artifact write keeps the columns filled before it
    and is recorded in the row's ``status``."""
    start = time.perf_counter()
    row, write_error = _base_row(cfg, cell), None
    try:
        _write_cell(cfg, cell, *_RECIPES[cfg.experiment](cfg, cell, csv_data, row))
    except (SubspaceNetError, OSError) as exc:
        row["status"] = f"error: {exc}"
        if isinstance(exc, OSError):
            write_error = exc
    row["wall_clock_s"] = time.perf_counter() - start
    return row, write_error


def _write_results(path, rows: list[dict]):
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    # wall clock last so determinism checks can strip a single trailing column
    if "wall_clock_s" in columns:
        columns.remove("wall_clock_s")
        columns.append("wall_clock_s")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) if c in row else "" for c in columns])
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _summarize(rows: list[dict], base_columns) -> dict:
    """Medians and standard deviations over seeds of every float column a
    recipe wrote, grouped by (fraction, rank). ``base_columns`` are the
    `_base_row` columns, which like the wall clock are not metrics."""
    skip = {*base_columns, "wall_clock_s"}
    metric_keys = sorted({key for row in rows for key, val in row.items()
                          if isinstance(val, float) and key not in skip})
    groups = {}
    for row in rows:
        if row.get("status") != "ok":
            continue
        groups.setdefault((row.get("fraction"), row.get("rank")), []).append(row)
    summary = []
    for (fraction, rank), members in sorted(groups.items(), key=lambda kv: str(kv[0])):
        stats = {}
        for key in metric_keys:
            vals = [m[key] for m in members if key in m]
            if not vals:
                continue
            stats[key] = {
                "median": float(np.median(vals)),
                "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                "n": len(vals),
            }
        summary.append({"fraction": fraction, "rank": rank, "metrics": stats})
    return {"groups": summary}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute every cell, write artifacts, and return an exit code: 0 on
    success (even with partial cell failures), 3 if every cell failed
    numerically. csv data is read once, before any cell or artifact: a
    malformed file raises `ParseError` and an unreadable one `OSError`. A
    failed write of a cell's artifact fails only that cell; once every cell
    ran and the reports are written, the first such error is raised."""
    d = cfg.data
    csv_data = load_csv(d.features_path, d.targets_path) if d.kind == "csv" else None
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows, first_write_error, cells = [], None, _cells(cfg)
    for cell in cells:
        row, write_error = _run_cell(cfg, cell, csv_data)
        rows.append(row)
        first_write_error = first_write_error or write_error
    _write_results(os.path.join(cfg.output_dir, "results.csv"), rows)
    summary = _summarize(rows, _base_row(cfg, cells[0]))
    _atomic_write(os.path.join(cfg.output_dir, "summary.json"),
                  (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    if first_write_error is not None:
        raise first_write_error
    if all(row["status"] != "ok" for row in rows):
        return 3
    return 0

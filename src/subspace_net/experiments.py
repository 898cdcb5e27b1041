"""Experiment recipes: dataset preparation, per-cell execution, and report
files (results.csv, summary.json, traces, model files).

A run evaluates a grid of cells (seed x fraction x rank as configured) one
after another, in sorted order. Cells are independent and write their
artifacts atomically. A numeric failure in one cell, or a failed write of
one of its artifacts, is recorded in its ``status`` column without aborting
the sweep.

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
from dataclasses import dataclass

import numpy as np

from .baselines import fit_ridge, predict_baseline
from .config import ExperimentConfig
from .data import (
    Dataset,
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
    calibrate_sigma,
    expand,
    forward_batch,
    save_model,
)

# Reference target spread at which the default step sizes were tuned; with
# train.scale_steps on, eta/mu/init_scale are adjusted so training behaves
# identically on targets of any magnitude.
REFERENCE_TARGET_RMS = 11.5


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


def _train_config(cfg: ExperimentConfig, rank: int, seed: int,
                  target_rms: float) -> TrainConfig:
    tr = cfg.train
    if tr.scale_steps:
        scale = target_rms
        init = tr.init_scale * max(1.0, math.sqrt(target_rms / REFERENCE_TARGET_RMS))
    else:
        scale = 1.0
        init = tr.init_scale
    return TrainConfig(eta=tr.eta * scale, mu=tr.mu * scale, lam=tr.lam,
                       rank=rank, v_inner_steps=tr.v_inner_steps, seed=seed,
                       init_scale=init, step_decay=tr.step_decay,
                       step_offset=tr.step_offset)


def _resolve_sigma(cfg: ExperimentConfig, truth, target_rms: float):
    policy = cfg.train.sigma
    if policy == "scaled":
        return cfg.train.sigma_scale * target_rms
    if policy == "planted":
        if truth is None:
            raise SubspaceNetError(
                "train.sigma='planted' requires a planted generator")
        return truth.sigma
    return float(policy)


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
        "v_inner_steps": tr.v_inner_steps, "init_scale": tr.init_scale,
        "step_decay": tr.step_decay, "step_offset": tr.step_offset,
        "scale_steps": tr.scale_steps, "sigma_policy": str(tr.sigma),
        "sigma_scale": tr.sigma_scale, "skip_mode": cfg.skip_mode,
        "pred_scale": cfg.pred_scale, "calibrate": cfg.calibrate,
        "residual_set": cfg.residual_set, "ridge_lambda": cfg.ridge_lambda,
        "status": "ok",
    })
    return row


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _trace_csv(trace, ref_norm: float | None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "cost", "iterwise_diff", "subspace_diff",
                     "subspace_diff_raw"])
    for j in range(len(trace)):
        du = trace.du_norms[j]
        writer.writerow([
            int(trace.iterations[j]) + 1,
            _fmt(float(trace.costs[j])),
            _fmt(float(du / ref_norm) if ref_norm else float(du)),
            _fmt(float(trace.subspace_diffs[j])) if trace.subspace_diffs is not None else "",
            _fmt(float(trace.subspace_diffs_raw[j])) if trace.subspace_diffs_raw is not None else "",
        ])
    return buf.getvalue()


def _cell_paths(cfg: ExperimentConfig, cell: Cell):
    frac = "all" if cell.fraction is None else f"f{cell.fraction:g}"
    stem = f"seed{cell.seed}_{frac}_rank{cell.rank}"
    return (os.path.join(cfg.output_dir, "traces", stem),
            os.path.join(cfg.output_dir, "models", f"{stem}.ssnw"))


def _setup(cfg: ExperimentConfig, cell: Cell, csv_data: Dataset | None):
    """The preamble of every recipe: the cell's base row, the planted truth
    (None for csv data), the training and validation data (the full dataset
    and None unless the cell has a train fraction), the training config and
    the likelihood noise scale. Both of the last scale with the target RMS
    of the training data where the config asks for it. ``csv_data`` is the
    run's loaded csv dataset, or None to draw the cell's planted data."""
    row = _base_row(cfg, cell)
    data, truth = ((csv_data, None) if csv_data is not None
                   else _make_data(cfg, _sub_seed(cell.seed, 0)))
    train, valid = data, None
    if cell.fraction is not None:
        train, valid = split(data, cell.fraction, seed=_sub_seed(cell.seed, 3))
    target_rms = float(np.sqrt(np.mean(train.Y ** 2)))
    tc = _train_config(cfg, cell.rank, _sub_seed(cell.seed, 1), target_rms)
    return row, truth, train, valid, tc, _resolve_sigma(cfg, truth, target_rms)


def _expand(cfg: ExperimentConfig, train, tc: TrainConfig, sigma, **overrides):
    """`expand` to the configured depth with the configured network settings;
    ``overrides`` replace any of them."""
    settings = dict(calibrate=cfg.calibrate, skip_mode=cfg.skip_mode, sigma=sigma,
                    residual_set=cfg.residual_set, pred_scale=cfg.pred_scale)
    return expand(train, cfg.depth, tc, **{**settings, **overrides})


def _run_single_layer_recovery(cfg: ExperimentConfig, cell: Cell, csv_data) -> dict:
    row, truth, data, _, tc, sigma = _setup(cfg, cell, csv_data)
    probe = truth.us[0] if (truth is not None and cell.rank == cfg.data.r) else None
    layer, trace = train_layer(data, tc, probe=probe, sigma=sigma)
    row["samples_seen"] = trace.samples_seen
    if truth is not None:
        w_hat = layer.U @ layer.V
        w_true = truth.weights(0)
        row["weight_corr_median"] = float(np.median(weight_correlations(w_hat, w_true)))
        coh = mutual_coherence(layer.U, truth.us[0])
        row["max_coherence"] = coh.max_coherence
        row["mean_coherence"] = coh.mean_coherence
        if probe is not None:
            row["subspace_diff_final"] = float(trace.subspace_diffs[-1])
            row["subspace_diff_raw_final"] = float(trace.subspace_diffs_raw[-1])
    trace_dir, model_path = _cell_paths(cfg, cell)
    if cfg.save_traces:
        os.makedirs(trace_dir, exist_ok=True)
        ref = float(np.linalg.norm(truth.us[0])) if truth is not None else None
        _atomic_write(os.path.join(trace_dir, "layer0.csv"),
                      _trace_csv(trace, ref).encode("utf-8"))
    if cfg.save_models:
        net = SubspaceNetwork(layers=[layer], skip_mode=cfg.skip_mode)
        save_model(net, model_path)
    return row


def _run_deep_recovery(cfg: ExperimentConfig, cell: Cell, csv_data) -> dict:
    row, truth, data, _, tc, sigma = _setup(cfg, cell, csv_data)
    net, traces = _expand(cfg, data, tc, sigma)
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
    trace_dir, model_path = _cell_paths(cfg, cell)
    if cfg.save_traces:
        os.makedirs(trace_dir, exist_ok=True)
        for k, trace in enumerate(traces):
            _atomic_write(os.path.join(trace_dir, f"layer{k}.csv"),
                          _trace_csv(trace, None).encode("utf-8"))
    if cfg.save_models:
        save_model(net, model_path)
    return row


def _anmse_curve(net, valid, depth: int) -> list[float]:
    return [anmse(valid.Y, forward_batch(net, valid.X, upto=min(k, net.depth)))
            for k in range(1, depth + 1)]


def _run_depth_sweep(cfg: ExperimentConfig, cell: Cell, csv_data) -> dict:
    row, _, train, valid, tc, sigma = _setup(cfg, cell, csv_data)
    net, traces = _expand(cfg, train, tc, sigma)
    row["trained_depth"] = net.depth
    row["samples_seen"] = traces[0].samples_seen
    curve = _anmse_curve(net, valid, cfg.depth)
    for k, value in enumerate(curve, start=1):
        row[f"anmse_l{k}"] = value
    row["anmse"] = curve[-1]
    if cfg.include_baselines:
        model = fit_ridge(train, cfg.ridge_lambda)
        row["ridge_anmse"] = anmse(valid.Y, predict_baseline(model, valid.X, censor=False))
        row["ridge_relu_anmse"] = anmse(valid.Y, predict_baseline(model, valid.X, censor=True))
    _, model_path = _cell_paths(cfg, cell)
    if cfg.save_models:
        save_model(net, model_path)
    return row


def _run_calibration_study(cfg: ExperimentConfig, cell: Cell, csv_data) -> dict:
    row, truth, train, valid, tc, sigma = _setup(cfg, cell, csv_data)
    nets = {calibrate: _expand(cfg, train, tc, sigma, calibrate=calibrate,
                               stop_on_degrade=False)[0]
            for calibrate in (False, True)}
    row["anmse_noncalibrated"] = anmse(valid.Y, forward_batch(nets[False], valid.X))
    row["anmse_calibrated"] = anmse(valid.Y, forward_batch(nets[True], valid.X))
    # layer 0 of an expansion is the layer `train_layer` returns
    report = calibrate_sigma(nets[True].layers[0], train, residual_set=cfg.residual_set)
    if truth is not None:
        agree = total = 0
        for a in range(train.t):
            for b in range(a + 1, train.t):
                if truth.sigma[a] == truth.sigma[b]:
                    continue
                total += 1
                if ((report.sigma[a] - report.sigma[b])
                        * (truth.sigma[a] - truth.sigma[b])) > 0:
                    agree += 1
        row["sigma_rank_agreement"] = agree / total if total else 1.0
    return row


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


def _run_cell(cfg: ExperimentConfig, cell: Cell,
              csv_data: Dataset | None) -> tuple[dict, bool]:
    """The cell's results row, and whether writing one of its artifacts
    failed. A numeric failure or a failed artifact write is recorded in the
    row's ``status``."""
    start = time.perf_counter()
    write_failed = False
    try:
        row = _RECIPES[cfg.experiment](cfg, cell, csv_data)
    except (SubspaceNetError, OSError) as exc:
        row = _base_row(cfg, cell)
        row["status"] = f"error: {exc}"
        write_failed = isinstance(exc, OSError)
    row["wall_clock_s"] = time.perf_counter() - start
    return row, write_failed


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


def _summarize(rows: list[dict]) -> dict:
    """Medians and standard deviations over seeds, grouped by (fraction, rank)."""
    metric_keys = sorted({
        key for row in rows for key, val in row.items()
        if isinstance(val, (int, float)) and not isinstance(val, bool)
        and (key.startswith(("anmse", "subspace", "weight", "ridge",
                             "sigma_rank", "max_coherence", "mean_coherence"))
             or key == "random_max_coherence")})
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
    success (even with partial cell failures), 2 if writing a cell's
    artifact failed, 3 if every cell failed numerically. csv data is read
    once, before any cell or artifact: a malformed file raises `ParseError`
    and an unreadable one `OSError`."""
    d = cfg.data
    csv_data = load_csv(d.features_path, d.targets_path) if d.kind == "csv" else None
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.save_traces:
        os.makedirs(os.path.join(cfg.output_dir, "traces"), exist_ok=True)
    if cfg.save_models:
        os.makedirs(os.path.join(cfg.output_dir, "models"), exist_ok=True)
    rows, write_failed = [], False
    for cell in _cells(cfg):
        row, failed = _run_cell(cfg, cell, csv_data)
        rows.append(row)
        write_failed |= failed
    _write_results(os.path.join(cfg.output_dir, "results.csv"), rows)
    _atomic_write(os.path.join(cfg.output_dir, "summary.json"),
                  (json.dumps(_summarize(rows), indent=2, sort_keys=True) + "\n")
                  .encode("utf-8"))
    if write_failed:
        return 2
    if all(row["status"] != "ok" for row in rows):
        return 3
    return 0

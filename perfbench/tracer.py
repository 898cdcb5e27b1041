"""Span tracer that times the package's modules from outside.

Every public function one package module imports from another is replaced,
at the attribute of the importing module, by a wrapper that records a span:
its name, start, end, the span that caused it and a size taken from its
arguments or result. Calls inside one module are not spans, so a module's
self time is the time its code ran between calls into other modules. The
benchmark's own calls into the package go through `Api`, which is wrapped
the same way.

Spans are kept in memory, then summarised and written out when the traced
run ends. Nothing is wrapped unless `Tracer.install` is called.
"""

from __future__ import annotations

import csv
import os
import threading
import time

import numpy as np

# (importing module, attribute, span name). The prefix of a span name is the
# module that defines the wrapped function.
CROSS_MODULE_CALLS = [
    ("layer", "censored_nll_array", "censored.nll"),
    ("layer", "grad_mu_censored_nll_array", "censored.grad"),
    ("layer", "aligned_subspace_difference", "metrics.aligned"),
    ("layer", "subspace_difference", "metrics.raw"),
    ("network", "train_layer", "layer.train"),
    ("network", "predict_batch", "layer.predict_batch"),
    ("experiments", "train_layer", "layer.train"),
    ("experiments", "anmse", "metrics.anmse"),
    ("experiments", "mutual_coherence", "metrics.coherence"),
    ("experiments", "weight_correlations", "metrics.weight_corr"),
    ("experiments", "expand", "network.expand"),
    ("experiments", "forward_batch", "network.forward_batch"),
    ("experiments", "save_model", "network.save_model"),
    ("experiments", "gen_single_layer", "data.gen"),
    ("experiments", "gen_deep", "data.gen"),
    ("experiments", "split", "data.split"),
    ("experiments", "load_csv", "data.parse_csv"),
    ("experiments", "fit_ridge", "baselines.fit_ridge"),
    ("experiments", "predict_baseline", "baselines.predict"),
    ("cli", "parse_numeric_csv", "data.parse_csv"),
    ("cli", "forward_batch", "network.forward_batch"),
    ("cli", "load_model", "network.load_model"),
]

# span names of the entry points the benchmark itself calls (see `Api`)
API_SPANS = {
    "run_experiment": "experiments.run_experiment",
    "cli_main": "cli.main",
    "forward_batch": "network.forward_batch",
    "load_model": "network.load_model",
    "save_model": "network.save_model",
    "gen_deep": "data.gen",
}


def _file_size(path) -> int:
    return os.path.getsize(path)


def _train_shape(args, kwargs, result):
    data, cfg = args[0], args[1]
    return (data.n, data.d, data.t, cfg.rank, cfg.v_inner_steps)


def _forward_rows(args, kwargs, result):
    return int(np.shape(args[1])[0])


def _accepted_depth(args, kwargs, result):
    return result[0].depth


def _saved_bytes(args, kwargs, result):
    return _file_size(args[1])


def _loaded_bytes(args, kwargs, result):
    return _file_size(args[0])


def _parsed_csv(args, kwargs, result):
    if hasattr(result, "X"):  # load_csv: a features file and a targets file
        return (2 * result.n, _file_size(args[0]) + _file_size(args[1]))
    return (int(result[1].shape[0]), _file_size(args[0]))


# span name -> size recorded with each span
_SIZES = {
    "layer.train": _train_shape,
    "network.forward_batch": _forward_rows,
    "network.expand": _accepted_depth,
    "network.save_model": _saved_bytes,
    "network.load_model": _loaded_bytes,
    "data.parse_csv": _parsed_csv,
}


class Api:
    """The package entry points the benchmark calls, as one patchable table."""

    def __init__(self, sn):
        self.run_experiment = sn.experiments.run_experiment
        self.cli_main = sn.cli.main
        self.forward_batch = sn.network.forward_batch
        self.load_model = sn.network.load_model
        self.save_model = sn.network.save_model
        self.gen_deep = sn.data.gen_deep
        self.load_config = sn.config.load_config


class Tracer:
    """Records one span per wrapped call. Spans are lists
    ``[name, start, end, parent index, size]``; a span opened on a thread
    with no open span of its own (a worker of the cell pool) takes the main
    thread's innermost open span as its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        size_of = _SIZES.get(name)
        spans, lock, now = self.spans, self._lock, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            span = [name, 0.0, 0.0, parent, None]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self, sn, api: Api):
        for module, attr, name in CROSS_MODULE_CALLS:
            self._patch(getattr(sn, module), attr, name)
        for attr, name in API_SPANS.items():
            self._patch(api, attr, name)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "size"])
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent,
                                 "" if size is None else size])

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of its interval covered by
        the union of its children (children may overlap when cells run on
        several threads)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out


def _flops_per_sample(d, t, r, k) -> int:
    """Multiply-adds of one training sample, counted from the array shapes:
    the cost probe (V x, U V x), k sketch steps (V x, U V x, U' g, the outer
    product, shrinkage and update of V) and the basis refinement (V x, U v,
    the outer product, shrinkage and update of U, the step norm). Work inside
    the elementwise censored kernels is not counted."""
    return (2 * r * d + 2 * t * r) + k * (6 * r * d + 4 * t * r) + (2 * r * d + 9 * t * r)


def _bytes_per_sample(d, t, r, k) -> int:
    """Float64 bytes of the factor matrices read or written per training
    sample, one pass over a matrix per matrix operation, from the array
    shapes; vectors are not counted."""
    return 8 * ((r * d + t * r) + k * (3 * r * d + 2 * t * r) + (r * d + 4 * t * r))


# name -> (unit, better), in report order
PER_LAYER = {
    "censored.nll_calls": ("count", "lower"),
    "censored.grad_calls": ("count", "lower"),
    "censored.nll_us_per_call": ("us", "lower"),
    "censored.grad_us_per_call": ("us", "lower"),
    "censored.self_s": ("s", "lower"),
    "layer.train_calls": ("count", "lower"),
    "layer.samples": ("count", "lower"),
    "layer.train_s": ("s", "lower"),
    "layer.self_s": ("s", "lower"),
    "layer.us_per_sample": ("us", "lower"),
    "layer.flops_per_sample_computed": ("flop", "lower"),
    "layer.bytes_per_sample_computed": ("B", "lower"),
    "layer.predict_batch_calls": ("count", "lower"),
    "layer.predict_batch_s": ("s", "lower"),
    "metrics.aligned_calls": ("count", "lower"),
    "metrics.aligned_s": ("s", "lower"),
    "metrics.anmse_s": ("s", "lower"),
    "network.expand_s": ("s", "lower"),
    "network.expand_self_s": ("s", "lower"),
    "network.layers_trained": ("count", "lower"),
    "network.layers_accepted": ("count", "higher"),
    "network.guard_accept_ratio": ("ratio", "higher"),
    "network.forward_batch_rows": ("count", "higher"),
    "network.forward_batch_s": ("s", "lower"),
    "network.save_model_s": ("s", "lower"),
    "network.load_model_s": ("s", "lower"),
    "network.model_bytes": ("B", "lower"),
    "data.gen_s": ("s", "lower"),
    "data.split_s": ("s", "lower"),
    "data.parse_csv_rows": ("count", "higher"),
    "data.parse_csv_s": ("s", "lower"),
    "data.csv_bytes": ("B", "lower"),
    "baselines.fit_ridge_s": ("s", "lower"),
    "experiments.cells": ("count", "higher"),
    "experiments.cells_failed": ("count", "lower"),
    "experiments.cell_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.cell_concurrency": ("ratio", "higher"),
    "cli.predict_self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def module_metrics(tracer: Tracer, cell_rows: list[dict]) -> dict[str, float]:
    """The per-module metrics of a traced run, from its spans and the
    results.csv rows of the cells it ran (all but ``trace.overhead_frac``,
    which needs the untraced rounds)."""
    spans = tracer.spans
    self_s = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def own(*names):
        return sum(self_s[i] for name in names for i in by_name.get(name, ()))

    def sizes(name):
        return [spans[i][4] for i in by_name.get(name, ())]

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    trains = sizes("layer.train")
    samples = sum(shape[0] for shape in trains)
    expand_spans = set(by_name.get("network.expand", ()))
    layers_trained = sum(1 for i in by_name.get("layer.train", ())
                         if spans[i][3] in expand_spans)
    layers_accepted = sum(sizes("network.expand"))
    parsed = sizes("data.parse_csv")
    cell_s = sum(float(row["wall_clock_s"]) for row in cell_rows)
    run_s = total("experiments.run_experiment")

    out = {
        "censored.nll_calls": calls("censored.nll"),
        "censored.grad_calls": calls("censored.grad"),
        "censored.nll_us_per_call": per(total("censored.nll"), calls("censored.nll"), 1e6),
        "censored.grad_us_per_call": per(total("censored.grad"), calls("censored.grad"), 1e6),
        "censored.self_s": own("censored.nll", "censored.grad"),
        "layer.train_calls": calls("layer.train"),
        "layer.samples": samples,
        "layer.train_s": total("layer.train"),
        "layer.self_s": own("layer.train", "layer.predict_batch"),
        "layer.us_per_sample": per(total("layer.train"), samples, 1e6),
        "layer.flops_per_sample_computed": per(
            sum(s[0] * _flops_per_sample(*s[1:]) for s in trains), samples),
        "layer.bytes_per_sample_computed": per(
            sum(s[0] * _bytes_per_sample(*s[1:]) for s in trains), samples),
        "layer.predict_batch_calls": calls("layer.predict_batch"),
        "layer.predict_batch_s": total("layer.predict_batch"),
        "metrics.aligned_calls": calls("metrics.aligned"),
        "metrics.aligned_s": total("metrics.aligned"),
        "metrics.anmse_s": total("metrics.anmse"),
        "network.expand_s": total("network.expand"),
        "network.expand_self_s": own("network.expand"),
        "network.layers_trained": layers_trained,
        "network.layers_accepted": layers_accepted,
        "network.guard_accept_ratio": per(layers_accepted, layers_trained),
        "network.forward_batch_rows": sum(sizes("network.forward_batch")),
        "network.forward_batch_s": total("network.forward_batch"),
        "network.save_model_s": total("network.save_model"),
        "network.load_model_s": total("network.load_model"),
        "network.model_bytes": sum(sizes("network.save_model")) + sum(sizes("network.load_model")),
        "data.gen_s": total("data.gen"),
        "data.split_s": total("data.split"),
        "data.parse_csv_rows": sum(rows for rows, _ in parsed),
        "data.parse_csv_s": total("data.parse_csv"),
        "data.csv_bytes": sum(size for _, size in parsed),
        "baselines.fit_ridge_s": total("baselines.fit_ridge"),
        "experiments.cells": len(cell_rows),
        "experiments.cells_failed": sum(1 for row in cell_rows if row["status"] != "ok"),
        "experiments.cell_s": cell_s,
        "experiments.self_s": own("experiments.run_experiment"),
        "experiments.cell_concurrency": per(cell_s, run_s),
        "cli.predict_self_s": own("cli.main"),
    }
    return out

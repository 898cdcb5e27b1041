#!/usr/bin/env python3
"""subspace-net benchmark.

One workload per process:

    python3 perfbench/run.py --workload train_ref --seed 1 --seconds 40 --trace 0

runs set-up several times, then rounds of the workload until ``--seconds``
have passed, checks every round's outputs, prints the named metrics with
their units, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
run alternates untraced and traced rounds (a fixed number, so the exact call
counts repeat) and reports the per-module ones.

    python3 perfbench/run.py --all [--trace 1]

runs every workload, one process each, prints a table and writes it with the
run environment to ``.perfbench/BENCH_<trace|e2e>.json``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result. Every file
it writes stays under ``.perfbench/`` of that checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_ref", "sweep_deep", "serve_predict")

SETUP_REPEATS = 3      # set-up is timed this often; the median is reported
MIN_ROUNDS = 2         # rounds run even when --seconds is already spent
TRACE_PAIRS = 3        # untraced + traced rounds in a traced run
MAX_WORKERS = 4        # cap on SSN_THREADS

now = time.perf_counter


class MissingProgram(Exception):
    pass


def _import_program():
    """Import the package from this checkout's ``src/`` and the benchmark's
    own modules (which import numpy)."""
    if not os.path.isfile(os.path.join(SRC, "subspace_net", "__init__.py")):
        raise MissingProgram(f"no subspace_net package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import subspace_net as sn
    if os.path.dirname(os.path.dirname(os.path.abspath(sn.__file__))) != SRC:
        raise MissingProgram(f"subspace_net was imported from {sn.__file__}, not {SRC}")
    from subspace_net import cli, config, data, experiments, layer, network  # noqa: F401
    import tracer
    import workloads
    return sn, tracer, workloads


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workers: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "env": {var: os.environ.get(var, "") for var in BLAS_VARS + ("SSN_THREADS",)},
        "cell_workers": workers,
    }


def _tail(values):
    """(label, value): the highest whole percentile, at most p99, with at
    least 10 samples beyond it; the maximum when there are fewer than 20."""
    import numpy as np
    if len(values) < 20:
        return "max", max(values)
    pct = min(99, math.floor(100 * (1 - 10 / len(values))))
    return f"p{pct}", float(np.percentile(values, pct))


def _median(values):
    return statistics.median(values) if values else math.nan


def _quartile(values, q: int):
    """The q-th percentile (25 or 75), linearly interpolated."""
    import numpy as np
    return float(np.percentile(values, q)) if values else math.nan


def show(workload: str, name: str, value: float, unit: str, detail: str = ""):
    """Print one named metric with its unit."""
    print(f"{workload:<14} {name:<34} {value:>16.6g} {unit:<6} {detail}".rstrip())


def end_to_end(name, import_s, setup_s, rounds, checked, final) -> dict:
    """The BENCHMARK.json end-to-end metrics of one untraced run, and the
    workload-specific metrics they stand for, printed by name. ``checked``
    holds every round whose outputs were checked, timed or not; ``final`` is
    the untimed check after the rounds, if the workload has one."""
    ops = [x for r in rounds for x in r.op_s]
    loads = [x for r in rounds for x in r.load_s]
    walls = [r.wall_s for r in rounds]
    rates = [r.work / r.work_s for r in rounds if r.work_s > 0]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    # times are upper quartiles and rates lower quartiles over the run: the
    # machine's speed switches between a slow floor, present in nearly every
    # run, and faster spells, and a median flips between the two from run to
    # run (see README.md)
    metrics = {
        "setup_s": (import_s + _median(setup_s), "s"),
        "wall_s": (_quartile(walls, 75), "s"),
        "work_per_s": (_quartile(rates, 25), "1/s"),
        "op_p75_ms": (1e3 * _quartile(ops, 75), "ms"),
        "model_load_ms": (1e3 * _quartile(loads, 75), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }

    def out(metric, value, unit, detail=""):
        show(name, metric, value, unit, detail)

    ops_name = "requests" if name == "serve_predict" else "cells"
    tail_label, tail = _tail(ops) if ops else ("max", math.nan)
    wall_label, wall_tail = _tail(walls)
    out("setup_s", metrics["setup_s"][0], "s",
        f"import {import_s:.3f} s + median of {len(setup_s)} set-ups")
    out("wall_s", _median(walls), "s",
        f"p50; p75 {metrics['wall_s'][0]:.4g} s, {wall_label} {wall_tail:.4g} s, "
        f"n={len(rounds)} rounds")
    out("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "ru_maxrss of this process")
    out("failed_frac", failed / attempted if attempted else 1.0, "ratio",
        f"{failed} failed of {attempted} attempted operations")
    out("model_load_ms", 1e3 * _median(loads), "ms",
        f"p50; p75 {metrics['model_load_ms'][0]:.4g} ms, n={len(loads)} loads")
    out("op_p50_ms", 1e3 * _median(ops), "ms", f"one op = one of n={len(ops)} {ops_name}")
    out("op_p75_ms", metrics["op_p75_ms"][0], "ms", f"n={len(ops)} {ops_name}")
    out(f"op_{tail_label}_ms", 1e3 * tail, "ms", f"n={len(ops)} {ops_name}, printed only")
    out("work_per_s", metrics["work_per_s"][0], "1/s",
        f"p25 of n={len(rates)} rounds; p50 {_median(rates):.6g}")
    if name == "train_ref":
        out("train_samples_per_s", _median(rates), "1/s",
            f"samples x layers trained / run wall, p50 of {len(rates)} rounds")
        out("subspace_diff_final", final.quality[0] if final.quality else math.nan,
            "ratio", f"aligned, the untimed N={final.work:.0f} recovery cell")
    if name == "sweep_deep":
        out("train_samples_per_s", _median(rates), "1/s",
            f"samples x layers trained / run wall, p50 of {len(rates)} rounds")
        out("cell_s_p50", _median(ops), "s", f"n={len(ops)} cells")
        out("cell_s_max", max(ops) if ops else math.nan, "s", f"n={len(ops)} cells")
        quality = rounds[0].quality
        out("anmse_valid_median", _median(quality), "ratio",
            f"median over the {len(quality)} cells of the first round")
    if name == "serve_predict":
        out("predict_rows_per_s", _median(rates), "1/s",
            f"bulk ssn predict, CSV in and out, p50 of {len(rates)} rounds")
        out("request_p50_ms", 1e3 * _median(ops), "ms", f"n={len(ops)} requests")
        out(f"request_{tail_label}_ms", 1e3 * tail, "ms", f"n={len(ops)} requests")
    return metrics


def _timed_setups(wl) -> tuple[list[float], list]:
    """Set-up times, and the rounds the set-ups ran (to be checked)."""
    times, ran = [], []
    for _ in range(SETUP_REPEATS):
        start = now()
        done = wl.setup()
        times.append(now() - start)
        if done is not None:
            ran.append(done)
    return times, ran


def measure(wl, seconds: float):
    """Set-up times, the timed rounds, the rounds the set-ups ran, and the
    untimed final check (all of them checked)."""
    setup_s, warmups = _timed_setups(wl)
    rounds = []
    start = now()
    while len(rounds) < MIN_ROUNDS or now() - start < seconds:
        rounds.append(wl.round(len(rounds)))
    return setup_s, rounds, warmups, wl.final_check()


def measure_traced(wl, tr, sn, api):
    """Traced set-ups, then TRACE_PAIRS pairs of the same round, untraced
    and traced, then the untraced final check."""
    tracer = tr.Tracer()
    tracer.install(sn, api)
    try:
        warmups = _timed_setups(wl)[1]
    finally:
        tracer.uninstall()
    plain, traced = [], []
    for k in range(TRACE_PAIRS):
        plain.append(wl.round(k))
        tracer.install(sn, api)
        try:
            traced.append(wl.round(k))
        finally:
            tracer.uninstall()
    return tracer, warmups, plain, traced, wl.final_check()


def check_counts(wl, values: dict, seen: list) -> list[str]:
    """Cross-check the traced counts against the work that the configs and
    results of the traced rounds ``seen`` say was done: the censored kernels
    run once per sample for the cost and K + 1 times for the gradient, in
    every trained layer."""
    layers = sum(r.layers_trained for r in seen)
    samples = sum(r.samples_trained for r in seen)
    expected = {
        "layer.train_calls": layers,
        "layer.samples": samples,
        "censored.nll_calls": samples,
        "censored.grad_calls": samples * (wl.inner_steps + 1),
    }
    if wl.name == "sweep_deep":
        expected["network.layers_trained"] = layers
    return [f"{name} = {values[name]}, expected {want} "
            f"({layers} layers, {samples} samples x layers)"
            for name, want in expected.items() if values[name] != want]


def per_module(wl, tr, sn, api, name: str, seed: int):
    """A traced run: the per-module metrics, the rounds to check, and the
    count cross-check's problems."""
    tracer, warmups, plain, traced, final = measure_traced(wl, tr, sn, api)
    seen = warmups + traced
    values = tr.module_metrics(tracer, [row for r in seen for row in r.rows])
    untraced_wall = _median([r.wall_s for r in plain])
    values["trace.overhead_frac"] = (
        _median([r.wall_s for r in traced]) - untraced_wall) / untraced_wall
    spans_path = os.path.join(WORK, f"spans_{name}_seed{seed}.csv")
    tracer.write_csv(spans_path)
    for metric, (unit, _) in tr.PER_LAYER.items():
        show(name, metric, values[metric], unit)
    print(f"# {len(tracer.spans)} spans written to {spans_path}")
    metrics = {metric: (values[metric], unit) for metric, (unit, _) in tr.PER_LAYER.items()}
    checked = warmups + plain + traced + ([final] if final is not None else [])
    return metrics, checked, check_counts(wl, values, seen)


def run_one(args) -> int:
    workers = min(len(os.sched_getaffinity(0)), MAX_WORKERS)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["SSN_THREADS"] = str(workers)
    start = now()
    try:
        sn, tr, wls = _import_program()
    except (MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = now() - start

    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    api = tr.Api(sn)
    wl = wls.WORKLOADS[args.workload](sn, api, tmp, args.seed, args.size, workers)
    print(f"# env {json.dumps(environment(workers), sort_keys=True)}")
    try:
        if args.trace:
            metrics, checked, count_problems = per_module(
                wl, tr, sn, api, args.workload, args.seed)
        else:
            setup_s, rounds, warmups, final = measure(wl, args.seconds)
            checked = warmups + rounds + ([final] if final is not None else [])
            count_problems = []
            metrics = end_to_end(args.workload, import_s, setup_s, rounds, checked, final)
    finally:
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [p for r in checked for p in r.problems] + count_problems
    for problem in problems:
        print(f"# FAILED {args.workload}: {problem}")
    correct = not problems and all(math.isfinite(value) for value, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(r.failed for r in checked) + len(count_problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    results, env = {}, {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("# env"):
                print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(proc.stderr)
            print(f"{name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        env = next((json.loads(line[len("# env "):]) for line in lines
                    if line.startswith("# env ")), env)
        results[name] = result
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"BENCH_{'trace' if args.trace else 'e2e'}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "size": args.size,
                   "environment": env, "workloads": results},
                  fh, indent=2, sort_keys=True)
    print(f"# results written to {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="subspace-net benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("ref", "tiny"), default="ref",
                        help="tiny: the self-test's minimal sizes")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

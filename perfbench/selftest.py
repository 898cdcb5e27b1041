#!/usr/bin/env python3
"""Self-test of the benchmark at its minimal sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at ``--size tiny``. Each must pass
its correctness gate, print the workload's named metrics, and emit exactly
the metrics `BENCHMARK.json` lists, with their units. Then the benchmark
must refuse to run, with a non-zero exit code and no result, in a copy that
holds only `BENCHMARK.json` and the benchmark's own files. Exits non-zero if
any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the workload-specific names each untraced run must print ("x*": a prefix)
PRINTED = {
    "train_ref": ["setup_s", "wall_s", "peak_rss_mb", "failed_frac",
                  "train_samples_per_s", "subspace_diff_final"],
    "sweep_deep": ["setup_s", "wall_s", "peak_rss_mb", "failed_frac",
                   "train_samples_per_s", "cell_s_p50", "cell_s_max",
                   "anmse_valid_median"],
    "serve_predict": ["setup_s", "wall_s", "peak_rss_mb", "failed_frac",
                      "predict_rows_per_s", "request_p50_ms", "request_p*",
                      "model_load_ms"],
}


def _run(cwd: str, workload: str, trace: int, size: str = "tiny"):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def _check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {lines[-6:-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {entry.get('unit')!r}, want {m['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
    if not trace:
        printed = {line.split()[1] for line in lines[:-1]
                   if line.startswith(workload) and len(line.split()) > 1}
        missing = [name for name in PRINTED[workload]
                   if not any(p == name or (name.endswith("*") and p.startswith(name[:-1]))
                              for p in printed)]
        if missing:
            problems.append(f"not printed: {missing}")
    return problems


def _check_refuses_without_program() -> list[str]:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"), prefix="bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "train_ref", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without src/: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    checks = [(f"{w['name']} trace={t}", lambda w=w["name"], t=t: _check_run(spec, w, t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("refuses without src/", _check_refuses_without_program))
    for label, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs run.py on every workload at the self-test's tiny sample count, once
untraced and once traced, and checks that

* the result line carries every metric BENCHMARK.json names for that mode,
  each with its unit, and that a line above it prints the metric by name;
* no invocation failed (failed_frac is 0);
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with a non-zero code and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
            "--samples", str(run.SELFTEST_SAMPLES)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    done = bench(run.ROOT, workload, trace)
    if done.returncode != 0:
        return [f"{workload} trace {trace}: exit {done.returncode}: {done.stderr.strip()}"]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"failed {result['failed']} of {result['attempted']} invocations")
    if not any(line.startswith("failed_frac = 0.0 ") for line in lines):
        errors.append("failed_frac is not printed as 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"metrics {sorted(result['metrics'])}")
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{name}: {got}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            errors.append(f"{name} is not printed with its unit {unit}")
    return [f"{workload} trace {trace}: {e}" for e in errors]


def check_without_source() -> list[str]:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    done = bench(bare, "thm41-m3", 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without src/: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    errors = check_without_source()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_workload(spec, workload, trace)
            print(f"{workload} trace {trace}: done", file=sys.stderr)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

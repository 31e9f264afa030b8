#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the csmetric command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: csmetric is imported from
``src/``, nothing is installed.  One process generates all load and runs
the ``csmetric`` command as child processes, one at a time (a closed loop
with a single client).  Every report is checked against the reference
recorded at the seed commit (``references.json``, written by
``record.py``).

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics: median wall time of one workload execution, peak RSS
of the children, work done per second and the set-up time of a child.
Times are scaled by ``yardstick.py``, timed before each execution, so that
a shared machine's drift in speed cancels out; the raw medians are printed
as well.

``--trace 1`` alternates untraced executions with traced ones, in which
``tracer.py`` wraps the public functions of every layer from outside, and
reports the per-layer metrics together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
give each metric by name and unit, with the Python version, the core count
and the seed.  See NOTE.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCES = os.path.join(HERE, "references.json")
SETUP_ARGV = [sys.executable, "-c", "import csmetric.cli"]
YARDSTICK_ARGV = [sys.executable, os.path.join(HERE, "yardstick.py")]

BUILTINS = ("squared_diff", "discrete_nat", "abs_sum", "app_metric")
PICARD_SPACE = '{"metric":"app_metric","map":{"kind":"scale","factor":0.9999}}'

# Samples per audit.  Sized so that one execution takes about a second on a
# 2-core machine and a 30 s run holds 12 to 25 executions of each workload.
DEFAULT_SAMPLES = {"thm41-m3": 20000, "audit-builtins": 10000, "picard-orbit": None}
# The self-test's tiny sample count; references are recorded for it too.
SELFTEST_SAMPLES = 300

# An untraced run makes at least this many executions, a traced run this
# many of each kind, however long they take.
MIN_EXECUTIONS = 3
MIN_TRACED = 2
# No new execution starts this long after the benchmark started, and a child
# still running after CHILD_TIMEOUT_S is killed, so a run ends within 180 s.
STOP_STARTING_S = 120.0
CHILD_TIMEOUT_S = 45.0
# Executions needed beyond a percentile before it is reported.
TAIL_BEYOND = 10
# End-to-end times are scaled by this over the time yardstick.py took just
# before the execution: they read as seconds on a machine that runs the
# yardstick in this time.
YARDSTICK_NOMINAL_S = 0.3

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"),
              ("setup_s", "s"))

PER_LAYER = (
    ("sampling.tuples_drawn", "count"),
    ("sampling.busy_s", "s"),
    ("sampling.ns_per_tuple", "ns"),
    ("sampling.list_bytes", "bytes"),
    ("sampling.redrawn_tuples", "count"),
    ("spaces.metric_calls", "count"),
    ("spaces.metric_busy_s", "s"),
    ("spaces.map_apply_calls", "count"),
    ("spaces.map_apply_busy_s", "s"),
    ("spaces.eval_metric_calls", "count"),
    ("expressions.alpha_calls", "count"),
    ("expressions.alpha_busy_s", "s"),
    ("expressions.alpha_ns_per_call", "ns"),
    ("expressions.alpha_inf", "count"),
    ("axiom_audit.identity_axiom_s", "s"),
    ("axiom_audit.composed_triangle_s", "s"),
    ("axiom_audit.classic_triangle_s", "s"),
    ("axiom_audit.symmetry_s", "s"),
    ("axiom_audit.alpha_zero_s", "s"),
    ("axiom_audit.alpha_subhomogeneity_s", "s"),
    ("axiom_audit.series_vanishing_s", "s"),
    ("axiom_audit.checked", "count"),
    ("axiom_audit.self_s", "s"),
    ("fixed_point.picard_calls", "count"),
    ("fixed_point.iterations", "count"),
    ("fixed_point.picard_s", "s"),
    ("fixed_point.banach_s", "s"),
    ("poly_solver.bisection_s", "s"),
    ("poly_solver.residual_calls", "count"),
    ("cli.parse_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def invocations(workload: str, seed: int, samples: int | None) -> list[tuple[str, list[str]]]:
    """The csmetric commands of one workload execution, as (key, argv) pairs.

    The key names the reference a report is checked against.
    """
    common = ["--seed", str(seed), "--output", "json"]
    if workload == "thm41-m3":
        return [("thm41-m3",
                 ["verify-thm41", "--m", "3", "--samples", str(samples)] + common)]
    if workload == "audit-builtins":
        return [(f"audit-builtins/{name}",
                 ["verify-space", "--builtin", name, "--samples", str(samples)] + common)
                for name in BUILTINS]
    if workload == "picard-orbit":
        return [("picard-orbit",
                 ["iterate", "--space", PICARD_SPACE, "--x0", "1.0",
                  "--max-iter", "1000000"] + common)]
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(key: str, samples: int | None) -> str:
    return key if samples is None else f"{key}@{samples}"


def _numbers(value):
    """Numbers as floats, so 1 and 1.0 compare equal."""
    if isinstance(value, list):
        return [_numbers(v) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def project(report: dict, exit_code: int) -> dict:
    """The fields of a report that decide whether it is correct.

    Formatting, field order, margins and timings are left out on purpose:
    a change of JSON formatting must not read as a wrong answer.
    """
    items = report.get("hypotheses") or report.get("checks") or []
    return {
        "exit": exit_code,
        "verdicts": [[item["name"], item["verdict"]["passed"], item["verdict"]["checked"],
                      _numbers(item["verdict"]["witness"])] for item in items],
        "root": _numbers(report.get("root")),
        "oracle_root": _numbers(report.get("oracle_root")),
        "fixed_point": _numbers(report.get("fixed_point")),
        "iterations": report.get("iterations"),
    }


def work_done(report: dict) -> int:
    """Tuples checked by every verdict, or Picard iterations for ``iterate``."""
    items = report.get("hypotheses") or report.get("checks")
    if items is None:
        return report["iterations"]
    return sum(item["verdict"]["checked"] for item in items)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CSMETRIC_SEED"}
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv: list[str], out_path: str) -> tuple[float, float, int]:
    """Run one child to completion with stdout in out_path.

    Returns its wall time in seconds (from before the fork to after the
    reap, so interpreter start counts), its peak RSS in MB from
    ``os.wait4`` and its exit code.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def csmetric_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "csmetric"] + args


def traced_argv(stats_path: str, args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(HERE, "tracer.py"), stats_path, "--"] + args


class Bench:
    """One benchmark run: executes a workload repeatedly and checks each report."""

    def __init__(self, workload: str, seed: int, samples: int | None, references: dict):
        self.cs_seed = seed % references["seed_modulus"]
        self.plan = invocations(workload, self.cs_seed, samples)
        self.expected = {}
        for key, _ in self.plan:
            entry = references["references"].get(reference_key(key, samples))
            if entry is None:
                raise SystemExit(f"perfbench: no reference recorded for {key} at "
                                 f"--samples {samples}; see record.py")
            self.expected[key] = entry["projections"][entry["by_seed"][self.cs_seed]]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def _check(self, key: str, out_path: str, exit_code: int) -> dict | None:
        """Count one invocation; return its report when it is correct."""
        self.attempted += 1
        try:
            with open(out_path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
            got = project(report, exit_code)
        except (ValueError, KeyError, TypeError) as exc:
            self._fail(f"{key}: unreadable report ({exc}), exit {exit_code}")
            return None
        self.digests[key] = hashlib.sha256(raw).hexdigest()
        if got != self.expected[key]:
            self._fail(f"{key}: report differs from the reference: {json.dumps(got)}")
            return None
        return report

    def execute(self, trace: bool) -> dict:
        """Run every invocation of the workload once; sum their figures."""
        result = {"wall_s": 0.0, "rss_mb": 0.0, "work": 0, "post_main_s": 0.0,
                  "layers": {}}
        for i, (key, args) in enumerate(self.plan):
            out_path = os.path.join(WORK, f"report{i}.json")
            stats_path = os.path.join(WORK, f"stats{i}.json")
            if os.path.exists(stats_path):
                os.remove(stats_path)
            argv = traced_argv(stats_path, args) if trace else csmetric_argv(args)
            wall, rss, code = spawn(argv, out_path)
            result["wall_s"] += wall
            result["rss_mb"] = max(result["rss_mb"], rss)
            report = self._check(key, out_path, code)
            if report is None:
                continue
            result["work"] += work_done(report)
            if trace:
                try:
                    with open(stats_path, encoding="utf-8") as fh:
                        stats = json.load(fh)
                except (OSError, ValueError) as exc:
                    self._fail(f"{key}: no trace statistics ({exc})")
                    continue
                result["post_main_s"] += stats.pop("post_main_s")
                stats["cli.report_bytes"] = os.path.getsize(out_path)
                _merge_layers(result["layers"], stats)
        layers = result["layers"]
        if layers:
            layers["sampling.ns_per_tuple"] = (
                1e9 * layers["sampling.busy_s"] / max(layers["sampling.tuples_drawn"], 1))
            layers["expressions.alpha_ns_per_call"] = (
                1e9 * layers["expressions.alpha_busy_s"] / max(layers["expressions.alpha_calls"], 1))
        return result


def _merge_layers(total: dict, stats: dict) -> None:
    for name, value in stats.items():
        if name == "sampling.list_bytes":
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


def timed(argv: list[str]) -> float:
    """Wall time of a child that must succeed."""
    wall, _, code = spawn(argv, os.path.join(WORK, "timed.out"))
    if code != 0:
        raise SystemExit(f"perfbench: {' '.join(argv)} exited with {code}")
    return wall



def tail(walls: list[float]) -> str:
    """The highest percentile with TAIL_BEYOND executions beyond it."""
    n = len(walls)
    at_or_below = n - TAIL_BEYOND
    if 2 * at_or_below <= n:
        return (f"wall_s tail: none above the median has {TAIL_BEYOND} of {n} "
                f"executions beyond it")
    value = sorted(walls)[at_or_below - 1]
    return (f"wall_s p{100 * at_or_below // n} = {value!r} s "
            f"({TAIL_BEYOND} of {n} executions beyond it)")


def per_layer(traced: list[dict], untraced_wall: float) -> dict:
    """Median of each layer figure over the traced executions, plus the
    tracing overhead: traced wall time, less the replay done after the
    command returned, minus untraced wall time."""
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(e["wall_s"] - e["post_main_s"] for e in traced) \
                - untraced_wall
        else:
            value = statistics.median(e["layers"].get(name, 0) for e in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(DEFAULT_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="override the workload's sample count (self-test only)")
    args = parser.parse_args(argv)
    # A terminated benchmark stops its running child before it exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "csmetric", "cli.py")):
        print(f"perfbench: no csmetric source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    samples = DEFAULT_SAMPLES[args.workload]
    if samples is not None and args.samples is not None:
        samples = args.samples
    os.makedirs(WORK, exist_ok=True)
    started = time.perf_counter()
    bench = Bench(args.workload, args.seed, samples, references)

    print(f"perfbench {args.workload}: seed {args.seed} (csmetric --seed {bench.cs_seed}), "
          f"samples {samples}, python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"trace {args.trace}, {args.seconds:g} s")
    timed(SETUP_ARGV)  # warm-up: compiles bytecode and fills the page cache

    deadline = time.perf_counter() + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    yardsticks: list[float] = []
    while True:
        now = time.perf_counter()
        if now - started > STOP_STARTING_S:
            break
        if args.trace:
            if now >= deadline and len(untraced) >= MIN_TRACED and len(traced) >= MIN_TRACED:
                break
            trace_next = len(traced) < len(untraced)
        else:
            if now >= deadline and len(untraced) >= MIN_EXECUTIONS:
                break
            trace_next = False
            # Taken before each execution, so that they span the run like
            # the executions do, and each execution has its own yardstick.
            setups.append(timed(SETUP_ARGV))
            yardsticks.append(timed(YARDSTICK_ARGV))
        (traced if trace_next else untraced).append(bench.execute(trace_next))

    walls = [e["wall_s"] for e in untraced]
    if args.trace:
        wall_s = statistics.median(walls)
        metrics = per_layer(traced, wall_s)
        traced_wall = statistics.median(e["wall_s"] for e in traced)
        print(f"untraced wall_s {wall_s!r} s over {len(untraced)} executions, traced "
              f"wall_s {traced_wall!r} s over {len(traced)}")
    else:
        scale = [YARDSTICK_NOMINAL_S / y for y in yardsticks]
        walls_n = [w * k for w, k in zip(walls, scale)]
        wall_s = statistics.median(walls_n)
        work = untraced[0]["work"]
        values = {"wall_s": wall_s, "peak_rss_mb": max(e["rss_mb"] for e in untraced),
                  "work_per_s": work / wall_s,
                  "setup_s": statistics.median(s * k for s, k in zip(setups, scale))}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"as measured: wall_s median {statistics.median(walls)!r} s, setup_s median "
              f"{statistics.median(setups)!r} s, yardstick median "
              f"{statistics.median(yardsticks)!r} s (nominal {YARDSTICK_NOMINAL_S} s)")
        print(f"wall_s median over {len(untraced)} executions; {tail(walls_n)}")
        what = "Picard iterations" if args.workload == "picard-orbit" else "tuples checked"
        print(f"work_per_s counts {what}: {work} per execution "
              f"({'iterations_per_s' if args.workload == 'picard-orbit' else 'tuples_per_s'})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"failed_frac = {bench.failed / bench.attempted!r} "
          f"({bench.failed} of {bench.attempted} invocations)")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for key, digest in sorted(bench.digests.items()):
        print(f"report sha256 {key}: {digest}")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

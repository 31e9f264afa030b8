"""The benchmark's traced mode, perfbench/tracer.py, still runs the command
line and gives the untraced report.  Its wrapper of ``sample_tuples`` no
longer sees the audit's draws, which read a private stream; the draw-once
property is tested in process, in tests/test_audit.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", [
    ["verify-space", "--builtin", "app_metric"],
    ["verify-thm41", "--m", "3"],
], ids=["verify-space", "verify-thm41"])
def test_traced_run_draws_no_stream_twice(command, tmp_path):
    stats = tmp_path / "stats.json"
    env = {k: v for k, v in os.environ.items() if k != "CSMETRIC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    arguments = [*command, "--samples", "300", "--seed", "7", "--output", "json"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(stats), "--", *arguments],
        capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    figures = json.loads(stats.read_text())
    assert figures["sampling.redrawn_tuples"] == 0
    untraced = subprocess.run([sys.executable, "-m", "csmetric", *arguments],
                              capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert untraced.returncode == 0, untraced.stderr
    assert proc.stdout == untraced.stdout


def test_traced_iterate_counts_the_reported_iterations(tmp_path):
    stats = tmp_path / "stats.json"
    env = {k: v for k, v in os.environ.items() if k != "CSMETRIC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(stats), "--", "iterate",
         "--space", '{"metric": "app_metric", "map": {"kind": "scale", "factor": 0.5}}',
         "--x0", "1.0", "--output", "json"],
        capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["iterations"] == 40
    assert json.loads(stats.read_text())["fixed_point.iterations"] == report["iterations"]

import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmetric import BUILTIN_ALPHAS, BUILTIN_SPACES, cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("CSMETRIC_SEED", None)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*argv, env_extra=None):
    return subprocess.run([sys.executable, "-m", "csmetric", *argv],
                          capture_output=True, env=cli_env(env_extra), timeout=120)


def assert_same_text(actual, expected):
    """actual == expected, text or bytes, exactly.  A report runs to
    megabytes, so a failure names the lengths and the first differing
    offset, with about 80 characters around it, in place of a diff."""
    if actual == expected:
        return
    at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
              min(len(actual), len(expected)))
    around = slice(max(0, at - 40), at + 40)
    pytest.fail(f"lengths {len(actual)} and {len(expected)}, first difference at offset {at}:"
                f" {actual[around]!r} != {expected[around]!r}")


class TestSolvePoly:
    def test_json_report_matches_oracle(self):
        proc = run_cli("solve-poly", "--m", "3", "--x0", "0.5", "--tol", "1e-12",
                       "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == "csmetric/2"
        assert report["command"] == "solve-poly"
        assert abs(report["root"] - 0.012345679299142365) < 1e-11
        assert abs(report["root"] - report["oracle_root"]) == report["agreement"]
        assert report["converged"] is True
        assert proc.stdout.endswith(b"\n")

    def test_degree_two_is_a_usage_error(self):
        proc = run_cli("solve-poly", "--m", "2")
        assert proc.returncode == 2
        assert b"m >= 3" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("solve-poly", "--m", "3", "--tol", "1e-20"),
        ("verify-thm41", "--m", "3", "--tol", "1e-19", "--samples", "200"),
    ], ids=["solve-poly", "verify-thm41"])
    def test_tol_below_float_resolution_terminates(self, argv):
        # The float spacing at the m = 3 root is about 1.7e-18, so the
        # oracle's bracket cannot shrink to tol.
        proc = run_cli(*argv, "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["root"] == report["oracle_root"]


class TestVerifySpace:
    def test_identity_wrap_fails_the_gate(self):
        proc = run_cli("verify-space", "--builtin", "squared_diff",
                       "--alpha", "identity", "--samples", "3000", "--seed", "42",
                       "--output", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        composed = next(c for c in report["checks"] if c["name"] == "composed_triangle")
        assert composed["verdict"]["passed"] is False
        assert len(composed["verdict"]["witness"]) == 4

    def test_native_alpha_passes_while_classic_fails_informationally(self):
        proc = run_cli("verify-space", "--builtin", "squared_diff",
                       "--samples", "3000", "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        classic = next(c for c in report["checks"] if c["name"] == "classic_triangle")
        assert classic["gate"] is False
        assert classic["verdict"]["passed"] is False
        gated = [c for c in report["checks"] if c["gate"]]
        assert all(c["verdict"]["passed"] for c in gated)

    def test_space_file_round_trip(self, tmp_path):
        doc = {"metric": "abs_sum", "params": [0, 1]}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("verify-space", "--space-file", str(path),
                       "--samples", "2000", "--output", "json")
        assert proc.returncode == 0

    def test_space_file_that_is_not_utf8_is_a_usage_error(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_bytes(b'\xff{"metric": "app_metric"}')
        proc = run_cli("verify-space", "--space-file", str(path), "--samples", "10")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"csmetric: error: cannot read space file: ")
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("space,message", [
        pytest.param("{]", b"space", id="bad-json"),
        pytest.param('{"metric":"abs_sum","params":[1]}', b"params",
                     id="params-arity"),
        pytest.param('{"metric":"abs_sum","params":["a"]}', b"params",
                     id="params-string"),
        pytest.param('{"metric":"abs_sum","params":5}', b"params",
                     id="params-scalar"),
        pytest.param('{"metric":"squared_diff","params":["a","b"]}', b"params",
                     id="params-strings"),
        pytest.param('{"metric":"discrete_nat","params":[1e400]}', b"params",
                     id="params-infinite"),
        pytest.param('{"metric":["x"]}', b"unknown builtin space", id="metric-list"),
        pytest.param('{"metric":"app_metric","alpha":{"id":"linear","params":["a"]}}',
                     b"slope", id="linear-slope-string"),
        pytest.param('{"metric":"app_metric","alpha":{"id":["a"]}}', b"alpha id",
                     id="alpha-id-list"),
        pytest.param('{"metric":"app_metric","alpha":{"id":"exp","params":[5]}}',
                     b"takes no parameters", id="builtin-alpha-params"),
        pytest.param('{"metric":"app_metric","alpha":{"id":"exp","params":0}}',
                     b"takes no parameters", id="builtin-alpha-params-scalar"),
        pytest.param('{"metric":"abs_sum","domain":{"kind":"real_interval","lo":"a","hi":2}}',
                     b"interval bounds", id="domain-lo-string"),
        pytest.param('{"metric":"app_metric","map":{"kind":"scale","factor":"x"}}',
                     b"factor", id="scale-factor-string"),
        pytest.param('{"metric":"app_metric","map":{"kind":"poly","m":"x"}}',
                     b"degree", id="poly-degree-string"),
        pytest.param('{"metric":"app_metric","map":{"kind":"poly","m":3.7}}',
                     b"integer m >= 3, got 3.7", id="poly-degree-fraction"),
        pytest.param('{"metric":"app_metric","symmetric":"false"}',
                     b"symmetric must be true or false, got 'false'", id="symmetric-string"),
        pytest.param('{"metric":"squared_diff","domain":{"kind":"naturals_up_to","max":10}}',
                     b"squared_diff lives on [1, inf)", id="squared-diff-naturals"),
        pytest.param('{"metric":"squared_diff",'
                     '"domain":{"kind":"finite_real_set","elements":[0.5,2,3]}}',
                     b"squared_diff lives on [1, inf)", id="squared-diff-finite-set"),
        pytest.param('{"metric":"discrete_nat",'
                     '"domain":{"kind":"finite_real_set","elements":[-5,1,2,3]}}',
                     b"discrete_nat lives on [0, inf)", id="discrete-nat-negative-set"),
        pytest.param('{"metric":"abs_sum","parms":[1,2]}',
                     b"unknown space field(s): 'parms'", id="unknown-field"),
        pytest.param('{"metric":"app_metric","alpha":{"id":"exp","expr":"exp(3*t)"}}',
                     b"disagrees with {'id': 'exp', 'expr': 'exp(t)'}", id="builtin-alpha-expr"),
        pytest.param('{"metric":"app_metric","alpha":{"id":"linear","params":[2],"expr":"3*t"}}',
                     b"disagrees with {'id': 'linear', 'expr': '2.0*t', 'params': [2.0]}",
                     id="linear-alpha-expr"),
        pytest.param('{"metric":"app_metric","alpha":{"id":"custom","expr":"t","params":[2]}}',
                     b"disagrees with {'id': 'custom', 'expr': 't'}", id="custom-alpha-params"),
        pytest.param('{"metric":"app_metric","map":{"kind":"identity","factor":0.5}}',
                     b"unknown field(s) for map kind 'identity': 'factor'", id="identity-map-field"),
        pytest.param('{"metric":"app_metric","map":{"kind":"const","value":1,"extra":3}}',
                     b"unknown field(s) for map kind 'const': 'extra'", id="const-map-field"),
        pytest.param('{"metric":"app_metric","map":{"kind":"poly","m":3,"factor":2}}',
                     b"unknown field(s) for map kind 'poly': 'factor'", id="poly-map-field"),
        pytest.param('{"metric":"app_metric","map":{"kind":"scale","factor":0.5,"m":3}}',
                     b"unknown field(s) for map kind 'scale': 'm'", id="scale-map-field"),
    ])
    def test_malformed_space_json(self, space, message):
        proc = run_cli("verify-space", "--space", space, "--samples", "10")
        assert proc.returncode == 2
        assert message in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_sample_count_above_maxsize_is_a_usage_error(self):
        proc = run_cli("verify-space", "--builtin", "app_metric", "--samples", str(2 ** 63))
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"csmetric: error: sample count must be an integer in [0, ")
        assert b"Traceback" not in proc.stderr

    def test_empty_alpha_is_a_usage_error(self):
        proc = run_cli("verify-space", "--builtin", "app_metric", "--alpha", "")
        assert proc.returncode == 2
        assert proc.stderr == b"csmetric: error: expression must be a non-empty string\n"

    def test_space_required(self):
        proc = run_cli("verify-space")
        assert proc.returncode == 2

    def test_env_seed_overrides_flag(self):
        proc = run_cli("verify-space", "--builtin", "app_metric",
                       "--samples", "500", "--seed", "42", "--output", "json",
                       env_extra={"CSMETRIC_SEED": "777"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["seed"] == 777


@pytest.mark.parametrize("argv", [
    pytest.param(("solve-poly", "--m", "3", "--tol", "nan"), id="tol-nan"),
    pytest.param(("solve-poly", "--m", "3", "--x0", "inf"), id="x0-inf"),
    pytest.param(("check-contraction", "--builtin", "app_metric",
                  "--map", '{"kind":"identity"}', "--r", "nan"), id="r-nan"),
    pytest.param(("iterate", "--builtin", "app_metric",
                  "--map", '{"kind":"identity"}', "--x0=-inf"), id="x0-minus-inf"),
])
def test_non_finite_flag_is_a_usage_error(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert b"expected a finite number" in proc.stderr


WIDEST_INTERVAL = '{"metric":"abs_sum","params":[-1.7976931348623157e308,1.7976931348623157e308]}'


@pytest.mark.parametrize("argv", [
    pytest.param(("verify-space", "--samples", "10"), id="verify-space"),
    pytest.param(("iterate", "--x0", "0.0", "--map", '{"kind":"scale","factor":0.5}'),
                 id="iterate"),
])
def test_interval_whose_width_overflows_is_a_usage_error(argv):
    proc = run_cli(*argv, "--space", WIDEST_INTERVAL)
    assert proc.returncode == 2
    assert b"interval width" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("params,code", [("10.7", 2), ("50", 0)])
def test_naturals_max_must_be_integral(params, code):
    proc = run_cli("verify-space", "--builtin", "discrete_nat", "--params", params,
                   "--samples", "10")
    assert proc.returncode == code
    assert (b"naturals max must be an integer" in proc.stderr) == (code == 2)
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("space,field", [
    ('{"metric":"app_metric","map":{"kind":"scale","factor":"x"}}', "scale map factor"),
    ('{"metric":"app_metric","map":{"kind":"poly","m":"x"}}', "poly map degree m"),
    ('{"metric":"discrete_nat","domain":{"kind":"naturals_up_to","max":"x"},'
     '"map":{"kind":"const","value":3}}', "naturals max"),
], ids=["scale-factor", "poly-m", "naturals-max"])
def test_a_bad_scalar_field_names_one_number(space, field):
    proc = run_cli("iterate", "--space", space, "--x0", "1.0")
    assert proc.returncode == 2
    assert f"{field}: expected a finite real number, got 'x'".encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_naturals_max_above_2_53_is_a_usage_error():
    # The domain is rejected when it is built, not only when it is enumerated.
    proc = run_cli("iterate", "--builtin", "discrete_nat", "--params", "1e17",
                   "--map", '{"kind":"const","value":7}', "--x0", "3")
    assert proc.returncode == 2
    assert b"exceeds 2**53" in proc.stderr
    assert b"Traceback" not in proc.stderr


class TestCheckContraction:
    def test_polynomial_map_under_quoted_factor(self):
        space = json.dumps({"metric": "app_metric", "map": {"kind": "poly", "m": 3}})
        proc = run_cli("check-contraction", "--space", space,
                       "--r", str(1.0 / 81.0), "--samples", "3000", "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["sup_ratio"] <= 1.0 / 81.0

    def test_identity_map_fails_claimed_factor(self):
        space = json.dumps({"metric": "app_metric", "map": {"kind": "identity"}})
        proc = run_cli("check-contraction", "--space", space,
                       "--r", "0.9", "--samples", "1000")
        assert proc.returncode == 1

    def test_map_is_required(self):
        proc = run_cli("check-contraction", "--builtin", "app_metric")
        assert proc.returncode == 2

    def test_empty_map_is_a_usage_error(self):
        proc = run_cli("check-contraction", "--builtin", "app_metric", "--map", "")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"csmetric: error: malformed map JSON")

    def test_image_outside_the_space_is_a_usage_error(self):
        # The poly map sends [0.5, 1] to about [0.0123, 0.0125], outside the space.
        space = json.dumps({"metric": "app_metric",
                            "domain": {"kind": "real_interval", "lo": 0.5, "hi": 1.0},
                            "map": {"kind": "poly", "m": 3}})
        proc = run_cli("check-contraction", "--space", space, "--r", "0.5")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"csmetric: error: point 0.0123")
        assert proc.stderr.endswith(b" is outside the space domain\n")

    @pytest.mark.parametrize("r", [(), ("--r", "0.5")], ids=["estimate", "with-r"])
    def test_empty_sample_says_so(self, r):
        space = json.dumps({"metric": "app_metric", "map": {"kind": "scale", "factor": 0.5}})
        proc = run_cli("check-contraction", "--space", space, "--samples", "0", *r)
        assert proc.returncode == 2
        assert proc.stderr == (b"csmetric: error: check 'contraction_estimate' "
                               b"evaluated an empty sample\n")

    def test_all_degenerate_sample_says_so(self):
        # A one-point domain: every sampled triple is at distance 0.
        space = json.dumps({"metric": "app_metric", "map": {"kind": "identity"},
                            "domain": {"kind": "finite_real_set", "elements": [0.5]}})
        proc = run_cli("check-contraction", "--space", space, "--samples", "5")
        assert proc.returncode == 2
        assert proc.stderr == (b"csmetric: error: every sampled triple was degenerate; "
                               b"nothing to estimate\n")

    def test_estimate_error_comes_before_a_bad_claimed_factor(self):
        # The estimate runs first, so its error wins over --r's, as it would
        # if the two checks ran one after the other.
        space = json.dumps({"metric": "app_metric", "map": {"kind": "scale", "factor": 2}})
        proc = run_cli("check-contraction", "--space", space, "--r", "1.5", "--samples", "50")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"csmetric: error: map 'scale(2.0)' escaped its domain")
        proc = run_cli("check-contraction", "--space",
                       json.dumps({"metric": "app_metric", "map": {"kind": "identity"}}),
                       "--r", "1.5", "--samples", "50")
        assert proc.returncode == 2
        assert proc.stderr == (b"csmetric: error: contraction factor must lie in (0, 1), "
                               b"got 1.5\n")


class TestIterate:
    def test_halving_map(self):
        space = json.dumps({"metric": "app_metric",
                            "map": {"kind": "scale", "factor": 0.5}})
        proc = run_cli("iterate", "--space", space, "--x0", "1.0",
                       "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["converged"] is True
        assert report["fixed_point"] <= 1e-11
        assert report["iterates"][:2] == [1.0, 0.5]

    def test_identity_scaling_is_already_fixed(self):
        space = json.dumps({"metric": "app_metric",
                            "map": {"kind": "scale", "factor": 1.0}})
        proc = run_cli("iterate", "--space", space, "--x0", "0.25",
                       "--tol", "1e-12", "--max-iter", "5")
        assert proc.returncode == 0

    def test_non_convergence_is_exit_one(self):
        space = json.dumps({"metric": "app_metric",
                            "map": {"kind": "scale", "factor": 0.99}})
        proc = run_cli("iterate", "--space", space, "--x0", "1.0",
                       "--tol", "1e-12", "--max-iter", "3", "--output", "json")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["converged"] is False

    def test_json_report_is_the_indented_dump_of_the_report(self, tmp_path, monkeypatch):
        # About 27,600 steps: the orbit lists are encoded by the C encoder.
        monkeypatch.delenv("CSMETRIC_SEED", raising=False)
        argv = ["iterate", "--space", json.dumps({"metric": "app_metric",
                                                   "map": {"kind": "scale", "factor": 0.999}}),
                "--x0", "1.0", "--max-iter", "100000", "--output", "json"]
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--out", str(out)]) == 0
        exit_code, report = cli.run(cli._build_parser().parse_args(argv))
        report["exit"] = exit_code
        assert report["iterations"] > 20000
        assert out.read_bytes() == (json.dumps(report, indent=2) + "\n").encode("utf-8")


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    st.dictionaries(st.text(), children)), max_leaves=40)


@settings(derandomize=True, max_examples=300)
@given(JSON_VALUES)
@example({"é": [[], {}, (), [1.5, -0.0, math.nan, "\u2603", None, True]]})
def test_dumps_matches_indented_json_dumps(value):
    # A run of three items makes the small values drawn here cross runs.
    with mock.patch.object(cli, "_RUN", 3):
        assert_same_text("".join(map(cli._render, cli._jobs(value))), json.dumps(value, indent=2))


@pytest.mark.parametrize("actual, message", [
    ("abcdXfgh", "lengths 8 and 8, first difference at offset 4: 'abcdXfgh' != 'abcdefgh'"),
    (b"abcd", "lengths 4 and 8, first difference at offset 4: b'abcd' != b'abcdefgh'")])
def test_a_report_mismatch_names_its_first_differing_offset(actual, message):
    expected = "abcdefgh" if isinstance(actual, str) else b"abcdefgh"
    with pytest.raises(pytest.fail.Exception) as info:
        assert_same_text(actual, expected)
    assert str(info.value) == message


JSON_ARGS = argparse.Namespace(output="json", out_path=None)
SCALAR_CYCLE = (0.5, -0.0, math.nan, math.inf, -math.inf, "\u00e9\u2603", 7, None, True)
# The usable CPUs _emit sees: with two, a report of _FORK_RUNS runs or more is
# rendered by two processes where fork and memfd_create exist.
CPUS = [1, pytest.param(2, marks=pytest.mark.skipif(
    not all(hasattr(os, f) for f in ("fork", "memfd_create", "sched_getaffinity")),
    reason="needs fork, memfd_create and sched_getaffinity"))]


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestEmit:
    @pytest.fixture(autouse=True)
    def no_child_is_left(self):
        waitpid = os.waitpid
        yield
        with pytest.raises(ChildProcessError):
            waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize("length", [cli._RUN - 1, cli._RUN, cli._RUN + 1, 2 * cli._RUN + 1])
    def test_scalar_runs_join_to_the_indented_dump(self, length, kind):
        seq = kind(SCALAR_CYCLE[i % len(SCALAR_CYCLE)] for i in range(length))
        report = {"\u00e9": {"orbit": seq, "nested": [seq, {"again": seq}]}, "tail": seq}
        expected = json.dumps(report, indent=2)
        pieces = list(map(cli._render, cli._jobs(report)))
        assert_same_text("".join(pieces), expected)
        # One line per item: no piece holds more than one run.
        assert max(piece.count("\n") for piece in pieces) <= cli._RUN
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(report, JSON_ARGS)
        assert_same_text(out.getvalue(), expected + "\n")

    @pytest.mark.parametrize("cpus", CPUS)
    def test_memory_is_bounded_by_a_piece_not_the_report(self, monkeypatch, cpus):
        # The picard-orbit report's orbit list: 4.9 MB of JSON text, 45 runs.
        # With two CPUs this process copies the helper's half in 64 KiB blocks.
        usable_cpus(monkeypatch, cpus)
        report = {"iterates": [0.9999 ** i for i in range(184_200)]}
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                cli._emit(report, JSON_ARGS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - baseline < 2 * 2 ** 20

    # A 0.55 MB report of 6 runs, written by this process alone, and a 1.3 MB
    # one of 13 runs, whose back half a helper renders where two CPUs are
    # usable: each far more than a pipe buffers.
    @pytest.mark.parametrize("factor", [0.999, 0.9996])
    def test_closed_stdout_is_a_failure_without_traceback(self, factor):
        space = json.dumps({"metric": "app_metric", "map": {"kind": "scale", "factor": factor}})
        proc = subprocess.Popen(
            [sys.executable, "-m", "csmetric", "iterate", "--space", space, "--x0", "1.0",
             "--max-iter", "100000", "--output", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
            start_new_session=True)
        assert proc.stdout.read(100).startswith(b"{")
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in stderr
        assert stderr.startswith(b"csmetric: failure: cannot write report: ")
        # The command led its own process group: no helper outlived it.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_two_processes_and_one_write_the_same_bytes(self, tmp_path):
        space = json.dumps({"metric": "app_metric", "map": {"kind": "scale", "factor": 0.9996}})
        argv = [sys.executable, "-m", "csmetric", "iterate", "--space", space, "--x0", "1.0",
                "--max-iter", "100000", "--output", "json"]

        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        def run(*extra, **kwargs):
            proc = subprocess.run(argv + list(extra), env=cli_env(), timeout=120, **kwargs)
            assert proc.returncode == 0
            return proc.stdout

        piped = run(stdout=subprocess.PIPE)
        report = json.loads(piped)
        assert_same_text(piped, json.dumps(report, indent=2).encode() + b"\n")
        assert len(report["iterates"]) > cli._FORK_RUNS * cli._RUN
        out = tmp_path / "out.json"
        run("--out", str(out))
        assert_same_text(out.read_bytes(), piped)
        if hasattr(os, "sched_setaffinity"):  # one usable CPU: this process renders it all
            assert_same_text(run(stdout=subprocess.PIPE, preexec_fn=one_cpu), piped)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Emit with runs of 3 items, counting forks and the runs rendered.

        Returns (report, parent).  ``parent["writes"]`` records, at each
        write to the sink, the runs rendered so far; a write made once
        ``fail_at`` runs are rendered raises BrokenPipeError."""
        monkeypatch.setattr(cli, "_RUN", 3)
        render, fork = cli._render, os.fork
        parent = {"runs": 0, "forks": 0, "writes": [], "text": [], "fail_at": None}

        def counted_fork():
            parent["forks"] += 1
            return fork()

        def counted_render(job):
            if not isinstance(job, str):
                parent["runs"] += 1
            return render(job)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(cli, "_render", counted_render)
        seq = [SCALAR_CYCLE[i % len(SCALAR_CYCLE)] for i in range(30)]
        report = {"\u00e9": {"orbit": seq, "nested": [seq, {"again": tuple(seq)}]}, "tail": seq}
        return report, parent

    @staticmethod
    def _sink(parent):
        class Sink(io.StringIO):
            def write(self, text):
                if parent["fail_at"] is not None and parent["runs"] >= parent["fail_at"]:
                    raise BrokenPipeError(32, "Broken pipe")
                parent["writes"].append(parent["runs"])
                parent["text"].append(text)
                return super().write(text)
        return Sink()

    def _emit_to(self, to, report, parent, monkeypatch):
        sink = self._sink(parent)
        if to == "out":
            monkeypatch.setattr(cli, "open", lambda *args, **kwargs: sink, raising=False)
            cli._emit(report, argparse.Namespace(output="json", out_path="report.json"))
        else:
            monkeypatch.setattr(sys, "stdout", sink)
            cli._emit(report, JSON_ARGS)

    def test_one_usable_cpu_renders_serially(self, counted, monkeypatch):
        report, parent = counted
        usable_cpus(monkeypatch, 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(report, JSON_ARGS)
        assert_same_text(out.getvalue(), json.dumps(report, indent=2) + "\n")
        assert parent["forks"] == 0 and parent["runs"] == 40

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("to", ["stdout", "out"])
    def test_each_piece_is_written_before_the_next_is_rendered(self, counted, monkeypatch,
                                                                to, cpus):
        report, parent = counted
        usable_cpus(monkeypatch, cpus)
        self._emit_to(to, report, parent, monkeypatch)
        assert_same_text("".join(parent["text"]), json.dumps(report, indent=2) + "\n")
        # A writer that rendered ahead would record a run count skipped or late.
        # With two CPUs this process renders the front 20 of the 40 runs, and
        # then writes the helper's bytes.
        rendered_here = 40 if cpus == 1 else 20
        assert parent["writes"] == sorted(parent["writes"])
        assert set(parent["writes"]) == set(range(rendered_here + 1))
        assert parent["runs"] == rendered_here
        assert parent["forks"] == cpus - 1

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("to", ["stdout", "out"])
    def test_a_failed_write_renders_no_further_piece(self, counted, monkeypatch, to, cpus):
        # With two CPUs the write fails in the front half; the helper is
        # killed and reaped (no_child_is_left).
        report, parent = counted
        usable_cpus(monkeypatch, cpus)
        parent["fail_at"] = 10
        with pytest.raises(BrokenPipeError):
            self._emit_to(to, report, parent, monkeypatch)
        assert parent["runs"] == 10 and max(parent["writes"]) == 9
        assert parent["forks"] == cpus - 1

    @pytest.mark.parametrize("cpus", CPUS)
    def test_a_file_sink_gets_the_helper_s_half_after_this_process_s(
            self, counted, monkeypatch, tmp_path, cpus):
        # Runs of 3 items leave the front half in this process's buffer: it
        # must reach the file before the helper's bytes.
        report, parent = counted
        usable_cpus(monkeypatch, cpus)
        path = tmp_path / "report.json"
        with open(path, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            cli._emit(report, JSON_ARGS)
        assert_same_text(path.read_text(), json.dumps(report, indent=2) + "\n")
        assert parent["forks"] == cpus - 1

    @pytest.mark.parametrize("cpus", CPUS)
    @pytest.mark.parametrize("runs", [cli._FORK_RUNS - 1, cli._FORK_RUNS])
    def test_a_helper_renders_only_from_fork_runs_on_two_cpus(self, counted, monkeypatch,
                                                               runs, cpus):
        _, parent = counted
        usable_cpus(monkeypatch, cpus)
        report = {"iterates": [0.5 ** i for i in range(3 * runs)]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(report, JSON_ARGS)
        assert_same_text(out.getvalue(), json.dumps(report, indent=2) + "\n")
        assert parent["forks"] == (cpus == 2 and runs == cli._FORK_RUNS)

    def test_another_thread_keeps_the_render_in_this_process(self, counted, monkeypatch):
        report, parent = counted
        usable_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli._emit(report, JSON_ARGS)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert_same_text(out.getvalue(), json.dumps(report, indent=2) + "\n")
        assert parent["forks"] == 0 and parent["runs"] == 40

    @pytest.mark.skipif(not all(hasattr(os, f) for f in ("fork", "memfd_create")),
                        reason="needs fork and memfd_create")
    @pytest.mark.parametrize("how", ["helper-raises", "fork-fails", "memfd-fails"])
    @pytest.mark.parametrize("to", ["stdout", "out"])
    def test_a_failed_helper_leaves_its_half_to_this_process(self, counted, monkeypatch, to,
                                                             how):
        report, parent = counted
        usable_cpus(monkeypatch, 2)
        render, here = cli._render, os.getpid()

        def render_here_only(job):
            if os.getpid() != here:
                raise RuntimeError("the helper fails")
            return render(job)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        def no_memfd(name):
            raise OSError(24, "Too many open files")

        if how == "helper-raises":
            monkeypatch.setattr(cli, "_render", render_here_only)
        elif how == "fork-fails":
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.setattr(os, "memfd_create", no_memfd)
        self._emit_to(to, report, parent, monkeypatch)
        assert_same_text("".join(parent["text"]), json.dumps(report, indent=2) + "\n")
        assert parent["writes"] == sorted(parent["writes"])
        assert set(parent["writes"]) == set(range(41))
        assert parent["forks"] == (how == "helper-raises") and parent["runs"] == 40

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("to_out", [True, False], ids=["out", "stdout"])
    def test_failed_report_write_is_a_failure_without_traceback(self, to_out):
        argv = [sys.executable, "-m", "csmetric", "solve-poly", "--m", "3"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv + ["--out", "/dev/full"] if to_out else argv,
                                  stdout=subprocess.DEVNULL if to_out else full,
                                  stderr=subprocess.PIPE, env=cli_env(), timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == (b"csmetric: failure: cannot write report: "
                               b"[Errno 28] No space left on device\n")

    def test_unwritable_out_file_is_a_configuration_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSMETRIC_SEED", raising=False)
        out = tmp_path / "missing" / "report.json"
        assert cli.main(["solve-poly", "--m", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("csmetric: error: cannot write report file: ")
        assert not out.parent.exists()


class TestVerifyThm41:
    def test_degree_three_passes(self):
        proc = run_cli("verify-thm41", "--m", "3", "--samples", "2000",
                       "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["all_passed"] is True
        assert report["schema"] == "csmetric/2"

    def test_scope_rejection_names_the_bound(self):
        proc = run_cli("verify-thm41", "--m", "2")
        assert proc.returncode == 2
        assert b"m >= 3" in proc.stderr

    def test_degree_whose_contraction_bound_underflows_is_a_usage_error(self):
        m = str(10 ** 47)
        proc = run_cli("verify-thm41", "--m", m)
        assert proc.returncode == 2
        assert f"degree m = {m} is too large".encode() in proc.stderr
        assert b"underflows to 0" in proc.stderr
        assert run_cli("solve-poly", "--m", m).returncode == 0  # needs no bound

    def test_byte_identical_reruns(self):
        args = ("verify-thm41", "--m", "3", "--seed", "42", "--samples", "2000",
                "--output", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify-thm41", "--m", "3", "--samples", "1000",
                       "--output", "json", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == b""
        data = out.read_text(encoding="utf-8")
        assert data.endswith("\n")
        assert json.loads(data)["command"] == "verify-thm41"


class TestTextRendering:
    def test_text_is_a_view_of_the_report(self):
        proc = run_cli("verify-thm41", "--m", "3", "--samples", "1000")
        assert proc.returncode == 0
        text = proc.stdout.decode("utf-8")
        assert "PASS  identity_axiom" in text
        assert "root = " in text

    def test_unknown_command_usage_error(self):
        proc = run_cli("no-such-command")
        assert proc.returncode == 2


# --- a command loads only the modules it runs ---------------------------------

AUDIT_MODULES = {"csmetric", "csmetric.errors", "csmetric.expressions", "csmetric.spaces",
                 "csmetric.sampling", "csmetric.axiom_audit", "csmetric.cli"}


@pytest.mark.parametrize("argv,modules", [
    (("verify-space", "--builtin", "app_metric", "--samples", "50"), AUDIT_MODULES),
    (("iterate", "--space", '{"metric":"app_metric","map":{"kind":"scale","factor":0.5}}',
      "--x0", "1"), AUDIT_MODULES | {"csmetric.fixed_point"}),
    (("solve-poly", "--m", "3"),
     AUDIT_MODULES | {"csmetric.fixed_point", "csmetric.poly_solver"}),
], ids=["verify-space", "iterate", "solve-poly"])
def test_a_command_loads_only_the_modules_it_runs(argv, modules):
    # -X importtime names every module as the interpreter first imports it.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "csmetric", *argv],
                          capture_output=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.decode().splitlines() if line.startswith("import time:")}
    assert {name for name in imported if name.startswith("csmetric")} == modules


# What forks a helper, pins it, waits for it, kills it or passes it bytes.
_HELPER_CALLS = {"fork", "sched_setaffinity", "waitpid", "kill", "memfd_create", "pread", "pipe"}


def test_only_the_helper_module_forks():
    """One forked helper mechanism: helper.split, which the report writer and
    the audit share, and which alone pins a process to CPUs.  No other
    module calls or imports these os functions."""
    found = []
    for path in sorted(Path(SRC, "csmetric").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in _HELPER_CALLS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, node.lineno, alias.name) for alias in node.names
                          if alias.name in _HELPER_CALLS]
    assert {name for name, _, _ in found} == {"helper.py"}, found
    assert {call for _, _, call in found} == _HELPER_CALLS - {"pipe"}


# The map layer: the image rule, the image function and the Picard loop.
_MAP_LAYER = {"_IMAGE", "_IMAGES", "_ORBIT", "_image_function", "_orbit"}


def test_only_fixed_point_applies_maps():
    """The map layer lives in fixed_point alone: no other module defines its
    names, and no other calls expressions.compile_function, which compiles
    its loops."""
    defined, compiles = [], []
    for path in sorted(Path(SRC, "csmetric").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.append((path.name, node.id))
            elif isinstance(node, ast.Call) and "compile_function" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                compiles.append(path.name)
    layer = sorted((path, name) for path, name in defined if name in _MAP_LAYER)
    assert layer == sorted(("fixed_point.py", name) for name in _MAP_LAYER)
    assert set(compiles) == {"fixed_point.py"}


def test_only_point_domain_reads_a_domain_kind():
    """A domain answers for its kind: other code reads least, greatest,
    is_discrete, members or contains, and no attribute named kind outside
    the PointDomain class."""
    inside, outside = [], []
    for path in sorted(Path(SRC, "csmetric").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        domain = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "PointDomain"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "kind":
                (inside if id(node) in domain else outside).append((path.name, node.lineno))
    assert outside == []
    assert {name for name, _ in inside} == {"spaces.py"}


def _loaded_modules(statement):
    code = f"import sys; {statement}; print(*sorted(m for m in sys.modules if 'csmetric' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode().split()


@pytest.mark.parametrize("submodule", ["cli", "expressions"])
def test_a_submodule_taken_from_the_package_loads_what_its_import_loads(submodule):
    # The import system asks the package for the name before it imports the
    # submodule, so the name must not be looked up in the library modules.
    modules = _loaded_modules(f"from csmetric import {submodule}")
    assert modules == _loaded_modules(f"import csmetric.{submodule}")
    assert not {"csmetric.fixed_point", "csmetric.poly_solver"} & set(modules)


def test_commands_load_neither_dataclasses_nor_inspect():
    # Every command is a fresh interpreter; dataclasses would cost each one
    # its import of inspect, dis and tokenize.
    code = ("import sys, csmetric.cli as cli\n"
            "codes = [cli.main(['verify-space', '--builtin', 'app_metric', '--samples', '50']),\n"
            "         cli.main(['verify-thm41', '--m', '3', '--samples', '50'])]\n"
            "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "[0, 0] []"


def test_the_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"csmetric": "csmetric.cli:main"}


def test_the_package_lists_the_same_64_names_every_way():
    import csmetric
    namespace = {}
    exec("from csmetric import *", namespace)
    listed = {name for name in dir(csmetric) if not name.startswith("_")
              and not isinstance(getattr(csmetric, name), type(csmetric))}
    assert len(csmetric.__all__) == len(set(csmetric.__all__)) == 64
    assert set(namespace) - {"__builtins__"} == listed == set(csmetric.__all__)


# --- the command line is the parser: each command takes the flags it reads ---

SPACE_SOURCE = {"--builtin", "--space", "--space-file", "--params", "--alpha"}
SHARED = {"--seed", "--output", "--out"}
OPTIONS = {
    "solve-poly": {"--m", "--x0", "--tol"} | SHARED,
    "verify-space": {"--samples"} | SPACE_SOURCE | SHARED,
    "check-contraction": {"--map", "--r", "--samples"} | SPACE_SOURCE | SHARED,
    "iterate": {"--map", "--x0", "--max-iter", "--tol"} | SPACE_SOURCE | SHARED,
    "verify-thm41": {"--m", "--samples", "--tol"} | SHARED,
}


def test_each_command_takes_only_the_flags_its_handler_reads():
    (commands,) = [action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {name: {option for action in parser._actions
                      for option in action.option_strings} - {"-h", "--help"}
               for name, parser in commands.choices.items()}
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 44


APP = '{"metric":"app_metric"}'
HALVING = '{"metric":"app_metric","map":{"kind":"scale","factor":0.5}}'


@pytest.mark.parametrize("argv,message", [
    pytest.param(("verify-space", "--builtin", "app_metric", "--tol", "1e-3"),
                 b"unrecognized arguments: --tol 1e-3", id="verify-space-tol"),
    pytest.param(("verify-space", "--builtin", "app_metric", "--map", '{"kind":"identity"}'),
                 b"unrecognized arguments: --map", id="verify-space-map"),
    pytest.param(("check-contraction", "--space",
                  '{"metric":"app_metric","map":{"kind":"poly","m":3}}', "--tol", "1e-3"),
                 b"unrecognized arguments: --tol 1e-3", id="check-contraction-tol"),
    pytest.param(("solve-poly", "--m", "3", "--samples", "5"),
                 b"unrecognized arguments: --samples 5", id="solve-poly-samples"),
    pytest.param(("iterate", "--space", HALVING, "--x0", "1", "--samples", "5"),
                 b"unrecognized arguments: --samples 5", id="iterate-samples"),
    pytest.param(("verify-space", "--builtin", "abs_sum", "--space", APP),
                 b"argument --space: not allowed with argument --builtin", id="two-spaces"),
    pytest.param(("verify-space", "--space", APP, "--params", "3", "4"),
                 b"csmetric: error: --params goes with --builtin", id="params-without-builtin"),
])
def test_rejected_input_is_one_error_line(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    (error,) = [line for line in proc.stderr.splitlines() if b"error:" in line]
    assert message in error


# --- contract fuzz: exit 0, 1 or 2 and no exception, whatever the numbers ----

REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 4.0, 100.0, -1.0, 5e-324, 1e-300,
                     2.0 ** 53, 1e200, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
AT_LEAST_ONE = st.one_of(
    st.sampled_from([1.0, 4.0, 100.0, 1e160, 1e200, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=1.0, allow_infinity=False))
# A naturals max between 1e6 and 2**53 is left out: before members() became
# a range, such a domain allocated gigabytes before it failed.
NATURALS_MAX = st.one_of(st.integers(-10, 10 ** 6),
                         st.floats(min_value=2.0 ** 53, max_value=1.7e308))


def bounds(reals):
    return st.lists(reals, min_size=2, max_size=2, unique=True).map(sorted)


DOMAINS = st.one_of(
    bounds(REALS).map(lambda b: {"kind": "real_interval", "lo": b[0], "hi": b[1]}),
    NATURALS_MAX.map(lambda n: {"kind": "naturals_up_to", "max": n}),
    st.lists(REALS, min_size=1, max_size=5).map(
        lambda e: {"kind": "finite_real_set", "elements": e}))
MAPS = st.one_of(
    st.just({"kind": "identity"}),
    REALS.map(lambda v: {"kind": "const", "value": v}),
    REALS.map(lambda k: {"kind": "scale", "factor": k}),
    st.one_of(st.integers(3, 6), st.sampled_from([10 ** 80, 1e300])).map(
        lambda m: {"kind": "poly", "m": m}))
ALPHAS = st.one_of(
    st.sampled_from(sorted(BUILTIN_ALPHAS)).map(lambda a: {"id": a}),
    AT_LEAST_ONE.map(lambda k: {"id": "linear", "params": [k]}))
PARAMS = {"squared_diff": bounds(AT_LEAST_ONE), "abs_sum": bounds(REALS),
          "discrete_nat": NATURALS_MAX.map(lambda n: [n]), "app_metric": st.just([])}


@st.composite
def space_docs(draw):
    name = draw(st.sampled_from(BUILTIN_SPACES))
    doc = {"metric": name, "params": draw(PARAMS[name]), "map": draw(MAPS)}
    for key, values in (("domain", DOMAINS), ("alpha", ALPHAS)):
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


@settings(derandomize=True, deadline=None, max_examples=200)
@given(command=st.sampled_from(["verify-space", "check-contraction", "iterate"]),
       doc=space_docs(), x0=REALS)
@example("verify-space", {"metric": "discrete_nat", "params": [1e300]}, 0.0)
@example("verify-space", {"metric": "discrete_nat", "params": [2.0 ** 53 + 2]}, 0.0)
@example("verify-space", {"metric": "squared_diff", "params": [1.0, 1e200]}, 0.0)
@example("iterate", {"metric": "app_metric", "map": {"kind": "poly", "m": 1e300}}, 0.5)
def test_cli_contract_holds_on_extreme_documents(command, doc, x0):
    argv = [command, "--space", json.dumps(doc)]
    if command == "iterate":
        argv += [f"--x0={x0!r}", "--max-iter", "50"]
    else:
        argv += ["--samples", "20"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    assert code in (0, 1, 2)

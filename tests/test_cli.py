import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("CSMETRIC_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "csmetric", *argv],
                          capture_output=True, env=env)


class TestSolvePoly:
    def test_json_report_matches_oracle(self):
        proc = run_cli("solve-poly", "--m", "3", "--x0", "0.5", "--tol", "1e-12",
                       "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["schema"] == "csmetric/1"
        assert report["command"] == "solve-poly"
        assert abs(report["root"] - 0.012345679299142365) < 1e-11
        assert abs(report["root"] - report["oracle_root"]) == report["agreement"]
        assert report["converged"] is True
        assert proc.stdout.endswith(b"\n")

    def test_degree_two_is_a_usage_error(self):
        proc = run_cli("solve-poly", "--m", "2")
        assert proc.returncode == 2
        assert b"m >= 3" in proc.stderr


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
        pytest.param('{"metric":"abs_sum","domain":{"kind":"real_interval","lo":"a","hi":2}}',
                     b"interval bounds", id="domain-lo-string"),
        pytest.param('{"metric":"app_metric","map":{"kind":"scale","factor":"x"}}',
                     b"factor", id="scale-factor-string"),
        pytest.param('{"metric":"app_metric","map":{"kind":"poly","m":"x"}}',
                     b"degree", id="poly-degree-string"),
    ])
    def test_malformed_space_json(self, space, message):
        proc = run_cli("verify-space", "--space", space, "--samples", "10")
        assert proc.returncode == 2
        assert message in proc.stderr
        assert b"Traceback" not in proc.stderr

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
        assert report["result"]["orbit"]["step_distances"][0] == 0.5

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


class TestVerifyThm41:
    def test_degree_three_passes(self):
        proc = run_cli("verify-thm41", "--m", "3", "--samples", "2000",
                       "--output", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["all_passed"] is True
        assert report["schema"] == "csmetric/1"

    def test_scope_rejection_names_the_bound(self):
        proc = run_cli("verify-thm41", "--m", "2")
        assert proc.returncode == 2
        assert b"m >= 3" in proc.stderr

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

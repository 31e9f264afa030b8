"""Byte-for-byte gate on the CLI reports.

Each case runs ``cli.main`` in-process with ``--out`` and compares the file
it writes with the report stored under ``tests/golden/``.  A refactor that
changes a verdict, a margin, a witness or a field order fails here.  The
golden files are never rewritten by the test suite.
"""

import json
from itertools import pairwise
from pathlib import Path

import pytest

from csmetric import cli, eval_metric, picard

GOLDEN = Path(__file__).resolve().parent / "golden"

POLY3 = '{"metric":"app_metric","map":{"kind":"poly","m":3}}'
HALVING = '{"metric":"app_metric","map":{"kind":"scale","factor":0.5}}'

CASES = {
    **{f"verify-space-{name}.json": ["verify-space", "--builtin", name,
                                     "--samples", "3000", "--output", "json"]
       for name in ("squared_diff", "discrete_nat", "abs_sum", "app_metric")},
    **{f"verify-thm41-m{m}.json": ["verify-thm41", "--m", str(m),
                                   "--samples", "3000", "--output", "json"]
       for m in (3, 4, 5)},
    "verify-thm41-m3.txt": ["verify-thm41", "--m", "3", "--samples", "1000"],
    "verify-space-squared_diff.txt": ["verify-space", "--builtin", "squared_diff",
                                      "--samples", "3000"],
    "solve-poly-m3.txt": ["solve-poly", "--m", "3"],
    "iterate-halving.txt": ["iterate", "--space", HALVING, "--x0", "1.0"],
    "check-contraction-poly3.txt": ["check-contraction", "--space", POLY3,
                                    "--r", "0.0125", "--samples", "3000"],
    "iterate-halving.json": ["iterate", "--space", HALVING, "--x0", "1.0",
                             "--output", "json"],
    "iterate-poly3.json": ["iterate", "--space", POLY3, "--x0", "0.5",
                           "--output", "json"],
    "check-contraction-poly3.json": ["check-contraction", "--space", POLY3,
                                     "--r", "0.0125", "--samples", "3000",
                                     "--output", "json"],
    "solve-poly-m3.json": ["solve-poly", "--m", "3", "--output", "json"],
    "verify-space-app_metric-custom-alpha.json": [
        "verify-space", "--builtin", "app_metric", "--alpha", "2*sqrt(t)+t^2",
        "--samples", "3000", "--seed", "7", "--output", "json"],
    "verify-space-discrete_nat-identity-alpha.json": [
        "verify-space", "--builtin", "discrete_nat", "--alpha", "identity",
        "--samples", "3000", "--output", "json"],
    # Each built-in metric on a domain kind other than its default one.
    **{f"verify-space-{name}.json": ["verify-space", "--space", space,
                                     "--samples", "3000", "--output", "json"]
       for name, space in [
           ("abs_sum-finite-set", '{"metric":"abs_sum","domain":{"kind":"finite_real_set",'
                                  '"elements":[1,2.5,4,7.25,10]}}'),
           ("app_metric-naturals", '{"metric":"app_metric","domain":'
                                   '{"kind":"naturals_up_to","max":20}}'),
           ("discrete_nat-interval", '{"metric":"discrete_nat","domain":'
                                     '{"kind":"real_interval","lo":0,"hi":60}}')]},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CSMETRIC_SEED", raising=False)
    out = tmp_path / name
    cli.main([*CASES[name], "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["iterate-halving.json", "iterate-poly3.json"])
def test_orbit_report_recomputes_its_step_distances(name):
    # A report lists the orbit only: each d_k = C(x_k, x_k, x_{k+1}) is
    # recomputed, bit for bit, from two of its iterates.
    report = json.loads((GOLDEN / name).read_bytes())
    args = cli._build_parser().parse_args(CASES[name])
    space, self_map = cli._build_space(args)
    orbit = picard(space, self_map, args.x0, args.tol, args.max_iter).orbit
    steps = [eval_metric(space, a, a, b) for a, b in pairwise(report["iterates"])]
    assert list(map(float.hex, steps)) == list(map(float.hex, orbit.step_distances))
    assert report["fixed_point"] == report["iterates"][-1]


def test_solve_report_root_is_the_last_iterate():
    report = json.loads((GOLDEN / "solve-poly-m3.json").read_bytes())
    assert report["root"] == report["iterates"][-1]

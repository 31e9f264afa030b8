"""Byte-for-byte gate on the CLI reports.

Each case runs ``cli.main`` in-process with ``--out`` and compares the file
it writes with the report stored under ``tests/golden/``.  A refactor that
changes a verdict, a margin, a witness or a field order fails here.  The
golden files are never rewritten by the test suite.
"""

from pathlib import Path

import pytest

from csmetric import cli

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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CSMETRIC_SEED", raising=False)
    out = tmp_path / name
    cli.main([*CASES[name], "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / name).read_bytes()

"""Command-line front end.

Commands
--------
solve-poly          solve the degree-m polynomial by fixed-point iteration
verify-space        audit a space: identity axiom, composed and classic
                    triangle inequalities, symmetry
check-contraction   estimate the contraction factor of a map, optionally
                    checking a claimed factor
iterate             run Picard iteration on a space and map
verify-thm41        run the full polynomial verification pipeline

Exit codes: 0 all verdicts passed / solve converged, 1 a verdict failed or
the solve did not converge, 2 usage or configuration error.

Reports are built as a single JSON-ready object with a fixed field order
("schema": "csmetric/1" first); text output is a rendering of that same
object.  The environment variable CSMETRIC_SEED overrides --seed.  Output
is UTF-8 and newline-terminated, and identical configurations produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .axiom_audit import (Verdict, check_classic_triangle,
                          check_composed_triangle, check_identity_axiom,
                          check_symmetry)
from .errors import ConfigurationError, CsmetricError, DomainError
from .fixed_point import check_banach, estimate_contraction_factor, picard
from .poly_solver import bisection_oracle, solve_poly, verify_theorem_4_1
from .sampling import SampleConfig
from .spaces import (ComposedSpace, SelfMap, make_alpha, map_from_json,
                     space_from_json, space_to_json)

SCHEMA = "csmetric/1"

__all__ = ["RunConfig", "run", "main", "SCHEMA"]


@dataclass
class RunConfig:
    """Parsed invocation: the command plus its effective options."""

    command: str
    space_spec: dict | None = None
    seed: int = 42
    samples: int = 10000
    tol: float = 1e-12
    output: str = "text"
    out_path: str | None = None
    options: dict = field(default_factory=dict)


def _load_space_spec(args) -> dict:
    """Assemble the space document from --space-file, --space, or --builtin,
    then apply the --alpha and --map overrides."""
    if args.space_file:
        try:
            with open(args.space_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read space file: {exc}") from None
        doc = _parse_json(text, "space")
    elif args.space:
        doc = _parse_json(args.space, "space")
    elif args.builtin:
        doc = {"metric": args.builtin}
        if args.params:
            doc["params"] = args.params
    else:
        raise ConfigurationError(
            "a space is required: pass --builtin NAME, --space JSON, or --space-file PATH")
    if args.alpha:
        doc["alpha"] = make_alpha(args.alpha).to_json()
    if args.map_spec:
        doc["map"] = _parse_json(args.map_spec, "map")
    return doc


def _parse_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed {what} JSON near '{exc.pos}': {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} JSON must be an object")
    return doc


def _build_space(config: RunConfig) -> tuple[ComposedSpace, SelfMap | None]:
    doc = config.space_spec or {}
    space = space_from_json(doc)
    self_map = None
    if "map" in doc:
        self_map = map_from_json(doc["map"], space.domain)
    return space, self_map


def _verdict_rows(verdicts: list[dict]) -> list[str]:
    rows = []
    for item in verdicts:
        v = item["verdict"]
        status = "PASS" if v["passed"] else "FAIL"
        row = f"{status}  {item['name']}  checked={v['checked']}  worst_margin={v['worst_margin']:.6g}"
        if v["witness"] is not None:
            row += f"  witness={v['witness']}"
        rows.append(row)
    return rows


def _render_text(report: dict) -> str:
    lines = [f"csmetric {report['command']}"]
    if "hypotheses" in report:
        lines.extend(_verdict_rows(report["hypotheses"]))
    if "checks" in report:
        lines.extend(_verdict_rows(report["checks"]))
    for key in ("m", "root", "oracle_root", "agreement", "converged", "iterations",
                "fixed_point", "residual", "sup_ratio", "argmax", "samples"):
        if key in report:
            lines.append(f"{key} = {report[key]}")
    if "exit" in report:
        lines.append(f"exit = {report['exit']}")
    return "\n".join(lines)


# --- command implementations -------------------------------------------------

def _cmd_solve_poly(config: RunConfig) -> tuple[int, dict]:
    m = config.options["m"]
    x0 = config.options.get("x0", 0.5)
    result = solve_poly(m, x0, config.tol)
    oracle = bisection_oracle(m, config.tol)
    agreement = abs(result.fixed_point - oracle)
    ok = result.converged and agreement <= 10.0 * config.tol
    report = {
        "m": m,
        "x0": x0,
        "tol": config.tol,
        "root": result.fixed_point,
        "oracle_root": oracle,
        "agreement": agreement,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "result": result.to_json_dict(),
    }
    return (0 if ok else 1), report


def _cmd_verify_space(config: RunConfig) -> tuple[int, dict]:
    space, _ = _build_space(config)
    cfg = SampleConfig(seed=config.seed, count=config.samples)
    checks: list[tuple[Verdict, bool]] = [
        (check_identity_axiom(space, cfg), True),
        (check_composed_triangle(space, cfg), True),
        (check_classic_triangle(space, cfg), False),  # informational only
        (check_symmetry(space, cfg), space.symmetric_claim),
    ]
    gate_failed = any(gated and not v.passed for v, gated in checks)
    report = {
        "space": space_to_json(space),
        "seed": config.seed,
        "samples": config.samples,
        "checks": [{"name": v.check, "gate": gated, "verdict": v.to_json_dict()}
                   for v, gated in checks],
        "passed": not gate_failed,
    }
    return (1 if gate_failed else 0), report


def _cmd_check_contraction(config: RunConfig) -> tuple[int, dict]:
    space, self_map = _build_space(config)
    if self_map is None:
        raise ConfigurationError(
            "check-contraction needs a map: add a 'map' field or pass --map JSON")
    cfg = SampleConfig(seed=config.seed, count=config.samples)
    estimate = estimate_contraction_factor(space, self_map, cfg)
    report = {
        "space": space_to_json(space),
        "map": self_map.id,
        "seed": config.seed,
        "samples": estimate.samples,
        "sup_ratio": estimate.sup_ratio,
        "argmax": list(estimate.argmax_tuple),
    }
    exit_code = 0
    r = config.options.get("r")
    if r is not None:
        verdict = check_banach(space, self_map, r, cfg)
        report["r"] = r
        report["checks"] = [{"name": verdict.check, "verdict": verdict.to_json_dict()}]
        exit_code = 0 if verdict.passed else 1
    return exit_code, report


def _cmd_iterate(config: RunConfig) -> tuple[int, dict]:
    space, self_map = _build_space(config)
    if self_map is None:
        raise ConfigurationError("iterate needs a map: add a 'map' field or pass --map JSON")
    x0 = config.options["x0"]
    result = picard(space, self_map, x0, config.tol,
                    config.options.get("max_iter", 10000))
    report = {
        "space": space_to_json(space),
        "map": self_map.id,
        "x0": x0,
        "tol": config.tol,
        "fixed_point": result.fixed_point,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "result": result.to_json_dict(),
    }
    return (0 if result.converged else 1), report


def _cmd_verify_thm41(config: RunConfig) -> tuple[int, dict]:
    m = config.options["m"]
    if not isinstance(m, int) or m < 3:
        raise ConfigurationError(
            f"the verification pipeline covers degrees m >= 3; got m={m}")
    body = verify_theorem_4_1(m, seed=config.seed, samples=config.samples,
                              tol=config.tol)
    report = {"seed": config.seed, "samples": config.samples, "tol": config.tol}
    report.update(body)
    return (0 if body["all_passed"] else 1), report


_COMMANDS = {
    "solve-poly": _cmd_solve_poly,
    "verify-space": _cmd_verify_space,
    "check-contraction": _cmd_check_contraction,
    "iterate": _cmd_iterate,
    "verify-thm41": _cmd_verify_thm41,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute a parsed configuration; returns (exit_code, report object)."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise ConfigurationError(f"unknown command {config.command!r}")
    exit_code, body = handler(config)
    return exit_code, {"schema": SCHEMA, "command": config.command, **body}


# --- argument parsing ---------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type for --tol, --r and --x0: a float that is neither NaN
    nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=42,
                        help="sampling seed (default 42; CSMETRIC_SEED overrides)")
    parser.add_argument("--samples", type=int, default=10000,
                        help="sample count for audits (default 10000)")
    parser.add_argument("--tol", type=_finite_float, default=1e-12,
                        help="solver tolerance (default 1e-12)")
    parser.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format (default text)")
    parser.add_argument("--out", dest="out_path", default=None,
                        help="write the report to this file instead of stdout")


def _add_space_options(parser: argparse.ArgumentParser):
    parser.add_argument("--builtin", choices=("squared_diff", "discrete_nat",
                                              "abs_sum", "app_metric"),
                        help="use a built-in space")
    parser.add_argument("--params", type=float, nargs="*",
                        help="domain truncation parameters for the built-in")
    parser.add_argument("--space", help="inline space JSON document")
    parser.add_argument("--space-file", help="path to a space JSON document")
    parser.add_argument("--alpha",
                        help="override the composing function: a built-in id or an expression in t")
    parser.add_argument("--map", dest="map_spec",
                        help="map JSON, e.g. '{\"kind\": \"scale\", \"factor\": 0.5}'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmetric",
        description="Composed S-metric spaces: axiom audits and fixed-point solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-poly", help="solve the degree-m polynomial equation")
    p.add_argument("--m", type=int, required=True, help="degree parameter, m >= 3")
    p.add_argument("--x0", type=_finite_float, default=0.5, help="start point in [0, 1]")
    _add_common(p)

    p = sub.add_parser("verify-space", help="audit the axioms of a space")
    _add_space_options(p)
    _add_common(p)

    p = sub.add_parser("check-contraction", help="estimate a map's contraction factor")
    _add_space_options(p)
    p.add_argument("--r", type=_finite_float, default=None,
                   help="also check the claimed contraction factor r in (0, 1)")
    _add_common(p)

    p = sub.add_parser("iterate", help="run Picard iteration on a space and map")
    _add_space_options(p)
    p.add_argument("--x0", type=_finite_float, required=True, help="start point")
    p.add_argument("--max-iter", type=int, default=10000, dest="max_iter")
    _add_common(p)

    p = sub.add_parser("verify-thm41", help="run the full polynomial verification pipeline")
    p.add_argument("--m", type=int, required=True, help="degree parameter, m >= 3")
    _add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    env_seed = os.environ.get("CSMETRIC_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(
                f"CSMETRIC_SEED must be an integer, got {env_seed!r}") from None
    options = {}
    for name in ("m", "x0", "max_iter", "r"):
        if hasattr(args, name) and getattr(args, name) is not None:
            options[name] = getattr(args, name)
    config = RunConfig(command=args.command, seed=seed, samples=args.samples,
                       tol=args.tol, output=args.output, out_path=args.out_path,
                       options=options)
    if args.command in ("verify-space", "check-contraction", "iterate"):
        config.space_spec = _load_space_spec(args)
    return config


def _emit(report: dict, config: RunConfig) -> None:
    if config.output == "json":
        text = json.dumps(report, indent=2, allow_nan=True)
    else:
        text = _render_text(report)
    text += "\n"
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        exit_code, report = run(config)
        report["exit"] = exit_code
        _emit(report, config)
        return exit_code
    except (ConfigurationError, DomainError) as exc:
        print(f"csmetric: error: {exc}", file=sys.stderr)
        return 2
    except CsmetricError as exc:
        print(f"csmetric: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

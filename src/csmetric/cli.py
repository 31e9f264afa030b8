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
("schema": "csmetric/2" first); text output is a rendering of that same
object.  The iterate and solve-poly reports list the orbit once, as
"iterates"; each step distance C(x_k, x_k, x_{k+1}) is derivable from two of
them.  The environment variable CSMETRIC_SEED overrides --seed.  Output
is UTF-8 and newline-terminated, and identical configurations produce
byte-identical JSON.  A JSON report with a long list (8 runs of 4096 items,
as a long iterate orbit has) is rendered by two processes where two CPUs are
usable, with the same bytes; see ``_emit``.  A long audit is evaluated by two
processes too; see ``axiom_audit._audit``.  Both fork through ``helper.split``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .axiom_audit import (DEFAULT_MAX_ITER, DEFAULT_TOL, _audit, _identity, _may_fork, _symmetry,
                          _triangles)
from .errors import ConfigurationError, CsmetricError, DomainError
from .sampling import SampleConfig
from .spaces import (BUILTIN_SPACES, ComposedSpace, SelfMap, make_alpha,
                     map_from_json, space_from_json, space_to_json)

SCHEMA = "csmetric/2"

__all__ = ["run", "main", "SCHEMA"]


def _parse_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed {what} JSON near '{exc.pos}': {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} JSON must be an object")
    return doc


def _build_space(args: argparse.Namespace) -> tuple[ComposedSpace, SelfMap | None]:
    """The space that --builtin, --space or --space-file names (argparse
    admits exactly one) with the --alpha override, and the map of its
    document or of --map, which every command with a --map needs."""
    if args.params is not None and args.builtin is None:
        raise ConfigurationError("--params goes with --builtin")
    if args.space_file is not None:
        try:
            with open(args.space_file, "r", encoding="utf-8") as fh:
                doc = _parse_json(fh.read(), "space")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read space file: {exc}") from None
    elif args.space is not None:
        doc = _parse_json(args.space, "space")
    else:
        doc = {"metric": args.builtin, "params": args.params or []}
    if args.alpha is not None:
        doc["alpha"] = make_alpha(args.alpha).to_json()
    if getattr(args, "map_spec", None) is not None:  # verify-space has no --map
        doc["map"] = _parse_json(args.map_spec, "map")
    space = space_from_json(doc)
    if "map" in doc:
        return space, map_from_json(doc["map"], space.domain)
    if hasattr(args, "map_spec"):
        raise ConfigurationError(
            f"{args.command} needs a map: add a 'map' field or pass --map JSON")
    return space, None


def _render_text(report: dict) -> str:
    lines = [f"csmetric {report['command']}"]
    for item in report.get("hypotheses", report.get("checks", ())):
        v = item["verdict"]
        status = "PASS" if v["passed"] else "FAIL"
        row = f"{status}  {item['name']}  checked={v['checked']}  worst_margin={v['worst_margin']:.6g}"
        if v["witness"] is not None:
            row += f"  witness={v['witness']}"
        lines.append(row)
    for key in ("m", "root", "oracle_root", "agreement", "converged", "iterations",
                "fixed_point", "residual", "sup_ratio", "argmax", "samples", "exit"):
        if key in report:
            lines.append(f"{key} = {report[key]}")
    return "\n".join(lines)


# --- command implementations -------------------------------------------------

# Handlers import fixed_point and poly_solver, so only commands that run them load them.

def _cmd_solve_poly(args: argparse.Namespace) -> tuple[int, dict]:
    from .poly_solver import oracle_agreement, solve_poly
    result = solve_poly(args.m, args.x0, args.tol)
    oracle = oracle_agreement(args.m, result, args.tol)
    report = {
        "m": args.m,
        "x0": args.x0,
        "tol": args.tol,
        "root": result.fixed_point,
        **oracle.details,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "iterates": result.orbit.iterates,
    }
    return (0 if oracle.passed else 1), report


def _cmd_verify_space(args: argparse.Namespace) -> tuple[int, dict]:
    space, _ = _build_space(args)
    cfg = SampleConfig(seed=args.seed, count=args.samples)
    verdicts = _audit(cfg, [  # both triangles in one kernel
        lambda: _identity(space),
        lambda: _triangles(space, {"composed_triangle": space.alpha, "classic_triangle": None}),
        lambda: _symmetry(space),
    ])
    # The classic triangle is informational only: it is not a gate.
    checks = list(zip(verdicts, (True, True, False, space.symmetric_claim)))
    gate_failed = any(gated and not v.passed for v, gated in checks)
    report = {
        "space": space_to_json(space),
        "seed": args.seed,
        "samples": args.samples,
        "checks": [{"name": v.check, "gate": gated, "verdict": v.to_json_dict()}
                   for v, gated in checks],
        "passed": not gate_failed,
    }
    return (1 if gate_failed else 0), report


def _cmd_check_contraction(args: argparse.Namespace) -> tuple[int, dict]:
    from .fixed_point import _banach, _estimate
    space, self_map = _build_space(args)
    cfg = SampleConfig(seed=args.seed, count=args.samples)
    checks = [lambda: _estimate(space, self_map, cfg)]
    if args.r is not None:
        checks.append(lambda: _banach(space, self_map, args.r))
    estimate, *banach = _audit(cfg, checks)
    report = {
        "space": space_to_json(space),
        "map": self_map.id,
        "seed": args.seed,
        "samples": estimate.samples,
        "sup_ratio": estimate.sup_ratio,
        "argmax": list(estimate.argmax_tuple),
    }
    exit_code = 0
    if args.r is not None:
        (verdict,) = banach
        report["r"] = args.r
        report["checks"] = [{"name": verdict.check, "verdict": verdict.to_json_dict()}]
        exit_code = 0 if verdict.passed else 1
    return exit_code, report


def _cmd_iterate(args: argparse.Namespace) -> tuple[int, dict]:
    from .fixed_point import picard
    space, self_map = _build_space(args)
    result = picard(space, self_map, args.x0, args.tol, args.max_iter)
    report = {
        "space": space_to_json(space),
        "map": self_map.id,
        "x0": args.x0,
        "tol": args.tol,
        "fixed_point": result.fixed_point,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "iterates": result.orbit.iterates,
    }
    return (0 if result.converged else 1), report


def _cmd_verify_thm41(args: argparse.Namespace) -> tuple[int, dict]:
    from .poly_solver import verify_theorem_4_1
    body = verify_theorem_4_1(args.m, seed=args.seed, samples=args.samples,
                              tol=args.tol)
    report = {"seed": args.seed, "samples": args.samples, "tol": args.tol, **body}
    return (0 if body["all_passed"] else 1), report


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Execute a parsed command line; returns (exit_code, report object)."""
    exit_code, body = args.handler(args)
    return exit_code, {"schema": SCHEMA, "command": args.command, **body}


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


def _build_parser() -> argparse.ArgumentParser:
    """The command line, whole: each command takes the flags its handler
    reads, and --seed, which solve-poly and iterate accept but do not use."""
    parser = argparse.ArgumentParser(
        prog="csmetric",
        description="Composed S-metric spaces: axiom audits and fixed-point solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, space=False, with_map=False, samples=False,
                tol=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if space:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--builtin", choices=BUILTIN_SPACES,
                                help="use a built-in space")
            source.add_argument("--space", help="inline space JSON document")
            source.add_argument("--space-file", help="path to a space JSON document")
            p.add_argument("--params", type=float, nargs="*",
                           help="domain truncation parameters for --builtin")
            p.add_argument("--alpha", help="override the composing function: "
                                           "a built-in id or an expression in t")
        if with_map:
            p.add_argument("--map", dest="map_spec",
                           help="map JSON, e.g. '{\"kind\": \"scale\", \"factor\": 0.5}'")
        p.add_argument("--seed", type=int, default=SampleConfig.seed,
                       help="sampling seed (default %(default)s; CSMETRIC_SEED overrides)")
        if samples:
            p.add_argument("--samples", type=int, default=SampleConfig.count,
                           help="sample count for audits (default %(default)s)")
        if tol:
            p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL,
                           help="solver tolerance (default %(default)s)")
        p.add_argument("--output", choices=("text", "json"), default="text",
                       help="report format (default text)")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write the report to this file instead of stdout")
        return p

    p = command("solve-poly", _cmd_solve_poly, "solve the degree-m polynomial equation",
                tol=True)
    p.add_argument("--m", type=int, required=True, help="degree parameter, m >= 3")
    p.add_argument("--x0", type=_finite_float, default=0.5, help="start point in [0, 1]")

    command("verify-space", _cmd_verify_space, "audit the axioms of a space",
            space=True, samples=True)

    p = command("check-contraction", _cmd_check_contraction,
                "estimate a map's contraction factor", space=True, with_map=True,
                samples=True)
    p.add_argument("--r", type=_finite_float, default=None,
                   help="also check the claimed contraction factor r in (0, 1)")

    p = command("iterate", _cmd_iterate, "run Picard iteration on a space and map",
                space=True, with_map=True, tol=True)
    p.add_argument("--x0", type=_finite_float, required=True, help="start point")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER, dest="max_iter")

    p = command("verify-thm41", _cmd_verify_thm41,
                "run the full polynomial verification pipeline", samples=True, tol=True)
    p.add_argument("--m", type=int, required=True, help="degree parameter, m >= 3")
    return parser


# A list or tuple holding only these exact types goes to the C encoder in runs
# of _RUN items; any other, one holding a container included, item by item.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_RUN = 4096
_FORK_RUNS = 8  # from this many runs on, two processes render a report (see _emit)


def _jobs(value, pad: str = ""):
    """Yield ``json.dumps(value, indent=2)`` as jobs, for str-keyed values.

    ``indent`` makes the json module fall back to its pure-Python encoder,
    so dicts and nested lists are laid out here as strings, and a list of
    plain scalars as runs of ``_RUN`` items, jobs ``(head, sep, seq, start)``
    that ``_render`` hands to the C encoder, its item separator carrying the
    newline and the indent.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        yield json.dumps(value)
        return
    inner = pad + "  "
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    head, sep = opening + "\n" + inner, ",\n" + inner
    if isinstance(value, dict):
        for key, item in value.items():
            yield f"{head}{json.dumps(key)}: "
            yield from _jobs(item, inner)
            head = sep
    elif _SCALARS.issuperset(map(type, value)):
        for start in range(0, len(value), _RUN):
            yield head, sep, value, start
            head = sep
    else:
        for item in value:
            yield head
            yield from _jobs(item, inner)
            head = sep
    yield "\n" + pad + closing


def _render(job) -> str:
    """The text of one job, a piece: it holds at most one run, and it is
    ASCII."""
    if isinstance(job, str):
        return job
    head, sep, seq, start = job
    return head + json.dumps(seq[start:start + _RUN], separators=(sep, ": "))[1:-1]


def _write(jobs: list, sink) -> None:
    """Write the jobs' pieces to sink in order; see _emit."""
    runs = [i for i, job in enumerate(jobs) if not isinstance(job, str)]
    if len(runs) < _FORK_RUNS or not _may_fork():
        sink.writelines(map(_render, jobs))
        return
    from .helper import split  # only a report that forks loads it
    back = runs[len(runs) // 2]
    if not split(lambda: sink.writelines(map(_render, jobs[:back])),
                 lambda: (piece.encode("ascii") for piece in map(_render, jobs[back:])),
                 lambda blocks: sink.writelines(block.decode("ascii") for block in blocks)):
        sink.writelines(map(_render, jobs[back:]))


def _emit(report: dict, args: argparse.Namespace) -> None:
    """Write the report to --out or stdout, newline-terminated, a piece at a
    time as ``_render`` renders it, so the text is never held whole.

    A JSON report of ``_FORK_RUNS`` runs or more is rendered by two
    processes where the one helper rule allows a fork
    (``axiom_audit._may_fork``).  Through ``helper.split``, which the audit
    shares, a forked helper renders the back half of the runs, and every
    piece after them, into an anonymous file while this process writes the
    front half; then this process copies the helper's bytes in 64 KiB
    blocks, or renders that half itself if the file, the fork or the helper
    failed.  Every piece is ASCII, so the bytes are the serial ones.
    Meanwhile the anonymous file holds up to half the report text, and the
    helper holds its own copy of each page either process writes after the
    fork, and the pages it allocates: on a 4.9 MB orbit report about 2.6 MB
    and 14 MB, which this process's own peak RSS does not show.  At 8 runs
    two processes writing to a file took about 0.72 of the serial time, at
    4 and 6 runs 0.86-1.00 (in process, with the second CPU free;
    ``BENCH_29.json``): below 8 the fork, the reap and the copy-on-write
    faults cost about what the second CPU saves.
    Every report but a long orbit's is far below it."""
    jobs = [*_jobs(report), "\n"] if args.output == "json" else [_render_text(report), "\n"]
    if args.out_path:
        try:
            fh = open(args.out_path, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write report file: {exc}") from None
        with fh:
            _write(jobs, fh)
    else:
        _write(jobs, sys.stdout)
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        env_seed = os.environ.get("CSMETRIC_SEED")
        if env_seed is not None:
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ConfigurationError(
                    f"CSMETRIC_SEED must be an integer, got {env_seed!r}") from None
        exit_code, report = run(args)
        report["exit"] = exit_code
        _emit(report, args)
        return exit_code
    except (ConfigurationError, DomainError) as exc:
        print(f"csmetric: error: {exc}", file=sys.stderr)
        return 2
    except CsmetricError as exc:
        print(f"csmetric: failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # from writing the report; reading fails as a ConfigurationError
        if not args.out_path:
            # Send what stdout still buffers to the null device, so the
            # flush at interpreter exit does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"csmetric: failure: cannot write report: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

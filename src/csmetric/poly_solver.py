"""The polynomial application: solve v^m - (m^4-1) v^(m+1) - m^4 v + 1 = 0
on [0, 1] by Picard iteration of its fixed-point map and verify every
hypothesis the contraction argument needs, cross-checked against an
independent bisection oracle.

The fixed-point map is F(p) = (p^m + 1) / ((m^4 - 1) p^m + m^4); the
algebraic identity residual(m, p) = (F(p) - p) * ((m^4 - 1) p^m + m^4)
ties roots of the polynomial to fixed points of F.
"""

from __future__ import annotations

import sys

from .axiom_audit import (DEFAULT_K_SET, Verdict, _audit, _Collector,
                          _identity, _subhomogeneity, _symmetry, _triangles,
                          check_alpha_zero, check_series_vanishing)
from .errors import DomainError, InternalError
from .fixed_point import DEFAULT_TOL, SolveResult, _banach, picard, uniqueness_probe
from .sampling import SampleConfig
from .spaces import ComposedSpace, Record, SelfMap, _compiled_map, make_builtin_space

__all__ = [
    "PolyProblem",
    "residual",
    "poly_map",
    "contraction_bound",
    "bisection_oracle",
    "oracle_agreement",
    "solve_poly",
    "verify_theorem_4_1",
]

# Fixed-gap tail slices audited by the verification pipeline.  The schedule
# runs far enough that the slowest gap decays through the tolerance.
SERIES_GAPS = (5, 8)
SERIES_SCHEDULE = (5, 10, 20, 40, 80, 160, 320, 640)
SERIES_TOL = 1e-6

_UNIQUENESS_STARTS = (0.0, 0.25, 0.5, 0.75, 1.0)


class PolyProblem(Record):
    """Degree parameter, fixed-point map, and the unit-interval space."""

    m: int
    map: SelfMap
    space: ComposedSpace


def _require_degree(m: int):
    if not isinstance(m, int) or isinstance(m, bool) or m < 3:
        raise DomainError(f"the polynomial family is defined for integer m >= 3, got {m!r}")
    if m ** 4 > sys.float_info.max:
        raise DomainError("degree m is too large: m**4 exceeds the float range")


def residual(m: int, v: float) -> float:
    """Evaluate v^m - (m^4 - 1) v^(m+1) - m^4 v + 1, grouped for stability."""
    _require_degree(m)
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"residual is evaluated on [0, 1], got {v!r}")
    d = float(m ** 4)
    return v ** m * (1.0 - (d - 1.0) * v) - d * v + 1.0


def poly_map(m: int) -> PolyProblem:
    """The fixed-point problem for the degree-m polynomial on [0, 1].

    F maps [0, 1] into [0, 2/m^4], so the unit interval is invariant.
    """
    _require_degree(m)
    d = float(m ** 4)
    space = make_builtin_space("app_metric")
    self_map = _compiled_map(
        f"poly_m{m}", f"lambda p: ((pm := p ** {m}) + 1.0) / (({d!r} - 1.0) * pm + {d!r})",
        space.domain)
    return PolyProblem(m=m, map=self_map, space=space)


def contraction_bound(m: int, derived: bool = False) -> float:
    """A certified contraction factor for the degree-m map.

    For m = 3 the quoted factor is 1/81.  The derived mean-value bound
    m^-7 (|F'| <= m / m^8 on [0, 1]) is tighter and holds for every m >= 3;
    it is the default for m > 3 and available for m = 3 via ``derived``.
    It underflows to 0 from about m = 1.7e46, which is a domain error.
    """
    _require_degree(m)
    if m == 3 and not derived:
        return 1.0 / 81.0
    bound = float(m) ** -7
    if bound == 0.0:
        raise DomainError(f"degree m = {m} is too large: its bound m**-7 underflows to 0")
    return bound


def bisection_oracle(m: int, tol: float) -> float:
    """Locate the root by pure sign bisection on [0, 1].

    Deliberately the simplest possible method: its only correctness
    requirement is the sign change residual(m, 0) = 1 > 0 > residual(m, 1),
    which makes it trustworthy enough to judge the fixed-point solver.
    """
    _require_degree(m)
    if not 0 < tol <= sys.float_info.max:  # NaN and inf included
        raise DomainError(f"oracle tolerance must be positive and finite, got {tol!r}")
    a, b = 0.0, 1.0
    fa, fb = residual(m, a), residual(m, b)
    if not (fa > 0.0 > fb):
        raise InternalError(
            f"endpoint residuals {fa!r}, {fb!r} lost their sign change; residual is broken")
    while (b - a) > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:  # a and b are adjacent floats: tol is below resolution
            break
        fm = residual(m, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def solve_poly(m: int, x0: float = 0.5, tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve the polynomial by Picard iteration of its fixed-point map."""
    problem = poly_map(m)
    return picard(problem.space, problem.map, x0, tol=tol)


def oracle_agreement(m: int, solved: SolveResult, tol: float) -> Verdict:
    """Judge a solve against the bisection oracle: it passes when the solve
    converged to within 10 * tol of the oracle's root.  ``details`` carries
    ``oracle_root`` and ``agreement``."""
    oracle = bisection_oracle(m, tol)
    agreement = abs(solved.fixed_point - oracle)
    slack = 10.0 * tol - agreement
    violated = not (solved.converged and slack >= 0.0)
    return _Collector().add([(solved.fixed_point, oracle)], [slack], [violated]).verdict(
        "oracle_agreement", None, details={"oracle_root": oracle, "agreement": agreement})


def verify_theorem_4_1(m: int, seed: int = SampleConfig.seed,
                       samples: int = SampleConfig.count, tol: float = DEFAULT_TOL) -> dict:
    """Run every hypothesis audit for the degree-m polynomial problem.

    Returns a report with one verdict per hypothesis in fixed order, the
    solved root, the bisection oracle's root, and their agreement.  Failures
    are verdicts, never exceptions.
    """
    problem = poly_map(m)
    space, F = problem.space, problem.map
    cfg = SampleConfig(seed=seed, count=samples)
    r = contraction_bound(m)

    # Identity and Banach read one 3-tuple stream.  As alpha_zero cannot raise
    # on two_sqrt, the first error raised is still the first in report order.
    identity, triangle, symmetry, subhomogeneity, banach = _audit(cfg, [
        lambda: _identity(space),
        lambda: _triangles(space, {"composed_triangle": space.alpha}),
        lambda: _symmetry(space),
        lambda: _subhomogeneity(space.alpha, DEFAULT_K_SET),
        lambda: _banach(space, F, r),
    ])
    hypotheses = [identity, triangle, symmetry, check_alpha_zero(space.alpha), subhomogeneity,
                  banach, check_series_vanishing(space.alpha, r, 2.0, SERIES_GAPS,
                                                 SERIES_SCHEDULE, SERIES_TOL),
                  uniqueness_probe(space, F, _UNIQUENESS_STARTS, tol)]
    solved = picard(space, F, 0.5, tol)
    oracle = oracle_agreement(m, solved, tol)
    hypotheses.append(oracle)

    return {
        "m": m,
        "hypotheses": [{"name": v.check, "verdict": v.to_json_dict()} for v in hypotheses],
        "root": solved.fixed_point,
        **oracle.details,
        "converged": solved.converged,
        "iterations": solved.iterations,
        "all_passed": all(v.passed for v in hypotheses) and solved.converged,
    }

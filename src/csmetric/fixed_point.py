"""Picard iteration, contraction diagnostics, and generalized contraction checks.

``picard`` iterates x -> F(x) and stops once the step distance
C(x_n, x_n, x_{n+1}) falls to the requested tolerance; the residual
C(x, x, F(x)) at the reported point is recomputed independently, and a run
only counts as converged when that residual is also within tolerance.

The five-argument contraction family is represented by ``MfFunction`` with
Banach, Kannan, and Bianchini-max built-ins, together with samplers for the
two selection properties that make the family's fixed-point argument work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .axiom_audit import (_NONNEG_DOMAIN, ABS_TOL, Verdict, _Collector,
                          slack_tolerance)
from .errors import ConfigurationError, DomainError, PreconditionError
from .sampling import SampleConfig, sample_tuples
from .spaces import ComposedSpace, SelfMap, eval_metric

__all__ = [
    "Orbit",
    "SolveResult",
    "MfFunction",
    "ContractionEstimate",
    "banach_mf",
    "kannan_mf",
    "bianchini_mf",
    "picard",
    "estimate_contraction_factor",
    "check_banach",
    "check_m1",
    "check_m2",
    "check_mf_contraction",
    "verify_fixed_point",
    "uniqueness_probe",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000

# Ratios are not formed below this step distance; the contraction inequality
# is vacuous at zero distance.
_RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class Orbit:
    """A Picard orbit with per-step distances d_n = C(x_n, x_n, x_{n+1})."""

    iterates: tuple
    step_distances: tuple

    def to_json_dict(self) -> dict:
        return {"iterates": list(self.iterates),
                "step_distances": list(self.step_distances)}


@dataclass(frozen=True)
class SolveResult:
    fixed_point: float
    iterations: int
    residual: float
    converged: bool
    orbit: Orbit

    def to_json_dict(self) -> dict:
        return {
            "fixed_point": self.fixed_point,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "orbit": self.orbit.to_json_dict(),
        }


@dataclass(frozen=True)
class MfFunction:
    """A continuous five-argument bound used as a generalized contraction."""

    id: str
    fn: Callable[[float, float, float, float, float], float]
    params: tuple[float, ...] = ()


def banach_mf(r: float) -> MfFunction:
    if not (0.0 < r < 1.0):
        raise ConfigurationError(f"Banach factor must lie in (0, 1), got {r!r}")
    return MfFunction(id=f"banach({r!r})", fn=lambda t1, t2, t3, t4, t5: r * t1,
                      params=(r,))


def kannan_mf(a: float) -> MfFunction:
    if not (0.0 <= a < 0.5):
        raise ConfigurationError(f"Kannan coefficient must lie in [0, 1/2), got {a!r}")
    return MfFunction(id=f"kannan({a!r})", fn=lambda t1, t2, t3, t4, t5: a * (t2 + t5),
                      params=(a,))


def bianchini_mf(a: float) -> MfFunction:
    # The max form follows the working derivation; a max of a single sum is
    # not a function of two arguments.
    if not (0.0 <= a < 1.0):
        raise ConfigurationError(f"Bianchini coefficient must lie in [0, 1), got {a!r}")
    return MfFunction(id=f"bianchini({a!r})", fn=lambda t1, t2, t3, t4, t5: a * max(t2, t5),
                      params=(a,))


@dataclass(frozen=True)
class ContractionEstimate:
    """The largest observed ratio C(Fq,Fh,Fw)/C(q,h,w) with its argmax."""

    sup_ratio: float
    argmax_tuple: tuple
    samples: int


def picard(space: ComposedSpace, F: SelfMap, x0, tol: float = DEFAULT_TOL,
           max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate F from x0 until the step distance is at most tol.

    Returns the newest iterate with the full orbit.  ``converged`` is set
    only when the stop was tolerance-driven and the independently recomputed
    residual C(x, x, F(x)) is itself at most tol.
    """
    if not tol > 0:
        raise ConfigurationError("tolerance must be positive")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")
    if not space.domain.contains(x0):
        raise DomainError(f"start point {x0!r} is outside the domain")
    iterates = [x0]
    steps: list[float] = []
    x = x0
    stopped = False
    for _ in range(max_iter):
        y = F.apply(x)
        d = eval_metric(space, x, x, y)
        iterates.append(y)
        steps.append(d)
        if d <= tol:
            stopped = True
            break
        x = y
    fixed_point = iterates[-1]
    residual = eval_metric(space, fixed_point, fixed_point, F.apply(fixed_point))
    orbit = Orbit(iterates=tuple(iterates), step_distances=tuple(steps))
    return SolveResult(fixed_point=fixed_point, iterations=len(steps),
                       residual=residual, converged=stopped and residual <= tol,
                       orbit=orbit)


def estimate_contraction_factor(space: ComposedSpace, F: SelfMap,
                                cfg: SampleConfig) -> ContractionEstimate:
    """Maximum observed image-to-source distance ratio over sampled triples."""
    metric = space.metric.fn
    best = -math.inf
    arg: tuple | None = None
    evaluated = 0
    for tup in sample_tuples(space.domain, 3, cfg):
        q, h, w = tup
        den = metric(q, h, w)
        if den < _RATIO_FLOOR:
            continue
        ratio = metric(F.apply(q), F.apply(h), F.apply(w)) / den
        evaluated += 1
        if ratio > best or (ratio == best and arg is not None and tup < arg):
            best = ratio
            arg = tup
    if arg is None:
        raise ConfigurationError(
            "every sampled triple was degenerate; nothing to estimate")
    return ContractionEstimate(sup_ratio=best, argmax_tuple=arg, samples=evaluated)


def check_banach(space: ComposedSpace, F: SelfMap, r: float,
                 cfg: SampleConfig) -> Verdict:
    """C(Fq, Fh, Fw) <= r * C(q, h, w) over sampled triples."""
    if not (0.0 < r < 1.0):
        raise ConfigurationError(f"contraction factor must lie in (0, 1), got {r!r}")
    metric = space.metric.fn
    col = _Collector()
    for tup in sample_tuples(space.domain, 3, cfg):
        q, h, w = tup
        lhs = metric(F.apply(q), F.apply(h), F.apply(w))
        rhs = r * metric(q, h, w)
        slack = rhs - lhs
        col.add(tup, slack, slack < -slack_tolerance(rhs))
    return col.verdict("banach_contraction", cfg.seed)


def check_m1(Mf: MfFunction, r: float, cfg: SampleConfig,
             guard_variant: str = "definition") -> Verdict:
    """Selection property one: whenever h <= Mf(o, o, 0, w, h) under the
    side guard on w, the reduction h <= r*o must follow.

    The ``definition`` guard is w <= 2o + h; ``alternate`` switches to
    w <= o + 2h, a variant kept available for comparison runs.
    """
    if not (0.0 <= r < 1.0):
        raise ConfigurationError(f"reduction factor must lie in [0, 1), got {r!r}")
    if guard_variant not in ("definition", "alternate"):
        raise ConfigurationError(f"unknown guard variant {guard_variant!r}")
    col = _Collector()
    for tup in sample_tuples(_NONNEG_DOMAIN, 3, cfg):
        o, h, w = tup
        guard_w = (w <= 2 * o + h) if guard_variant == "definition" else (w <= o + 2 * h)
        if guard_w and h <= Mf.fn(o, o, 0.0, w, h):
            rhs = r * o
            slack = rhs - h
            col.add(tup, slack, slack < -slack_tolerance(rhs))
        else:
            col.checked += 1
    return col.verdict("m1", cfg.seed)


def check_m2(Mf: MfFunction, cfg: SampleConfig) -> Verdict:
    """Selection property two: h <= Mf(h, 0, h, h, 0) forces h = 0."""
    col = _Collector()
    for (h,) in sample_tuples(_NONNEG_DOMAIN, 1, cfg):
        if h <= Mf.fn(h, 0.0, h, h, 0.0):
            col.add((h,), -h, h > ABS_TOL)
        else:
            col.checked += 1
    return col.verdict("m2", cfg.seed)


def check_mf_contraction(space: ComposedSpace, F: SelfMap, Mf: MfFunction,
                         cfg: SampleConfig) -> Verdict:
    """Generalized contraction bound over sampled pairs; the space must be
    symmetric for the five distances to play their intended roles."""
    if not space.symmetric_claim:
        raise PreconditionError("the generalized contraction check needs a symmetric space")
    metric = space.metric.fn
    col = _Collector()
    for tup in sample_tuples(space.domain, 2, cfg):
        o, h = tup
        fo, fh = F.apply(o), F.apply(h)
        lhs = metric(fo, fo, fh)
        rhs = Mf.fn(metric(o, o, h), metric(fo, fo, o), metric(fo, fo, h),
                    metric(fh, fh, o), metric(fh, fh, h))
        slack = rhs - lhs
        col.add(tup, slack, slack < -slack_tolerance(rhs))
    return col.verdict("mf_contraction", cfg.seed)


def verify_fixed_point(space: ComposedSpace, F: SelfMap, x,
                       tol: float = DEFAULT_TOL) -> Verdict:
    """Is x a fixed point of F up to tol, measured by C(x, x, F(x))?"""
    residual = eval_metric(space, x, x, F.apply(x))
    passed = residual <= tol
    return Verdict(check="fixed_point_residual", passed=passed, checked=1,
                   witness=None if passed else (x, residual),
                   worst_margin=tol - residual, seed=None)


def uniqueness_probe(space: ComposedSpace, F: SelfMap, starts: Sequence,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> Verdict:
    """Run Picard from every start; pass when all runs converge and all
    reported fixed points coincide to within tol."""
    if not starts:
        raise ConfigurationError("uniqueness probe needs at least one start")
    limits = []
    for checked, x0 in enumerate(starts, 1):
        result = picard(space, F, x0, tol, max_iter)
        if not result.converged:
            return Verdict(check="uniqueness", passed=False, checked=checked,
                           witness=(x0,), worst_margin=-result.residual, seed=None)
        limits.append(result.fixed_point)
    col = _Collector()
    col.checked = len(limits)
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            d = eval_metric(space, limits[i], limits[i], limits[j])
            col.add((limits[i], limits[j]), tol - d, d > tol)
    return col.verdict("uniqueness", None)

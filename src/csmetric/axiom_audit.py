"""Sampling-based auditors for the space axioms and theorem hypotheses.

Every check evaluates an inequality on a deterministic sample and reports a
Verdict.  The slack of a tuple is RHS - LHS of the inequality under test;
a tuple violates when its slack drops below the evaluation tolerance

    tol(rhs) = 1e-9 + 1e-9 * |rhs|

which absorbs double-precision noise from exp/sqrt chains.  The reported
witness is the violating tuple with the most negative slack, ties broken
toward the lexicographically smallest tuple, so results are independent of
evaluation order.  These auditors are falsifiers and evidence gatherers:
a pass is evidence over the sample, not a proof of the quantified claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ConfigurationError, DomainError, NumericError
from .sampling import SampleConfig, sample_tuples
from .spaces import (AlphaFunction, ComposedSpace, PointDomain, SelfMap,
                     eval_alpha, iterate_alpha)

__all__ = [
    "Verdict",
    "ABS_TOL",
    "REL_TOL",
    "slack_tolerance",
    "check_identity_axiom",
    "check_composed_triangle",
    "check_classic_triangle",
    "check_symmetry",
    "check_alpha_zero",
    "check_alpha_subhomogeneity",
    "check_alpha_dominates_orbit",
    "series_tail",
    "check_series_vanishing",
    "DEFAULT_K_SET",
]

ABS_TOL = 1e-9
REL_TOL = 1e-9

# The theorem proofs only invoke subhomogeneity at 2 and its powers; values
# below 1 are unsatisfiable for root-like composing functions.
DEFAULT_K_SET = (1.0, 2.0, 4.0, 8.0)

# Nonnegative-real conditions (subhomogeneity, the M-family properties) are
# sampled from this truncation of [0, inf).
_NONNEG_DOMAIN = PointDomain.real_interval(0.0, 10.0)


def slack_tolerance(rhs: float) -> float:
    """Allowed negative slack for an inequality with right-hand side rhs."""
    if math.isinf(rhs):
        return ABS_TOL
    return ABS_TOL + REL_TOL * abs(rhs)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sampled check.

    ``worst_margin`` is the most negative slack observed (the minimum slack
    over all comparisons; on failure it is the slack at the witness).
    ``details`` carries check-specific diagnostics and is not part of the
    serialized form.
    """

    check: str
    passed: bool
    checked: int
    witness: tuple | None
    worst_margin: float
    seed: int | None = None
    details: Mapping | None = None

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "checked": self.checked,
            "witness": list(self.witness) if self.witness is not None else None,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
        }


class _Collector:
    """Accumulates slacks, tracking the worst comparison with a deterministic
    lexicographic tie-break on the tuple.  Every sampled comparison passes
    through ``add``; a NaN slack compares false against any threshold, so it
    raises instead of counting as a pass."""

    def __init__(self):
        self.checked = 0
        self.worst_slack = math.inf
        self.witness_slack = math.inf
        self.witness: tuple | None = None

    def add(self, tup: tuple, slack: float, violates: bool):
        if slack != slack:
            raise NumericError(f"comparison at {tup!r} evaluated to NaN")
        self.checked += 1
        slack = slack + 0.0  # normalize -0.0
        self.worst_slack = min(self.worst_slack, slack)
        if violates and (slack, tup) < (self.witness_slack, self.witness):
            self.witness_slack = slack
            self.witness = tup

    def verdict(self, check: str, seed: int | None,
                details: Mapping | None = None) -> Verdict:
        if self.checked == 0:
            raise ConfigurationError(f"check {check!r} evaluated an empty sample")
        failed = self.witness is not None
        margin = self.witness_slack if failed else self.worst_slack
        return Verdict(check=check, passed=not failed, checked=self.checked,
                       witness=self.witness, worst_margin=margin, seed=seed,
                       details=details)


def check_identity_axiom(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Self distances vanish exactly; every other sampled triple is strictly
    positive."""
    metric = space.metric.fn
    col = _Collector()
    for (x,) in sample_tuples(space.domain, 1, cfg):
        d = metric(x, x, x)
        col.add((x, x, x), -abs(d), d != 0.0)
    for tup in sample_tuples(space.domain, 3, cfg):
        q, h, w = tup
        d = metric(q, h, w)
        if q == h == w:
            col.add(tup, -abs(d), d != 0.0)
        else:
            # Strict positivity: the slack is the distance itself.
            col.add(tup, d, d <= 0.0)
    return col.verdict("identity_axiom", cfg.seed)


def _triangle_verdict(space: ComposedSpace, cfg: SampleConfig,
                      wrap: Callable[[float], float], check: str) -> Verdict:
    metric = space.metric.fn
    col = _Collector()
    for tup in sample_tuples(space.domain, 4, cfg):
        q, h, w, u = tup
        lhs = metric(q, h, w)
        rhs = wrap(metric(q, q, u)) + wrap(metric(h, h, u)) + wrap(metric(w, w, u))
        slack = rhs - lhs
        col.add(tup, slack, slack < -slack_tolerance(rhs))
    return col.verdict(check, cfg.seed)


def check_composed_triangle(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Triangle inequality with each right-hand term wrapped in alpha."""
    alpha = space.alpha
    return _triangle_verdict(space, cfg, lambda t: eval_alpha(alpha, t),
                             "composed_triangle")


def check_classic_triangle(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Plain (unwrapped) triangle inequality; failing it while the composed
    form passes is what separates these spaces from ordinary S-metric spaces."""
    return _triangle_verdict(space, cfg, lambda t: t, "classic_triangle")


def check_symmetry(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """|C(q,q,h) - C(h,h,q)| stays within tolerance on sampled pairs."""
    metric = space.metric.fn
    col = _Collector()
    for tup in sample_tuples(space.domain, 2, cfg):
        q, h = tup
        a = metric(q, q, h)
        b = metric(h, h, q)
        tol = ABS_TOL + REL_TOL * max(abs(a), abs(b))
        slack = -abs(a - b)
        col.add(tup, slack, slack < -tol)
    return col.verdict("symmetry", cfg.seed)


def check_alpha_zero(alpha: AlphaFunction) -> Verdict:
    """alpha(0) must be exactly zero."""
    value = eval_alpha(alpha, 0.0)
    passed = value == 0.0
    return Verdict(check="alpha_zero", passed=passed, checked=1,
                   witness=None if passed else (0.0, value),
                   worst_margin=0.0 if passed else -abs(value), seed=None)


def check_alpha_subhomogeneity(alpha: AlphaFunction, cfg: SampleConfig,
                               k_set: Sequence[float] = DEFAULT_K_SET) -> Verdict:
    """alpha(k*s + t) <= k*alpha(s) + alpha(t) over sampled (s, t) and each k."""
    if not k_set:
        raise ConfigurationError("k_set must be non-empty")
    if any(k <= 0 for k in k_set):
        raise ConfigurationError("all k values must be positive")
    col = _Collector()
    for s, t in sample_tuples(_NONNEG_DOMAIN, 2, cfg):
        for k in k_set:
            lhs = eval_alpha(alpha, k * s + t)
            rhs = k * eval_alpha(alpha, s) + eval_alpha(alpha, t)
            slack = rhs - lhs
            col.add((k, s, t), slack, slack < -slack_tolerance(rhs))
    return col.verdict("alpha_subhomogeneity", cfg.seed)


def check_alpha_dominates_orbit(space: ComposedSpace, F: SelfMap, x0,
                                n_max: int) -> Verdict:
    """alpha(d_n) <= d_n along the orbit, d_n the successive step distance."""
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    metric = space.metric.fn
    alpha = space.alpha
    col = _Collector()
    x = x0
    for n in range(n_max + 1):
        y = F.apply(x)
        d = metric(x, x, y)
        slack = d - eval_alpha(alpha, d)
        col.add((float(n), d), slack, slack < -slack_tolerance(d))
        x = y
    return col.verdict("alpha_dominates_orbit", None)


def series_tail(alpha: AlphaFunction, r: float, c0: float, n: int, m: int,
                variant: str = "statement") -> float:
    """Evaluate one slice of the iterated-alpha tail sum

        sum_{k=n+3}^{m-2} 2^(k-n-1) * alpha^(k-n+1)(r^k * c0)  +  trailing term

    where the trailing term is 2^(m-n-2) * alpha^(m-n-1)(r^m * c0) in the
    ``statement`` variant and 2^(m-n-3) * alpha^(m-n-1)(r^(m-1) * c0) in the
    ``proof`` variant.  With m < n + 5 the sum is empty and only the trailing
    term is returned.
    """
    if not (0.0 < r < 1.0):
        raise DomainError(f"decay ratio must lie in (0, 1), got {r!r}")
    if c0 < 0:
        raise DomainError(f"initial distance must be nonnegative, got {c0!r}")
    if variant not in ("statement", "proof"):
        raise ConfigurationError(f"unknown series variant {variant!r}")
    total = 0.0
    for k in range(n + 3, m - 1):
        total += 2.0 ** (k - n - 1) * iterate_alpha(alpha, k - n + 1, r ** k * c0)
    if variant == "statement":
        total += 2.0 ** (m - n - 2) * iterate_alpha(alpha, m - n - 1, r ** m * c0)
    else:
        total += 2.0 ** (m - n - 3) * iterate_alpha(alpha, m - n - 1, r ** (m - 1) * c0)
    return total


def check_series_vanishing(alpha: AlphaFunction, r: float, c0: float,
                           gaps: Sequence[int], n_schedule: Sequence[int],
                           tol: float, variant: str = "statement") -> Verdict:
    """For each gap g, evaluate the tail slice at m = n + g along the start
    schedule; the check passes when every gap's final value is at or below
    tol (the finite-schedule reading of "eventually below").
    """
    if not gaps or any(g < 5 for g in gaps):
        raise ConfigurationError("gaps must be non-empty, each >= 5")
    schedule = list(n_schedule)
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigurationError("n_schedule must be non-empty and strictly increasing")
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    values: dict[int, list[float]] = {}
    col = _Collector()
    for g in gaps:
        series = [series_tail(alpha, r, c0, n, n + g, variant) for n in schedule]
        values[int(g)] = series
        final_value = series[-1]
        col.add((float(g), float(schedule[-1]), final_value),
                tol - final_value, final_value > tol)
        col.checked += len(series) - 1
    details = {"n_schedule": schedule, "values": values, "tol": tol}
    return col.verdict("series_vanishing", None, details=details)

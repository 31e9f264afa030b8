"""Sampling-based auditors for the space axioms and theorem hypotheses.

Every check evaluates an inequality on a deterministic sample and reports a
Verdict.  The slack of a tuple is RHS - LHS of the inequality under test;
a tuple violates when its slack drops below the evaluation tolerance

    tol(rhs) = 1e-9 + 1e-9 * |rhs|

which absorbs double-precision noise from exp/sqrt chains.  The reported
witness is the violating tuple with the most negative slack, ties broken
toward the lexicographically smallest tuple, so results are independent of
evaluation order.  ``_audit`` draws each sample stream once, CHUNK tuples
at a time, for every check that reads it, so no whole sample is held, and
replays the checks one by one when anything raises, so an error is the one
they raise run one after another.  Where ``spaces._fused_metric`` gives the
metric's lambda, and for the alpha alone, a check first runs a fused kernel:
its slacks as one comprehension with the metric and alpha inlined, the same
float operations in the same order.  A chunk where that raises or finds
anything to report runs again on the checked kernel.
These auditors are falsifiers and evidence gatherers: a pass is evidence
over the sample, not a proof of the quantified claim.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache
from itertools import compress, islice
from operator import eq

from .errors import ConfigurationError, DomainError, NumericError
from .expressions import compile_fused
from .sampling import SampleConfig, _stream
from .spaces import (_FLOAT_MAX, AlphaFunction, ComposedSpace, PointDomain, Record, SelfMap,
                     _alpha_values, _check_image, _check_metric, _fused_metric, _metric_values,
                     eval_alpha, iterate_alpha, require_in_space)

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

CHUNK = 1024  # tuples per kernel call, so per-chunk lists stay small

# Picard's defaults, which fixed_point exports; the command line reads them here.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000


def slack_tolerance(rhs: float) -> float:
    """Allowed negative slack for an inequality with right-hand side rhs."""
    if math.isinf(rhs):
        return ABS_TOL
    return ABS_TOL + REL_TOL * abs(rhs)


class Verdict(Record):
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
        doc = self._asdict()
        del doc["details"]
        return {**doc, "witness": list(self.witness) if self.witness is not None else None}


class _Collector:
    """Accumulates slacks, tracking the worst comparison with a deterministic
    lexicographic tie-break on the tuple.  Every verdict is built here and
    every comparison passes through ``add``, a batch at a time, in sample
    order; a NaN slack compares false against any threshold, so it raises
    instead of counting as a pass."""

    def __init__(self):
        self.checked = 0
        self.worst_slack = math.inf
        self.witness: tuple | None = None  # (slack, key) of the worst violation

    def add(self, keys: Iterable[tuple], slacks: Sequence[float],
            violates: Sequence[bool]) -> "_Collector":
        """Comparison i is at the i-th key with slack slacks[i], and violates
        when violates[i] is true.  keys is read once, in order, so it may be
        a generator.  Returns the collector."""
        if math.isnan(sum(slacks, 0.0)):  # or inf + -inf, hence the scan
            for i, slack in enumerate(slacks):
                if slack != slack:
                    key = next(islice(keys, i, None))
                    raise NumericError(f"comparison at {key!r} evaluated to NaN")
        self.checked += len(slacks)
        least = min(slacks, default=math.inf) + 0.0  # normalize -0.0
        if least < self.worst_slack:
            self.worst_slack = least
        if any(violates):
            worst = min(compress(zip(slacks, keys), violates))
            worst = (worst[0] + 0.0, worst[1])
            if self.witness is None or worst < self.witness:
                self.witness = worst
        return self

    def verdict(self, check: str, seed: int | None,
                details: Mapping | None = None) -> Verdict:
        if self.checked == 0:
            raise ConfigurationError(f"check {check!r} evaluated an empty sample")
        margin, witness = self.witness or (self.worst_slack, None)
        return Verdict(check=check, passed=witness is None, checked=self.checked,
                       witness=witness, worst_margin=margin, seed=seed,
                       details=details)


def _slacks(lhs: Sequence[float], rhs: Sequence[float]) -> tuple[list, Sequence[bool]]:
    """The slacks of lhs[i] <= rhs[i] and their slack_tolerance violations."""
    slacks = [r - l for l, r in zip(lhs, rhs)]
    # The tolerance is at least ABS_TOL, so a slack above -ABS_TOL needs no rule.
    if min(slacks, default=0.0) >= -ABS_TOL:
        return slacks, ()
    return slacks, [s < -ABS_TOL and s < -slack_tolerance(r) for s, r in zip(slacks, rhs)]


def _fused(template: str, space: ComposedSpace | None,
           alpha: AlphaFunction | None = None) -> Callable | None:
    """template, a lambda over a chunk, compiled with space's metric for C
    and alpha for A (A(x) is x when alpha is None), or None when space's
    metric has no fused form on its domain.  space None: template reads no
    metric."""
    metric = None if space is None else _fused_metric(space)
    if space is not None and metric is None:
        return None
    try:
        return compile_fused(template, metric, alpha and alpha._tree)
    except RecursionError:  # a flat sum of about 490 terms is too deep to inline
        return None


def _fast(kernel: Callable, fused: Callable | None, floor: float = -ABS_TOL) -> Callable:
    """kernel, run only on the chunks where fused(chunk), the same slacks by
    the same float operations, raises, sums to NaN or has a slack below
    floor.  A chunk with no slack below floor has nothing to report (at
    -ABS_TOL, the least tolerance), so its keys and violations are left out.
    A chunk after one with a violation goes to kernel at once, as a check
    that fails tends to fail on every chunk."""
    if fused is None:
        return kernel
    clean = True

    def fast(chunk, cols, d):
        nonlocal clean
        if clean:
            try:
                slacks = fused(chunk)
                total = sum(slacks, 0.0)
                if total == total and min(slacks) >= floor:
                    return (), slacks, ()
            except Exception:  # kernel raises the checked path's error, if any
                pass
        keys, slacks, violates = kernel(chunk, cols, d)
        clean = not any(violates)
        return keys, slacks, violates
    return fast


def _audit(space: ComposedSpace | None, cfg: SampleConfig,
           checks: Sequence[Callable[[], tuple]]) -> list:
    """Run checks on space and return their results, as if one by one.

    Calling a check validates its arguments and gives (parts, finish).  A
    part (domain, arity, kernel) maps a chunk of its sample, the chunk's
    columns cols() and its checked metric batches d, each evaluated on
    first use and then kept for the chunk (d(0, 1, 2) is C(q, h, w),
    d(0, 0, 3) is C(q, q, u)), to keys, slacks and violations.  finish maps
    the collector to the result, or names the verdict.  Kernels share
    columns and batches, so they must not change them.  Each (domain, arity)
    stream is drawn once, a chunk at a time as the loop reads it, so no
    whole sample is held.  If anything raises, the checks run again one by
    one, so the error is a one-by-one run's."""
    try:
        built = [(_Collector(), *build()) for build in checks]
        streams: dict[tuple, list] = {}
        for col, parts, _ in built:
            for domain, arity, kernel in parts:
                streams.setdefault((domain, arity), []).append((col, kernel))
        for (domain, arity), readers in streams.items():
            stream = _stream(domain, arity, cfg)
            while chunk := list(islice(stream, CHUNK)):
                cols = cache(lambda: list(zip(*chunk)))
                d = cache(lambda *pattern: _metric_values(space, *(cols()[c] for c in pattern)))
                for col, kernel in readers:
                    col.add(*kernel(chunk, cols, d))
        return [col.verdict(finish, cfg.seed) if isinstance(finish, str) else finish(col)
                for col, _, finish in built]
    except Exception:
        if len(checks) == 1:
            raise
    return [_audit(space, cfg, [check])[0] for check in checks]


def _identity(space: ComposedSpace) -> tuple:
    def self_distances(chunk, cols, d):
        dist = d(0, 0, 0)
        if not any(dist):  # every slack is zero
            return (), dist, ()
        return [(p, p, p) for (p,) in chunk], [-v for v in dist], [v != 0.0 for v in dist]

    def triples(chunk, cols, d):
        q, h, _ = cols()
        dist = d(0, 1, 2)
        # Strict positivity off the diagonal: the slack is the distance itself.
        if min(dist) > 0 and not any(map(eq, q, h)):  # no q == h: no diagonal triple
            return (), dist, ()
        slacks = [-v if q == h == w else v for v, (q, h, w) in zip(dist, chunk)]
        return chunk, slacks, [s < 0 or (s == 0 and not q == h == w)
                               for s, (q, h, w) in zip(slacks, chunk)]

    # At the floor 0 a chunk passes exactly when it has no violation: every
    # self distance is 0, and so is every diagonal triple's, whose slack is
    # -0.0; any other triple's is above 0, as a zero one turns into -1.0.
    return [(space.domain, 1, _fast(self_distances, _fused(
                "lambda chunk: [0.0 - C(p, p, p) for (p,) in chunk]", space), 0.0)),
            (space.domain, 3, _fast(triples, _fused(
                "lambda chunk: [-C(q, h, w) if q == h == w else C(q, h, w) or -1.0"
                " for q, h, w in chunk]", space), 0.0))], "identity_axiom"


def check_identity_axiom(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Self distances vanish exactly; every other sampled triple is strictly
    positive."""
    return _audit(space, cfg, [lambda: _identity(space)])[0]


def _triangle(space: ComposedSpace, check: str, alpha: AlphaFunction | None) -> tuple:
    def kernel(chunk, cols, d):
        lhs = d(0, 1, 2)
        terms = [d(x, x, 3) for x in range(3)]
        if alpha is not None:
            terms = [_alpha_values(alpha, t) for t in terms]
        return (chunk, *_slacks(lhs, [a + b + c for a, b, c in zip(*terms)]))

    fused = _fused("lambda chunk: [A(C(q, q, u)) + A(C(h, h, u)) + A(C(w, w, u)) - C(q, h, w)"
                   " for q, h, w, u in chunk]", space, alpha)
    return [(space.domain, 4, _fast(kernel, fused))], check


def check_composed_triangle(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Triangle inequality with each right-hand term wrapped in alpha."""
    return _audit(space, cfg, [lambda: _triangle(space, "composed_triangle", space.alpha)])[0]


def check_classic_triangle(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Plain (unwrapped) triangle inequality; failing it while the composed
    form passes is what separates these spaces from ordinary S-metric spaces."""
    return _audit(space, cfg, [lambda: _triangle(space, "classic_triangle", None)])[0]


def _symmetry(space: ComposedSpace) -> tuple:
    def kernel(chunk, cols, d):
        a, b = d(0, 0, 1), d(1, 1, 0)
        slacks = [-abs(x - y) for x, y in zip(a, b)]
        if min(slacks) >= -ABS_TOL:  # within any tolerance
            return chunk, slacks, ()
        return chunk, slacks, [s < -(ABS_TOL + REL_TOL * max(x, y))
                               for s, x, y in zip(slacks, a, b)]

    fused = _fused("lambda chunk: [-abs(C(q, q, h) - C(h, h, q)) for q, h in chunk]", space)
    return [(space.domain, 2, _fast(kernel, fused))], "symmetry"


def check_symmetry(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """|C(q,q,h) - C(h,h,q)| stays within tolerance on sampled pairs."""
    return _audit(space, cfg, [lambda: _symmetry(space)])[0]


def check_alpha_zero(alpha: AlphaFunction) -> Verdict:
    """alpha(0) must be exactly zero."""
    value = eval_alpha(alpha, 0.0)
    return _Collector().add([(0.0, value)], [-abs(value)], [value != 0.0]).verdict(
        "alpha_zero", None)


def _subhomogeneity(alpha: AlphaFunction, k_set: Sequence[float]) -> tuple:
    if not k_set:
        raise ConfigurationError("k_set must be non-empty")
    if any(k <= 0 for k in k_set):
        raise ConfigurationError("all k values must be positive")

    def kernel(chunk, cols, d):
        # alpha(s) and alpha(t) once per pair, outside the k loop
        a_s, a_t = (_alpha_values(alpha, x) for x in cols())
        # A generator: the collector builds the keys one at a time, and only
        # when the chunk has a violation or a NaN.
        keys = ((k, s, t) for s, t in chunk for k in k_set)
        lhs = _alpha_values(alpha, [k * s + t for s, t in chunk for k in k_set])
        return (keys, *_slacks(lhs, [k * x + y for x, y in zip(a_s, a_t) for k in k_set]))

    fused = _fused("lambda chunk, ks: [k * a_s + a_t - A(k * s + t) for s, t in chunk"
                   " for a_s, a_t in [(A(s), A(t))] for k in ks]", None, alpha)
    return [(_NONNEG_DOMAIN, 2, _fast(kernel, fused and (lambda chunk: fused(chunk, k_set))))
            ], "alpha_subhomogeneity"


def check_alpha_subhomogeneity(alpha: AlphaFunction, cfg: SampleConfig,
                               k_set: Sequence[float] = DEFAULT_K_SET) -> Verdict:
    """alpha(k*s + t) <= k*alpha(s) + alpha(t) over sampled (s, t) and each k."""
    return _audit(None, cfg, [lambda: _subhomogeneity(alpha, k_set)])[0]


def _orbit(space: ComposedSpace, F: SelfMap, x0, tol: float, n: int) -> tuple[list, list]:
    """The orbit x_{k+1} = F(x_k) of x_0 = x0 in space.domain and its step
    distances d_k = C(x_k, x_k, x_{k+1}) as floats, to the first d_k <= tol or
    n steps.  Each step runs F.fn and the metric once.  When F.domain is
    space.domain, an image in it passes a quick test, by its bounds for a
    float in a real interval; a finite float distance >= 0 passes another.
    Anything else goes to _check_image or _check_metric, which name the first
    bad step."""
    if not F.domain.contains(x0):
        raise F.outside_error(x0)
    fn, metric, dom = F.fn, space.metric.fn, F.domain
    same = dom == space.domain
    lo, hi = (dom.lo, dom.hi) if same and dom.kind == "real_interval" else (1, 0)  # (1, 0): none
    iterates, distances, x = [x0], [], x0
    for _ in range(n):
        y = fn(x)
        if not (type(y) is float and lo <= y <= hi or same and dom.contains(y)):
            _check_image(space, F, x, y)
        d = metric(x, x, y)
        if not (type(d) is float and 0 <= d <= _FLOAT_MAX):
            d = _check_metric(space, d, x, x, y)
        iterates.append(y)
        distances.append(d)
        if d <= tol:
            break
        x = y
    return iterates, distances


def check_alpha_dominates_orbit(space: ComposedSpace, F: SelfMap, x0,
                                n_max: int) -> Verdict:
    """alpha(d_n) <= d_n along the orbit, d_n the successive step distance."""
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    require_in_space(space, x0)
    _, distances = _orbit(space, F, x0, -math.inf, n_max + 1)
    keys = [(float(n), d) for n, d in enumerate(distances)]
    slacks = _slacks(_alpha_values(space.alpha, distances), distances)
    return _Collector().add(keys, *slacks).verdict("alpha_dominates_orbit", None)


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
    if not tol > 0:  # NaN included
        raise ConfigurationError("tolerance must be positive")
    values: dict[int, list[float]] = {}
    col = _Collector()
    for g in gaps:
        series = [series_tail(alpha, r, c0, n, n + g, variant) for n in schedule]
        values[int(g)] = series
        final_value = series[-1]
        col.add([(float(g), float(schedule[-1]), final_value)],
                [tol - final_value], [final_value > tol])
        col.checked += len(series) - 1
    details = {"n_schedule": schedule, "values": values, "tol": tol}
    return col.verdict("series_vanishing", None, details=details)

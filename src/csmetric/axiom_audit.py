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
they raise run one after another.  Each sampled check states its inequality
once, as a template ``lambda chunk: [...]`` whose rows are (tuple, slack,
tolerance), compiled twice (see ``_kernel``): fused, with the alpha's tree
and, where the fusion rule allows, the metric's lambda inlined, and
checked, where each alpha value is checked.  Every other name, such as a
factor, the images I, Mf or a metric that is not fused, is bound alike in
both.  A chunk runs checked only when its fused form raises or has
something to report, so every error, key and violation comes from the
checked form.  Where the metric is fused, both forms evaluate C(x, x, u)
by its self-distance S(x, u), which equals it bit for bit at finite points.
Every image y = F(x) is tested as it is taken, by one text, ``_IMAGE``,
which the Picard loop of ``_orbit`` and the image function I inline, with
a built-in map's lambda where its domain is the space's.
These auditors are falsifiers and evidence gatherers: a pass is evidence
over the sample, not a proof of the quantified claim.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache, partial
from itertools import compress, islice

from .errors import ConfigurationError, DomainError, NumericError
from .expressions import compile_function, compile_template
from .sampling import CHUNK, SampleConfig, _chunks
from .spaces import (_FLOAT_MAX, _SELF_CALLED, AlphaFunction, ComposedSpace, PointDomain, Record,
                     SelfMap, _check_image, _check_metric, _checked_alpha, _checked_metric,
                     _fused_metric, _map_text, eval_alpha, iterate_alpha, require_in_space)

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

# From this many chunks across an audit's streams on, two processes evaluate
# them (see _audit).  Below it, the fork, the imports and the reap cost about
# what the second CPU saves a whole command: forced forks of fresh commands
# won 13 to 23 of 24 pairs at 40 to 70 chunks, 14 to 24 at 80 to 120, and
# made the benchmark's 40-chunk audit-builtins slower (BENCH_31.json).
_FORK_CHUNKS = 80

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


# The tolerance of a right-hand side rhs >= 0, which templates call T.  It is
# slack_tolerance at every finite rhs >= 0; at rhs = inf, where the slack is
# inf or NaN, the two judge alike.
_TOLERANCE = f"lambda rhs: {ABS_TOL!r} + {REL_TOL!r} * rhs"
_IDENTITY = "lambda t: t"  # A when a check has no composing function


def _judged(rows: Sequence[tuple], n: int = 1) -> list:
    """(keys, slacks, violations) for each of the n (slack, tol) pairs of
    rows (key, slack, tol, ...): a slack below -tol violates.  This is the
    one violation rule of the sampled checks."""
    keys, *columns = list(zip(*rows)) or [()] * (1 + 2 * n)
    return [(keys, slacks, [s < -t for s, t in zip(slacks, tols)])
            for slacks, tols in zip(columns[0::2], columns[1::2])]


def _kernel(template: str, space: ComposedSpace | None,
            alphas: Mapping[str, AlphaFunction | None] = {}, fused: bool = True,
            **names) -> Callable:
    """The kernel of template, a ``lambda chunk:`` whose rows are (key,
    slack, tol), with one (slack, tol) pair per name of alphas, whose
    composing function (None: the identity) it calls by that name, or one
    when alphas is empty.  C is space's metric, S(x, u) its self-distance
    C(x, x, u) and T the tolerance; names binds every other name, alike in
    both forms.  The kernel maps a chunk to the _judged rows of the checked
    form, where each alpha runs through _checked_alpha.  T, the identity and
    a metric with a fused form, whose values the fusion rule bounds, are
    inlined in both forms, C and S; any other metric is bound as C, by
    _checked_metric.  Where fused, the fused form, with every alpha inlined
    too, runs first, and a chunk where it neither raises nor sums to NaN,
    so that no slack is below its -tol, gives its slacks alone.  A chunk
    after one with a violation runs checked at once, as a check that fails
    tends to fail on every chunk."""
    n = max(1, len(alphas))
    metric = None if space is None else _fused_metric(space)
    inline = {"T": _TOLERANCE, **(dict(zip("CS", metric)) if metric else {"S": _SELF_CALLED}),
              **{name: _IDENTITY for name, alpha in alphas.items() if alpha is None}}
    if space is not None and not metric:
        names["C"] = _checked_metric(space)
    try:
        fused_form = fused and compile_template(template, {**inline, **{
            name: alpha._tree for name, alpha in alphas.items() if alpha}}, names, True)
    except RecursionError:  # a flat sum of about 490 terms is too deep to inline
        fused_form = None
    checked = None
    clean = True

    def kernel(chunk):
        nonlocal checked, clean
        if clean and fused_form:
            try:
                rows = fused_form(chunk)
                columns = [rows] if n == 1 else list(zip(*rows))
                if not any(math.isnan(sum(slacks, 0.0)) for slacks in columns):
                    return [((), slacks, ()) for slacks in columns]
            except Exception:  # the checked form raises the error, if any
                pass
        if checked is None:  # compiled on first use
            checked = compile_template(template, inline, {**names, **{
                name: _checked_alpha(alpha) for name, alpha in alphas.items() if alpha}}, False)
        judged = _judged(checked(chunk), n)
        clean = not any(any(violates) for _, _, violates in judged)
        return judged
    kernel.local = _local(tuple(names.values()))
    return kernel


def _local(value) -> bool:
    """Does value run package code alone, so that a helper may run it: an
    int, a float, a tuple or list of them, or a function marked local?"""
    return (type(value) in (int, float) or getattr(value, "local", False) is True
            or type(value) in (tuple, list) and all(map(_local, value)))


def _may_fork() -> bool:
    """The one helper rule: fork and memfd_create exist, two CPUs are usable
    and no other thread runs, as a fork copies only the thread that calls
    it.  The report writer and the audit both keep it."""
    threading = sys.modules.get("threading")  # no other thread runs unless it is loaded
    return (hasattr(os, "fork") and hasattr(os, "memfd_create")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and (threading is None or threading.active_count() == 1))


def _evaluate(streams: Mapping[tuple, list], cfg: SampleConfig, part: int | None = None) -> None:
    """Read part's chunks (see _chunks) of each stream once, into its readers."""
    for (domain, arity), readers in streams.items():
        for chunk in _chunks(domain, arity, cfg, part):
            for cols, kernel in readers:
                for col, judged in zip(cols, kernel(chunk)):
                    col.add(*judged)


def _audit(cfg: SampleConfig, checks: Sequence[Callable[[], tuple]], fork: bool = True) -> list:
    """Run checks on cfg's samples and return their results, as if one by one.

    Calling a check validates its arguments and gives (parts, finishes), one
    result per finish.  A part (domain, arity, kernel) maps a chunk of its
    sample to one (keys, slacks, violations) per finish (see _kernel).  A
    finish maps its collector to the result, or names the verdict.  Each
    (domain, arity) stream is drawn once, a chunk at a time as the loop
    reads it, so no whole sample is held.  From _FORK_CHUNKS chunks on, an
    audit whose kernels and pins are _local is split where _may_fork
    allows: through helper.split, which the report writer shares, a forked
    helper evaluates the odd chunks and writes back each collector's count
    and minima, marshalled, which a finish alone reads, so adding them to
    this process's is exact.  If
    anything raises, the checks run again in this process, one by one, so
    the error is a one-by-one run's."""
    forked = False
    try:
        built = [([_Collector() for _ in finishes], parts, finishes)
                 for parts, finishes in (build() for build in checks)]
        streams: dict[tuple, list] = {}
        for cols, parts, _ in built:
            for domain, arity, kernel in parts:
                streams.setdefault((domain, arity), []).append((cols, kernel))
        kernels = tuple(kernel for readers in streams.values() for _, kernel in readers)
        forked = (fork and len(streams) * -(-cfg.count // CHUNK) >= _FORK_CHUNKS
                  and _local((cfg.pinned, kernels)) and _may_fork())
        if forked:
            from .helper import split  # only an audit that forks loads it
            collectors = [col for cols, _, _ in built for col in cols]

            def back():
                _evaluate(streams, cfg, 1)
                yield marshal.dumps([(col.checked, col.worst_slack, col.witness)
                                     for col in collectors])

            def read(blocks):
                helped = marshal.loads(b"".join(blocks))
                for col, (checked, worst_slack, witness) in zip(collectors, helped):
                    col.checked += checked
                    col.worst_slack = min(col.worst_slack, worst_slack)
                    col.witness = min(filter(None, (col.witness, witness)), default=None)
            if not split(lambda: _evaluate(streams, cfg, 0), back, read):
                _evaluate(streams, cfg, 1)
        else:
            _evaluate(streams, cfg)
        return [col.verdict(finish, cfg.seed) if isinstance(finish, str) else finish(col)
                for cols, _, finishes in built for col, finish in zip(cols, finishes)]
    except Exception:
        if len(checks) == 1 and not forked:
            raise
    if forked:  # either half may have met a later error first
        return _audit(cfg, checks, False)
    return [result for check in checks for result in _audit(cfg, [check], False)]


def _identity(space: ComposedSpace) -> tuple:
    # Off the diagonal the distance must be strictly positive: its tolerance,
    # minus the least float above 0, makes a zero slack violate.
    return [(space.domain, 1, _kernel(
                "lambda chunk: [((p, p, p), 0.0 - S(p, p), 0.0) for (p,) in chunk]", space)),
            (space.domain, 3, _kernel(
                "lambda chunk: [((q, h, w), -d, 0.0) if q == h == w else ((q, h, w), d, -5e-324)"
                " for q, h, w in chunk for d in [C(q, h, w)]]", space))], ["identity_axiom"]


def check_identity_axiom(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Self distances vanish exactly; every other sampled triple is strictly
    positive."""
    return _audit(cfg, [lambda: _identity(space)])[0]


# The composed triangle C(q, h, w) <= A(C(q, q, u)) + A(C(h, h, u)) + A(C(w, w, u))
# on l = C(q, h, w) and a, b, c = S(x, u): one row per composing function.
_TRIANGLE = ("lambda chunk: [((q, h, w, u), {rows}) for q, h, w, u in chunk for l in [C(q, h, w)]"
             " for a in [S(q, u)] for b in [S(h, u)] for c in [S(w, u)]]")
_TRIANGLE_ROW = "(r := {A}(a) + {A}(b) + {A}(c)) - l, T(r)"


def _triangles(space: ComposedSpace, checks: Mapping[str, AlphaFunction | None]) -> tuple:
    """The triangle of each check, under its composing function (None: the
    classic triangle), in one kernel, so each 4-tuple's metric values are
    evaluated once for all of them."""
    alphas = {f"A{i}": alpha for i, alpha in enumerate(checks.values())}
    rows = ", ".join(_TRIANGLE_ROW.format(A=name) for name in alphas)
    return [(space.domain, 4, _kernel(_TRIANGLE.format(rows=rows), space, alphas))], list(checks)


def check_composed_triangle(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Triangle inequality with each right-hand term wrapped in alpha."""
    return _audit(cfg, [lambda: _triangles(space, {"composed_triangle": space.alpha})])[0]


def check_classic_triangle(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """Plain (unwrapped) triangle inequality; failing it while the composed
    form passes is what separates these spaces from ordinary S-metric spaces."""
    return _audit(cfg, [lambda: _triangles(space, {"classic_triangle": None})])[0]


def _symmetry(space: ComposedSpace) -> tuple:
    return [(space.domain, 2, _kernel(
        "lambda chunk: [((q, h), -abs(x - y), T(y if y > x else x))"
        " for q, h in chunk for x in [S(q, h)] for y in [S(h, q)]]", space))], ["symmetry"]


def check_symmetry(space: ComposedSpace, cfg: SampleConfig) -> Verdict:
    """|C(q,q,h) - C(h,h,q)| stays within tolerance on sampled pairs."""
    return _audit(cfg, [lambda: _symmetry(space)])[0]


def check_alpha_zero(alpha: AlphaFunction) -> Verdict:
    """alpha(0) must be exactly zero."""
    value = eval_alpha(alpha, 0.0)
    return _Collector().add([(0.0, value)], [-abs(value)], [value != 0.0]).verdict(
        "alpha_zero", None)


def _subhomogeneity(alpha: AlphaFunction, k_set: Sequence[float]) -> tuple:
    if not k_set:
        raise ConfigurationError("k_set must be non-empty")
    if not all(0 < k < math.inf for k in k_set):  # NaN included
        raise ConfigurationError("all k values must be positive and finite")
    # alpha(s) and alpha(t) once per pair, outside the k loop
    return [(_NONNEG_DOMAIN, 2, _kernel(
        "lambda chunk: [((k, s, t), (r := k * a_s + a_t) - A(k * s + t), T(r))"
        " for s, t in chunk for a_s in [A(s)] for a_t in [A(t)] for k in ks]",
        None, {"A": alpha}, ks=k_set))], ["alpha_subhomogeneity"]


def check_alpha_subhomogeneity(alpha: AlphaFunction, cfg: SampleConfig,
                               k_set: Sequence[float] = DEFAULT_K_SET) -> Verdict:
    """alpha(k*s + t) <= k*alpha(s) + alpha(t) over sampled (s, t) and each k."""
    return _audit(cfg, [lambda: _subhomogeneity(alpha, k_set)])[0]


# The image rule: y = F(x) passes this test where it is a float in [lo, hi]
# or, when F.domain is the space's, a member of it; check_image returns any
# other y or names it.  _image_rule binds its names.
_IMAGE = "type(y := F(x)) is float and lo <= y <= hi or same and contains(y)"
_IMAGES = f"""
def images(F, lo, hi, same, contains, check_image):
    return lambda chunk: [y if {_IMAGE} else check_image(x, y) for t in chunk for x in t]
"""

# The Picard loop: x_{k+1} = F(x_k) and d_k = S(x_k, x_{k+1}), each step tested
# as it is taken.
_ORBIT = f"""
def orbit(F, lo, hi, same, contains, check_image, C, check_metric, x, n, tol):
    iterates, distances = [x], []
    for _ in range(n):
        if not ({_IMAGE}):
            check_image(x, y)
        d = S(x, y)
        if not (type(d) is float and 0.0 <= d <= {_FLOAT_MAX!r}):
            d = float(check_metric(d, x, x, y))
        iterates.append(y)
        distances.append(d)
        if d <= tol:
            break
        x = y
    return iterates, distances
"""


def _image_rule(space: ComposedSpace, F: SelfMap) -> tuple:
    """(text, names): the lambda of F that _IMAGE inlines (see
    spaces._map_text) where F.domain is space.domain, else None, and the
    values of its names.  On another domain F.apply, which tests the source
    point first, is called, and every image goes to _check_image."""
    dom = F.domain
    same = dom == space.domain
    lo, hi = (dom.lo, dom.hi) if same and dom.kind == "real_interval" else (1, 0)  # (1, 0): none
    return (_map_text(F) if same else None,
            (F.fn if same else F.apply, lo, hi, same, dom.contains, partial(_check_image, space, F)))


@lru_cache(maxsize=64)
def _images_loop(F: str | None) -> Callable:
    """_IMAGES with the lambda F inlined, compiled once per text; None calls F."""
    return compile_function(_IMAGES, {} if F is None else {"F": F}, {})


def _image_function(space: ComposedSpace, F: SelfMap) -> Callable:
    """I: a chunk of tuples of points to the list of their images under F,
    in sample order, each tested by _IMAGE."""
    text, names = _image_rule(space, F)
    images = _images_loop(text)(*names)
    images.local = text is not None  # the map is inlined: package code alone
    return images


@lru_cache(maxsize=64)
def _orbit_loop(F: str | None, S: str) -> Callable:
    """_ORBIT with the lambdas F and S inlined, compiled once per pair.  With
    F None the map is called, and S is _SELF_CALLED, which calls C."""
    return compile_function(_ORBIT, {"S": S} if F is None else {"F": F, "S": S}, {})


def _orbit(space: ComposedSpace, F: SelfMap, x0, tol: float, n: int) -> tuple[list, list]:
    """The orbit x_{k+1} = F(x_k) of x_0 = x0 in space.domain and its step
    distances d_k = C(x_k, x_k, x_{k+1}) as floats, to the first d_k <= tol or
    n steps, in one compiled loop.  Each image is tested by _IMAGE; S is
    inlined where the metric is fused, and any other metric called.  A
    finite float distance >= 0 passes a quick test, any other goes to
    _check_metric, so an error names the first bad step."""
    metric = _fused_metric(space)
    text, names = _image_rule(space, F)
    loop = _orbit_loop(text, metric[1] if metric else _SELF_CALLED)
    return loop(*names, space.metric.fn, partial(_check_metric, space), x0, n, tol)


def check_alpha_dominates_orbit(space: ComposedSpace, F: SelfMap, x0,
                                n_max: int) -> Verdict:
    """alpha(d_n) <= d_n along the orbit, d_n the successive step distance."""
    if type(n_max) is not int or n_max < 1:
        raise ConfigurationError(f"n_max must be an integer >= 1, got {n_max!r}")
    require_in_space(space, x0)
    _, distances = _orbit(space, F, x0, -math.inf, n_max + 1)
    rows = [((float(n), d), d - eval_alpha(space.alpha, d), slack_tolerance(d))
            for n, d in enumerate(distances)]
    return _Collector().add(*_judged(rows)[0]).verdict("alpha_dominates_orbit", None)


def series_tail(alpha: AlphaFunction, r: float, c0: float, n: int, m: int,
                variant: str = "statement") -> float:
    """Evaluate one slice of the iterated-alpha tail sum

        sum_{k=n+3}^{m-2} 2^(k-n-1) * alpha^(k-n+1)(r^k * c0)  +  trailing term

    where the trailing term is 2^(m-n-2) * alpha^(m-n-1)(r^m * c0) in the
    ``statement`` variant and 2^(m-n-3) * alpha^(m-n-1)(r^(m-1) * c0) in the
    ``proof`` variant.  With m < n + 5 the sum is empty and only the trailing
    term is returned.
    """
    if type(n) is not int or type(m) is not int:
        raise ConfigurationError(f"series indices n and m must be integers, got {n!r} and {m!r}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"decay ratio must lie in (0, 1), got {r!r}")
    if not 0 <= c0 < math.inf:  # NaN included
        raise DomainError(f"initial distance must be nonnegative and finite, got {c0!r}")
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

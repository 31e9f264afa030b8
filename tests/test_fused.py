"""Check templates against hand-written reference kernels.

Each sampled check states its inequality once, as a template compiled into
a fused form and a checked form, so the two forms cannot disagree on a slip
in it.  Each example therefore runs the sampled checks of ``verify-space``,
``verify_theorem_4_1`` and ``check-contraction --r`` in one shared run
three times: as they are, with every fused form turned off, and through the
reference kernels below, which state each inequality again by hand and
evaluate it tuple by tuple, in the templates' order, on a hand-written
reference of each metric.  The selection properties M1 and M2 and the Mf
contraction run the same way, one at a time.  The three runs must hand the
collector the same slacks, bit for bit, and give the same verdicts,
witnesses and errors.
"""

import ast
import itertools
import math
import os
import sys
from functools import partial

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from csmetric import (ABS_TOL, DEFAULT_K_SET, REL_TOL, ComposedSpace, ConfigurationError,
                      DomainError, MfFunction, NumericError, PreconditionError, SampleConfig,
                      SelfMap, TripleMetric, axiom_audit, banach_mf, bianchini_mf, cli,
                      fixed_point, check_alpha_subhomogeneity, kannan_mf, make_alpha,
                      make_builtin_space, poly_solver, slack_tolerance, spaces)
from csmetric.expressions import compile_template, compile_tree
from csmetric.spaces import PointDomain, eval_alpha, metric_by_name, replace

MAX = sys.float_info.max


def discrete_nat_reference(a, b, c):
    """discrete_nat as it was written by hand before it was compiled from its
    lambda."""
    if a == b == c:
        return 0.0
    if a == b:
        return float(a + c)
    if a == c:
        return float(a + b)
    if b == c:
        return float(b + a)
    return 2.0 * (a + b + c)


REFERENCE = {"discrete_nat": discrete_nat_reference,
             "abs_sum": lambda q, h, w: abs(q - w) + abs(h - w),
             "app_metric": lambda p, s, q: abs(p - s) + abs(s - q)}

# Per metric: its default interval, and intervals just below and above the
# largest on which it is fused (its sup at most MAX / 2), then far above.
# discrete_nat's sup is 6 * hi, off the corners, where it is at most 2 * hi.
INTERVALS = {
    "app_metric": [(0.0, 1.0), (-3.0, 2.5), (0.0, MAX / 4.0000001), (-MAX / 8, MAX / 8.0000001),
                   (0.0, MAX / 3.9999999), (0.0, MAX / 1.5)],
    "abs_sum": [(1.0, 100.0), (-1e-300, 1e-300), (0.0, MAX / 4.0000001),
                (-MAX / 3.9999999, 0.0), (0.0, MAX / 1.5)],
    "squared_diff": [(1.0, 100.0), (1.0, 1.0000001), (1.0, 6.7e153), (1.0, 6.71e153),
                     (1.0, 1e154), (1.0, 1e160)],
    "discrete_nat": [(0.0, 60.0), (0.0, MAX / 12 * (1 - 1e-7)), (0.0, MAX / 12 * (1 + 1e-7)),
                     (0.0, 8e307)],
}
NATURALS = [4, 50, 2 ** 53]
FINITE_SETS = [(1.0, 2.5, 4.0, 7.25, 10.0), (0.0, 1e-300, 3.0), (2.0, 1e150, 3e153),
               (0.0, 1.0, 7e307)]
# Every metric on every domain kind, its floor aside.
DOMAINS = {metric: [PointDomain.real_interval(lo, hi) for lo, hi in intervals]
           + [PointDomain.naturals_up_to(n) for n in NATURALS]
           + [PointDomain.finite_real_set(elements) for elements in FINITE_SETS]
           for metric, intervals in INTERVALS.items()}

ALPHAS = ["identity", "exp", "exp_2t", "two_t_plus_one", "two_sqrt", "exp(1000*t)",
          "t+0*exp(1000*t)", "t^400", "2*sqrt(t)+t^2", "0.5*t^0.5", "t*t+t", "1e300*t"]

LEAVES = st.one_of(st.just("t"), st.sampled_from(["0", "2", ".5", "1e-3", "700", "1e300"]))


def _combine(parts):
    return st.one_of(
        st.tuples(parts, parts).map(lambda ab: f"({ab[0]})+({ab[1]})"),
        st.tuples(parts, parts).map(lambda ab: f"({ab[0]})*({ab[1]})"),
        st.tuples(st.sampled_from(["sqrt", "exp"]), parts).map(lambda fa: f"{fa[0]}({fa[1]})"),
        st.tuples(parts, st.sampled_from(["0.5", "2", "3", "400"])).map(
            lambda ap: f"({ap[0]})^{ap[1]}"))


EXPRESSIONS = st.one_of(st.sampled_from(ALPHAS), st.recursive(LEAVES, _combine, max_leaves=6))


def _halving(domain):
    """x -> lo + (x - lo) / 2 on an interval, the member at half x's index on
    a finite domain: maps the domain into itself."""
    if domain.kind == "real_interval":
        lo = domain.lo
        return SelfMap("halving", lambda x: lo + (x - lo) * 0.5, domain)
    members = domain.members()
    return SelfMap("halving", lambda x: members[members.index(x) // 2], domain)


def _checks(space, r, cfg, F=None):
    F = F or _halving(space.domain)
    return [lambda: axiom_audit._identity(space),
            lambda: axiom_audit._triangles(space, {"composed_triangle": space.alpha,
                                                   "classic_triangle": None}),
            lambda: axiom_audit._symmetry(space),
            lambda: axiom_audit._subhomogeneity(space.alpha, DEFAULT_K_SET),
            lambda: fixed_point._estimate(space, F, cfg),
            lambda: fixed_point._banach(space, F, r)]


# --- the reference kernels --------------------------------------------------
# Each check's inequality stated again by hand, evaluated one tuple at a time
# in its template's order, with its own violation rule.

def _metric(space):
    """The reference of space's metric, its value checked and kept as given."""
    metric = REFERENCE.get(space.metric.id, space.metric.fn)

    def C(q, h, w):
        value = metric(q, h, w)
        spaces._check_metric(space, value, q, h, w)
        return value
    return C


def _alpha(alpha):
    return (lambda t: t) if alpha is None else partial(eval_alpha, alpha)


def _image(space, F, x):
    y = F.apply(x)
    spaces.require_in_space(space, y)
    return y


def _reference_identity(space):
    C = _metric(space)

    def self_distances(chunk):
        slacks = [0.0 - C(p, p, p) for (p,) in chunk]
        return [([(p, p, p) for (p,) in chunk], slacks, [s != 0.0 for s in slacks])]

    def triples(chunk):
        slacks, violates = [], []
        for q, h, w in chunk:
            d = C(q, h, w)
            slacks.append(-d if q == h == w else d)
            violates.append(d != 0.0 if q == h == w else d <= 0.0)
        return [(chunk, slacks, violates)]
    return [(space.domain, 1, self_distances), (space.domain, 3, triples)], ["identity_axiom"]


def _reference_triangles(space, checks):
    C, alphas = _metric(space), [_alpha(alpha) for alpha in checks.values()]

    def kernel(chunk):
        judged = [(chunk, [], []) for _ in alphas]
        for q, h, w, u in chunk:
            lhs, a, b, c = C(q, h, w), C(q, q, u), C(h, h, u), C(w, w, u)
            for A, (_, slacks, violates) in zip(alphas, judged):
                rhs = A(a) + A(b) + A(c)
                slacks.append(rhs - lhs)
                violates.append(rhs - lhs < -slack_tolerance(rhs))
        return judged
    return [(space.domain, 4, kernel)], list(checks)


def _reference_symmetry(space):
    C = _metric(space)

    def kernel(chunk):
        slacks, violates = [], []
        for q, h in chunk:
            x, y = C(q, q, h), C(h, h, q)
            slacks.append(-abs(x - y))
            violates.append(-abs(x - y) < -(ABS_TOL + REL_TOL * max(x, y)))
        return [(chunk, slacks, violates)]
    return [(space.domain, 2, kernel)], ["symmetry"]


def _reference_subhomogeneity(alpha):
    A = _alpha(alpha)

    def kernel(chunk):
        keys, slacks, violates = [], [], []
        for s, t in chunk:
            a_s, a_t = A(s), A(t)
            for k in DEFAULT_K_SET:
                rhs = k * a_s + a_t
                lhs = A(k * s + t)
                keys.append((k, s, t))
                slacks.append(rhs - lhs)
                violates.append(rhs - lhs < -slack_tolerance(rhs))
        return [(keys, slacks, violates)]
    return [(PointDomain.real_interval(0.0, 10.0), 2, kernel)], ["alpha_subhomogeneity"]


def _reference_estimate(space, F, cfg):
    C = _metric(space)

    def kernel(chunk):
        keys, slacks = [], []
        for tup in chunk:
            den = C(*tup)
            if den >= 1e-12:
                keys.append(tup)
                slacks.append(-(C(*(_image(space, F, x) for x in tup)) / den))
        return [(keys, slacks, [True] * len(keys))]
    _, finishes = fixed_point._estimate(space, F, cfg)  # the estimate's own finish
    return [(space.domain, 3, kernel)], finishes


def _reference_banach(space, F, r):
    C = _metric(space)

    def kernel(chunk):
        fx = [_image(space, F, x) for tup in chunk for x in tup]
        slacks, violates = [], []
        for i, tup in enumerate(chunk):
            rhs = r * C(*tup)
            lhs = C(*fx[3 * i:3 * i + 3])
            slacks.append(rhs - lhs)
            violates.append(rhs - lhs < -slack_tolerance(rhs))
        return [(chunk, slacks, violates)]
    return [(space.domain, 3, kernel)], ["banach_contraction"]


def _reference_mf(Mf):
    """Mf with its value checked: NaN, below 0 or not a real raises."""
    def M(*t):
        value = Mf.fn(*t)
        if not (isinstance(value, (int, float)) and value >= 0):
            raise NumericError(f"Mf {Mf.id!r} returned {value!r} at {t!r}")
        return value
    return M


def _reference_m1(Mf, r):
    M = _reference_mf(Mf)

    def kernel(chunk):
        slacks, violates = [], []
        for o, h, w in chunk:
            # An unguarded tuple: counted, never the worst.
            slack = r * o - h if w <= 2 * o + h and h <= M(o, o, 0.0, w, h) else math.inf
            slacks.append(slack)
            violates.append(slack < -slack_tolerance(r * o))
        return [(chunk, slacks, violates)]
    return [(PointDomain.real_interval(0.0, 10.0), 3, kernel)], ["m1"]


def _reference_m2(Mf):
    M = _reference_mf(Mf)

    def kernel(chunk):
        slacks = [0.0 - h if h <= M(h, 0.0, h, h, 0.0) else math.inf for (h,) in chunk]
        return [(chunk, slacks, [s < -slack_tolerance(0.0) for s in slacks])]
    return [(PointDomain.real_interval(0.0, 10.0), 1, kernel)], ["m2"]


def _reference_mf_contraction(space, F, Mf):
    if not space.symmetric_claim:
        raise PreconditionError("the generalized contraction check needs a symmetric space")
    C, M = _metric(space), _reference_mf(Mf)

    def kernel(chunk):
        fx = [_image(space, F, x) for tup in chunk for x in tup]
        slacks, violates = [], []
        for i, (o, h) in enumerate(chunk):
            fo, fh = fx[2 * i:2 * i + 2]
            rhs = M(C(o, o, h), C(fo, fo, o), C(fo, fo, h), C(fh, fh, o), C(fh, fh, h))
            lhs = C(fo, fo, fh)
            slacks.append(rhs - lhs)
            violates.append(rhs - lhs < -slack_tolerance(rhs))
        return [(chunk, slacks, violates)]
    return [(space.domain, 2, kernel)], ["mf_contraction"]


def _references(space, r, cfg):
    F = _halving(space.domain)
    return [lambda: _reference_identity(space),
            lambda: _reference_triangles(space, {"composed_triangle": space.alpha,
                                                 "classic_triangle": None}),
            lambda: _reference_symmetry(space),
            lambda: _reference_subhomogeneity(space.alpha),
            lambda: _reference_estimate(space, F, cfg),
            lambda: _reference_banach(space, F, r)]


def _no_fused_form(template, functions, names, fused):
    if fused:  # as for a template too deep to inline
        raise RecursionError
    return compile_template(template, functions, names, fused)


def _results(cfg, checks):
    """The results of one shared run of the checks, or the error's type and text."""
    try:
        return [repr(v.to_json_dict() if isinstance(v, axiom_audit.Verdict) else v)
                for v in axiom_audit._audit(cfg, checks)]
    except Exception as exc:
        return type(exc), str(exc)


def _run(monkeypatch, space, cfg, r, run, checks=None):
    """The slacks the collector was handed, as float.hex, and the _results of
    one shared run of the checks in this process: run is "fused", as they
    are; "checked", with every fused form off; or "reference".  checks, when
    given, is a pair that replaces (_checks, _references)."""
    handed = []
    add = axiom_audit._Collector.add

    def recording(self, keys, slacks, violates):
        handed.append([float(s).hex() for s in slacks])
        return add(self, keys, slacks, violates)

    with monkeypatch.context() as m:
        m.setattr(axiom_audit._Collector, "add", recording)
        m.setattr(axiom_audit, "_FORK_CHUNKS", math.inf)  # a helper's adds are not seen here
        if run == "checked":
            m.setattr(axiom_audit, "compile_template", _no_fused_form)
        checks = (checks or (_checks, _references))[run == "reference"](space, r, cfg)
        outcome = _results(cfg, checks)
    return handed, outcome


def _assert_same(monkeypatch, space, cfg, r, checks=None):
    fused = _run(monkeypatch, space, cfg, r, "fused", checks)
    assert fused == _run(monkeypatch, space, cfg, r, "reference", checks)
    assert fused == _run(monkeypatch, space, cfg, r, "checked", checks)
    return fused


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(metric=st.sampled_from(sorted(DOMAINS)), data=st.data(), expr=EXPRESSIONS,
       seed=st.integers(0, 2 ** 32), count=st.integers(1, 1500),
       strategy=st.sampled_from(["grid_plus_random", "uniform_random"]),
       r=st.sampled_from([0.5, 0.50000000001, 0.9]))
def test_fused_kernels_match_the_checked_path(monkeypatch, metric, data, expr, seed, count,
                                              strategy, r):
    domain = data.draw(st.sampled_from(DOMAINS[metric]))
    try:
        alpha = make_alpha(expr)
    except ConfigurationError:  # constant on the probe grid
        assume(False)
    space = replace(make_builtin_space(metric), domain=domain, alpha=alpha)
    _assert_same(monkeypatch, space, SampleConfig(seed=seed, count=count, strategy=strategy), r)


@pytest.mark.skipif(not all(hasattr(os, f) for f in ("fork", "sched_getaffinity")),
                    reason="needs fork and sched_getaffinity")
@settings(deadline=None, derandomize=True, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(metric=st.sampled_from(sorted(DOMAINS)), data=st.data(), expr=EXPRESSIONS,
       seed=st.integers(0, 2 ** 32), count=st.integers(1, 5000),
       strategy=st.sampled_from(["grid_plus_random", "uniform_random"]),
       r=st.sampled_from([0.5, 0.9]), kind=st.sampled_from(["identity", "const", "scale", "poly"]),
       factor=st.sampled_from([0.5, -0.5, 2.0]))
def test_two_processes_give_the_serial_results(monkeypatch, metric, data, expr, seed, count,
                                               strategy, r, kind, factor):
    """_checks with a built-in map, which a helper may run where the metric
    is fused and the map is inlined, with _FORK_CHUNKS at 0 and at infinity:
    the same verdicts, witnesses and errors.  With _halving, a user's map,
    no helper is forked."""
    domain = data.draw(st.sampled_from(DOMAINS[metric]))
    try:
        alpha = make_alpha(expr)
    except ConfigurationError:  # constant on the probe grid
        assume(False)
    space = replace(make_builtin_space(metric), domain=domain, alpha=alpha)
    F = _builtin_map(kind, domain, factor)
    cfg = SampleConfig(seed=seed, count=count, strategy=strategy)
    forks, fork = [], os.fork
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        m.setattr(os, "fork", lambda: forks.append(1) or fork())
        m.setattr(axiom_audit, "_FORK_CHUNKS", 0)
        forked = _results(cfg, _checks(space, r, cfg, F))
        helpers = len(forks)
        assert helpers == (spaces._fused_metric(space) is not None and F.domain == domain)
        _results(cfg, _checks(space, r, cfg))
        assert len(forks) == helpers
        m.setattr(axiom_audit, "_FORK_CHUNKS", math.inf)
        assert forked == _results(cfg, _checks(space, r, cfg, F))


def _interval(lo, hi):
    return PointDomain.real_interval(lo, hi)


@pytest.mark.parametrize("metric, domain, expr", [
    ("app_metric", _interval(0.0, 1.0), "two_sqrt"),          # passes throughout
    ("squared_diff", _interval(1.0, 100.0), "exp"),           # the classic triangle fails
    ("abs_sum", _interval(1.0, 100.0), "identity"),           # the composed triangle fails
    ("app_metric", _interval(0.0, 1.0), "t+0*exp(1000*t)"),   # NaN alpha: NumericError
    ("abs_sum", _interval(0.0, 1.0), "t^400"),                # inf - inf in subhomogeneity
    ("squared_diff", _interval(1.0, 1e154), "exp"),           # not fused: the metric overflows
    ("discrete_nat", PointDomain.naturals_up_to(50), "two_t_plus_one"),  # its default space
    ("discrete_nat", PointDomain.naturals_up_to(50), "identity"),  # both triangles fail
    ("discrete_nat", PointDomain.naturals_up_to(2 ** 53), "exp"),
    ("discrete_nat", _interval(0.0, MAX / 12 * (1 - 1e-7)), "identity"),  # fused
    ("discrete_nat", _interval(0.0, MAX / 12 * (1 + 1e-7)), "identity"),  # not fused
    ("discrete_nat", _interval(0.0, 8e307), "identity"),  # 2(q + h + w) overflows
    ("discrete_nat", _interval(0.0, 60.0), "two_t_plus_one"),
    ("app_metric", PointDomain.naturals_up_to(20), "two_sqrt"),
    ("abs_sum", PointDomain.finite_real_set([1, 2.5, 4, 7.25, 10]), "exp_2t"),
    # Built from its parts, a space may reach below its floor: squared_diff
    # below 1, and discrete_nat below 0, where its values can be negative.
    ("squared_diff", PointDomain.finite_real_set([-3.0, 0.0, 0.5, 2.0]), "exp"),
    ("discrete_nat", PointDomain.finite_real_set([-5.0, 1.0, 2.0, 3.0]), "two_t_plus_one"),
    ("discrete_nat", _interval(-1.0, 10.0), "identity"),
])
def test_fused_kernels_match_on_known_cases(monkeypatch, metric, domain, expr):
    space = ComposedSpace(domain, metric_by_name(metric), make_alpha(expr))
    handed, outcome = _assert_same(monkeypatch, space, SampleConfig(seed=3, count=2500), 0.5)
    assert handed


@pytest.mark.parametrize("metric, domain, fused", [
    ("discrete_nat", PointDomain.naturals_up_to(2 ** 53), True),
    ("discrete_nat", PointDomain.finite_real_set([0.0, 1.0, MAX / 12 * (1 - 1e-7)]), True),
    ("discrete_nat", PointDomain.finite_real_set([0.0, 1.0, MAX / 12 * (1 + 1e-7)]), False),
    ("discrete_nat", _interval(0.0, 8e307), False),  # its corners are at most 8e307
    ("discrete_nat", PointDomain.finite_real_set([-1.0, 1.0]), False),
    ("app_metric", PointDomain.naturals_up_to(2 ** 53), True),
    ("squared_diff", PointDomain.finite_real_set([1.0, 6.7e153]), True),
    ("squared_diff", PointDomain.finite_real_set([1.0, 6.71e153]), False),
    ("abs_sum", _interval(-MAX / 4.0000001, 0.0), True),
    ("abs_sum", _interval(-MAX / 3.9999999, 0.0), False),
])
def test_one_fusion_rule_on_every_domain_kind(metric, domain, fused):
    space = ComposedSpace(domain, metric_by_name(metric), make_alpha("identity"))
    assert (spaces._fused_metric(space) is not None) is fused


def _outcome(fn, triple):
    try:
        value = fn(*triple)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value.hex() if isinstance(value, float) else value


def test_the_compiled_discrete_nat_is_the_hand_written_one():
    """Value and type, and the error, on tie-heavy int and float triples."""
    near = [x for y in (2.0 ** 53, MAX / 6)
            for x in (math.nextafter(y, 0), y, math.nextafter(y, MAX))]
    pool = [0, 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 10 ** 400, -0.0, 0.0, 2.5, *near]
    triples = list(itertools.product(pool, repeat=3))
    assert ([_outcome(spaces._metric_discrete_nat, t) for t in triples] ==
            [_outcome(discrete_nat_reference, t) for t in triples])


def test_a_distance_that_underflows_to_zero_is_a_violation(monkeypatch):
    # (1e-200 - 0) ** 2 is 0: a zero distance off the diagonal.  Built from
    # its parts, a squared_diff space may reach below its floor of 1.
    space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric_by_name("squared_diff"),
                          make_alpha("exp"))
    cfg = SampleConfig(seed=3, count=2000, pinned=((1e-200, 0.0, 0.0),))
    _, (identity, *_) = _assert_same(monkeypatch, space, cfg, 0.5)
    assert "'passed': False" in identity and "1e-200" in identity


def test_a_swapped_sum_is_caught(monkeypatch):
    """A template whose float operations differ only in order, alpha's terms
    summed from the right: its two compiled forms still agree, and only the
    reference kernels see the slip."""
    monkeypatch.setattr(axiom_audit, "_TRIANGLE_ROW", "(r := {A}(a) + ({A}(b) + {A}(c))) - l, T(r)")
    space, cfg = make_builtin_space("abs_sum", [0.0, 1.0]), SampleConfig(seed=1, count=3000)
    fused = _run(monkeypatch, space, cfg, 0.5, "fused")
    assert fused == _run(monkeypatch, space, cfg, 0.5, "checked")
    assert fused != _run(monkeypatch, space, cfg, 0.5, "reference")


def test_a_kernel_too_deep_to_compile_runs_checked(monkeypatch):
    """Inlining a flat sum of about 490 terms, which the grammar takes,
    recurses too deep; the check then runs its checked form on every chunk,
    to the same verdict."""
    alpha, cfg = make_alpha("two_sqrt"), SampleConfig(seed=2, count=3000)
    expected = check_alpha_subhomogeneity(alpha, cfg)
    calls, fn = [], alpha._fn
    object.__setattr__(alpha, "_fn", lambda t: calls.append(t) or fn(t))
    monkeypatch.setattr(axiom_audit, "compile_template", _no_fused_form)
    assert check_alpha_subhomogeneity(alpha, cfg) == expected
    # alpha(s), alpha(t) and alpha(k * s + t) for each of the 4 k, every pair checked
    assert len(calls) == 6 * 3000


def test_banach_is_fused_in_check_contraction_and_in_verify_thm41(monkeypatch, tmp_path):
    """check-contraction --r builds Banach beside the estimate, verify-thm41
    beside the identity axiom; both compile its fused form, and neither runs
    its checked form on any chunk.  M1, M2 and the Mf contraction, which
    call Mf, compile theirs too, and run no checked form where nothing
    violates; the estimate, whose rows all violate, has none."""
    fused, ran = [], []

    def recording(template, functions, names, fused_form):
        kernel = compile_template(template, functions, names, fused_form)
        if fused_form:
            fused.append(template)
            return kernel
        return lambda *args: ran.append(template) or kernel(*args)

    monkeypatch.setattr(axiom_audit, "compile_template", recording)
    assert cli.main(["check-contraction", "--space", '{"metric":"app_metric","map":{"kind":'
                     '"poly","m":3}}', "--r", "0.0125", "--samples", "50",
                     "--out", str(tmp_path / "report.txt")]) == 0
    assert poly_solver.verify_theorem_4_1(3, samples=50)["all_passed"]
    banach = [template for template in fused if "fx[0::3]" in template]
    assert len(banach) == 2 and banach[0] not in ran
    cfg, app = SampleConfig(seed=4, count=2500), make_builtin_space("app_metric")
    halving = spaces.make_self_map("scale", app.domain, factor=0.5)
    assert fixed_point.check_m1(kannan_mf(0.4), 2.0 / 3.0, cfg).passed
    assert fixed_point.check_m2(bianchini_mf(0.9), cfg).passed
    assert fixed_point.check_mf_contraction(app, halving, banach_mf(0.5), cfg).passed
    for call in ("Mf(o, o, 0.0, w, h)", "Mf(h, 0.0, h, h, 0.0)", "Mf(S(o, h)"):
        (template,) = [template for template in fused if call in template]
        assert template not in ran
    estimate = {template for template in ran if "I([(q, h, w)])" in template}
    assert len(estimate) == 1 and not estimate & set(fused)


# --- built-in maps and self-distances ---------------------------------------
# Picard's loop and the image function inline a built-in map's lambda on its
# own domain, and the loop and the fused forms a fused metric's self-distance
# S(x, u) in place of C(x, x, u).

def _fused_domains(metric):
    return [domain for domain in DOMAINS[metric] if spaces._fused_metric(
        ComposedSpace(domain, metric_by_name(metric), make_alpha("identity")))]


def _points(domain):
    """Points of domain: floats of an interval or a finite set, ints of the
    naturals, its ends and -0.0 where it holds them."""
    ends = [domain.least, domain.hi if domain.kind == "real_interval" else domain.members()[-1]]
    if domain.kind == "real_interval":
        drawn = st.floats(domain.lo, domain.hi)
        ends += [-0.0] if domain.contains(-0.0) else []
    elif domain.kind == "naturals_up_to":
        drawn = st.integers(0, domain.max_value)
    else:
        drawn = st.sampled_from(domain.elements)
    return st.one_of(st.sampled_from(ends), drawn)


@settings(deadline=None, derandomize=True, max_examples=500)
@given(metric=st.sampled_from(sorted(DOMAINS)), data=st.data())
def test_each_self_distance_is_the_metric_at_a_repeated_point(metric, data):
    """By value and by type, on every domain kind where the metric is fused."""
    domain = data.draw(st.sampled_from(_fused_domains(metric)))
    C, S = spaces._fused_metric(ComposedSpace(domain, metric_by_name(metric),
                                              make_alpha("identity")))
    x, u = data.draw(_points(domain)), data.draw(_points(domain))
    expected = metric_by_name(metric).fn(x, x, u)
    value = compile_tree(ast.parse(S, mode="eval"))(x, u)
    assert (type(value), repr(value)) == (type(expected), repr(expected))


def _builtin_map(kind, domain, factor):
    kwargs = {"const": {"value": domain.least}, "scale": {"factor": factor}, "poly": {"m": 3}}
    return spaces.make_self_map(kind, domain, **kwargs.get(kind, {}))


def _banach_only(F):
    return (lambda space, r, cfg: [lambda: fixed_point._banach(space, F, r)],
            lambda space, r, cfg: [lambda: _reference_banach(space, F, r)])


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(metric=st.sampled_from(sorted(DOMAINS)), data=st.data(),
       kind=st.sampled_from(["identity", "const", "scale", "poly"]),
       factor=st.sampled_from([0.5, -0.5, 0.9999, 2.0, 1e308]), seed=st.integers(0, 2 ** 32),
       count=st.integers(1, 2500), r=st.sampled_from([0.5, 0.9]))
def test_banach_with_a_builtin_map_matches_the_checked_path(monkeypatch, metric, data, kind,
                                                             factor, seed, count, r):
    """Its image function inlines the map on the map's own domain; images
    that leave it, doubled, scaled past the floats or negated, name the same
    error in both forms.  The poly map lives on [0, 1], so on any other
    domain it is called, and the first point outside [0, 1], or image
    outside the space, is named."""
    domain = data.draw(st.sampled_from(DOMAINS[metric]))
    space = replace(make_builtin_space(metric), domain=domain)
    F = _builtin_map(kind, domain, factor)
    _assert_same(monkeypatch, space, SampleConfig(seed=seed, count=count), r, _banach_only(F))


def _library_metric(space):
    """space with its metric as a library metric, which is never fused."""
    fn = space.metric.fn
    return replace(space, metric=TripleMetric(id="library", fn=lambda q, h, w: fn(q, h, w)))


@pytest.mark.parametrize("library", [False, True], ids=["fused", "library"])
@pytest.mark.parametrize("metric, domain", [
    ("app_metric", _interval(0.0, 1.0)), ("abs_sum", _interval(-3.0, 2.5)),
    ("squared_diff", _interval(1.0, 100.0)), ("squared_diff", _interval(1.0, 1e154)),
    ("discrete_nat", _interval(0.0, 60.0)), ("abs_sum", PointDomain.naturals_up_to(20)),
    ("discrete_nat", PointDomain.naturals_up_to(50)),
    ("app_metric", PointDomain.finite_real_set([0.0, 0.25, 0.5, 1.0])),
    ("squared_diff", PointDomain.finite_real_set([1.0, 2.5, 4.0, 7.25, 10.0]))],
    ids=lambda value: getattr(value, "kind", value))
@pytest.mark.parametrize("kind", ["identity", "const", "scale", "poly"])
def test_banach_inlines_every_builtin_map_on_its_own_domain(monkeypatch, metric, domain, kind,
                                                            library):
    """On any domain kind, under a fused metric or a library one; a user's
    map and a replaced fn are called.  The poly map is moved to domain, whose
    points it mostly maps out of it."""
    taken, loop = [], fixed_point._loop
    monkeypatch.setattr(fixed_point, "_loop", lambda source, F, S=None: (
        source is fixed_point._IMAGES and taken.append(F)) or loop(source, F, S))
    space = replace(make_builtin_space(metric), domain=domain)
    space = _library_metric(space) if library else space
    F = replace(_builtin_map(kind, domain, 0.5), domain=domain)
    user = SelfMap("user", lambda x: F.fn(x), domain)
    for G in (F, user, replace(F, fn=lambda x: F.fn(x))):
        _assert_same(monkeypatch, space, SampleConfig(seed=4, count=2500), 0.5, _banach_only(G))
    # Once each in the fused and in the checked run; the reference has none.
    assert taken == [F.fn._text] * 2 + [None] * 4


def test_a_slip_in_the_image_rule_shows_in_picard_and_in_banach(monkeypatch):
    """The loop and the image function inline one text, so a slip in it, an
    image in the map's domain taken outside a narrower space, shows in both."""
    mutant = fixed_point._IMAGE.replace("same and contains(y)", "contains(y)")
    for name in ("_ORBIT", "_IMAGES"):
        monkeypatch.setattr(fixed_point, name, getattr(fixed_point, name).replace(
            fixed_point._IMAGE, mutant))
    # uncached, so the mutant is compiled and never cached
    monkeypatch.setattr(fixed_point, "_loop", fixed_point._loop.__wrapped__)
    space, cfg = make_builtin_space("app_metric"), SampleConfig(seed=4, count=2500)
    F = spaces.make_self_map("scale", _interval(0.0, 4.0), factor=2.0)
    _, reference = _run(monkeypatch, space, cfg, 0.5, "reference", _banach_only(F))
    assert reference[0] is DomainError
    assert _run(monkeypatch, space, cfg, 0.5, "fused", _banach_only(F))[1] != reference
    with pytest.raises(DomainError, match="escaped its domain: F\\(3.0\\) = 6.0"):
        fixed_point.picard(space, F, 0.75)  # and not "point 1.5 is outside the space domain"


# --- the selection properties and the Mf contraction ------------------------
# Both forms call Mf with its value checked, as they call a library metric.
# The contraction runs on app_metric, whose metric is inlined, on a library
# metric, which is called, and on a space not claimed symmetric.

_MFS = [kannan_mf(0.4), bianchini_mf(0.9), banach_mf(0.5),
        MfFunction(id="t5", fn=lambda t1, t2, t3, t4, t5: t5),   # M1 fails
        MfFunction(id="t1", fn=lambda t1, t2, t3, t4, t5: t1),   # M2 fails
        # Below 0 by less than any tolerance: only the check of Mf's value sees it.
        MfFunction(id="negative", fn=lambda t1, t2, t3, t4, t5: -1e-12),
        # NaN where M1's and M2's grids pass 5, after their first chunk.
        MfFunction(id="nan_above_5", fn=lambda t1, t2, t3, t4, t5: math.nan if t1 > 5.0 else t1)]


def _mf_check(check, Mf):
    """(checks, references) of one of M1, M2 and the Mf contraction, with
    the halving map."""
    build, reference = {
        "m1": (lambda space, r: fixed_point._m1(Mf, r), lambda space, r: _reference_m1(Mf, r)),
        "m2": (lambda space, r: fixed_point._m2(Mf), lambda space, r: _reference_m2(Mf)),
        "mf_contraction": (
            lambda space, r: fixed_point._mf_contraction(space, _halving(space.domain), Mf),
            lambda space, r: _reference_mf_contraction(space, _halving(space.domain), Mf))}[check]
    return (lambda space, r, cfg: [lambda: build(space, r)],
            lambda space, r, cfg: [lambda: reference(space, r)])


@pytest.mark.parametrize("Mf", _MFS, ids=lambda Mf: Mf.id)
@pytest.mark.parametrize("check, metric", [
    ("m1", "app_metric"), ("m2", "app_metric"), ("mf_contraction", "app_metric"),
    ("mf_contraction", "library"), ("mf_contraction", "asymmetric")])
@pytest.mark.parametrize("seed, count", [(4, 2500), (9, 700)])
def test_the_mf_checks_match_the_checked_path(monkeypatch, check, metric, Mf, seed, count):
    space = make_builtin_space("app_metric")
    space = {"app_metric": space, "library": _library_metric(space),
             "asymmetric": replace(space, symmetric_claim=False)}[metric]
    handed, outcome = _assert_same(monkeypatch, space, SampleConfig(seed=seed, count=count),
                                   2.0 / 3.0, _mf_check(check, Mf))
    assert handed or outcome[0] in (NumericError, PreconditionError)

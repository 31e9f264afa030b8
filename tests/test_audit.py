import math
import tracemalloc
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmetric import (BUILTIN_SPACES, DEFAULT_K_SET, ComposedSpace, ConfigurationError,
                      DomainError, MfFunction, NumericError, PointDomain,
                      SampleConfig, SelfMap, TripleMetric, banach_mf,
                      bianchini_mf, check_alpha_dominates_orbit,
                      check_alpha_subhomogeneity, check_alpha_zero,
                      check_banach, check_classic_triangle,
                      check_composed_triangle, check_identity_axiom, check_m1,
                      check_m2, check_mf_contraction, check_series_vanishing,
                      check_symmetry, contraction_bound,
                      estimate_contraction_factor, eval_alpha,
                      kannan_mf, make_alpha, make_builtin_space,
                      make_self_map, poly_map, sample_tuples, series_tail,
                      slack_tolerance, verify_theorem_4_1)
from csmetric import axiom_audit, cli, expressions, fixed_point
from csmetric.spaces import replace

TWO_SQRT = make_alpha("two_sqrt")
IDENTITY = make_alpha("identity")
AFFINE = make_alpha("two_t_plus_one")

EXHAUSTIVE = SampleConfig(seed=0, count=10 ** 6, strategy="stratified_grid")


class TestIdentityAxiom:
    def test_app_space_passes(self, app_space, cfg_small):
        assert check_identity_axiom(app_space, cfg_small).passed

    def test_discrete_space_passes(self, discrete_space):
        v = check_identity_axiom(discrete_space, EXHAUSTIVE)
        assert v.passed
        assert v.checked == 11 + 11 ** 3  # all singles plus all triples

    def test_broken_metric_fails_at_pinned_triple(self, broken_pair_distance_space):
        cfg = SampleConfig(seed=1, count=1, pinned=((1.0, 1.0, 5.0),))
        v = check_identity_axiom(broken_pair_distance_space, cfg)
        assert not v.passed
        assert v.witness == (1.0, 1.0, 5.0)
        # zero distance on a non-equal triple: the margin is that distance
        assert v.worst_margin == 0.0

    def test_empty_sample_rejected(self, app_space):
        with pytest.raises(ConfigurationError):
            check_identity_axiom(app_space, SampleConfig(seed=1, count=0))


@pytest.mark.parametrize("check", [check_identity_axiom, check_symmetry,
                                   check_composed_triangle],
                         ids=lambda check: check.__name__)
def test_nan_metric_never_passes(check):
    # NaN compares false against every threshold; at this seed and count
    # every sampled symmetry pair lands in the NaN half.
    metric = TripleMetric(id="half_nan", fn=lambda q, h, w:
                          math.nan if q < 0.5 else abs(q - w) + abs(h - w))
    space = ComposedSpace(PointDomain.real_interval(0, 1), metric, IDENTITY)
    with pytest.raises(NumericError):
        check(space, SampleConfig(seed=1, count=2000))


class TestComposedTriangle:
    def test_squared_diff_with_exponential_wrap(self, squared_diff_space, cfg_small):
        assert check_composed_triangle(squared_diff_space, cfg_small).passed

    def test_discrete_space_exhaustively(self, discrete_space):
        v = check_composed_triangle(discrete_space, EXHAUSTIVE)
        assert v.passed
        assert v.checked == 11 ** 4
        assert v.worst_margin == 3.0  # slack at the all-equal quadruples

    def test_identity_wrap_fails_at_quoted_quadruple(self, squared_diff_space):
        space = make_builtin_space("squared_diff", [1, 100])
        space = type(space)(space.domain, space.metric, IDENTITY, space.symmetric_claim)
        cfg = SampleConfig(seed=1, count=1, pinned=((4.0, 5.0, 1.0, 4.0),))
        v = check_composed_triangle(space, cfg)
        assert not v.passed
        assert v.witness == (4.0, 5.0, 1.0, 4.0)
        assert v.worst_margin == 20.0 - 25.0

    def test_app_space_passes(self, app_space, cfg_small):
        assert check_composed_triangle(app_space, cfg_small).passed


class TestClassicTriangle:
    def test_squared_diff_is_not_classic(self, squared_diff_space):
        cfg = SampleConfig(seed=42, count=5000, pinned=((4.0, 5.0, 1.0, 4.0),))
        v = check_classic_triangle(squared_diff_space, cfg)
        assert not v.passed

    def test_discrete_fails_with_pinned_witness(self, discrete_space):
        cfg = SampleConfig(seed=1, count=1, pinned=((1, 2, 3, 1),))
        v = check_classic_triangle(discrete_space, cfg)
        assert not v.passed
        assert v.witness == (1, 2, 3, 1)
        assert v.worst_margin == 7.0 - 12.0

    def test_abs_sum_on_unit_interval_passes(self):
        space = make_builtin_space("abs_sum", [0, 1])
        v = check_classic_triangle(space, SampleConfig(seed=9, count=20000))
        assert v.passed


class TestSymmetry:
    def test_app_space(self, app_space, cfg_small):
        assert check_symmetry(app_space, cfg_small).passed

    def test_equal_pair_is_trivially_symmetric(self, asymmetric_space):
        cfg = SampleConfig(seed=1, count=1, pinned=((0.5, 0.5),))
        assert check_symmetry(asymmetric_space, cfg).passed

    def test_constructed_asymmetric_metric_fails(self, asymmetric_space):
        cfg = SampleConfig(seed=1, count=500, pinned=((0.0, 1.0),))
        v = check_symmetry(asymmetric_space, cfg)
        assert not v.passed
        assert v.witness == (0.0, 1.0)
        assert v.worst_margin == -3.0  # C(0,0,1) = 0 against C(1,1,0) = 3

    @pytest.mark.parametrize("delta, passed", [(1.0000000001e-9, True), (1.01e-9, False)])
    def test_the_tolerance_scales_with_the_larger_distance(self, delta, passed):
        # C(0.25, 0.25, 0.75) = 0 and C(0.75, 0.75, 0.25) = delta: a slack of
        # -delta is within 1e-9 + 1e-9 * max(0, delta), about 1.000000001e-9,
        # and the first delta is not within 1e-9 + 1e-9 * min(0, delta).
        metric = TripleMetric(id="one_sided", fn=lambda q, h, w: delta if q == 0.75 else 0.0)
        space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric, IDENTITY)
        v = check_symmetry(space, SampleConfig(count=1, pinned=((0.25, 0.75),)))
        assert v.passed is passed and v.worst_margin == -delta


class TestAlphaZero:
    def test_two_sqrt_vanishes(self):
        assert check_alpha_zero(TWO_SQRT).passed

    def test_affine_does_not(self):
        v = check_alpha_zero(AFFINE)
        assert not v.passed
        assert v.witness == (0.0, 1.0)

    def test_identity(self):
        assert check_alpha_zero(IDENTITY).passed


class TestSubhomogeneity:
    def test_two_sqrt_passes_on_default_k_set(self, cfg_small):
        assert check_alpha_subhomogeneity(TWO_SQRT, cfg_small).passed

    def test_identity_is_exactly_additive(self, cfg_small):
        v = check_alpha_subhomogeneity(IDENTITY, cfg_small)
        assert v.passed
        assert v.worst_margin == 0.0

    def test_small_k_breaks_the_root(self):
        cfg = SampleConfig(seed=1, count=1, pinned=((1.0, 0.0),))
        v = check_alpha_subhomogeneity(TWO_SQRT, cfg, k_set=[0.01])
        assert not v.passed
        assert v.witness == (0.01, 1.0, 0.0)
        # alpha(0.01) = 0.2 against 0.01 * alpha(1) = 0.02
        assert v.worst_margin == pytest.approx(0.02 - 0.2, abs=1e-15)

    def test_k_set_validation(self, cfg_small):
        with pytest.raises(ConfigurationError):
            check_alpha_subhomogeneity(TWO_SQRT, cfg_small, k_set=[])
        with pytest.raises(ConfigurationError):
            check_alpha_subhomogeneity(TWO_SQRT, cfg_small, k_set=[2.0, -1.0])

    @pytest.mark.parametrize("k", [math.nan, math.inf, 0.0])
    def test_a_k_that_is_not_positive_and_finite_is_a_configuration_error(self, cfg_small, k):
        # Unchecked, NaN and inf reach alpha and the collector: a NumericError.
        with pytest.raises(ConfigurationError, match="all k values must be positive"):
            check_alpha_subhomogeneity(TWO_SQRT, cfg_small, k_set=[2.0, k])


class TestAlphaDominatesOrbit:
    def test_root_dominated_when_steps_large(self):
        # F(x) = 50 - x on {0..50}: steps alternate 10 <-> 40, distance 50,
        # and 2*sqrt(d) <= d holds whenever d >= 4.
        space = _reflected_space_alpha(make_builtin_space("discrete_nat", [50]), TWO_SQRT)
        F = type(make_self_map("identity", space.domain))(
            id="reflect", fn=lambda x: 50 - x, domain=space.domain)
        v = check_alpha_dominates_orbit(space, F, 10, n_max=8)
        assert v.passed
        assert v.checked == 9

    def test_identity_alpha_holds_with_equality(self, app_space):
        space = type(app_space)(app_space.domain, app_space.metric, IDENTITY, True)
        F = make_self_map("scale", space.domain, factor=0.5)
        v = check_alpha_dominates_orbit(space, F, 1.0, n_max=6)
        assert v.passed
        assert v.worst_margin == 0.0

    def test_affine_alpha_always_fails(self, app_space):
        space = type(app_space)(app_space.domain, app_space.metric, AFFINE, True)
        F = make_self_map("scale", space.domain, factor=0.5)
        v = check_alpha_dominates_orbit(space, F, 1.0, n_max=4)
        assert not v.passed  # 2d + 1 > d for every step distance

    def test_escaping_orbit_is_a_domain_error(self, app_space):
        bad = type(make_self_map("identity", app_space.domain))(
            id="grow", fn=lambda x: x + 0.7, domain=app_space.domain)
        with pytest.raises(DomainError):
            check_alpha_dominates_orbit(app_space, bad, 0.5, n_max=3)

    @pytest.mark.parametrize("n_max", [2.5, math.nan])
    def test_a_count_that_is_not_an_integer_is_a_configuration_error(self, app_space, n_max):
        F = make_self_map("scale", app_space.domain, factor=0.5)
        with pytest.raises(ConfigurationError, match="n_max must be an integer >= 1"):
            check_alpha_dominates_orbit(app_space, F, 1.0, n_max=n_max)

    def test_start_outside_the_space_is_a_domain_error(self, app_space):
        # The map's own domain holds 2.0; the space's does not.
        wide = SelfMap(id="wide_halving", fn=lambda x: 0.5 * x,
                       domain=PointDomain.real_interval(0.0, 4.0))
        with pytest.raises(DomainError, match=r"point 2\.0 is outside the space domain"):
            check_alpha_dominates_orbit(app_space, wide, 2.0, n_max=3)


def _reflected_space_alpha(space, alpha):
    return type(space)(space.domain, space.metric, alpha, space.symmetric_claim)


class TestSeriesTail:
    def test_identity_two_term_hand_value(self):
        assert series_tail(IDENTITY, 0.5, 1.0, 0, 5) == 0.75

    def test_trailing_term_only_below_minimum_span(self):
        # m = n + 4 leaves an empty sum: 2^2 * (1/2)^4 = 0.25
        assert series_tail(IDENTITY, 0.5, 1.0, 0, 4) == 0.25

    def test_two_sqrt_pinned_value(self):
        v = series_tail(TWO_SQRT, 1.0 / 81.0, 2.0, 10, 14)
        assert v == pytest.approx(0.006708763004698097, rel=1e-13)

    def test_zero_start_distance_with_vanishing_alpha(self):
        for n, m in ((0, 5), (3, 12), (10, 15)):
            assert series_tail(TWO_SQRT, 0.5, 0.0, n, m) == 0.0

    def test_statement_and_proof_variants_differ(self):
        r = 1.0 / 3.0
        statement = series_tail(IDENTITY, r, 1.0, 0, 5, variant="statement")
        proof = series_tail(IDENTITY, r, 1.0, 0, 5, variant="proof")
        assert statement == pytest.approx(4.0 / 27.0 + 8.0 / 243.0, rel=1e-14)
        assert proof == pytest.approx(4.0 / 27.0 + 4.0 / 81.0, rel=1e-14)

    def test_ratio_domain(self):
        with pytest.raises(DomainError):
            series_tail(IDENTITY, 1.0, 1.0, 0, 5)
        with pytest.raises(DomainError):
            series_tail(IDENTITY, 0.0, 1.0, 0, 5)

    @pytest.mark.parametrize("c0", [math.nan, math.inf, -1.0])
    def test_a_start_distance_that_is_not_finite_and_nonnegative_is_a_domain_error(self, c0):
        with pytest.raises(DomainError, match="initial distance must be nonnegative"):
            series_tail(IDENTITY, 0.5, c0, 0, 5)

    def test_an_index_that_is_not_an_integer_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="n and m must be integers, got 0.5 and 7"):
            series_tail(IDENTITY, 0.5, 1.0, 0.5, 7)

    @given(r=st.floats(min_value=0.01, max_value=0.45),
           c0=st.floats(min_value=0.0, max_value=10.0),
           n=st.integers(min_value=0, max_value=30),
           gap=st.integers(min_value=5, max_value=12))
    def test_identity_alpha_matches_geometric_closed_form(self, r, c0, n, gap):
        m = n + gap
        closed = sum(2.0 ** (k - n - 1) * r ** k * c0 for k in range(n + 3, m - 1))
        closed += 2.0 ** (m - n - 2) * r ** m * c0
        got = series_tail(IDENTITY, r, c0, n, m)
        assert got == pytest.approx(closed, rel=1e-12)


class TestSeriesVanishing:
    def test_zero_start_distance_passes_immediately(self):
        v = check_series_vanishing(TWO_SQRT, 0.5, 0.0, [5], [1, 2, 3], tol=1e-9)
        assert v.passed

    def test_identity_tail_scales_geometrically(self):
        v = check_series_vanishing(IDENTITY, 0.5, 1.0, [5], [0, 10, 20, 40], tol=1e-6)
        assert v.passed
        values = v.details["values"][5]
        # each slice is r^n times the n = 0 slice
        for n, val in zip([0, 10, 20, 40], values):
            assert val == pytest.approx(0.75 * 0.5 ** n, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            check_series_vanishing(IDENTITY, 0.5, 1.0, [4], [1, 2], tol=1e-6)
        with pytest.raises(ConfigurationError):
            check_series_vanishing(IDENTITY, 0.5, 1.0, [5], [2, 2], tol=1e-6)
        with pytest.raises(ConfigurationError):
            check_series_vanishing(IDENTITY, 0.5, 1.0, [5], [1, 2], tol=0.0)

    def test_nan_tolerance_is_a_configuration_error(self):
        # Unchecked, it would reach the collector as a NaN slack: a NumericError.
        with pytest.raises(ConfigurationError, match="tolerance must be positive"):
            check_series_vanishing(IDENTITY, 0.5, 1.0, [5], [1, 2], tol=float("nan"))

    @pytest.mark.parametrize("c0", [math.nan, math.inf, -1.0])
    def test_a_start_distance_that_is_not_finite_and_nonnegative_is_a_domain_error(self, c0):
        # Unchecked, NaN is a NumericError and inf a FAIL.
        with pytest.raises(DomainError, match="initial distance must be nonnegative"):
            check_series_vanishing(IDENTITY, 0.5, c0, [5], [1, 2], tol=1e-6)


class TestDeterminismAndWitnessReplay:
    def test_identical_configs_identical_verdicts(self, squared_diff_space):
        cfg = SampleConfig(seed=123, count=3000)
        a = check_classic_triangle(squared_diff_space, cfg)
        b = check_classic_triangle(squared_diff_space, cfg)
        assert a == b

    def test_witness_replays_the_violation(self, squared_diff_space):
        cfg = SampleConfig(seed=123, count=3000)
        v = check_classic_triangle(squared_diff_space, cfg)
        assert not v.passed
        q, h, w, u = v.witness
        metric = squared_diff_space.metric.fn
        lhs = metric(q, h, w)
        rhs = metric(q, q, u) + metric(h, h, u) + metric(w, w, u)
        assert abs((rhs - lhs) - v.worst_margin) <= 1e-12

    def test_symmetry_witness_replays(self, asymmetric_space):
        cfg = SampleConfig(seed=7, count=400)
        v = check_symmetry(asymmetric_space, cfg)
        assert not v.passed
        q, h = v.witness
        metric = asymmetric_space.metric.fn
        assert abs(abs(metric(q, q, h) - metric(h, h, q)) - abs(v.worst_margin)) <= 1e-12

    def test_enlarging_the_sample_keeps_known_witnesses(self, squared_diff_space):
        base = SampleConfig(seed=9, count=2000)
        grown = SampleConfig(seed=9, count=4000)
        small = check_classic_triangle(squared_diff_space, base)
        large = check_classic_triangle(squared_diff_space, grown)
        assert not small.passed and not large.passed
        assert large.worst_margin <= small.worst_margin


_HOISTED_ALPHAS = ["two_sqrt", "exp", "exp_2t", "t^400", "2*sqrt(t)+t^2"]


def _reference_verdict(rows):
    """(passed, checked, witness, worst_margin) of (tuple, slack, violates)
    rows: the witness is the violating row with the least (slack, tuple)."""
    rows = [(tup, slack + 0.0, violates) for tup, slack, violates in rows]
    violating = [(slack, tup) for tup, slack, violates in rows if violates]
    if violating:
        slack, tup = min(violating)
        return False, len(rows), tup, slack
    return True, len(rows), None, min(slack for _, slack, _ in rows)


def _outcome(run):
    try:
        v = run()
    except NumericError as exc:
        return "NumericError", str(exc)
    if isinstance(v, tuple):
        return v
    return v.passed, v.checked, v.witness, v.worst_margin


def _reference_subhomogeneity(alpha, cfg):
    rows = []
    for s, t in sample_tuples(PointDomain.real_interval(0.0, 10.0), 2, cfg):
        for k in DEFAULT_K_SET:
            lhs = eval_alpha(alpha, k * s + t)
            rhs = k * eval_alpha(alpha, s) + eval_alpha(alpha, t)
            slack = rhs - lhs
            if slack != slack:
                raise NumericError(f"comparison at {(k, s, t)!r} evaluated to NaN")
            rows.append(((k, s, t), slack, slack < -slack_tolerance(rhs)))
    return _reference_verdict(rows)


def _reference_composed_triangle(space, cfg):
    metric, rows = space.metric.fn, []
    for tup in sample_tuples(space.domain, 4, cfg):
        q, h, w, u = tup
        lhs = metric(q, h, w)
        a_q, a_h, a_w = (eval_alpha(space.alpha, metric(a, a, u)) for a in (q, h, w))
        rhs = a_q + a_h + a_w
        slack = rhs - lhs
        if slack != slack:
            raise NumericError(f"comparison at {tup!r} evaluated to NaN")
        rows.append((tup, slack, slack < -slack_tolerance(rhs)))
    return _reference_verdict(rows)


@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("name", _HOISTED_ALPHAS)
def test_hoisted_subhomogeneity_matches_naive_loop(name, seed):
    alpha = make_alpha(name)
    cfg = SampleConfig(seed=seed, count=1500)
    assert _outcome(lambda: check_alpha_subhomogeneity(alpha, cfg)) == \
        _outcome(lambda: _reference_subhomogeneity(alpha, cfg))


@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("name", _HOISTED_ALPHAS)
def test_composed_triangle_matches_naive_loop(name, seed):
    space = replace(make_builtin_space("abs_sum", [1, 3]), alpha=make_alpha(name))
    cfg = SampleConfig(seed=seed, count=1500)
    assert _outcome(lambda: check_composed_triangle(space, cfg)) == \
        _outcome(lambda: _reference_composed_triangle(space, cfg))


def _alpha_evaluations(monkeypatch, pinned):
    """The verdict of subhomogeneity on 50 pairs, and the alpha values it
    evaluated in all and through alpha._fn.  They are counted through sqrt,
    which both kernels call once per value of this alpha: the fused kernel
    inlines the alpha, and the checked one calls alpha._fn."""
    alpha = make_alpha("2*sqrt(t)+t^2")
    sqrt_calls, fn_calls = [], []
    monkeypatch.setitem(expressions._NAMESPACE, "sqrt",
                        lambda t: sqrt_calls.append(t) or math.sqrt(t))
    fn = alpha._fn
    object.__setattr__(alpha, "_fn", lambda t: fn_calls.append(t) or fn(t))
    v = check_alpha_subhomogeneity(alpha, SampleConfig(seed=5, count=50, pinned=pinned))
    assert v.checked == 50 * len(DEFAULT_K_SET)
    return v, len(sqrt_calls), len(fn_calls)


def test_subhomogeneity_evaluates_alpha_six_times_per_pair(monkeypatch):
    v, evaluated, checked = _alpha_evaluations(monkeypatch, ())
    assert v.passed and checked == 0  # the fused kernel alone
    # alpha(s) and alpha(t) once, alpha(k*s + t) once for each of the 4 k
    assert evaluated == 50 * 6


def test_a_violating_chunk_evaluates_alpha_six_times_per_pair_on_each_kernel(monkeypatch):
    # alpha(8) > 8 alpha(1): the pinned pair (1, 0) violates, so the chunk
    # runs on the fused kernel and then on the checked one.
    v, evaluated, checked = _alpha_evaluations(monkeypatch, ((1.0, 0.0),))
    assert not v.passed
    assert checked == 50 * 6 and evaluated == 2 * 50 * 6


# --- every sampled check against a naive loop --------------------------------
# Each reference evaluates its inequality one tuple at a time, with the raw
# metric, in sample order.  Counts of 1024 and 2500 put the sample in one
# chunk of ``_sampled`` and across three.

def _reference_identity(space, cfg):
    metric, rows = space.metric.fn, []
    for (x,) in sample_tuples(space.domain, 1, cfg):
        d = metric(x, x, x)
        rows.append(((x, x, x), -abs(d), d != 0.0))
    for tup in sample_tuples(space.domain, 3, cfg):
        d = metric(*tup)
        if tup[0] == tup[1] == tup[2]:
            rows.append((tup, -abs(d), d != 0.0))
        else:
            rows.append((tup, d, d <= 0.0))
    return _reference_verdict(rows)


def _reference_classic_triangle(space, cfg):
    metric, rows = space.metric.fn, []
    for tup in sample_tuples(space.domain, 4, cfg):
        q, h, w, u = tup
        lhs = metric(q, h, w)
        rhs = metric(q, q, u) + metric(h, h, u) + metric(w, w, u)
        rows.append((tup, rhs - lhs, rhs - lhs < -slack_tolerance(rhs)))
    return _reference_verdict(rows)


def _reference_symmetry(space, cfg):
    metric, rows = space.metric.fn, []
    for tup in sample_tuples(space.domain, 2, cfg):
        q, h = tup
        a, b = metric(q, q, h), metric(h, h, q)
        slack = -abs(a - b)
        rows.append((tup, slack, slack < -(1e-9 + 1e-9 * max(abs(a), abs(b)))))
    return _reference_verdict(rows)


def _reference_banach(space, F, r, cfg):
    metric, rows = space.metric.fn, []
    for tup in sample_tuples(space.domain, 3, cfg):
        lhs = metric(*(F.apply(x) for x in tup))
        rhs = r * metric(*tup)
        rows.append((tup, rhs - lhs, rhs - lhs < -slack_tolerance(rhs)))
    return _reference_verdict(rows)


def _reference_estimate(space, F, cfg):
    metric, rows = space.metric.fn, []
    for tup in sample_tuples(space.domain, 3, cfg):
        den = metric(*tup)
        if den < 1e-12:
            continue
        rows.append((tup, -(metric(*(F.apply(x) for x in tup)) / den), True))
    _, checked, argmax, slack = _reference_verdict(rows)
    return 0.0 - slack, argmax, checked


def _reference_m1(Mf, r, cfg):
    rows = []
    for tup in sample_tuples(PointDomain.real_interval(0.0, 10.0), 3, cfg):
        o, h, w = tup
        if w <= 2 * o + h and h <= Mf.fn(o, o, 0.0, w, h):
            rows.append((tup, r * o - h, r * o - h < -slack_tolerance(r * o)))
        else:
            rows.append((tup, math.inf, False))  # counted, never the worst
    return _reference_verdict(rows)


def _reference_m2(Mf, cfg):
    rows = []
    for tup in sample_tuples(PointDomain.real_interval(0.0, 10.0), 1, cfg):
        (h,) = tup
        if h <= Mf.fn(h, 0.0, h, h, 0.0):
            rows.append((tup, -h, h > 1e-9))
        else:
            rows.append((tup, math.inf, False))
    return _reference_verdict(rows)


def _reference_mf_contraction(space, F, Mf, cfg):
    metric, rows = space.metric.fn, []
    for tup in sample_tuples(space.domain, 2, cfg):
        o, h = tup
        fo, fh = F.apply(o), F.apply(h)
        lhs = metric(fo, fo, fh)
        rhs = Mf.fn(metric(o, o, h), metric(fo, fo, o), metric(fo, fo, h),
                    metric(fh, fh, o), metric(fh, fh, h))
        rows.append((tup, rhs - lhs, rhs - lhs < -slack_tolerance(rhs)))
    return _reference_verdict(rows)


def _estimate_outcome(space, F, cfg):
    est = estimate_contraction_factor(space, F, cfg)
    return est.sup_ratio, est.argmax_tuple, est.samples


_POLY3 = poly_map(3)
_APP = make_builtin_space("app_metric")
_SQUARED = make_builtin_space("squared_diff", [1, 100])
_DISCRETE = make_builtin_space("discrete_nat", [10])
_DISCRETE_ID = replace(_DISCRETE, alpha=IDENTITY)
_ABS_UNIT = make_builtin_space("abs_sum", [0, 1])
_BROKEN_PAIR = ComposedSpace(
    PointDomain.real_interval(0.0, 10.0),
    TripleMetric(id="broken_pair_distance", fn=lambda q, h, w: abs(q - h)), IDENTITY)
_ASYMMETRIC = ComposedSpace(
    PointDomain.real_interval(0.0, 1.0),
    TripleMetric(id="clipped_plane", fn=lambda q, h, w: max(0.0, q + 2.0 * h - 3.0 * w)),
    IDENTITY)
_BROKEN_PAIR_DISCRETE = replace(_BROKEN_PAIR, domain=_DISCRETE.domain)
# Positive everywhere, so every self distance violates the identity axiom.
_OFFSET = ComposedSpace(
    PointDomain.real_interval(0.0, 1.0),
    TripleMetric(id="offset", fn=lambda q, h, w: abs(q - w) + abs(h - w) + 1e-3), IDENTITY)
# Also positive everywhere, and largest on the diagonal at 1/14, a point of
# the triples' grid block that no single point hits, so the witness is the
# diagonal triple at 1/14.
_BUMP = replace(_OFFSET, metric=TripleMetric(id="bump", fn=lambda q, h, w: (
    abs(q - w) + abs(h - w) + 1e-3 + max(0.0, 1e-3 - abs(q - 1 / 14)))))
_IDENTITY_MAP = make_self_map("identity", _APP.domain)
_HALVING = make_self_map("scale", _APP.domain, factor=0.5)
_REFLECT = SelfMap(id="reflect", fn=lambda x: 10 - x, domain=_DISCRETE.domain)
# A map whose own domain is wider than the space's: its sources are checked.
_WIDE_HALVING = SelfMap(id="wide_halving", fn=lambda x: 0.5 * x,
                        domain=PointDomain.real_interval(0.0, 2.0))
_BROKEN_T5 = MfFunction(id="broken_t5", fn=lambda t1, t2, t3, t4, t5: t5)
_BROKEN_T1 = MfFunction(id="broken_t1", fn=lambda t1, t2, t3, t4, t5: t1)
# Bounds that read t3 = C(Fo, Fo, h), which no built-in Mf does.
_T3 = MfFunction(id="t3", fn=lambda t1, t2, t3, t4, t5: t3)
_T3_T4 = MfFunction(id="t3_t4", fn=lambda t1, t2, t3, t4, t5: 0.4 * (t3 + t4))

# (id, check, reference); each takes a SampleConfig.
_SAMPLED_CASES = [
    *((f"identity-{name}", partial(check_identity_axiom, space),
       partial(_reference_identity, space))
      for name, space in (("app", _APP), ("discrete", _DISCRETE),
                          ("squared_diff", _SQUARED), ("broken_pair", _BROKEN_PAIR),
                          ("broken_pair-discrete", _BROKEN_PAIR_DISCRETE),
                          ("offset", _OFFSET), ("bump", _BUMP))),
    *((f"composed-{name}", partial(check_composed_triangle, space),
       partial(_reference_composed_triangle, space))
      for name, space in (("app", _APP), ("squared_diff", _SQUARED),
                          ("discrete-identity-alpha", _DISCRETE_ID))),
    *((f"classic-{name}", partial(check_classic_triangle, space),
       partial(_reference_classic_triangle, space))
      for name, space in (("squared_diff", _SQUARED), ("discrete", _DISCRETE),
                          ("abs_unit", _ABS_UNIT))),
    *((f"symmetry-{name}", partial(check_symmetry, space),
       partial(_reference_symmetry, space))
      for name, space in (("app", _APP), ("discrete", _DISCRETE),
                          ("squared_diff", _SQUARED), ("asymmetric", _ASYMMETRIC))),
    *((f"banach-{name}", partial(check_banach, space, F, r),
       partial(_reference_banach, space, F, r))
      for name, space, F, r in (("poly3", _POLY3.space, _POLY3.map, 1.0 / 81.0),
                                ("identity-map", _APP, _IDENTITY_MAP, 0.9),
                                ("halving", _APP, _HALVING, 0.5),
                                ("discrete-reflect", _DISCRETE, _REFLECT, 0.5),
                                ("wide-map", _APP, _WIDE_HALVING, 0.4))),
    *((f"estimate-{name}", partial(_estimate_outcome, space, F),
       partial(_reference_estimate, space, F))
      for name, space, F in (("poly3", _POLY3.space, _POLY3.map),
                             ("halving", _APP, _HALVING),
                             ("discrete-reflect", _DISCRETE, _REFLECT),
                             ("wide-map", _APP, _WIDE_HALVING))),
    *((f"m1-{name}", partial(check_m1, Mf, r), partial(_reference_m1, Mf, r))
      for name, Mf, r in (("kannan", kannan_mf(0.4), 2.0 / 3.0),
                          ("banach", banach_mf(1.0 / 81.0), 1.0 / 81.0),
                          ("broken_t5", _BROKEN_T5, 0.5))),
    *((f"m2-{name}", partial(check_m2, Mf), partial(_reference_m2, Mf))
      for name, Mf in (("kannan", kannan_mf(0.4)), ("bianchini", bianchini_mf(0.9)),
                       ("broken_t1", _BROKEN_T1))),
    *((f"mf-{name}", partial(check_mf_contraction, space, F, Mf),
       partial(_reference_mf_contraction, space, F, Mf))
      for name, space, F, Mf in (("poly3-kannan", _POLY3.space, _POLY3.map, kannan_mf(0.4)),
                                 ("identity-map-kannan", _APP, _IDENTITY_MAP, kannan_mf(0.4)),
                                 ("halving-banach", _APP, _HALVING, banach_mf(0.5)),
                                 ("discrete-reflect-bianchini", _DISCRETE, _REFLECT,
                                  bianchini_mf(0.9)),
                                 ("wide-map-kannan", _APP, _WIDE_HALVING, kannan_mf(0.4)),
                                 ("halving-t3", _APP, _HALVING, _T3),
                                 ("poly3-t3-t4", _POLY3.space, _POLY3.map, _T3_T4))),
]


@pytest.mark.parametrize("cfg", [
    *(SampleConfig(seed=seed, count=count, strategy="uniform_random")
      for seed in (3, 17, 2024) for count in (1024, 2500)),
    SampleConfig(seed=3, count=5000),  # the grid block, then random tuples
], ids=lambda cfg: f"{cfg.strategy}-{cfg.seed}-{cfg.count}")
@pytest.mark.parametrize("check, reference",
                         [pytest.param(c, r, id=i) for i, c, r in _SAMPLED_CASES])
def test_sampled_check_matches_naive_loop(check, reference, cfg):
    assert _outcome(lambda: check(cfg)) == _outcome(lambda: reference(cfg))


def test_witness_past_the_first_chunk():
    cfg = SampleConfig(seed=17, count=2500, strategy="uniform_random")
    v = check_classic_triangle(_SQUARED, cfg)
    assert sample_tuples(_SQUARED.domain, 4, cfg).index(v.witness) >= 1024
    assert _outcome(lambda: v) == _reference_classic_triangle(_SQUARED, cfg)


# (id, arity of the sample the check draws, check on a space)
_METRIC_CHECKS = [
    ("identity", 3, check_identity_axiom),
    ("composed", 4, check_composed_triangle),
    ("classic", 4, check_classic_triangle),
    ("symmetry", 2, check_symmetry),
    ("banach", 3, lambda space, cfg: check_banach(
        space, make_self_map("scale", space.domain, factor=0.5), 0.5, cfg)),
    ("estimate", 3, lambda space, cfg: estimate_contraction_factor(
        space, make_self_map("scale", space.domain, factor=0.5), cfg)),
    ("mf", 2, lambda space, cfg: check_mf_contraction(
        space, make_self_map("scale", space.domain, factor=0.5), kannan_mf(0.4), cfg)),
]


@pytest.mark.parametrize("arity, check", [pytest.param(a, c, id=i)
                                          for i, a, c in _METRIC_CHECKS])
def test_first_nan_past_the_first_chunk_is_found(arity, check):
    # The metric is NaN only on tuples holding one coordinate of sample
    # tuple 1500, so the first 1024 tuples see no NaN.
    domain = PointDomain.real_interval(0.0, 1.0)
    cfg = SampleConfig(seed=5, count=2500, strategy="uniform_random")
    bad = sample_tuples(domain, arity, cfg)[1500][0]
    metric = TripleMetric(id="nan_at_one_point", fn=lambda q, h, w: (
        math.nan if bad in (q, h, w) else abs(q - w) + abs(h - w)))
    space = ComposedSpace(domain, metric, IDENTITY, symmetric_claim=True)
    check(space, replace(cfg, count=1024))
    with pytest.raises(NumericError):
        check(space, cfg)


@pytest.mark.parametrize("value", [-1, math.inf, math.nan], ids=["minus-one", "inf", "nan"])
@pytest.mark.parametrize("check", [pytest.param(c, id=i) for i, _, c in _METRIC_CHECKS] + [
    pytest.param(lambda space, cfg: check_alpha_dominates_orbit(
        space, make_self_map("scale", space.domain, factor=0.5), 1.0, n_max=3),
        id="alpha_dominates_orbit")])
def test_metric_value_outside_0_inf_is_a_numeric_error(check, value):
    # Every check that evaluates a metric; subhomogeneity, M1 and M2
    # evaluate none.
    metric = TripleMetric(id="bad_metric", fn=lambda q, h, w: (
        value if q > 0.5 else abs(q - w) + abs(h - w)))
    space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric, TWO_SQRT,
                          symmetric_claim=True)
    with pytest.raises(NumericError,
                       match=rf"^metric 'bad_metric' returned {value!r} at \((0\.[5-9]|1\.0)"):
        check(space, SampleConfig(seed=4, count=500, strategy="uniform_random"))


# A map on [0, 4] whose images leave the app_metric space [0, 1]: every
# check that applies a map must reject them, as picard does.
_DOUBLING = SelfMap(id="doubling", fn=lambda x: 2.0 * x,
                    domain=PointDomain.real_interval(0.0, 4.0))


@pytest.mark.parametrize("check", [
    pytest.param(lambda cfg: check_banach(_APP, _DOUBLING, 0.5, cfg), id="banach"),
    pytest.param(lambda cfg: estimate_contraction_factor(_APP, _DOUBLING, cfg),
                 id="estimate"),
    pytest.param(lambda cfg: check_mf_contraction(_APP, _DOUBLING, kannan_mf(0.4), cfg),
                 id="mf"),
    pytest.param(lambda cfg: check_alpha_dominates_orbit(_APP, _DOUBLING, 0.9, n_max=3),
                 id="alpha_dominates_orbit"),
])
def test_image_outside_the_space_is_a_domain_error(check):
    with pytest.raises(DomainError, match=r"^point \S+ is outside the space domain$"):
        check(SampleConfig(seed=1, count=200))


# --- checks run together over shared streams ------------------------------------
# ``_audit`` runs a list of checks over shared sample streams; its results
# and its errors must be those of the checks run one after another.

def _space_checks(space):
    """The checks of ``verify-space``, in its order."""
    return [lambda: axiom_audit._identity(space),
            lambda: axiom_audit._triangles(space, {"composed_triangle": space.alpha,
                                                   "classic_triangle": None}),
            lambda: axiom_audit._symmetry(space)]


_SPACE_PUBLIC = (check_identity_axiom, check_composed_triangle, check_classic_triangle,
                 check_symmetry)


def _first_error(calls):
    """The type and message of the first call that raises, in order."""
    for call in calls:
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)
    return None


def _audit_error(cfg, checks):
    try:
        axiom_audit._audit(cfg, checks)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("name", BUILTIN_SPACES)
def test_audit_verdicts_equal_the_single_checks(name, seed, count):
    space = make_builtin_space(name)
    cfg = SampleConfig(seed=seed, count=count)
    shared = axiom_audit._audit(cfg, _space_checks(space))
    assert shared == [check(space, cfg) for check in _SPACE_PUBLIC]
    if name in ("squared_diff", "discrete_nat") and count == 2500:
        assert not shared[2].passed  # the classic triangle fails on these


@pytest.mark.parametrize("count", [1023, 2500])
def test_shared_banach_and_estimate_equal_the_single_checks(count):
    cfg = SampleConfig(seed=11, count=count)
    space, F = _POLY3.space, _POLY3.map
    checks = [lambda: axiom_audit._identity(space),
              lambda: fixed_point._estimate(space, F, cfg),
              lambda: fixed_point._banach(space, F, 1.0 / 81.0)]
    assert axiom_audit._audit(cfg, checks) == [
        check_identity_axiom(space, cfg), estimate_contraction_factor(space, F, cfg),
        check_banach(space, F, 1.0 / 81.0, cfg)]


def _counting_draws(monkeypatch):
    calls = []
    draw = axiom_audit._chunks
    monkeypatch.setattr(axiom_audit, "_chunks",
                        lambda *args: calls.append(args[:3]) or draw(*args))
    return calls


def test_verify_space_draws_each_stream_once(monkeypatch, tmp_path):
    calls = _counting_draws(monkeypatch)
    assert cli.main(["verify-space", "--builtin", "app_metric", "--samples", "50",
                     "--out", str(tmp_path / "report.txt")]) == 0
    assert [arity for _, arity, _ in calls] == [1, 3, 4, 2]


def test_verify_theorem_draws_each_stream_once(monkeypatch):
    calls = _counting_draws(monkeypatch)
    assert verify_theorem_4_1(3, samples=50)["all_passed"]
    # Identity and Banach read one 3-tuple stream.
    assert len(calls) == 5
    assert len(set(calls)) == 5


def test_check_contraction_draws_its_stream_once(monkeypatch, tmp_path):
    calls = _counting_draws(monkeypatch)
    assert cli.main(["check-contraction", "--space",
                     '{"metric": "app_metric", "map": {"kind": "poly", "m": 3}}',
                     "--r", "0.0125", "--samples", "50", "--out", str(tmp_path / "report.txt")]) == 0
    # The estimate and Banach read one 3-tuple stream.
    assert [arity for _, arity, _ in calls] == [3]


def _thm41_checks():
    """The five sampled checks of ``verify-thm41 --m 3``, in its order."""
    space, F = _POLY3.space, _POLY3.map
    return [lambda: axiom_audit._identity(space),
            lambda: axiom_audit._triangles(space, {"composed_triangle": space.alpha}),
            lambda: axiom_audit._symmetry(space),
            lambda: axiom_audit._subhomogeneity(space.alpha, DEFAULT_K_SET),
            lambda: fixed_point._banach(space, F, contraction_bound(3))]


def _audit_peak_bytes(count):
    tracemalloc.start()
    try:
        axiom_audit._audit(SampleConfig(count=count), _thm41_checks())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_audit_memory_does_not_grow_with_the_sample():
    # Held whole, the 40,000-tuple streams would take several MB more.  A
    # first audit allocates about 0.5 MB once, which is not the sample's.
    axiom_audit._audit(SampleConfig(count=100), _thm41_checks())
    assert abs(_audit_peak_bytes(40000) - _audit_peak_bytes(4000)) < 2 ** 20


def test_triangles_evaluate_each_metric_batch_once():
    calls = []
    metric = TripleMetric(id="counting", fn=lambda q, h, w: calls.append(1) or (
        abs(q - w) + abs(h - w)))
    space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric, TWO_SQRT)
    cfg = SampleConfig(seed=8, count=2500)
    axiom_audit._audit(cfg, _space_checks(space)[1:2])
    # C(q, h, w) and the three C(x, x, u), each once for both triangles
    assert len(calls) == 4 * 2500


def test_empty_sample_is_the_identity_error():
    cfg = SampleConfig(seed=1, count=0)
    expected = _first_error([partial(check, _APP, cfg) for check in _SPACE_PUBLIC])
    assert expected == (ConfigurationError, "check 'identity_axiom' evaluated an empty sample")
    assert _audit_error(cfg, _space_checks(_APP)) == expected


@pytest.mark.parametrize("samples, message", [
    (0, "check 'identity_axiom' evaluated an empty sample"),
    (50, "tolerance must be positive"),
])
def test_verify_theorem_raises_its_first_check_error(samples, message):
    # The sampled checks run first, so an empty sample is identity's error;
    # of the rest, the uniqueness probe is the first to read tol.
    with pytest.raises(ConfigurationError) as info:
        verify_theorem_4_1(3, samples=samples, tol=-1.0)
    assert str(info.value) == message


def test_earliest_check_error_wins_over_an_earlier_chunk_error():
    # Banach's map escapes in chunk 0 of the shared 3-tuple stream; identity
    # meets a metric value of -1 only in a later chunk, and is the first check.
    domain = PointDomain.real_interval(0.0, 1.0)
    cfg = SampleConfig(seed=5, count=2500, strategy="uniform_random")
    bad = sample_tuples(domain, 3, cfg)[1500]
    metric = TripleMetric(id="minus_one_once", fn=lambda q, h, w: (
        -1 if (q, h, w) == bad else abs(q - w) + abs(h - w)))
    space = ComposedSpace(domain, metric, TWO_SQRT)
    F = make_self_map("scale", domain, factor=2.0)
    expected = _first_error([lambda: check_identity_axiom(space, cfg),
                             lambda: check_banach(space, F, 0.5, cfg)])
    assert expected[0] is NumericError
    assert _first_error([lambda: check_banach(space, F, 0.5, cfg)])[0] is DomainError
    assert _audit_error(cfg, [lambda: axiom_audit._identity(space),
                              lambda: fixed_point._banach(space, F, 0.5)]) == expected


def test_composed_triangle_alpha_error_is_raised():
    # NaN from t >= 0.71 on, where exp(1000*t) is inf; the fused kernel's NaN
    # sends the chunk to the checked one, which raises.
    alpha = make_alpha("t+0*exp(1000*t)")
    space = replace(_APP, alpha=alpha)
    cfg = SampleConfig(seed=2, count=3000)
    expected = _first_error([partial(check, space, cfg) for check in _SPACE_PUBLIC])
    assert expected[0] is NumericError and "composing function" in expected[1]
    assert _audit_error(cfg, _space_checks(space)) == expected


def test_the_first_fault_is_named_in_row_order():
    """A library metric fails at one 4-tuple and the alpha at tuples before
    it in the same chunk.  Checks evaluate tuple by tuple, each tuple's
    metric values before its alpha values, so the composed triangle, and
    verify-space's checks run together, name the alpha's fault; the classic
    triangle, which reads no alpha, names the metric's."""
    domain = PointDomain.real_interval(0.0, 1.0)
    cfg = SampleConfig(seed=5, count=1000, strategy="uniform_random")
    tuples = sample_tuples(domain, 4, cfg)
    bad = tuples[600][:3]
    metric = TripleMetric(id="late_fault", fn=lambda q, h, w: (
        -1.0 if (q, h, w) == bad else abs(q - w) + abs(h - w)))
    alpha = make_alpha("t+0*exp(1000*t)")  # NaN from about t = 0.71 on
    space = ComposedSpace(domain, metric, alpha)
    metric_fault = (NumericError, f"metric 'late_fault' returned -1.0 at {bad!r}")
    # The composed triangle's alpha reads C(x, x, u) for x in (q, h, w).
    i, t = next((i, metric.fn(x, x, u)) for i, (*xs, u) in enumerate(tuples) for x in xs
                if math.isnan(alpha._fn(metric.fn(x, x, u))))
    assert i < 600
    alpha_fault = (NumericError, f"composing function 'custom' returned nan at {t!r}")
    # Subhomogeneity reads alpha(s), alpha(t), then alpha(k * s + t) for each k.
    s = next(x for s, t in sample_tuples(PointDomain.real_interval(0.0, 10.0), 2, cfg)
             for x in (s, t, *(k * s + t for k in DEFAULT_K_SET)) if math.isnan(alpha._fn(x)))
    assert _outcome_of(lambda: check_identity_axiom(space, cfg)).passed
    assert _outcome_of(lambda: check_composed_triangle(space, cfg)) == alpha_fault
    assert _outcome_of(lambda: check_classic_triangle(space, cfg)) == metric_fault
    assert _outcome_of(lambda: check_symmetry(space, cfg)).passed
    assert _outcome_of(lambda: check_alpha_subhomogeneity(alpha, cfg)) == (
        NumericError, f"composing function 'custom' returned nan at {s!r}")
    assert _audit_error(cfg, _space_checks(space)) == alpha_fault


# --- a failing shared run replays its checks one by one ---------------------

def _pairs(space, F, r, cfg):
    """(builder, public check) for each sampled check of verify-space,
    verify_theorem_4_1 and check-contraction."""
    alpha = space.alpha
    return [
        (lambda: axiom_audit._identity(space), partial(check_identity_axiom, space, cfg)),
        (lambda: axiom_audit._triangles(space, {"composed_triangle": alpha}),
         partial(check_composed_triangle, space, cfg)),
        (lambda: axiom_audit._triangles(space, {"classic_triangle": None}),
         partial(check_classic_triangle, space, cfg)),
        (lambda: axiom_audit._symmetry(space), partial(check_symmetry, space, cfg)),
        (lambda: axiom_audit._subhomogeneity(alpha, DEFAULT_K_SET),
         partial(check_alpha_subhomogeneity, alpha, cfg)),
        (lambda: fixed_point._estimate(space, F, cfg),
         partial(estimate_contraction_factor, space, F, cfg)),
        (lambda: fixed_point._banach(space, F, r), partial(check_banach, space, F, r, cfg)),
    ]


def _outcome_of(run):
    """run()'s results, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


_UNIT = PointDomain.real_interval(0.0, 1.0)
_ESCAPING = make_self_map("scale", _UNIT, factor=2.0)


def _faulty_space(fault, cfg):
    """app_metric on [0, 1] whose metric returns fault at 3-tuple 1050 of
    cfg's stream at 1100 tuples, past chunk 0; with fault None it is exact."""
    bad = sample_tuples(_UNIT, 3, replace(cfg, count=1100))[1050]
    metric = TripleMetric(id="faulty", fn=lambda q, h, w: (
        fault if fault is not None and (q, h, w) == bad else abs(q - h) + abs(h - w)))
    return ComposedSpace(_UNIT, metric, TWO_SQRT, symmetric_claim=True)


# Each fault is drawn about one time in four, so that most lists meet none,
# one or two of them.
@settings(derandomize=True, deadline=None, max_examples=60)
@given(picks=st.lists(st.integers(0, 6), min_size=2, max_size=5),
       fault=st.sampled_from([None] * 4 + [-1, math.nan]),
       escaping=st.sampled_from([False] * 3 + [True]),
       r=st.sampled_from([1.0 / 81.0] * 3 + [1.5]), count=st.sampled_from([1100] * 3 + [0]),
       seed=st.integers(0, 3))
@example(picks=[6, 0], fault=math.nan, escaping=False, r=1.0 / 81.0, count=1100, seed=0)
@example(picks=[0, 6], fault=-1, escaping=True, r=1.0 / 81.0, count=1100, seed=1)
@example(picks=[4, 6, 3], fault=None, escaping=False, r=1.5, count=1100, seed=2)
def test_audit_equals_the_public_checks_run_one_after_another(picks, fault, escaping, r,
                                                              count, seed):
    cfg = SampleConfig(seed=seed, count=count, strategy="uniform_random")
    space = _faulty_space(fault, cfg)
    F = _ESCAPING if escaping else _POLY3.map
    pairs = [_pairs(space, F, r, cfg)[i] for i in picks]
    assert _outcome_of(lambda: axiom_audit._audit(cfg, [b for b, _ in pairs])) == \
        _outcome_of(lambda: [check() for _, check in pairs])


@pytest.mark.parametrize("fault, escaping, r, count", [
    pytest.param(None, False, 1.5, 1100, id="build"),
    pytest.param(-1, True, 0.5, 1100, id="kernel-past-chunk-0"),
    pytest.param(math.nan, False, 0.5, 1100, id="nan-past-chunk-0"),
    pytest.param(None, False, 0.5, 0, id="finish"),
])
def test_audit_error_is_not_chained(fault, escaping, r, count):
    cfg = SampleConfig(seed=1, count=count, strategy="uniform_random")
    space = _faulty_space(fault, cfg)
    F = _ESCAPING if escaping else _POLY3.map
    builders = [b for b, _ in _pairs(space, F, r, cfg)]
    with pytest.raises(Exception) as info:
        axiom_audit._audit(cfg, builders)
    assert info.value.__context__ is None and info.value.__cause__ is None

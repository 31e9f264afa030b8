import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmetric import (ComposedSpace, ConfigurationError, DomainError,
                      NumericError, PointDomain, SampleConfig, TripleMetric,
                      check_alpha_dominates_orbit, check_alpha_subhomogeneity,
                      check_alpha_zero, check_classic_triangle,
                      check_composed_triangle, check_identity_axiom,
                      check_series_vanishing, check_symmetry, eval_alpha,
                      make_alpha, make_builtin_space, make_self_map,
                      series_tail)

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

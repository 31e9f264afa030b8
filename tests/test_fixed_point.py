import math

import pytest

from csmetric import (ConfigurationError, DomainError, MfFunction,
                      PointDomain, PreconditionError, SampleConfig, SelfMap,
                      banach_mf, bianchini_mf, check_banach, check_m1,
                      check_m2, check_mf_contraction,
                      estimate_contraction_factor, eval_metric, kannan_mf,
                      make_builtin_space, make_self_map, picard, poly_map,
                      sample_tuples, uniqueness_probe, verify_fixed_point)

# Pinned by the bisection oracle ahead of the build.
ROOT_M3 = 0.012345679299142365

BROKEN_T5 = MfFunction(id="broken_t5", fn=lambda t1, t2, t3, t4, t5: t5)
BROKEN_T1 = MfFunction(id="broken_t1", fn=lambda t1, t2, t3, t4, t5: t1)


@pytest.fixture
def poly3():
    return poly_map(3)


class TestPicard:
    def test_constant_map_converges_fast(self, app_space):
        F = make_self_map("const", app_space.domain, value=0.3)
        result = picard(app_space, F, 0.9)
        assert result.converged
        assert result.iterations <= 2
        assert result.fixed_point == 0.3
        assert result.residual == 0.0

    def test_polynomial_map_reaches_pinned_root(self, poly3):
        result = picard(poly3.space, poly3.map, 0.5, tol=1e-12)
        assert result.converged
        assert abs(result.fixed_point - ROOT_M3) <= 1e-12
        assert result.residual <= 1e-12

    def test_halving_map_has_geometric_steps(self, app_space):
        F = make_self_map("scale", app_space.domain, factor=0.5)
        result = picard(app_space, F, 1.0, tol=1e-12)
        assert result.converged
        for n, d in enumerate(result.orbit.step_distances):
            assert d == pytest.approx(2.0 ** -(n + 1), rel=1e-12)
        assert result.fixed_point <= 4e-12

    def test_orbit_shape_invariants(self, poly3):
        result = picard(poly3.space, poly3.map, 0.5)
        orbit = result.orbit
        assert len(orbit.step_distances) == len(orbit.iterates) - 1
        assert all(d >= 0 for d in orbit.step_distances)

    def test_residual_is_recomputable(self, poly3):
        result = picard(poly3.space, poly3.map, 0.5)
        fp = result.fixed_point
        again = eval_metric(poly3.space, fp, fp, poly3.map.apply(fp))
        assert abs(result.residual - again) <= 1e-12

    def test_non_contracting_map_hits_iteration_cap(self, app_space):
        flip = SelfMap(id="flip", fn=lambda x: 1.0 - x, domain=app_space.domain)
        result = picard(app_space, flip, 0.2, tol=1e-12, max_iter=25)
        assert not result.converged
        assert result.iterations == 25

    def test_argument_validation(self, app_space):
        F = make_self_map("identity", app_space.domain)
        with pytest.raises(ConfigurationError):
            picard(app_space, F, 0.5, tol=0.0)
        with pytest.raises(ConfigurationError):
            picard(app_space, F, 0.5, tol=math.nan)
        with pytest.raises(ConfigurationError):
            picard(app_space, F, 0.5, max_iter=0)
        with pytest.raises(DomainError):
            picard(app_space, F, 1.5)

    def test_escaping_orbit_raises(self, app_space):
        grow = SelfMap(id="grow", fn=lambda x: x + 0.6, domain=app_space.domain)
        with pytest.raises(DomainError):
            picard(app_space, grow, 0.5)


class TestContractionEstimate:
    def test_constant_map_has_zero_ratio(self, app_space, cfg_small):
        F = make_self_map("const", app_space.domain, value=0.4)
        est = estimate_contraction_factor(app_space, F, cfg_small)
        assert est.sup_ratio == 0.0

    def test_identity_map_has_unit_ratio(self, app_space, cfg_small):
        F = make_self_map("identity", app_space.domain)
        est = estimate_contraction_factor(app_space, F, cfg_small)
        assert est.sup_ratio == 1.0

    def test_polynomial_map_stays_under_quoted_factor(self, poly3, cfg_small):
        est = estimate_contraction_factor(poly3.space, poly3.map, cfg_small)
        assert est.sup_ratio <= 1.0 / 81.0

    def test_argmax_reproduces_ratio(self, poly3, cfg_small):
        est = estimate_contraction_factor(poly3.space, poly3.map, cfg_small)
        q, h, w = est.argmax_tuple
        metric = poly3.space.metric.fn
        F = poly3.map.apply
        again = metric(F(q), F(h), F(w)) / metric(q, h, w)
        assert abs(again - est.sup_ratio) <= 1e-12

    def test_sup_ratio_is_the_exact_sample_maximum(self, poly3, cfg_small):
        est = estimate_contraction_factor(poly3.space, poly3.map, cfg_small)
        metric = poly3.space.metric.fn
        F = poly3.map.apply
        ratios = []
        for q, h, w in sample_tuples(poly3.space.domain, 3, cfg_small):
            den = metric(q, h, w)
            if den >= 1e-12:
                ratios.append(metric(F(q), F(h), F(w)) / den)
        assert est.sup_ratio == max(ratios)
        assert all(r <= est.sup_ratio for r in ratios)

    def test_degenerate_sample_rejected(self):
        domain = PointDomain.finite_real_set([2.0])
        space = make_builtin_space("app_metric")
        space = type(space)(domain, space.metric, space.alpha, True)
        F = SelfMap(id="identity", fn=lambda x: x, domain=domain)
        with pytest.raises(ConfigurationError):
            estimate_contraction_factor(space, F, SampleConfig(seed=1, count=50))


class TestBanachCheck:
    def test_polynomial_map_with_quoted_factor(self, poly3, cfg_small):
        assert check_banach(poly3.space, poly3.map, 1.0 / 81.0, cfg_small).passed

    def test_identity_map_fails_any_factor(self, app_space, cfg_small):
        F = make_self_map("identity", app_space.domain)
        v = check_banach(app_space, F, 0.9, cfg_small)
        assert not v.passed
        q, h, w = v.witness
        assert app_space.metric.fn(q, h, w) > 0

    def test_halving_map_sits_exactly_on_its_factor(self, app_space, cfg_small):
        F = make_self_map("scale", app_space.domain, factor=0.5)
        v = check_banach(app_space, F, 0.5, cfg_small)
        assert v.passed
        assert v.worst_margin == 0.0

    def test_factor_validation(self, poly3, cfg_small):
        with pytest.raises(ConfigurationError):
            check_banach(poly3.space, poly3.map, 1.0, cfg_small)


class TestMfProperties:
    def test_banach_reduction_is_immediate(self, cfg_small):
        r = 1.0 / 81.0
        assert check_m1(banach_mf(r), r, cfg_small).passed

    def test_kannan_reduces_with_ratio_two_thirds(self, cfg_small):
        assert check_m1(kannan_mf(0.4), 2.0 / 3.0, cfg_small).passed

    def test_bianchini_reduces_with_its_own_coefficient(self, cfg_small):
        assert check_m1(bianchini_mf(0.9), 0.9, cfg_small).passed

    def test_broken_t5_fails_m1(self):
        cfg = SampleConfig(seed=1, count=200, pinned=((0.0, 1.0, 0.0),))
        v = check_m1(BROKEN_T5, 0.5, cfg)
        assert not v.passed
        o, h, w = v.witness
        assert h <= BROKEN_T5.fn(o, o, 0.0, w, h) and w <= 2 * o + h
        assert h > 0.5 * o

    def test_m1_guard_variant(self, cfg_small):
        assert check_m1(kannan_mf(0.4), 2.0 / 3.0, cfg_small,
                        guard_variant="alternate").passed
        with pytest.raises(ConfigurationError):
            check_m1(kannan_mf(0.4), 2.0 / 3.0, cfg_small, guard_variant="wrong")

    def test_m1_factor_validation(self, cfg_small):
        with pytest.raises(ConfigurationError):
            check_m1(banach_mf(0.5), 1.0, cfg_small)

    @pytest.mark.parametrize("mf", [kannan_mf(0.4), bianchini_mf(0.9), banach_mf(0.5)])
    def test_m2_holds_for_builtins(self, mf, cfg_small):
        assert check_m2(mf, cfg_small).passed

    def test_broken_t1_fails_m2(self):
        cfg = SampleConfig(seed=1, count=300, pinned=((1.0,),))
        v = check_m2(BROKEN_T1, cfg)
        assert not v.passed
        (h,) = v.witness
        assert h > 0 and h <= BROKEN_T1.fn(h, 0.0, h, h, 0.0)

    def test_coefficient_ranges(self):
        with pytest.raises(ConfigurationError):
            kannan_mf(0.5)
        with pytest.raises(ConfigurationError):
            bianchini_mf(1.0)
        with pytest.raises(ConfigurationError):
            banach_mf(1.0)


class TestMfContraction:
    def test_banach_choice_matches_direct_check(self, poly3):
        # Same underlying comparisons: the reduction must agree bit for bit.
        pairs = tuple(sample_tuples(poly3.space.domain, 2,
                                    SampleConfig(seed=5, count=1500)))
        triples = tuple((o, o, h) for o, h in pairs)
        r = 1.0 / 81.0
        via_mf = check_mf_contraction(
            poly3.space, poly3.map, banach_mf(r),
            SampleConfig(seed=5, count=len(pairs), pinned=pairs))
        via_banach = check_banach(
            poly3.space, poly3.map, r,
            SampleConfig(seed=5, count=len(triples), pinned=triples))
        assert via_mf.passed == via_banach.passed
        assert via_mf.checked == via_banach.checked
        assert via_mf.worst_margin == via_banach.worst_margin

    def test_constant_map_satisfies_kannan(self, app_space, cfg_small):
        F = make_self_map("const", app_space.domain, value=0.25)
        assert check_mf_contraction(app_space, F, kannan_mf(0.4), cfg_small).passed

    def test_polynomial_map_satisfies_kannan(self, poly3, cfg_small):
        # Pinned by an exhaustive 0.01-step grid sweep ahead of the build.
        assert check_mf_contraction(poly3.space, poly3.map, kannan_mf(0.4), cfg_small).passed

    def test_requires_symmetric_space(self, asymmetric_space, cfg_small):
        F = make_self_map("identity", asymmetric_space.domain)
        with pytest.raises(PreconditionError):
            check_mf_contraction(asymmetric_space, F, kannan_mf(0.4), cfg_small)


class TestVerifyFixedPoint:
    def test_constant_map_fixed_point(self, app_space):
        F = make_self_map("const", app_space.domain, value=0.3)
        v = verify_fixed_point(app_space, F, 0.3, tol=1e-12)
        assert v.passed and v.worst_margin == 1e-12

    def test_polynomial_root_verifies(self, poly3):
        assert verify_fixed_point(poly3.space, poly3.map, ROOT_M3, tol=1e-9).passed

    def test_midpoint_is_far_from_fixed(self, poly3):
        v = verify_fixed_point(poly3.space, poly3.map, 0.5, tol=1e-9)
        assert not v.passed
        assert v.witness[1] == pytest.approx(0.4876373626373626, rel=1e-12)


class TestUniquenessProbe:
    def test_polynomial_map_from_five_starts(self, poly3):
        v = uniqueness_probe(poly3.space, poly3.map, (0.0, 0.25, 0.5, 0.75, 1.0))
        assert v.passed

    def test_constant_map(self, app_space):
        F = make_self_map("const", app_space.domain, value=0.6)
        assert uniqueness_probe(app_space, F, (0.0, 0.5, 1.0)).passed

    def test_identity_map_exposes_non_uniqueness(self, app_space):
        F = make_self_map("identity", app_space.domain)
        v = uniqueness_probe(app_space, F, (0.0, 1.0))
        assert not v.passed
        assert v.witness == (0.0, 1.0)

    def test_non_convergent_start_is_the_witness(self, app_space):
        flip = SelfMap(id="flip", fn=lambda x: 1.0 - x, domain=app_space.domain)
        v = uniqueness_probe(app_space, flip, (0.2,), max_iter=10)
        assert not v.passed
        assert v.witness == (0.2,)

    def test_starts_required(self, poly3):
        with pytest.raises(ConfigurationError):
            uniqueness_probe(poly3.space, poly3.map, ())


class TestGeometricDecay:
    def test_orbit_steps_decay_at_the_quoted_rate(self, poly3):
        result = picard(poly3.space, poly3.map, 1.0, tol=1e-12)
        steps = result.orbit.step_distances
        d0 = steps[0]
        for n, d in enumerate(steps):
            assert d <= (1.0 / 81.0) ** n * d0 * (1.0 + 1e-6)

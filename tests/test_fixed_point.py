import math

import pytest

from csmetric import (DEFAULT_MAX_ITER, DEFAULT_TOL, ComposedSpace,
                      ConfigurationError, DomainError, MfFunction,
                      NumericError, Orbit, PointDomain, PreconditionError,
                      SampleConfig, SelfMap, SolveResult, TripleMetric,
                      banach_mf, bianchini_mf, check_banach,
                      check_identity_axiom, check_m1, check_m2,
                      check_mf_contraction,
                      estimate_contraction_factor, eval_metric, kannan_mf,
                      make_alpha, make_builtin_space, make_self_map, picard,
                      poly_map, poly_solver, sample_tuples, solve_poly,
                      uniqueness_probe, verify_fixed_point)
from csmetric import axiom_audit, spaces
from csmetric.spaces import replace

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

    def test_a_count_that_is_not_an_integer_is_a_configuration_error(self, poly3):
        with pytest.raises(ConfigurationError, match="max_iter must be an integer >= 1, got 2.5"):
            picard(poly3.space, poly3.map, 0.5, max_iter=2.5)

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
        with pytest.raises(DomainError, match=r"escaped its domain: F\(0\.5\) = 1\.1"):
            picard(app_space, grow, 0.5)

    def test_start_outside_the_map_domain_raises(self, app_space):
        F = make_self_map("scale", PointDomain.real_interval(0.0, 0.5), factor=0.5)
        with pytest.raises(DomainError,
                           match=r"point 0\.8 is outside the domain of map 'scale\(0\.5\)'"):
            picard(app_space, F, 0.8)

    def test_metric_nan_on_part_of_the_orbit_raises(self, app_space):
        # Finite while the orbit is above 0.1, NaN once a step lands below.
        nan_low = TripleMetric(
            id="nan_low", fn=lambda q, h, w: math.nan if w < 0.1 else abs(q - w))
        space = ComposedSpace(app_space.domain, nan_low, app_space.alpha)
        F = make_self_map("scale", app_space.domain, factor=0.5)
        with pytest.raises(NumericError,
                           match=r"metric 'nan_low' returned nan at \(0\.125, 0\.125, 0\.0625\)"):
            picard(space, F, 1.0)

    def test_image_outside_a_narrower_space_domain_raises(self, app_space):
        wide = SelfMap(id="grow", fn=lambda x: x + 0.3, domain=PointDomain.real_interval(0.0, 2.0))
        with pytest.raises(DomainError, match=r"point 1\.1 is outside the space domain"):
            picard(app_space, wide, 0.5)


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

    def test_nan_ratio_raises(self):
        # NaN on a strip: images of [0.5, 0.6) under the scale map land in it.
        metric = TripleMetric(id="nan_strip", fn=lambda q, h, w: (
            math.nan if 0.05 <= q < 0.06 else abs(q - h) + abs(h - w)))
        space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric,
                              make_alpha("identity"), symmetric_claim=True)
        F = make_self_map("scale", space.domain, factor=0.1)
        with pytest.raises(NumericError):
            estimate_contraction_factor(space, F, SampleConfig(seed=1, count=2000))

    def test_minus_infinite_metric_value_raises(self):
        # A metric value of -inf is not a distance, so no ratio is formed.
        metric = TripleMetric(id="minus_inf_images", fn=lambda q, h, w: (
            -math.inf if q < 0.1 else abs(q - h) + abs(h - w)))
        space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric,
                              make_alpha("identity"), symmetric_claim=True)
        F = make_self_map("scale", space.domain, factor=0.05)
        with pytest.raises(NumericError, match="metric 'minus_inf_images' returned -inf"):
            estimate_contraction_factor(space, F, SampleConfig(seed=1, count=2000))


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

    def test_m1_factor_validation(self, cfg_small):
        with pytest.raises(ConfigurationError):
            check_m1(banach_mf(0.5), 1.0, cfg_small)

    @pytest.mark.parametrize("mf", [kannan_mf(0.4), bianchini_mf(0.9), banach_mf(0.5)])
    def test_m2_holds_for_builtins(self, mf, cfg_small):
        assert check_m2(mf, cfg_small).passed

    @pytest.mark.parametrize("h, passed", [(0.9e-9, True), (1.1e-9, False)])
    def test_m2_allows_the_absolute_tolerance(self, h, passed):
        # BROKEN_T1 guards every h, so the slack is 0 - h against a
        # right-hand side of 0, whose tolerance is 1e-9.
        v = check_m2(BROKEN_T1, SampleConfig(count=1, pinned=((h,),)))
        assert v.passed is passed and v.worst_margin == -h

    def test_broken_t1_fails_m2(self):
        cfg = SampleConfig(seed=1, count=300, pinned=((1.0,),))
        v = check_m2(BROKEN_T1, cfg)
        assert not v.passed
        (h,) = v.witness
        assert h > 0 and h <= BROKEN_T1.fn(h, 0.0, h, h, 0.0)

    @pytest.mark.parametrize("value", [math.nan, -1.0, "0.5", 1j],
                             ids=["nan", "negative", "str", "complex"])
    @pytest.mark.parametrize("check, cfg, at", [
        (lambda Mf, cfg: check_m1(Mf, 0.5, cfg), SampleConfig(count=500, pinned=((0.0, 1.0, 0.0),)),
         (0.0, 0.0, 0.0, 0.0, 1.0)),
        (check_m2, SampleConfig(count=500, pinned=((1.0,),)), (1.0, 0.0, 1.0, 1.0, 0.0)),
    ], ids=["m1", "m2"])
    def test_an_mf_value_that_is_nan_negative_or_not_a_real_is_named(self, check, cfg, at,
                                                                       value):
        # A NaN or negative Mf fails the guard h <= Mf(...), so every tuple
        # would count as unguarded and the check pass with worst_margin inf.
        Mf = MfFunction(id="bad", fn=lambda *t: value)
        with pytest.raises(NumericError) as info:
            check(Mf, cfg)
        assert str(info.value) == f"Mf 'bad' returned {value!r} at {at!r}"

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

    def test_a_nan_mf_value_is_named(self, app_space):
        F = make_self_map("scale", app_space.domain, factor=0.5)
        Mf = MfFunction(id="nan", fn=lambda *t: math.nan)
        with pytest.raises(NumericError, match=r"^Mf 'nan' returned nan at \(0\.\d+, "):
            check_mf_contraction(app_space, F, Mf, SampleConfig(count=500))

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

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
    def test_a_tolerance_that_is_not_positive_is_a_configuration_error(self, app_space, tol):
        # As picard's; unchecked, NaN reaches the collector as a NaN slack.
        F = make_self_map("const", app_space.domain, value=0.3)
        with pytest.raises(ConfigurationError, match="tolerance must be positive"):
            verify_fixed_point(app_space, F, 0.3, tol=tol)


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

    def test_capped_start_with_zero_residual_has_positive_zero_margin(self, app_space):
        # One step reaches the constant's fixed point, but the run is capped
        # before the step distance falls to tol; the residual there is 0.
        F = make_self_map("const", app_space.domain, value=0.3)
        v = uniqueness_probe(app_space, F, (0.9,), max_iter=1)
        assert not v.passed
        assert v.witness == (0.9,) and v.checked == 1
        assert math.copysign(1.0, v.worst_margin) == 1.0

    def test_starts_required(self, poly3):
        with pytest.raises(ConfigurationError):
            uniqueness_probe(poly3.space, poly3.map, ())

    def test_a_count_that_is_not_an_integer_is_a_configuration_error(self, poly3):
        with pytest.raises(ConfigurationError, match="max_iter must be an integer >= 1, got nan"):
            uniqueness_probe(poly3.space, poly3.map, (0.5,), max_iter=math.nan)


class TestGeometricDecay:
    def test_orbit_steps_decay_at_the_quoted_rate(self, poly3):
        result = picard(poly3.space, poly3.map, 1.0, tol=1e-12)
        steps = result.orbit.step_distances
        d0 = steps[0]
        for n, d in enumerate(steps):
            assert d <= (1.0 / 81.0) ** n * d0 * (1.0 + 1e-6)


# --- picard against a step-by-step reference ------------------------------------
# picard checks each step with quick inline tests before the named checks.  It
# must return, or raise, exactly what this loop does, and call the map and the
# metric as often: one checked step at a time, stopping at the first step
# distance <= tol.

def _stepwise_picard(space, F, x0, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    if not tol > 0:
        raise ConfigurationError("tolerance must be positive")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be >= 1")
    if not space.domain.contains(x0):
        raise DomainError(f"start point {x0!r} is outside the domain")
    iterates, steps = _stepwise_orbit(space, F, x0, tol, max_iter)
    fixed_point = iterates[-1]
    residual = eval_metric(space, fixed_point, fixed_point, F.apply(fixed_point))
    return SolveResult(fixed_point=fixed_point, iterations=len(steps), residual=residual,
                       converged=steps[-1] <= tol and residual <= tol,
                       orbit=Orbit(iterates=tuple(iterates), step_distances=tuple(steps)))


def _stepwise_orbit(space, F, x0, tol, n):
    if not F.domain.contains(x0):
        raise F.outside_error(x0)
    iterates, steps, x = [x0], [], x0
    for _ in range(n):
        y = F.fn(x)
        if not F.domain.contains(y):
            raise F.escape_error(x, y)
        if not space.domain.contains(y):
            raise DomainError(f"point {y!r} is outside the space domain")
        d = eval_metric(space, x, x, y)
        iterates.append(y)
        steps.append(d)
        if d <= tol:
            break
        x = y
    return iterates, steps


def _outcome(solve, space, F, x0, tol, max_iter):
    """What a solve returns, types and signed zeros included by repr, or the
    type, message and context of what it raises."""
    try:
        result = solve(space, F, x0, tol, max_iter)
    except Exception as error:
        return "raises", type(error), str(error), error.__context__
    return "returns", repr(result), [type(d) for d in result.orbit.step_distances]


# Orbit lengths from one step to a few thousand.
_STEPS = (1, 2, 3, 1023, 1024, 1025, 2048)
_WIDE = PointDomain.real_interval(0.0, 4096.0)
_TOL = 0.25


def _app(q, h, w):  # app_metric's form: C(x, x, y) = |x - y|
    return abs(q - h) + abs(h - w)


def _space(domain=_WIDE, metric=_app):
    return ComposedSpace(domain, TripleMetric(id="app", fn=metric), make_alpha("identity"))


def _map(fn, domain=_WIDE):
    return SelfMap(id="map", fn=fn, domain=domain)


def _down(x):
    """Down by 1 to 0.5, then halving: from k - 0.5, d_1 ... d_{k-1} are 1
    and d_k = 0.25 is the first step distance <= _TOL."""
    return x - 1.0 if x >= 1.0 else x / 2


def _failing_at(fn, bad, fault):
    """fn, except at the points where bad holds: there fault(x), which may
    raise."""
    return lambda x: fault(x) if bad(x) else fn(x)


def _raise(x):
    raise ValueError(f"no image at {x!r}")


# Every point k + 0.5 and every halving of 0.5 that _down reaches.
_HALF_POINTS = PointDomain.finite_real_set(
    [k + 0.5 for k in range(2100)] + [0.5 * 2.0 ** -j for j in range(1, 80)])


# Faults that follow a stop at step k from k - 0.5: x_k = 0.25, the residual
# needs F(0.25) = 0.125 and C(0.25, 0.25, 0.125), and step k + 2 is the first
# to go below them, so a step-by-step run never reaches them.
_AFTER_STOP = {
    "map-raises": (_space(), _failing_at(_down, lambda x: x < 0.2, _raise)),
    "map-escapes": (_space(), _failing_at(_down, lambda x: x < 0.2, lambda x: -1.0)),
    "metric-nan": (_space(metric=lambda q, h, w: math.nan if w < 0.1 else _app(q, h, w)), _down),
}


def _cases():
    for k in _STEPS:
        yield f"stop-at-{k}", _space(), _map(_down), k - 0.5, _TOL, DEFAULT_MAX_ITER
        yield f"max-iter-{k}", _space(), _map(_down), 3000.5, _TOL, k
        yield f"stop-at-max-iter-{k}", _space(), _map(_down), k - 0.5, _TOL, k
        yield f"stop-after-max-iter-{k}", _space(), _map(_down), k + 0.5, _TOL, k
        yield f"escape-at-{k}", _space(), _map(lambda x: x - 1.0), k - 0.5, _TOL, 4000
        for value in (math.nan, -1.0, math.inf, True, False, 1, 0, -0.0, 10 ** 400, "1.0", None):
            metric = (lambda v, at: lambda q, h, w: v if w == at else _app(q, h, w))(
                value, 3000.5 - k)
            yield (f"metric-{value!r:.8}-at-{k}", _space(metric=metric), _map(_down), 3000.5,
                   _TOL, DEFAULT_MAX_ITER)
        if k < 2048:  # the stop is at step 2048
            raising = _failing_at(_down, lambda x, at=2048.5 - k: x == at, _raise)
            yield f"map-raises-at-{k}-before-stop", _space(), _map(raising), 2047.5, _TOL, 4000
        for fault, (space, fn) in _AFTER_STOP.items():
            yield f"{fault}-after-stop-{k}", space, _map(fn), k - 0.5, _TOL, DEFAULT_MAX_ITER
        naturals = make_builtin_space("discrete_nat", [4096])
        down_to_0 = _map(lambda n: max(n - 1, 0), naturals.domain)
        yield f"naturals-stop-at-{k}", naturals, down_to_0, k - 1, 1e-12, DEFAULT_MAX_ITER
        yield (f"naturals-int-metric-stop-at-{k}", _space(naturals.domain), down_to_0, k - 1,
               1e-12, DEFAULT_MAX_ITER)
        yield (f"naturals-escape-at-{k}", naturals, _map(lambda n: n - 1, naturals.domain),
               k - 1, 1e-12, DEFAULT_MAX_ITER)
        yield (f"naturals-float-images-{k}", naturals,
               _map(lambda n: max(n - 1.0, 0.0), naturals.domain), k - 1, 1e-12,
               DEFAULT_MAX_ITER)
        finite = _space(_HALF_POINTS)
        yield (f"finite-set-stop-at-{k}", finite, _map(_down, _HALF_POINTS), k - 0.5, _TOL,
               DEFAULT_MAX_ITER)
        yield (f"finite-set-escape-at-{k}", finite, _map(lambda x: x - 1.0, _HALF_POINTS),
               k - 0.5, _TOL, DEFAULT_MAX_ITER)
        wider = PointDomain.real_interval(0.0, 8192.0)
        yield (f"wider-map-domain-stop-at-{k}", _space(), _map(_down, wider), k - 0.5, _TOL,
               DEFAULT_MAX_ITER)
        yield (f"wider-map-domain-leaves-space-at-{k}", _space(),
               _map(lambda x: x + 1.0, wider), 4096.5 - k, _TOL, DEFAULT_MAX_ITER)
    app, poly = make_builtin_space("app_metric"), poly_map(3)
    yield "poly-m3", poly.space, poly.map, 0.5, DEFAULT_TOL, DEFAULT_MAX_ITER
    yield ("scale-0.9999", app, make_self_map("scale", app.domain, factor=0.9999), 1.0,
           DEFAULT_TOL, 3000)
    yield ("flip", app, _map(lambda x: 1.0 - x, app.domain), 0.2, DEFAULT_TOL, 1500)
    yield from _inlined_cases()


# Every built-in map kind on every built-in metric, each fused on each domain,
# so that picard inlines both.  From x0, halving stops on the interval, and
# leaves the naturals at step 4 and the powers of 2 at step 30, where
# squared_diff stops first; doubling leaves each domain; the poly map's
# images leave both discrete domains at step 1.  Its own domain is [0, 1].
_INLINED_DOMAINS = {
    "interval": (PointDomain.real_interval(0.0, 100.0), 1.0, 0.25),
    "naturals": (PointDomain.naturals_up_to(50), 40, 3),
    "finite-set": (PointDomain.finite_real_set([2.0 ** -j for j in range(30)]), 1.0, 0.25),
}


def _builtin_maps(domain, value):
    return [make_self_map("identity", domain), make_self_map("const", domain, value=value),
            make_self_map("scale", domain, factor=0.5),
            make_self_map("scale", domain, factor=2.0), make_self_map("poly", domain, m=3)]


def _inlined_cases():
    for metric in ("app_metric", "abs_sum", "squared_diff", "discrete_nat"):
        for name, (domain, x0, value) in _INLINED_DOMAINS.items():
            space = replace(make_builtin_space(metric), domain=domain)
            for F in _builtin_maps(domain, value):
                start = min(x0, 1) if F.id == "poly_m3" else x0
                yield f"inlined-{metric}-{name}-{F.id}", space, F, start, DEFAULT_TOL, 3000


@pytest.mark.parametrize("space, F, x0, tol, max_iter",
                         [pytest.param(*case[1:], id=case[0]) for case in _cases()])
def test_picard_matches_the_stepwise_loop(space, F, x0, tol, max_iter):
    *counted, expected_calls = _counting(space, F)
    expected = _outcome(_stepwise_picard, *counted, x0, tol, max_iter)
    *counted, calls = _counting(space, F)
    assert _outcome(picard, *counted, x0, tol, max_iter) == expected
    assert calls == expected_calls
    # Unwrapped, a built-in map on a fused metric runs the inlined loop.
    assert _outcome(picard, space, F, x0, tol, max_iter) == expected
    if expected[0] == "raises":
        assert expected[3] is None
    else:
        assert set(expected[2]) == {float}


@pytest.mark.parametrize("k", _STEPS)
def test_the_reference_cases_stop_and_fail_where_they_say(k):
    # The cases above rely on these: the stop from k - 0.5 is step k, and the
    # faults that follow it are reached one step later, not by the run.
    assert _stepwise_picard(_space(), _map(_down), k - 0.5, _TOL).iterations == k
    for space, fn in _AFTER_STOP.values():
        assert _stepwise_picard(space, _map(fn), k - 0.5, _TOL).iterations == k
        with pytest.raises((ValueError, DomainError, NumericError)):
            _stepwise_picard(space, _map(fn), k - 0.5, _TOL / 2)


def _counting(space, F):
    """space and F, with the metric and F.fn logging each call, in order, to
    the returned list."""
    calls, metric, fn = [], space.metric.fn, F.fn
    counted = TripleMetric(id=space.metric.id,
                           fn=lambda q, h, w: calls.append("metric") or metric(q, h, w))
    return (replace(space, metric=counted),
            replace(F, fn=lambda x: calls.append("map") or fn(x)), calls)


@pytest.mark.parametrize("k", [4, 1024, 2045])
@pytest.mark.parametrize("fault", ["map-escapes", "metric-nan"])
def test_faults_past_the_stop_are_never_reached(k, fault):
    # The faults follow the stop at step k: the map and the metric run once
    # per step and once more each for the residual, and never reach them.
    space, fn = _AFTER_STOP[fault]
    space, F, calls = _counting(space, _map(fn))
    assert picard(space, F, k - 0.5, _TOL).iterations == k
    assert calls.count("map") == calls.count("metric") == k + 1


def test_short_orbits_run_the_map_once_per_step(monkeypatch):
    # Once per step, and once more for the residual.
    problem = poly_map(3)
    _, counted, calls = _counting(problem.space, problem.map)
    monkeypatch.setattr(poly_solver, "poly_map",
                        lambda m: poly_solver.PolyProblem(m, counted, problem.space))
    result = solve_poly(3)
    assert result.converged and calls.count("map") == result.iterations + 1
    for x0 in poly_solver._UNIQUENESS_STARTS:
        calls.clear()
        assert uniqueness_probe(problem.space, counted, (x0,)).passed
        iterations = picard(problem.space, problem.map, x0).iterations
        assert calls.count("map") == iterations + 1


def _orbit_outcome(orbit, space, F, x0, tol, n):
    """An orbit's iterates and distances by repr, types included, or the type
    and message of what it raises."""
    try:
        iterates, distances = orbit(space, F, x0, tol, n)
    except Exception as error:
        return "raises", type(error), str(error)
    return [(type(x), repr(x)) for x in iterates], [(type(d), repr(d)) for d in distances]


def _loops_taken(monkeypatch):
    """The map lambda of each loop _orbit runs, None for the called loop."""
    taken, loop = [], axiom_audit._orbit_loop
    monkeypatch.setattr(axiom_audit, "_orbit_loop", lambda F, S: taken.append(F) or loop(F, S))
    return taken


@pytest.mark.parametrize("space, F, x0", [pytest.param(*case[1:4], id=case[0])
                                          for case in _inlined_cases()])
def test_an_orbit_that_never_stops_is_inlined_too(monkeypatch, space, F, x0):
    # tol = -inf, check_alpha_dominates_orbit's: the orbit runs its n steps
    # or escapes.  The map is inlined on its own domain; the poly map, whose
    # domain is [0, 1], is called elsewhere.
    taken = _loops_taken(monkeypatch)
    expected = _orbit_outcome(_stepwise_orbit, space, F, x0, -math.inf, 60)
    assert _orbit_outcome(axiom_audit._orbit, space, F, x0, -math.inf, 60) == expected
    inlined = F.domain == space.domain
    assert taken == [spaces._map_text(F) if inlined else None] and inlined != (F.id == "poly_m3")


def test_a_user_map_and_a_replaced_fn_run_the_called_loop(monkeypatch):
    space = make_builtin_space("app_metric")
    F = make_self_map("scale", space.domain, factor=0.5)
    taken = _loops_taken(monkeypatch)
    results = {repr(picard(space, G, 1.0)) for G in (
        F, SelfMap("halving", lambda x: 0.5 * x, space.domain), replace(F, fn=lambda x: 0.5 * x))}
    assert taken == [F.fn._text, None, None] and len(results) == 1


def test_verify_thm41_compiles_its_inlined_loop_once(monkeypatch):
    # Banach's image function, then one loop for six Picard runs: the solve
    # and the five starts of the uniqueness probe.
    compiled, compile_function = [], axiom_audit.compile_function
    monkeypatch.setattr(axiom_audit, "compile_function", lambda source, functions, names: (
        compiled.append(sorted(functions)) or compile_function(source, functions, names)))
    axiom_audit._orbit_loop.cache_clear()
    axiom_audit._images_loop.cache_clear()
    assert poly_solver.verify_theorem_4_1(3, samples=50)["all_passed"]
    assert compiled == [["F"], ["F", "S"]]


@pytest.mark.parametrize("metric, lo, hi, factor, message", [
    ("app_metric", 0.0, 1.0, 2.0,
     "map 'scale(2.0)' escaped its domain: F(0.5714285714285714) = 1.1428571428571428"),
    ("abs_sum", 0.0, 100.0, 1e308,
     "map 'scale(1e+308)' escaped its domain: F(7.142857142857143) = inf"),
    # A contraction whose images leave [1, 100] below 2: each slack is >= 0.
    ("squared_diff", 1.0, 100.0, 0.5, "map 'scale(0.5)' escaped its domain: F(1.0) = 0.5"),
])
def test_banach_names_the_first_image_to_leave_the_domain(metric, lo, hi, factor, message):
    # The image function, inlined map or called, names the first of these
    # images in sample order, in the fused form and in the checked one.
    space = replace(make_builtin_space(metric), domain=PointDomain.real_interval(lo, hi))
    F = make_self_map("scale", space.domain, factor=factor)
    for G in (F, replace(F, fn=lambda x: factor * x)):
        with pytest.raises(DomainError) as info:
            check_banach(space, G, 0.5, SampleConfig(seed=1, count=3000))
        assert str(info.value) == message


def test_banach_tests_each_image_as_it_is_taken():
    # The poly map lives on [0, 1]; on [1, 100] its image of the first point,
    # 1.0, leaves the space before any later point leaves the map's domain.
    space = replace(make_builtin_space("abs_sum"), domain=PointDomain.real_interval(1.0, 100.0))
    with pytest.raises(DomainError) as info:
        check_banach(space, poly_map(3).map, 0.5, SampleConfig(seed=1, count=3000))
    assert str(info.value) == "point 0.012422360248447204 is outside the space domain"


class _Float(float):
    """A float subclass, as numpy.float64 is one."""


def test_float_subclass_metric_values_are_evaluated_once(app_space):
    # Such values fail the exact-type tests, so _check_metric checks them one
    # by one without calling the metric again: each Picard step's distance
    # (Picard has no blocks), and each value of the identity audit's batches.
    calls, fn = [], app_space.metric.fn
    metric = TripleMetric(id="subclass", fn=lambda q, h, w: calls.append(q) or _Float(fn(q, h, w)))
    space = replace(app_space, metric=metric)
    F = make_self_map("scale", space.domain, factor=0.99)
    assert picard(space, F, 1.0, max_iter=300).iterations == 300
    assert len(calls) == 300 + 1  # and the residual
    calls.clear()
    assert check_identity_axiom(space, SampleConfig(count=10000)).passed
    assert len(calls) == 2 * 10000  # once per point and once per triple

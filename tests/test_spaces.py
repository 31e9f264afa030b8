import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmetric import (AlphaFunction, ComposedSpace, ConfigurationError,
                      ContractionEstimate, DomainError, MfFunction, NumericError,
                      Orbit, PointDomain, PolyProblem, SampleConfig, SelfMap,
                      SolveResult, TripleMetric, Verdict,
                      eval_alpha, eval_metric, iterate_alpha, make_alpha,
                      make_builtin_space, make_self_map, space_from_json,
                      space_to_json)
from csmetric.fixed_point import _image_function
from csmetric.spaces import Record, _checked_metric, replace, require_in_space

ALPHA_IDS = ("identity", "exp", "exp_2t", "two_t_plus_one", "two_sqrt")


class _Float(float):
    """A float subclass, as numpy.float64 is one."""


class TestPointDomain:
    def test_interval_requires_ordered_finite_bounds(self):
        with pytest.raises(ConfigurationError):
            PointDomain.real_interval(2.0, 2.0)
        with pytest.raises(ConfigurationError):
            PointDomain.real_interval(0.0, math.inf)

    def test_naturals_need_room_for_distinct_triples(self):
        with pytest.raises(ConfigurationError):
            PointDomain.naturals_up_to(3)
        assert tuple(PointDomain.naturals_up_to(4).members()) == (0, 1, 2, 3, 4)

    def test_naturals_members_are_lazy_up_to_2_53(self):
        assert PointDomain.naturals_up_to(2 ** 53).members() == range(2 ** 53 + 1)
        with pytest.raises(ConfigurationError, match=r"2\*\*53"):
            PointDomain.naturals_up_to(2 ** 53 + 1).members()

    def test_finite_set_sorted_and_deduped(self):
        d = PointDomain.finite_real_set([3.0, 1.0, 3.0, 2.0])
        assert d.elements == (1.0, 2.0, 3.0)
        assert d.contains(2.0) and not d.contains(2.5)

    def test_finite_set_membership_matches_a_set(self):
        rng = random.Random(20000)
        elements = [rng.uniform(-1e6, 1e6) for _ in range(20000)]
        elements += list(range(-9, 10)) + [2.0 ** 53]
        d = PointDomain.finite_real_set(elements)
        reference = set(d.elements)
        picked = rng.sample(elements, 500) + [min(elements), max(elements)]
        probes = (picked + [math.nextafter(x, to) for x in picked for to in (-math.inf, math.inf)]
                  + [rng.uniform(-2e6, 2e6) for _ in range(500)]
                  + [-0.0, 0.0, 5, -5, 10 ** 7, -10 ** 7, 2 ** 53 + 1, 2 ** 53 + 2])
        for x in probes:
            assert d.contains(x) is (float(x) in reference), x
        assert all(map(d.contains, elements))

    def test_naturals_membership(self):
        d = PointDomain.naturals_up_to(10)
        assert d.contains(7) and d.contains(7.0)
        assert not d.contains(7.5) and not d.contains(-1) and not d.contains(11)

    def test_interval_membership(self):
        d = PointDomain.real_interval(1.0, 100.0)
        assert d.contains(1.0) and d.contains(100.0) and not d.contains(0.999)

    @pytest.mark.parametrize("domain", [PointDomain.real_interval(0, 1),
                                        PointDomain.naturals_up_to(10),
                                        PointDomain.finite_real_set([1.0, 2.0])],
                             ids=lambda d: d.kind)
    @pytest.mark.parametrize("x", [10 ** 400, -10 ** 400, math.nan, math.inf])
    def test_values_beyond_the_floats_are_outside(self, domain, x):
        assert not domain.contains(x)


class TestValues:
    @pytest.mark.parametrize("value,name", [
        (SampleConfig(), "seed"), (PointDomain.real_interval(0, 1), "elements"),
        (make_alpha("exp"), "_fn"), (make_builtin_space("app_metric"), "alpha"),
        (make_self_map("identity", PointDomain.real_interval(0, 1)), "fn"),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
    def test_fields_cannot_be_assigned_or_deleted(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1

    def test_equal_domains_are_one_dict_key(self):
        keys = {PointDomain.real_interval(0, 1): "unit", PointDomain.naturals_up_to(9): "nat"}
        assert keys[PointDomain.real_interval(0.0, 1.0)] == "unit"
        assert PointDomain.finite_real_set([2, 1]) == PointDomain.finite_real_set([1.0, 2.0, 1])
        assert PointDomain.real_interval(0, 1) != PointDomain.real_interval(0, 2)
        assert PointDomain.real_interval(0, 1) != ("real_interval", 0.0, 1.0, 0, ())

    def test_equality_leaves_out_functions(self):
        assert make_alpha("exp") == make_alpha("exp")
        assert make_alpha("exp")._fn is not make_alpha("exp")._fn
        assert TripleMetric("m", abs) == TripleMetric("m", lambda q, h, w: 0.0)
        assert TripleMetric("m", abs) != TripleMetric("n", abs)
        unit = PointDomain.real_interval(0, 1)
        assert SelfMap("f", abs, unit) == SelfMap("f", round, unit)
        assert SelfMap("f", abs, unit) != SelfMap("f", abs, PointDomain.real_interval(0, 2))
        assert hash(SelfMap("f", abs, unit)) == hash(SelfMap("f", round, unit))

    def test_repr_names_every_field(self):
        assert repr(SampleConfig()) == (
            "SampleConfig(seed=42, count=10000, strategy='grid_plus_random', pinned=())")
        assert repr(make_alpha("exp")) == "AlphaFunction(id='exp', expr='exp(t)', params=())"

    def test_defaults_are_class_attributes(self):
        assert (SampleConfig.seed, SampleConfig.count) == (42, 10000)
        assert SampleConfig(7, 5) == SampleConfig(count=5, seed=7)
        assert SelfMap("f", abs).domain == PointDomain.real_interval(0, 1)

    @pytest.mark.parametrize("args,kwargs", [
        ((1, 2, "uniform_random", (), 5), {}), ((), {"sead": 1}), ((1,), {"seed": 2}),
    ], ids=["extra", "unknown", "repeated"])
    def test_a_wrong_argument_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            SampleConfig(*args, **kwargs)

    def test_a_missing_field_is_a_type_error(self):
        with pytest.raises(TypeError):
            TripleMetric("m")

    @pytest.mark.parametrize("cls,fields", [
        (PointDomain, ("kind", "lo", "hi", "max_value", "elements")),
        (AlphaFunction, ("id", "expr", "params")),
        (TripleMetric, ("id", "fn")),
        (ComposedSpace, ("domain", "metric", "alpha", "symmetric_claim")),
        (SelfMap, ("id", "fn", "domain")),
        (SampleConfig, ("seed", "count", "strategy", "pinned")),
        (Verdict, ("check", "passed", "checked", "witness", "worst_margin", "seed", "details")),
        (Orbit, ("iterates", "step_distances")),
        (SolveResult, ("fixed_point", "iterations", "residual", "converged", "orbit")),
        (MfFunction, ("id", "fn", "params")),
        (ContractionEstimate, ("sup_ratio", "argmax_tuple", "samples")),
        (PolyProblem, ("m", "map", "space")),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_fields_keep_their_constructor_order(self, cls, fields):
        # Positional construction follows this order, so it is public API.
        assert cls._fields == fields

    def test_a_subclass_takes_its_annotated_fields(self):
        class Pair(Record):
            _hidden: int
            left: int
            right: str = "r"

        assert "_fn" not in AlphaFunction._fields and Pair._fields == ("left", "right")
        assert Pair(1) == Pair(left=1, right="r") != Pair(1, "s")
        assert repr(Pair(1)).endswith(".Pair(left=1, right='r')")
        assert hash(Pair(2, "x")) == hash(Pair(2, "x"))
        assert Pair(1, "s")._asdict() == {"left": 1, "right": "s"}
        with pytest.raises(TypeError):
            Pair()

    def test_replace_validates_again(self):
        cfg = SampleConfig(pinned=[[1, 2]])
        assert replace(cfg, count=5) == SampleConfig(count=5, pinned=((1, 2),))
        assert cfg.count == 10000
        with pytest.raises(ConfigurationError, match="seed"):
            replace(cfg, seed=-1)
        with pytest.raises(TypeError):
            replace(cfg, sead=1)


class TestEvalMetric:
    def test_squared_diff_quoted_value(self, squared_diff_space):
        assert eval_metric(squared_diff_space, 4.0, 5.0, 1.0) == 25.0

    def test_discrete_distinct_triple(self, discrete_space):
        assert eval_metric(discrete_space, 1, 2, 3) == 12.0

    @pytest.mark.parametrize("name,params,x", [
        ("squared_diff", [1, 100], 7.0),
        ("discrete_nat", [10], 4),
        ("abs_sum", [1, 100], 3.25),
        ("app_metric", [], 0.5),
    ])
    def test_self_distance_is_zero(self, name, params, x):
        space = make_builtin_space(name, params)
        assert eval_metric(space, x, x, x) == 0.0

    def test_point_outside_domain(self, squared_diff_space):
        with pytest.raises(DomainError):
            eval_metric(squared_diff_space, 0.5, 5.0, 1.0)

    def test_app_metric_formula(self, app_space):
        assert eval_metric(app_space, 0.25, 0.5, 0.1) == abs(0.25 - 0.5) + abs(0.5 - 0.1)

    def test_discrete_two_equal_patterns_agree_by_multiset(self, discrete_space):
        # The pairwise value x+y applies wherever exactly two entries coincide.
        assert eval_metric(discrete_space, 1, 1, 5) == 6.0
        assert eval_metric(discrete_space, 1, 5, 1) == 6.0
        assert eval_metric(discrete_space, 5, 1, 1) == 6.0

    def test_non_finite_metric_value_is_a_numeric_error(self, app_space):
        from csmetric import ComposedSpace, NumericError, TripleMetric
        bad = ComposedSpace(app_space.domain,
                            TripleMetric(id="nan", fn=lambda q, h, w: math.nan),
                            app_space.alpha, False)
        with pytest.raises(NumericError):
            eval_metric(bad, 0.1, 0.2, 0.3)
        negative = ComposedSpace(app_space.domain,
                                 TripleMetric(id="neg", fn=lambda q, h, w: -1.0),
                                 app_space.alpha, False)
        with pytest.raises(NumericError):
            eval_metric(negative, 0.1, 0.2, 0.3)


class TestCheckedMetric:
    """The metric as checked templates call it, C(q, h, w)."""

    def test_values_near_the_float_max_pass(self):
        big = TripleMetric(id="big", fn=lambda q, h, w: 1.5e308)
        space = ComposedSpace(PointDomain.real_interval(0, 1), big, make_alpha("identity"))
        C = _checked_metric(space)
        assert [C(0.0, 0.5, 1.0) for _ in range(3)] == [1.5e308] * 3

    @pytest.mark.parametrize("value", [True, 3, 2.5, _Float(0.75)],
                             ids=["bool", "int", "float", "float-subclass"])
    def test_every_value_metric_value_accepts_passes(self, value):
        calls = []
        space = ComposedSpace(PointDomain.real_interval(0, 1),
                              TripleMetric(id="const", fn=lambda q, h, w: calls.append(q) or value),
                              make_alpha("identity"))
        C = _checked_metric(space)
        assert C(0.0, 0.5, 1.0) is value  # as the metric gave it, evaluated once
        assert len(calls) == 1
        assert eval_metric(space, 0.0, 0.5, 1.0) == float(value)

    @pytest.mark.parametrize("value", [10 ** 400, "1", 1j, -1e-300, math.inf, math.nan],
                             ids=["huge-int", "str", "complex", "negative", "inf", "nan"])
    def test_the_first_invalid_value_is_named(self, value):
        calls = []
        metric = TripleMetric(
            id="late", fn=lambda q, h, w: calls.append(q) or (value if q == 2.0 else 1.0))
        space = ComposedSpace(PointDomain.real_interval(0, 5), metric, make_alpha("identity"))
        C = _checked_metric(space)
        triples = [(1.0, 1.0, 1.0), (2.0, 0.0, 1.0), (2.0, 3.0, 4.0)]
        message = f"metric 'late' returned {value!r} at (2.0, 0.0, 1.0)"
        with pytest.raises(NumericError, match=re.escape(message)):
            [C(*triple) for triple in triples]
        assert len(calls) == 2  # the value is named, not evaluated again
        with pytest.raises(NumericError, match=re.escape(message)):
            eval_metric(space, *triples[1])


class TestEvalAlpha:
    def test_affine_quoted_value(self):
        assert eval_alpha(make_alpha("two_t_plus_one"), 3.0) == 7.0

    def test_root_at_zero(self):
        assert eval_alpha(make_alpha("two_sqrt"), 0.0) == 0.0

    def test_exponential_at_one(self):
        assert eval_alpha(make_alpha("exp"), 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            eval_alpha(make_alpha("identity"), -1.0)

    def test_linear_needs_positive_slope(self):
        assert eval_alpha(make_alpha("linear", [3.0]), 2.0) == 6.0
        with pytest.raises(ConfigurationError):
            make_alpha("linear", [0.0])
        with pytest.raises(ConfigurationError):
            make_alpha("linear", [])

    def test_constant_expression_rejected(self):
        with pytest.raises(ConfigurationError):
            make_alpha("3")
        with pytest.raises(ConfigurationError):
            make_alpha("0*t")


class TestIterateAlpha:
    def test_double_root_composition(self):
        alpha = make_alpha("two_sqrt")
        assert iterate_alpha(alpha, 2, 16.0) == 2.0 * math.sqrt(2.0 * math.sqrt(16.0))

    def test_zero_iterations_is_identity(self):
        assert iterate_alpha(make_alpha("exp"), 0, 5.0) == 5.0

    def test_three_fold_affine(self):
        assert iterate_alpha(make_alpha("two_t_plus_one"), 3, 0.0) == 7.0

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            iterate_alpha(make_alpha("identity"), -1, 1.0)

    @pytest.mark.parametrize("j", [2.5, math.nan, 2.0, True, "2"])
    def test_a_count_that_is_not_an_int_is_a_domain_error(self, j):
        # Unchecked, each but a bool reaches range() and raises a bare TypeError.
        with pytest.raises(DomainError, match="iteration count must be an integer >= 0"):
            iterate_alpha(make_alpha("identity"), j, 1.0)

    @pytest.mark.parametrize("alpha_id", ALPHA_IDS)
    @given(j=st.integers(min_value=0, max_value=10),
           t=st.floats(min_value=0.0, max_value=50.0))
    def test_composition_law(self, alpha_id, j, t):
        alpha = make_alpha(alpha_id)
        assert iterate_alpha(alpha, j + 1, t) == eval_alpha(alpha, iterate_alpha(alpha, j, t))


class TestBuiltinSpaces:
    def test_app_metric_space(self):
        space = make_builtin_space("app_metric")
        assert space.domain.lo == 0.0 and space.domain.hi == 1.0
        assert space.alpha.id == "two_sqrt"
        assert space.symmetric_claim

    def test_squared_diff_defaults_and_truncation(self):
        space = make_builtin_space("squared_diff")
        assert (space.domain.lo, space.domain.hi) == (1.0, 100.0)
        tight = make_builtin_space("squared_diff", [1, 10])
        assert tight.domain.hi == 10.0
        with pytest.raises(ConfigurationError):
            make_builtin_space("squared_diff", [0, 10])

    def test_squared_diff_saturates_to_infinity(self):
        metric = make_builtin_space("squared_diff", [1, 1e200]).metric.fn
        assert metric(1.0, 1.0, 1e200) == math.inf
        assert metric(2.0, 3.0, 7.0) == 41.0

    def test_discrete_default(self):
        space = make_builtin_space("discrete_nat")
        assert space.domain.max_value == 50
        assert space.alpha.id == "two_t_plus_one"

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_builtin_space("no_such_space")

    def test_app_metric_takes_no_params(self):
        with pytest.raises(ConfigurationError):
            make_builtin_space("app_metric", [0, 2])

    @pytest.mark.parametrize("name,params", [
        ("squared_diff", [1, 100]), ("discrete_nat", [10]),
        ("abs_sum", [1, 100]), ("app_metric", []),
    ])
    def test_symmetry_identity_on_pairs(self, name, params):
        # C(q,q,h) == C(h,h,q) for every built-in, here on a coarse pair grid.
        space = make_builtin_space(name, params)
        if space.domain.is_discrete:
            points = space.domain.members()
        else:
            lo, hi = space.domain.lo, space.domain.hi
            points = [lo + (hi - lo) * i / 7 for i in range(8)]
        for q in points:
            for h in points:
                a = eval_metric(space, q, q, h)
                b = eval_metric(space, h, h, q)
                assert abs(a - b) <= 1e-12


class TestSelfMap:
    def test_closure_enforced(self):
        domain = PointDomain.real_interval(0.0, 1.0)
        escaping = SelfMap(id="escape", fn=lambda x: x + 2.0, domain=domain)
        with pytest.raises(DomainError):
            escaping.apply(0.5)

    def test_apply_checks_argument(self):
        domain = PointDomain.real_interval(0.0, 1.0)
        m = make_self_map("identity", domain)
        with pytest.raises(DomainError):
            m.apply(2.0)

    def test_const_and_scale(self):
        domain = PointDomain.real_interval(0.0, 1.0)
        assert make_self_map("const", domain, value=0.3).apply(0.9) == 0.3
        assert make_self_map("scale", domain, factor=0.5).apply(0.8) == 0.4
        with pytest.raises(ConfigurationError):
            make_self_map("const", domain, value=7.0)
        with pytest.raises(ConfigurationError):
            make_self_map("warp", domain)

    def test_poly_degree_must_be_integral(self):
        domain = PointDomain.real_interval(0.0, 1.0)
        assert make_self_map("poly", domain, m=3.0).id == "poly_m3"
        with pytest.raises(DomainError, match="integer m >= 3, got 3.7"):
            make_self_map("poly", domain, m=3.7)


class TestSerialization:
    @pytest.mark.parametrize("name,params", [
        ("squared_diff", [1, 50]), ("discrete_nat", [10]),
        ("abs_sum", [2, 5]), ("app_metric", []),
    ])
    def test_round_trip(self, name, params):
        space = make_builtin_space(name, params)
        doc = space_to_json(space)
        back = space_from_json(doc)
        assert back.domain == space.domain
        assert back.metric.id == space.metric.id
        assert back.alpha.id == space.alpha.id
        assert back.alpha.expr == space.alpha.expr
        assert back.symmetric_claim == space.symmetric_claim

    def test_alpha_override(self):
        doc = {"metric": "squared_diff", "params": [1, 10],
               "alpha": {"id": "identity"}}
        space = space_from_json(doc)
        assert space.alpha.id == "identity"

    def test_custom_alpha_round_trip(self):
        doc = {"metric": "app_metric",
               "alpha": {"id": "custom", "expr": "3*sqrt(t)"}}
        space = space_from_json(doc)
        assert eval_alpha(space.alpha, 4.0) == 6.0
        assert space_from_json(space_to_json(space)).alpha.expr == "3*sqrt(t)"

    def test_missing_metric_field(self):
        with pytest.raises(ConfigurationError, match="metric"):
            space_from_json({"domain": {"kind": "real_interval", "lo": 0, "hi": 1}})

    def test_bad_domain_kind(self):
        with pytest.raises(ConfigurationError):
            space_from_json({"metric": "abs_sum", "domain": {"kind": "lattice"}})

    @pytest.mark.parametrize("domain,ok", [
        ({"kind": "real_interval", "lo": 1, "hi": 5}, True),
        ({"kind": "real_interval", "lo": 0.5, "hi": 5}, False),
        ({"kind": "naturals_up_to", "max": 10}, False),
        ({"kind": "finite_real_set", "elements": [1, 2, 3]}, True),
        ({"kind": "finite_real_set", "elements": [0.5, 2, 3]}, False),
    ], ids=["interval", "interval-below-1", "naturals", "set", "set-below-1"])
    def test_squared_diff_lives_on_one_and_above_for_every_domain_kind(self, domain, ok):
        doc = {"metric": "squared_diff", "domain": domain}
        if ok:
            assert space_from_json(doc).domain == PointDomain.from_json(domain)
        else:
            with pytest.raises(ConfigurationError, match=r"squared_diff lives on \[1, inf\)"):
                space_from_json(doc)

    @pytest.mark.parametrize("value", [True, False])
    def test_symmetric_claim_is_read_from_a_boolean(self, value):
        space = space_from_json({"metric": "app_metric", "symmetric": value})
        assert space.symmetric_claim is value

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_symmetric_claim_must_be_a_boolean(self, value):
        # bool("false") is True: read with bool(), a string turns the gate on.
        with pytest.raises(ConfigurationError, match="symmetric must be true or false"):
            space_from_json({"metric": "app_metric", "symmetric": value})


# --- the image rule -------------------------------------------------------------

class _Real(float):
    """A float subclass: inside the domain, but not an exact float."""


_UNIT = PointDomain.real_interval(0.0, 1.0)
_IMAGE_VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "true": True,
                 "huge-int": 10 ** 400, "int-0": 0, "int-1": 1, "int-2": 2,
                 "float-subclass": _Real(0.5), "minus-zero": -0.0, "lo": 0.0, "hi": 1.0,
                 "above": 1.0000000000000002, "below": -5e-324,
                 "in-space-only": 0.75}  # outside the narrower map domain


def _reference_images(space, F, points):
    """The image rule one point at a time, by membership: the images, or the
    error for the first source point outside F.domain, or image outside
    F.domain, then outside space.domain."""
    images = []
    for x in points:
        try:
            y = F.apply(x)
            require_in_space(space, y)
        except DomainError as error:
            return str(error)
        images.append(y)
    return images


@pytest.mark.parametrize("map_domain", [_UNIT, PointDomain.real_interval(-1.0, 2.0),
                                        PointDomain.real_interval(0.0, 0.5)],
                         ids=["same", "wider", "narrower"])
@pytest.mark.parametrize("position", [0, 500, 999], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", _IMAGE_VALUES.values(), ids=_IMAGE_VALUES.keys())
def test_image_function_agrees_with_contains(value, position, map_domain):
    space = make_builtin_space("app_metric")
    points = [i / 1000 for i in range(1000)]
    table = dict.fromkeys(points, 0.25)
    table[points[position]] = value
    F = SelfMap(id="table", fn=table.__getitem__, domain=map_domain)
    expected = _reference_images(space, F, points)
    images = _image_function(space, F)
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            images([(x,) for x in points])
        assert str(info.value) == expected
    else:
        got = images([(x,) for x in points])
        assert got == expected and list(map(type, got)) == list(map(type, expected))


def test_image_function_names_the_first_bad_image():
    space = make_builtin_space("app_metric")
    table = {0.0: 0.5, 0.25: 1.5, 0.5: math.nan, 0.75: -1.0}
    F = SelfMap(id="table", fn=table.__getitem__, domain=_UNIT)
    with pytest.raises(DomainError, match=r"F\(0\.25\) = 1\.5$"):
        _image_function(space, F)([(0.0, 0.25), (0.5, 0.75)])

"""Fused kernels against the checked path.

Each example runs the sampled checks of ``verify-space`` and
``verify_theorem_4_1`` in one shared run twice: as they are, and with every
fused kernel turned off.  The two runs must hand the collector the same
slacks, bit for bit, and give the same verdicts, witnesses and errors.
"""

import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from csmetric import (DEFAULT_K_SET, ComposedSpace, ConfigurationError, SampleConfig, SelfMap,
                      axiom_audit, fixed_point, make_alpha, make_builtin_space)
from csmetric.spaces import PointDomain, metric_by_name, replace

MAX = sys.float_info.max

# Per metric: its default interval, and intervals just below and above the
# largest on which it is fused (its sup at most MAX / 2), then far above.
INTERVALS = {
    "app_metric": [(0.0, 1.0), (-3.0, 2.5), (0.0, MAX / 4.0000001), (-MAX / 8, MAX / 8.0000001),
                   (0.0, MAX / 3.9999999), (0.0, MAX / 1.5)],
    "abs_sum": [(1.0, 100.0), (-1e-300, 1e-300), (0.0, MAX / 4.0000001),
                (-MAX / 3.9999999, 0.0), (0.0, MAX / 1.5)],
    "squared_diff": [(1.0, 100.0), (1.0, 1.0000001), (1.0, 6.7e153), (1.0, 6.71e153),
                     (1.0, 1e154), (1.0, 1e160)],
}

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
    """x -> lo + (x - lo) / 2: maps the interval into itself."""
    lo = domain.lo
    return SelfMap("halving", lambda x: lo + (x - lo) * 0.5, domain)


def _checks(space, r):
    F = _halving(space.domain)
    return [lambda: axiom_audit._identity(space),
            lambda: axiom_audit._triangle(space, "composed_triangle", space.alpha),
            lambda: axiom_audit._triangle(space, "classic_triangle", None),
            lambda: axiom_audit._symmetry(space),
            lambda: axiom_audit._subhomogeneity(space.alpha, DEFAULT_K_SET),
            lambda: fixed_point._banach(space, F, r)]


def _run(monkeypatch, space, cfg, r, fused):
    """The slacks the collector was handed, as float.hex, and the results
    (or the error) of one shared run of _checks."""
    handed = []
    add = axiom_audit._Collector.add

    def recording(self, keys, slacks, violates):
        handed.append([float(s).hex() for s in slacks])
        return add(self, keys, slacks, violates)

    with monkeypatch.context() as m:
        m.setattr(axiom_audit._Collector, "add", recording)
        if not fused:
            for module in (axiom_audit, fixed_point):
                m.setattr(module, "_fused", lambda *args: None)
        try:
            outcome = [repr(v.to_json_dict())
                       for v in axiom_audit._audit(space, cfg, _checks(space, r))]
        except Exception as exc:
            outcome = (type(exc), str(exc))
    return handed, outcome


def _assert_same(monkeypatch, space, cfg, r):
    fused = _run(monkeypatch, space, cfg, r, True)
    assert fused == _run(monkeypatch, space, cfg, r, False)
    return fused


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(metric=st.sampled_from(sorted(INTERVALS)), data=st.data(), expr=EXPRESSIONS,
       seed=st.integers(0, 2 ** 32), count=st.integers(1, 1500),
       strategy=st.sampled_from(["grid_plus_random", "uniform_random"]),
       r=st.sampled_from([0.5, 0.50000000001, 0.9]))
def test_fused_kernels_match_the_checked_path(monkeypatch, metric, data, expr, seed, count,
                                              strategy, r):
    lo, hi = data.draw(st.sampled_from(INTERVALS[metric]))
    try:
        alpha = make_alpha(expr)
    except ConfigurationError:  # constant on the probe grid
        assume(False)
    space = replace(make_builtin_space(metric), domain=PointDomain.real_interval(lo, hi),
                    alpha=alpha)
    _assert_same(monkeypatch, space, SampleConfig(seed=seed, count=count, strategy=strategy), r)


@pytest.mark.parametrize("metric, lo, hi, expr", [
    ("app_metric", 0.0, 1.0, "two_sqrt"),          # passes throughout
    ("squared_diff", 1.0, 100.0, "exp"),           # the classic triangle fails
    ("abs_sum", 1.0, 100.0, "identity"),           # the composed triangle fails
    ("app_metric", 0.0, 1.0, "t+0*exp(1000*t)"),   # NaN alpha: NumericError
    ("abs_sum", 0.0, 1.0, "t^400"),                # inf - inf in subhomogeneity
    ("squared_diff", 1.0, 1e154, "exp"),           # not fused: the metric overflows
])
def test_fused_kernels_match_on_known_cases(monkeypatch, metric, lo, hi, expr):
    space = replace(make_builtin_space(metric), domain=PointDomain.real_interval(lo, hi),
                    alpha=make_alpha(expr))
    handed, outcome = _assert_same(monkeypatch, space, SampleConfig(seed=3, count=2500), 0.5)
    assert handed


def test_a_distance_that_underflows_to_zero_is_a_violation(monkeypatch):
    # (1e-200 - 0) ** 2 is 0: a zero distance off the diagonal.  Built from
    # its parts, a squared_diff space may reach below its floor of 1.
    space = ComposedSpace(PointDomain.real_interval(0.0, 1.0), metric_by_name("squared_diff"),
                          make_alpha("exp"))
    cfg = SampleConfig(seed=3, count=2000, pinned=((1e-200, 0.0, 0.0),))
    _, (identity, *_) = _assert_same(monkeypatch, space, cfg, 0.5)
    assert "'passed': False" in identity and "1e-200" in identity


def test_a_swapped_sum_is_caught(monkeypatch):
    """The comparison sees a kernel whose float operations differ only in
    order: alpha's terms summed from the right."""
    compiled = axiom_audit.compile_fused

    def swapped(template, metric, alpha):
        return compiled(template.replace("A(C(q, q, u)) + A(C(h, h, u)) + A(C(w, w, u))",
                                         "A(C(q, q, u)) + (A(C(h, h, u)) + A(C(w, w, u)))"),
                        metric, alpha)

    monkeypatch.setattr(axiom_audit, "compile_fused", swapped)
    space = make_builtin_space("abs_sum", [0.0, 1.0])
    with pytest.raises(AssertionError):
        _assert_same(monkeypatch, space, SampleConfig(seed=1, count=3000), 0.5)


def test_a_kernel_too_deep_to_compile_runs_checked(monkeypatch):
    """Inlining a flat sum of about 490 terms, which the grammar takes,
    recurses too deep; the check then runs on its checked kernel alone."""
    def too_deep(*args):
        raise RecursionError
    monkeypatch.setattr(axiom_audit, "compile_fused", too_deep)
    (part,), _ = axiom_audit._subhomogeneity(make_alpha("two_sqrt"), DEFAULT_K_SET)
    assert part[2].__name__ == "kernel"


def test_banach_beside_the_estimate_runs_checked():
    """check-contraction's estimate evaluates C(q, h, w) on every chunk, so
    its Banach check reads that batch on the checked kernel; verify-thm41's
    is fused."""
    space = make_builtin_space("app_metric")
    F = _halving(space.domain)
    (part,), _ = fixed_point._banach(space, F, 0.5, fuse=False)
    assert part[2].__name__ == "kernel"
    (part,), _ = fixed_point._banach(space, F, 0.5)
    assert part[2].__name__ == "fast"

import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csmetric import (AlphaFunction, DomainError, PolyProblem, SampleConfig,
                      bisection_oracle, contraction_bound, estimate_contraction_factor,
                      poly_map, residual, sample_tuples, solve_poly,
                      verify_theorem_4_1)

ROOT_M3 = 0.012345679299142365  # pinned by the bisection oracle


class TestResidual:
    def test_constant_term_survives_at_zero(self):
        assert residual(3, 0.0) == 1.0
        assert residual(4, 0.0) == 1.0

    def test_value_at_one(self):
        assert residual(3, 1.0) == 1.0 - 80.0 - 81.0 + 1.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            residual(3, 1.5)
        with pytest.raises(DomainError):
            residual(3, -0.1)
        with pytest.raises(DomainError):
            residual(2, 0.5)


class TestPolyMap:
    def test_values_at_end_points(self):
        F3 = poly_map(3).map.fn
        assert F3(0.0) == 1.0 / 81.0
        assert F3(1.0) == 2.0 / 161.0
        assert poly_map(4).map.fn(0.0) == 1.0 / 256.0

    def test_degree_scope(self):
        with pytest.raises(DomainError):
            poly_map(2)
        with pytest.raises(DomainError):
            poly_map(True)

    def test_degree_whose_fourth_power_overflows_is_rejected(self):
        with pytest.raises(DomainError, match="float range"):
            poly_map(10 ** 80)

    def test_space_is_the_unit_interval(self):
        problem = poly_map(3)
        assert problem.space.domain.lo == 0.0 and problem.space.domain.hi == 1.0
        assert problem.space.alpha.id == "two_sqrt"

    @pytest.mark.parametrize("m", [3, 4, 5, 8])
    def test_range_invariant(self, m):
        F = poly_map(m).map.fn
        cap = 2.0 / m ** 4
        for i in range(101):
            p = i / 100.0
            assert 0.0 <= F(p) <= cap

    @pytest.mark.parametrize("m", [3, 4, 5, 8, 10 ** 6])
    def test_the_compiled_map_is_the_hand_written_one(self, m):
        """Bit for bit, on the ends and 20,000 points of [0, 1]."""
        rng, d, F = random.Random(m), float(m ** 4), poly_map(m).map.fn
        for p in [0.0, -0.0, 1.0, 5e-324] + [rng.random() for _ in range(20000)]:
            pm = p ** m
            assert F(p).hex() == ((pm + 1.0) / ((d - 1.0) * pm + d)).hex()

    @given(p=st.floats(min_value=0.0, max_value=1.0),
           m=st.integers(min_value=3, max_value=6))
    def test_root_fixed_point_identity(self, p, m):
        # residual(m, p) = (F(p) - p) * ((m^4 - 1) p^m + m^4)
        F = poly_map(m).map.fn
        denominator = (m ** 4 - 1.0) * p ** m + m ** 4
        lhs = residual(m, p)
        rhs = (F(p) - p) * denominator
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestContractionBound:
    def test_quoted_factor_for_degree_three(self):
        assert contraction_bound(3) == 1.0 / 81.0

    def test_derived_mean_value_bound(self):
        assert contraction_bound(3, derived=True) == pytest.approx(1.0 / 2187.0, rel=1e-15)
        assert contraction_bound(4) == pytest.approx(4.0 ** -7, rel=1e-15)

    def test_scope(self):
        with pytest.raises(DomainError):
            contraction_bound(2)

    def test_bound_that_underflows_is_a_domain_error(self):
        # m**-7 is subnormal at 1e46 and rounds to 0 at 2e46.
        assert 0.0 < contraction_bound(10 ** 46) < sys.float_info.min
        with pytest.raises(DomainError, match=r"^degree m = 2\d{46} is too large: .*underflows to 0$"):
            contraction_bound(2 * 10 ** 46)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_sampled_ratio_stays_under_bound(self, m):
        problem = poly_map(m)
        est = estimate_contraction_factor(problem.space, problem.map,
                                          SampleConfig(seed=17, count=10000))
        assert est.sup_ratio <= contraction_bound(m)
        assert est.sup_ratio <= contraction_bound(m, derived=True) + 1e-12


class TestBisectionOracle:
    def test_pinned_root(self):
        root = bisection_oracle(3, 1e-14)
        assert abs(root - ROOT_M3) <= 1e-13
        assert abs(residual(3, root)) <= 1e-10

    @pytest.mark.parametrize("m", range(3, 9))
    def test_root_is_interior(self, m):
        root = bisection_oracle(m, 1e-12)
        assert 0.0 < root < 1.0

    def test_root_is_near_map_of_zero(self):
        # F is nearly constant, so the root sits close to F(0) = 1/m^4.
        assert bisection_oracle(5, 1e-12) == pytest.approx(1.0 / 625.0, abs=1e-5)

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_tolerance_validation(self, tol):
        # A NaN tol would skip the loop and return 0.5, which is no root.
        with pytest.raises(DomainError, match="oracle tolerance must be positive"):
            bisection_oracle(3, tol)


class TestSolvePoly:
    def test_agrees_with_oracle(self):
        result = solve_poly(3, 0.5, 1e-12)
        assert result.converged
        assert abs(result.fixed_point - bisection_oracle(3, 1e-12)) <= 1e-11

    def test_starting_at_the_root_stops_immediately(self):
        result = solve_poly(3, ROOT_M3, 1e-12)
        assert result.converged
        assert result.iterations <= 1
        assert result.residual <= 1e-12

    def test_iteration_budget_from_any_start(self):
        for i in range(11):
            result = solve_poly(3, i / 10.0, 1e-12)
            assert result.converged
            assert result.iterations <= 12

    @pytest.mark.parametrize("m", range(3, 11))
    def test_oracle_agreement_across_degrees(self, m):
        tol = 1e-12
        result = solve_poly(m, 0.5, tol)
        assert result.converged
        assert abs(result.fixed_point - bisection_oracle(m, tol)) <= 10.0 * tol

    def test_start_point_is_validated(self):
        with pytest.raises(DomainError):
            solve_poly(3, 1.5)


class TestVerifyPipeline:
    def test_degree_three_all_hypotheses_pass(self):
        report = verify_theorem_4_1(3, seed=42, samples=4000)
        assert report["all_passed"]
        names = [h["name"] for h in report["hypotheses"]]
        assert names == ["identity_axiom", "composed_triangle", "symmetry",
                         "alpha_zero", "alpha_subhomogeneity",
                         "banach_contraction", "series_vanishing",
                         "uniqueness", "oracle_agreement"]
        assert all(h["verdict"]["passed"] for h in report["hypotheses"])
        assert abs(report["root"] - report["oracle_root"]) == report["agreement"]
        assert report["agreement"] <= 1e-11

    def test_degree_four_all_hypotheses_pass(self):
        report = verify_theorem_4_1(4, seed=42, samples=4000)
        assert report["all_passed"]

    def test_degree_two_rejected(self):
        with pytest.raises(DomainError):
            verify_theorem_4_1(2)

    def test_the_problem_is_built_once(self, monkeypatch):
        built = []
        for cls in (AlphaFunction, PolyProblem):
            monkeypatch.setattr(cls, "__post_init__", lambda self, post_init=cls.__post_init__:
                                built.append(type(self).__name__) or post_init(self))
        assert verify_theorem_4_1(3, samples=50)["all_passed"]
        assert sorted(built) == ["AlphaFunction", "PolyProblem"]

    def test_report_is_deterministic(self):
        a = verify_theorem_4_1(3, seed=7, samples=2000)
        b = verify_theorem_4_1(3, seed=7, samples=2000)
        assert a == b

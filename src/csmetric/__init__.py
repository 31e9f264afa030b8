"""Composed S-metric spaces with sampling-based axiom audits, a Picard
fixed-point solver for generalized contractions, and a polynomial-equation
application verified against an independent bisection oracle."""

from .axiom_audit import (ABS_TOL, DEFAULT_K_SET, REL_TOL, Verdict,
                          check_alpha_dominates_orbit, check_alpha_subhomogeneity,
                          check_alpha_zero, check_classic_triangle,
                          check_composed_triangle, check_identity_axiom,
                          check_series_vanishing, check_symmetry, series_tail,
                          slack_tolerance)
from .errors import (ConfigurationError, CsmetricError, DomainError,
                     InternalError, NumericError, PreconditionError)
from .fixed_point import (DEFAULT_MAX_ITER, DEFAULT_TOL, ContractionEstimate,
                          MfFunction, Orbit, SolveResult, banach_mf,
                          bianchini_mf, check_banach, check_m1, check_m2,
                          check_mf_contraction, estimate_contraction_factor,
                          kannan_mf, picard, uniqueness_probe,
                          verify_fixed_point)
from .poly_solver import (PolyProblem, bisection_oracle, contraction_bound,
                          oracle_agreement, poly_map, residual, solve_poly,
                          verify_theorem_4_1)
from .sampling import STRATEGIES, SampleConfig, sample_tuples
from .spaces import (BUILTIN_ALPHAS, BUILTIN_SPACES, AlphaFunction,
                     ComposedSpace, PointDomain, SelfMap, TripleMetric,
                     eval_alpha, eval_metric, iterate_alpha, make_alpha,
                     make_builtin_space, make_self_map, map_from_json,
                     space_from_json, space_to_json)

__version__ = "0.1.0"

__all__ = [
    "ABS_TOL", "REL_TOL", "DEFAULT_K_SET", "DEFAULT_TOL", "DEFAULT_MAX_ITER",
    "STRATEGIES", "BUILTIN_ALPHAS", "BUILTIN_SPACES",
    "CsmetricError", "DomainError", "ConfigurationError", "NumericError",
    "PreconditionError", "InternalError",
    "PointDomain", "AlphaFunction", "TripleMetric", "ComposedSpace", "SelfMap",
    "SampleConfig", "Verdict", "Orbit", "SolveResult", "MfFunction",
    "ContractionEstimate", "PolyProblem",
    "eval_metric", "eval_alpha", "iterate_alpha", "make_builtin_space",
    "make_alpha", "make_self_map", "space_to_json", "space_from_json",
    "map_from_json", "sample_tuples",
    "check_identity_axiom", "check_composed_triangle", "check_classic_triangle",
    "check_symmetry", "check_alpha_zero", "check_alpha_subhomogeneity",
    "check_alpha_dominates_orbit", "series_tail", "check_series_vanishing",
    "slack_tolerance",
    "picard", "estimate_contraction_factor", "check_banach", "check_m1",
    "check_m2", "check_mf_contraction", "verify_fixed_point",
    "uniqueness_probe", "banach_mf", "kannan_mf", "bianchini_mf",
    "residual", "poly_map", "contraction_bound", "bisection_oracle",
    "oracle_agreement", "solve_poly", "verify_theorem_4_1",
]

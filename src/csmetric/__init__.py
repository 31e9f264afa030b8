"""Composed S-metric spaces with sampling-based axiom audits, a Picard
fixed-point solver for generalized contractions, and a polynomial-equation
application verified against an independent bisection oracle."""

# The public API is the union of the modules' __all__ lists, republished here.
from . import axiom_audit, errors, fixed_point, poly_solver, sampling, spaces
from .axiom_audit import *
from .errors import *
from .fixed_point import *
from .poly_solver import *
from .sampling import *
from .spaces import *

__version__ = "0.1.0"

__all__ = [name for module in (axiom_audit, errors, fixed_point, poly_solver, sampling, spaces)
           for name in module.__all__]

"""Composed S-metric spaces with sampling-based axiom audits, a Picard
fixed-point solver for generalized contractions, and a polynomial-equation
application verified against an independent bisection oracle.

A submodule, such as ``cli``, is imported alone; any other name is looked up
in the library modules, so an unknown one loads all six before it raises
AttributeError."""

from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec

__version__ = "0.1.0"

# The public API is the union of these modules' __all__ lists, imported on
# first use (PEP 562).  Each imports only modules before it, so looking a name
# up in this order loads just the module that exports it and its imports.
_MODULES = ("errors", "spaces", "sampling", "axiom_audit", "fixed_point", "poly_solver")


def __getattr__(name: str):
    if name.isidentifier() and _find_spec(f"{__name__}.{name}"):  # a submodule
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for module in sorted(_MODULES) for n in __getattr__(module).__all__]
    else:
        owner = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*__getattr__("__all__"), *globals()})

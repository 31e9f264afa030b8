"""Point domains, composing functions, triple metrics, self-maps.

A composed S-metric space pairs a point set with a triple distance
``C(q, h, w)`` whose triangle inequality is mediated by a composing
function ``alpha``::

    C(q, h, w) <= alpha(C(q, q, u)) + alpha(C(h, h, u)) + alpha(C(w, w, u))

This module defines the value types, the four built-in spaces, and the
elementary evaluation operations.  All values are immutable after
construction and every operation is a pure function, so everything here
is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .errors import ConfigurationError, DomainError, NumericError
from .expressions import compile_expression

__all__ = [
    "PointDomain",
    "AlphaFunction",
    "TripleMetric",
    "ComposedSpace",
    "SelfMap",
    "eval_metric",
    "eval_alpha",
    "iterate_alpha",
    "make_builtin_space",
    "make_alpha",
    "make_self_map",
    "space_to_json",
    "space_from_json",
    "map_to_json",
    "map_from_json",
    "BUILTIN_SPACES",
    "BUILTIN_ALPHAS",
]

Point = float

# Probe grid used to reject constant composing functions at construction.
_NONCONSTANT_PROBE = (0.0, 0.25, 1.0, 2.0, 7.5)


def _check_reals(values, what: str, arity: int | None = None):
    """Return values if it is a list or tuple (of length arity, when given)
    of finite ints or floats, not bools; raise ConfigurationError otherwise.
    Every numeric field of a document is validated here."""
    try:
        ok = (isinstance(values, (list, tuple)) and arity in (None, len(values)) and
              all(isinstance(x, (int, float)) and not isinstance(x, bool) and
                  math.isfinite(x) for x in values))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        count = "" if arity is None else f"{arity} "
        raise ConfigurationError(
            f"{what}: expected a list of {count}finite real numbers, got {values!r}")
    return values


@dataclass(frozen=True)
class PointDomain:
    """A sampleable point set: a real interval, an initial segment of the
    naturals, or an explicit finite set of reals."""

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    max_value: int = 0
    elements: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "real_interval":
            if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
                raise ConfigurationError("interval bounds must be finite")
            if not self.lo < self.hi:
                raise ConfigurationError(
                    f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "naturals_up_to":
            if self.max_value < 4:
                raise ConfigurationError(
                    "naturals domain needs max >= 4 to hold a distinct triple plus one more point")
        elif self.kind == "finite_real_set":
            if not self.elements:
                raise ConfigurationError("finite set domain must be non-empty")
            if any(not math.isfinite(x) for x in self.elements):
                raise ConfigurationError("finite set elements must be finite reals")
            object.__setattr__(self, "elements", tuple(sorted(set(float(x) for x in self.elements))))
        else:
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def real_interval(lo: float, hi: float) -> "PointDomain":
        return PointDomain(kind="real_interval", lo=float(lo), hi=float(hi))

    @staticmethod
    def naturals_up_to(max_value: int) -> "PointDomain":
        return PointDomain(kind="naturals_up_to", max_value=int(max_value))

    @staticmethod
    def finite_real_set(elements: Sequence[float]) -> "PointDomain":
        return PointDomain(kind="finite_real_set", elements=tuple(elements))

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("naturals_up_to", "finite_real_set")

    def members(self) -> tuple[float, ...]:
        """The full element list of a discrete domain."""
        if self.kind == "naturals_up_to":
            return tuple(range(self.max_value + 1))
        if self.kind == "finite_real_set":
            return self.elements
        raise ConfigurationError("a real interval has no finite member list")

    def contains(self, x) -> bool:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        if not math.isfinite(x):
            return False
        if self.kind == "real_interval":
            return self.lo <= x <= self.hi
        if self.kind == "naturals_up_to":
            return float(x).is_integer() and 0 <= x <= self.max_value
        return float(x) in self.elements

    def to_json(self) -> dict:
        if self.kind == "real_interval":
            return {"kind": self.kind, "lo": self.lo, "hi": self.hi}
        if self.kind == "naturals_up_to":
            return {"kind": self.kind, "max": self.max_value}
        return {"kind": self.kind, "elements": list(self.elements)}

    @staticmethod
    def from_json(doc: dict) -> "PointDomain":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ConfigurationError("domain document must be an object with a 'kind' field")
        kind = doc["kind"]
        try:
            if kind == "real_interval":
                return PointDomain.real_interval(
                    *_check_reals([doc["lo"], doc["hi"]], "interval bounds"))
            if kind == "naturals_up_to":
                return PointDomain.naturals_up_to(*_check_reals([doc["max"]], "naturals max"))
            if kind == "finite_real_set":
                return PointDomain.finite_real_set(
                    _check_reals(doc["elements"], "finite set elements"))
        except KeyError as exc:
            raise ConfigurationError(f"domain document missing field {exc.args[0]!r}") from None
        raise ConfigurationError(f"unknown domain kind {kind!r}")


@dataclass(frozen=True)
class AlphaFunction:
    """A composing function alpha: [0, inf) -> [0, inf).

    Defined by a closed-form expression in ``t`` so that serialization and
    command-line round-trips are exact.  Constant expressions are rejected:
    a composing function must separate at least two probe points.
    """

    id: str
    expr: str
    params: tuple[float, ...] = ()
    _fn: Callable[[float], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fn = compile_expression(self.expr)
        object.__setattr__(self, "_fn", fn)
        probe = {fn(t) for t in _NONCONSTANT_PROBE}
        if len(probe) < 2:
            raise ConfigurationError(
                f"composing function {self.expr!r} looks constant on the probe grid")

    def __call__(self, t: float) -> float:
        return self._fn(t)

    def to_json(self) -> dict:
        doc = {"id": self.id, "expr": self.expr}
        if self.params:
            doc["params"] = list(self.params)
        return doc


# Built-in composing functions.  ``linear`` takes a slope parameter.
BUILTIN_ALPHAS: dict[str, str] = {
    "identity": "t",
    "exp": "exp(t)",
    "exp_2t": "exp(2*t)",
    "two_t_plus_one": "2*t+1",
    "two_sqrt": "2*sqrt(t)",
}


def make_alpha(name: str, params: Sequence[float] = ()) -> AlphaFunction:
    """Build a composing function from a built-in name, a slope for
    ``linear``, or an inline expression in ``t``."""
    if name == "linear":
        (b,) = _check_reals(params, "linear slope", 1)
        if b <= 0:
            raise ConfigurationError("linear composing function needs one positive slope")
        b = float(b)
        return AlphaFunction(id="linear", expr=f"{b!r}*t", params=(b,))
    if name in BUILTIN_ALPHAS:
        if params:
            raise ConfigurationError(f"composing function {name!r} takes no parameters")
        return AlphaFunction(id=name, expr=BUILTIN_ALPHAS[name])
    # Anything else is treated as an inline expression.
    return AlphaFunction(id="custom", expr=name)


def alpha_from_json(doc: dict) -> AlphaFunction:
    if not isinstance(doc, dict) or "id" not in doc:
        raise ConfigurationError("alpha document must be an object with an 'id' field")
    alpha_id = doc["id"]
    if alpha_id == "custom":
        if "expr" not in doc:
            raise ConfigurationError("custom alpha document must carry an 'expr' field")
        return AlphaFunction(id="custom", expr=doc["expr"])
    if alpha_id == "linear":
        return make_alpha("linear", doc.get("params", ()))
    if isinstance(alpha_id, str) and alpha_id in BUILTIN_ALPHAS:
        return make_alpha(alpha_id)
    raise ConfigurationError(f"unknown alpha id {alpha_id!r}")


@dataclass(frozen=True)
class TripleMetric:
    """A function from point triples to nonnegative reals."""

    id: str
    fn: Callable[[Point, Point, Point], float] = field(compare=False)


@dataclass(frozen=True)
class ComposedSpace:
    """A point domain with a triple metric and its composing function."""

    domain: PointDomain
    metric: TripleMetric
    alpha: AlphaFunction
    symmetric_claim: bool = False


@dataclass(frozen=True)
class SelfMap:
    """A map from a domain into itself, the object of fixed-point search."""

    id: str
    fn: Callable[[Point], Point] = field(compare=False)
    domain: PointDomain = field(default_factory=lambda: PointDomain.real_interval(0.0, 1.0))

    def apply(self, x: Point) -> Point:
        """Apply the map, enforcing closure: the image must stay in the domain."""
        if not self.domain.contains(x):
            raise DomainError(f"point {x!r} is outside the domain of map {self.id!r}")
        y = self.fn(x)
        if not self.domain.contains(y):
            raise DomainError(
                f"map {self.id!r} escaped its domain: F({x!r}) = {y!r}")
        return y


def eval_metric(space: ComposedSpace, q: Point, h: Point, w: Point) -> float:
    """Evaluate the triple metric at (q, h, w) with domain and range checks."""
    for p in (q, h, w):
        if not space.domain.contains(p):
            raise DomainError(f"point {p!r} is outside the space domain")
    value = space.metric.fn(q, h, w)
    if not (isinstance(value, (int, float)) and math.isfinite(value)) or value < 0:
        raise NumericError(
            f"metric {space.metric.id!r} returned {value!r} at ({q!r}, {h!r}, {w!r})")
    return float(value)


def eval_alpha(alpha: AlphaFunction, t: float) -> float:
    """Evaluate the composing function at t >= 0."""
    if t < 0:
        raise DomainError(f"composing functions are defined on [0, inf); got {t!r}")
    value = alpha(t)
    if value < 0 or math.isnan(value):
        raise NumericError(f"composing function {alpha.id!r} returned {value!r} at {t!r}")
    return value


def iterate_alpha(alpha: AlphaFunction, j: int, t: float) -> float:
    """Apply the composing function j times; j = 0 returns t unchanged."""
    if j < 0:
        raise DomainError(f"iteration count must be >= 0, got {j}")
    value = t
    for _ in range(j):
        value = eval_alpha(alpha, value)
    return value


# --- built-in spaces --------------------------------------------------------

def _metric_squared_diff(q, h, w):
    return (q - w) ** 2 + (h - w) ** 2


def _metric_abs_sum(q, h, w):
    return abs(q - w) + abs(h - w)


def _metric_app(p, s, q):
    return abs(p - s) + abs(s - q)


def _metric_discrete_nat(a, b, c):
    # The pairwise pattern is resolved by multiset so the metric is total:
    # 0 on equal triples, x+y when exactly two entries coincide, twice the
    # sum when all three differ.
    if a == b == c:
        return 0.0
    if a == b:
        return float(a + c)
    if a == c:
        return float(a + b)
    if b == c:
        return float(b + a)
    return 2.0 * (a + b + c)


def _squared_diff_domain(lo, hi) -> PointDomain:
    if lo < 1.0:
        raise ConfigurationError("squared_diff lives on [1, inf); truncation needs lo >= 1")
    return PointDomain.real_interval(lo, hi)


# name: (metric, default params, domain from params, composing function)
_BUILTINS = {
    "squared_diff": (_metric_squared_diff, (1.0, 100.0), _squared_diff_domain, "exp"),
    "discrete_nat": (_metric_discrete_nat, (50,), PointDomain.naturals_up_to,
                     "two_t_plus_one"),
    "abs_sum": (_metric_abs_sum, (1.0, 100.0), PointDomain.real_interval, "exp_2t"),
    "app_metric": (_metric_app, (), lambda: PointDomain.real_interval(0.0, 1.0),
                   "two_sqrt"),
}

BUILTIN_SPACES = tuple(_BUILTINS)


def metric_by_name(name: str) -> TripleMetric:
    """The triple metric of the built-in space ``name``."""
    return TripleMetric(id=name, fn=_BUILTINS[name][0])


def make_builtin_space(name: str, params: Sequence[float] = ()) -> ComposedSpace:
    """Construct one of the built-in composed S-metric spaces.

    squared_diff   (q-w)^2 + (h-w)^2 on [lo, hi] with lo >= 1, alpha = exp(t);
                   params [lo, hi], default [1, 100]
    discrete_nat   the piecewise sum metric on {0, ..., max}, alpha = 2t+1;
                   params [max], default [50]
    abs_sum        |q-w| + |h-w| on [lo, hi], alpha = exp(2t);
                   params [lo, hi], default [1, 100]
    app_metric     |p-s| + |s-q| on [0, 1], alpha = 2*sqrt(t); no params

    The unbounded source domains are truncated to finite ranges so that
    sampled audits have finite support.
    """
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigurationError(f"unknown builtin space {name!r}; expected one of {BUILTIN_SPACES}")
    _, defaults, domain, alpha = _BUILTINS[name]
    if isinstance(params, (list, tuple)) and not params:
        params = defaults
    _check_reals(params, f"{name} params", len(defaults))
    # metric_by_name is called, not read from the table, so that
    # perfbench/tracer.py can wrap it.
    return ComposedSpace(domain(*params), metric_by_name(name), make_alpha(alpha),
                         symmetric_claim=True)


# --- built-in self-maps -----------------------------------------------------

def make_self_map(kind: str, domain: PointDomain, **kwargs) -> SelfMap:
    """Build a named self-map on the given domain.

    Kinds: ``identity``; ``const`` (value=...); ``scale`` (factor=...);
    ``poly`` (m=..., the polynomial fixed-point map, domain must be [0, 1]).
    """
    if kind == "identity":
        return SelfMap(id="identity", fn=lambda x: x, domain=domain)
    if kind == "const":
        value = kwargs.get("value")
        if value is None or not domain.contains(value):
            raise ConfigurationError(f"const map needs a 'value' inside the domain, got {value!r}")
        v = float(value)
        return SelfMap(id=f"const({v!r})", fn=lambda x: v, domain=domain)
    if kind == "scale":
        (k,) = _check_reals([kwargs.get("factor")], "scale map factor")
        k = float(k)
        return SelfMap(id=f"scale({k!r})", fn=lambda x: k * x, domain=domain)
    if kind == "poly":
        (m,) = _check_reals([kwargs.get("m")], "poly map degree m")
        from .poly_solver import poly_map  # local import to avoid a cycle
        return poly_map(int(m)).map
    raise ConfigurationError(f"unknown map kind {kind!r}")


# --- JSON (de)serialization -------------------------------------------------
# Field names are fixed by the CLI: domain, metric, alpha, params, symmetric, map.

def space_to_json(space: ComposedSpace) -> dict:
    return {
        "domain": space.domain.to_json(),
        "metric": space.metric.id,
        "alpha": space.alpha.to_json(),
        "symmetric": space.symmetric_claim,
    }


def space_from_json(doc: dict) -> ComposedSpace:
    if not isinstance(doc, dict):
        raise ConfigurationError("space document must be a JSON object")
    if "metric" not in doc:
        raise ConfigurationError("space document missing field 'metric'")
    name = doc["metric"]
    space = make_builtin_space(name, doc.get("params", []))
    if "domain" in doc:
        domain = PointDomain.from_json(doc["domain"])
        if name == "squared_diff" and domain.kind == "real_interval" and domain.lo < 1.0:
            raise ConfigurationError("squared_diff domain must satisfy lo >= 1")
        space = replace(space, domain=domain)
    if "alpha" in doc:
        space = replace(space, alpha=alpha_from_json(doc["alpha"]))
    if "symmetric" in doc:
        space = replace(space, symmetric_claim=bool(doc["symmetric"]))
    return space


def map_to_json(self_map: SelfMap) -> dict:
    return {"id": self_map.id}


def map_from_json(doc: dict, domain: PointDomain) -> SelfMap:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigurationError("map document must be an object with a 'kind' field")
    kind = doc["kind"]
    kwargs = {k: v for k, v in doc.items() if k != "kind"}
    return make_self_map(kind, domain, **kwargs)

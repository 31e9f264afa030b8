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

import ast
import math
import sys
from bisect import bisect_left
from collections.abc import Callable, Sequence

from .errors import ConfigurationError, DomainError, NumericError
from .expressions import compile_tree, expression_tree

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
    "map_from_json",
    "BUILTIN_SPACES",
    "BUILTIN_ALPHAS",
]

Point = float

_FLOAT_MAX = sys.float_info.max

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


class Record:
    """Base of the immutable value types.  A subclass's fields, listed in
    ``_fields``, are the names it annotates that do not start with ``_``, in
    declaration order.  Defaults are class attributes; ``_compared`` may narrow
    equality and hashing.  Construction ends with ``__post_init__``;
    assignment raises AttributeError."""

    _compared = property(lambda self: self._fields)

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__annotations__ if not f.startswith("_"))

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        values = dict(zip(fields, args), **kwargs)
        # An extra or repeated argument leaves values short.
        if (len(values) < len(args) + len(kwargs) or not values.keys() <= set(fields)
                or not all(f in values or hasattr(cls, f) for f in fields)):
            raise TypeError(f"{cls.__name__} takes {fields}, got {args!r} and {kwargs!r}")
        self.__dict__.update({f: values[f] if f in values else getattr(cls, f) for f in fields})
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {f: self.__dict__[f] for f in self._fields}

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in self._asdict().items())
        return f"{type(self).__qualname__}({shown})"


def replace(value: Record, **changes) -> Record:
    """A copy of value with the given fields changed, validated again."""
    return type(value)(**{**value._asdict(), **changes})


class PointDomain(Record):
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
            # Sampling draws lo + (hi - lo) * u, which is NaN or infinite
            # when the width overflows.
            if not math.isfinite(self.hi - self.lo):
                raise ConfigurationError(
                    f"interval width hi - lo overflows a float, got [{self.lo}, {self.hi}]")
        elif self.kind == "naturals_up_to":
            if self.max_value < 4:
                raise ConfigurationError(
                    "naturals domain needs max >= 4 to hold a distinct triple plus one more point")
            if self.max_value > 2 ** 53:
                raise ConfigurationError(
                    f"naturals max {self.max_value} exceeds 2**53, above which "
                    "floats no longer hold every integer")
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
        if isinstance(max_value, float) and not max_value.is_integer():
            raise ConfigurationError(f"naturals max must be an integer, got {max_value!r}")
        return PointDomain(kind="naturals_up_to", max_value=int(max_value))

    @staticmethod
    def finite_real_set(elements: Sequence[float]) -> "PointDomain":
        return PointDomain(kind="finite_real_set", elements=tuple(elements))

    @property
    def least(self) -> float:
        """The lowest point of the domain."""
        if self.kind == "real_interval":
            return self.lo
        return self.elements[0] if self.elements else 0.0

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("naturals_up_to", "finite_real_set")

    def members(self) -> Sequence[float]:
        """The full element list of a discrete domain; a range for naturals."""
        if self.kind == "naturals_up_to":
            return range(self.max_value + 1)
        if self.kind == "finite_real_set":
            return self.elements
        raise ConfigurationError("a real interval has no finite member list")

    def contains(self, x) -> bool:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        try:
            if not math.isfinite(x):
                return False
        except OverflowError:  # an int too large for a float lies in no domain
            return False
        if self.kind == "real_interval":
            return self.lo <= x <= self.hi
        if self.kind == "naturals_up_to":
            return float(x).is_integer() and 0 <= x <= self.max_value
        x = float(x)
        i = bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

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


class AlphaFunction(Record):
    """A composing function alpha: [0, inf) -> [0, inf).

    Defined by a closed-form expression in ``t`` so that serialization and
    command-line round-trips are exact.  Constant expressions are rejected:
    a composing function must separate at least two probe points.  It is
    evaluated through ``eval_alpha``, which checks the argument and value,
    or inlined from its checked tree into a fused kernel.
    """

    id: str
    expr: str
    params: tuple[float, ...] = ()
    _tree: object  # the checked tree of expr, ``lambda t: ...``, set by __post_init__
    _fn: Callable[[float], float]  # compiled from _tree by __post_init__

    def __post_init__(self):
        tree = expression_tree(self.expr)
        fn = compile_tree(tree)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_fn", fn)
        probe = {fn(t) for t in _NONCONSTANT_PROBE}
        if len(probe) < 2:
            raise ConfigurationError(
                f"composing function {self.expr!r} looks constant on the probe grid")

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
        if not isinstance(params, (list, tuple)) or params:
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
        alpha = AlphaFunction(id="custom", expr=doc["expr"])
    elif isinstance(alpha_id, str) and (alpha_id == "linear" or alpha_id in BUILTIN_ALPHAS):
        alpha = make_alpha(alpha_id, doc.get("params", ()))
    else:
        raise ConfigurationError(f"unknown alpha id {alpha_id!r}")
    if not doc.items() <= alpha.to_json().items():  # an expr or params its id disagrees with
        raise ConfigurationError(f"alpha document {doc!r} disagrees with {alpha.to_json()!r}")
    return alpha


class TripleMetric(Record):
    """A function from point triples to nonnegative reals."""

    _compared = ("id",)
    id: str
    fn: Callable[[Point, Point, Point], float]


class ComposedSpace(Record):
    """A point domain with a triple metric and its composing function."""

    domain: PointDomain
    metric: TripleMetric
    alpha: AlphaFunction
    symmetric_claim: bool = False


class SelfMap(Record):
    """A map from a domain into itself, the object of fixed-point search."""

    _compared = ("id", "domain")
    id: str
    fn: Callable[[Point], Point]
    domain: PointDomain = PointDomain.real_interval(0.0, 1.0)

    def apply(self, x: Point) -> Point:
        """Apply the map, enforcing closure: the image must stay in the domain."""
        if not self.domain.contains(x):
            raise self.outside_error(x)
        y = self.fn(x)
        if not self.domain.contains(y):
            raise self.escape_error(x, y)
        return y

    def outside_error(self, x: Point) -> DomainError:
        """The error for a source point x outside the map's domain."""
        return DomainError(f"point {x!r} is outside the domain of map {self.id!r}")

    def escape_error(self, x: Point, y: Point) -> DomainError:
        """The closure error: the image y = F(x) left the map's domain."""
        return DomainError(f"map {self.id!r} escaped its domain: F({x!r}) = {y!r}")


def require_in_space(space: ComposedSpace, p: Point) -> None:
    """Raise DomainError unless p lies in the space's domain."""
    if not space.domain.contains(p):
        raise DomainError(f"point {p!r} is outside the space domain")


def _check_image(space: ComposedSpace, F: SelfMap, x: Point, y: Point) -> Point:
    """y, an image y = F(x) in F.domain and space.domain; otherwise the error
    for one outside F.domain, then for one outside space.domain."""
    if not F.domain.contains(y):
        raise F.escape_error(x, y)
    require_in_space(space, y)
    return y


def _check_metric(space: ComposedSpace, value, q: Point, h: Point, w: Point):
    """value, the metric at (q, h, w), as it was given; it must be a finite
    real >= 0, or NumericError names it."""
    if not (isinstance(value, (int, float)) and 0 <= value <= _FLOAT_MAX):
        raise NumericError(
            f"metric {space.metric.id!r} returned {value!r} at ({q!r}, {h!r}, {w!r})")
    return value


def _checked_metric(space: ComposedSpace) -> Callable:
    """C of a checked template: space's metric, run once per call, with a
    float passing a quick test and any other value _check_metric."""
    fn = space.metric.fn
    return lambda q, h, w: (value if type(value := fn(q, h, w)) is float
                            and 0 <= value <= _FLOAT_MAX else _check_metric(space, value, q, h, w))


def eval_metric(space: ComposedSpace, q: Point, h: Point, w: Point) -> float:
    """Evaluate the triple metric at (q, h, w) with domain and range checks."""
    for p in (q, h, w):
        require_in_space(space, p)
    return float(_check_metric(space, space.metric.fn(q, h, w), q, h, w))


def eval_alpha(alpha: AlphaFunction, t: float) -> float:
    """Evaluate the composing function at t >= 0; a value below 0 or NaN
    raises NumericError."""
    if t < 0:
        raise DomainError(f"composing functions are defined on [0, inf); got {t!r}")
    value = alpha._fn(t)
    if not value >= 0:  # NaN included
        raise NumericError(f"composing function {alpha.id!r} returned {value!r} at {t!r}")
    return value


def _checked_alpha(alpha: AlphaFunction) -> Callable:
    """A of a checked template: alpha by eval_alpha's value rule, which names
    a value that breaks it."""
    fn = alpha._fn
    return lambda t: value if (value := fn(t)) >= 0 else eval_alpha(alpha, t)


def iterate_alpha(alpha: AlphaFunction, j: int, t: float) -> float:
    """Apply the composing function j times; j = 0 returns t unchanged."""
    if type(j) is not int or j < 0:
        raise DomainError(f"iteration count must be an integer >= 0, got {j!r}")
    value = t
    for _ in range(j):
        value = eval_alpha(alpha, value)
    return value


# --- built-in spaces --------------------------------------------------------

# The float operations of the built-in metrics as lambdas, which fused
# kernels inline.  Each metric but squared_diff is compiled from its lambda,
# so each formula is stated once; squared_diff's function also saturates
# overflow.  discrete_nat resolves the pairwise pattern by multiset, so it is
# total: 0 on equal triples, x + y when exactly two entries coincide, twice
# the sum when all three differ.  Each metric's self-distance S(x, u) is
# C(x, x, u) at every finite x and u, by value and by type: x - x is exactly
# 0 or 0.0 there, and a + a is exactly 2 * a.
_SQUARED_DIFF = "lambda q, h, w: (q - w) ** 2 + (h - w) ** 2"
_DISCRETE_NAT = ("lambda a, b, c: 0.0 if a == b == c else float(a + c) if a == b"
                 " else float(a + b) if a == c else float(b + a) if b == c else 2.0 * (a + b + c)")
_ABS_SUM = "lambda q, h, w: abs(q - w) + abs(h - w)"
_APP = "lambda p, s, q: abs(p - s) + abs(s - q)"
_metric_discrete_nat, _metric_abs_sum, _metric_app = (
    compile_tree(ast.parse(src, mode="eval")) for src in (_DISCRETE_NAT, _ABS_SUM, _APP))
# S(x, u) of a metric that is called, not inlined.
_SELF_CALLED = "lambda x, u: C(x, x, u)"


def _metric_squared_diff(q, h, w):
    try:
        return (q - w) ** 2 + (h - w) ** 2
    except OverflowError:  # saturates to inf, as exp and ^ do
        return math.inf


# name: (metric, default params, domain from params, composing function,
#        lowest point the space is defined at, the metric's lambda, the
#        lambda of its self-distance)
_BUILTINS = {
    "squared_diff": (_metric_squared_diff, (1.0, 100.0), PointDomain.real_interval, "exp",
                     1.0, _SQUARED_DIFF, "lambda x, u: 2 * (x - u) ** 2"),
    "discrete_nat": (_metric_discrete_nat, (50,), PointDomain.naturals_up_to,
                     "two_t_plus_one", 0.0, _DISCRETE_NAT,
                     "lambda x, u: 0.0 if x == u else float(x + u)"),
    "abs_sum": (_metric_abs_sum, (1.0, 100.0), PointDomain.real_interval, "exp_2t",
                -math.inf, _ABS_SUM, "lambda x, u: 2 * abs(x - u)"),
    "app_metric": (_metric_app, (), lambda: PointDomain.real_interval(0.0, 1.0),
                   "two_sqrt", -math.inf, _APP, "lambda x, u: abs(x - u)"),
}

BUILTIN_SPACES = tuple(_BUILTINS)


def metric_by_name(name: str) -> TripleMetric:
    """The triple metric of the built-in space ``name``."""
    return TripleMetric(id=name, fn=_BUILTINS[name][0])


def _fused_metric(space: ComposedSpace) -> tuple[str, str] | None:
    """The lambdas of space's metric C and of its self-distance S for fused
    kernels and Picard's inlined loop, or None.  This is the one rule for
    every check and for Picard: a built-in metric is fused on any domain
    where none of its values exceeds _FLOAT_MAX / 2, so no fused value
    overflows, and whose points, all finite, make S exactly C(x, x, u).
    The convex metrics are largest at a corner of [least, greatest]^3; float
    operations are monotone and the margin covers int points, which are
    exact.  discrete_nat is largest off the corners, at most 6 * greatest, and
    can be negative below 0.  Any other metric, a wrapped one too, runs checked."""
    dom, fn = space.domain, space.metric.fn
    row = next((row for row in _BUILTINS.values() if row[0] is fn), None)
    if row is None:
        return None
    ends = (dom.least, dom.hi if dom.kind == "real_interval" else dom.members()[-1])
    if fn is _metric_discrete_nat:
        sup = 6 * ends[1] if ends[0] >= 0 else math.inf
    else:
        sup = max(fn(q, h, w) for q in ends for h in ends for w in ends)
    return row[5:] if sup <= _FLOAT_MAX / 2 else None


def _builtin_domain(name: str, domain: PointDomain) -> PointDomain:
    """domain, if the built-in space name is defined at its lowest point."""
    floor = _BUILTINS[name][4]
    if domain.least < floor:
        raise ConfigurationError(
            f"{name} lives on [{floor:g}, inf); its domain reaches down to {domain.least!r}")
    return domain


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
    _, defaults, domain, alpha, *_ = _BUILTINS[name]
    if isinstance(params, (list, tuple)) and not params:
        params = defaults
    _check_reals(params, f"{name} params", len(defaults))
    # metric_by_name is called, not read from the table, so that
    # perfbench/tracer.py can wrap it.
    return ComposedSpace(_builtin_domain(name, domain(*params)), metric_by_name(name),
                         make_alpha(alpha), symmetric_claim=True)


# --- built-in self-maps -----------------------------------------------------

# The fields each map kind takes.
_MAP_FIELDS = {"identity": set(), "const": {"value"}, "scale": {"factor"}, "poly": {"m"}}


def _compiled_map(id: str, text: str, domain: PointDomain) -> SelfMap:
    """A self-map whose fn is compiled from text, a built-in map's lambda,
    and carries it as fn._text, for the image rule to inline (see
    _map_text)."""
    fn = compile_tree(ast.parse(text, mode="eval"))
    fn._text = text
    return SelfMap(id=id, fn=fn, domain=domain)


def _map_text(F: SelfMap) -> str | None:
    """The lambda F.fn was compiled from, for a built-in map, or None: found
    on the function, so a map whose fn is any other function, a wrapped one
    too, is called."""
    text = getattr(F.fn, "_text", None)
    return text if type(text) is str else None


def make_self_map(kind: str, domain: PointDomain, **kwargs) -> SelfMap:
    """Build a named self-map on the given domain.

    Kinds: ``identity``; ``const`` (value=...); ``scale`` (factor=...);
    ``poly`` (m=..., an integer >= 3; the polynomial fixed-point map on [0, 1]).
    Any other field is a configuration error.  Each kind states its float
    operations once, as a lambda its fn is compiled from; Picard's loop and
    the image function of the sampled checks inline that lambda on the
    map's own domain, and call a map built any other way.
    """
    if not isinstance(kind, str) or kind not in _MAP_FIELDS:
        raise ConfigurationError(f"unknown map kind {kind!r}")
    unknown = kwargs.keys() - _MAP_FIELDS[kind]
    if unknown:
        raise ConfigurationError(
            f"unknown field(s) for map kind {kind!r}: {', '.join(sorted(map(repr, unknown)))}")
    if kind == "identity":
        return _compiled_map("identity", "lambda x: x", domain)
    if kind == "const":
        value = kwargs.get("value")
        if value is None or not domain.contains(value):
            raise ConfigurationError(f"const map needs a 'value' inside the domain, got {value!r}")
        v = float(value)
        return _compiled_map(f"const({v!r})", f"lambda x: {v!r}", domain)
    if kind == "scale":
        (k,) = _check_reals([kwargs.get("factor")], "scale map factor")
        k = float(k)
        return _compiled_map(f"scale({k!r})", f"lambda x: {k!r} * x", domain)
    if kind == "poly":
        (m,) = _check_reals([kwargs.get("m")], "poly map degree m")
        from .poly_solver import poly_map  # local import to avoid a cycle
        return poly_map(int(m) if m == int(m) else m).map


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
    unknown = doc.keys() - {"metric", "params", "domain", "alpha", "symmetric", "map"}
    if unknown:
        raise ConfigurationError(f"unknown space field(s): {', '.join(sorted(map(repr, unknown)))}")
    name = doc["metric"]
    space = make_builtin_space(name, doc.get("params", []))
    domain = (_builtin_domain(name, PointDomain.from_json(doc["domain"])) if "domain" in doc
              else space.domain)
    alpha = alpha_from_json(doc["alpha"]) if "alpha" in doc else space.alpha
    symmetric = doc.get("symmetric", space.symmetric_claim)
    if not isinstance(symmetric, bool):
        raise ConfigurationError(f"symmetric must be true or false, got {symmetric!r}")
    return ComposedSpace(domain, space.metric, alpha, symmetric)


def map_from_json(doc: dict, domain: PointDomain) -> SelfMap:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigurationError("map document must be an object with a 'kind' field")
    kind = doc["kind"]
    kwargs = {k: v for k, v in doc.items() if k != "kind"}
    return make_self_map(kind, domain, **kwargs)

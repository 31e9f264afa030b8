"""Picard iteration, contraction diagnostics, and generalized contraction checks.

``picard`` iterates x -> F(x) and stops once the step distance
C(x_n, x_n, x_{n+1}) falls to the requested tolerance; the residual
C(x, x, F(x)) at the reported point is recomputed independently, and a run
only counts as converged when that residual is also within tolerance.  F
and the metric run once per reported step, and once each for the residual.
This module is the map layer.  The steps run in one compiled loop, ``_orbit``,
and the sampled checks take their images through one compiled image
function I, ``_image_function``.  Both test each image y = F(x) as it is
taken, by one text, ``_IMAGE``, with a built-in map's lambda inlined where
its domain is the space's, and both are compiled by one cache, ``_loop``.

The five-argument contraction family is represented by ``MfFunction`` with
Banach, Kannan, and Bianchini-max built-ins, together with samplers for the
two selection properties that make the family's fixed-point argument work.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache, partial
from itertools import combinations

from .axiom_audit import (_NONNEG_DOMAIN, DEFAULT_MAX_ITER, DEFAULT_TOL, Verdict, _audit,
                          _Collector, _kernel)
from .errors import ConfigurationError, DomainError, NumericError, PreconditionError
from .expressions import compile_function
from .sampling import SampleConfig
from .spaces import (_FLOAT_MAX, _SELF_CALLED, ComposedSpace, Record, SelfMap, _check_image,
                     _check_metric, _fused_metric, _map_text, eval_metric)

__all__ = [
    "Orbit",
    "SolveResult",
    "MfFunction",
    "ContractionEstimate",
    "banach_mf",
    "kannan_mf",
    "bianchini_mf",
    "picard",
    "estimate_contraction_factor",
    "check_banach",
    "check_m1",
    "check_m2",
    "check_mf_contraction",
    "verify_fixed_point",
    "uniqueness_probe",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]

# Ratios are not formed below this step distance; the contraction inequality
# is vacuous at zero distance.
_RATIO_FLOOR = 1e-12


class Orbit(Record):
    """A Picard orbit with per-step distances d_n = C(x_n, x_n, x_{n+1})."""

    iterates: tuple
    step_distances: tuple


class SolveResult(Record):
    fixed_point: float
    iterations: int
    residual: float
    converged: bool
    orbit: Orbit


class MfFunction(Record):
    """A continuous five-argument bound used as a generalized contraction."""

    id: str
    fn: Callable[[float, float, float, float, float], float]
    params: tuple[float, ...] = ()


def banach_mf(r: float) -> MfFunction:
    if not (0.0 < r < 1.0):
        raise ConfigurationError(f"Banach factor must lie in (0, 1), got {r!r}")
    return MfFunction(id=f"banach({r!r})", fn=lambda t1, t2, t3, t4, t5: r * t1,
                      params=(r,))


def kannan_mf(a: float) -> MfFunction:
    if not (0.0 <= a < 0.5):
        raise ConfigurationError(f"Kannan coefficient must lie in [0, 1/2), got {a!r}")
    return MfFunction(id=f"kannan({a!r})", fn=lambda t1, t2, t3, t4, t5: a * (t2 + t5),
                      params=(a,))


def bianchini_mf(a: float) -> MfFunction:
    # The max form follows the working derivation; a max of a single sum is
    # not a function of two arguments.
    if not (0.0 <= a < 1.0):
        raise ConfigurationError(f"Bianchini coefficient must lie in [0, 1), got {a!r}")
    return MfFunction(id=f"bianchini({a!r})", fn=lambda t1, t2, t3, t4, t5: a * max(t2, t5),
                      params=(a,))


class ContractionEstimate(Record):
    """The largest observed ratio C(Fq,Fh,Fw)/C(q,h,w) with its argmax."""

    sup_ratio: float
    argmax_tuple: tuple
    samples: int


# The image rule: y = F(x) passes this test where it is a float in [lo, hi]
# or, when F.domain is the space's, a member of it; check_image returns any
# other y or names it.  _image_rule binds its names.
_IMAGE = "type(y := F(x)) is float and lo <= y <= hi or same and contains(y)"
_IMAGES = f"""
def images(F, lo, hi, same, contains, check_image):
    return lambda chunk: [y if {_IMAGE} else check_image(x, y) for t in chunk for x in t]
"""

# The Picard loop: x_{k+1} = F(x_k) and d_k = S(x_k, x_{k+1}), each step tested
# as it is taken.
_ORBIT = f"""
def orbit(F, lo, hi, same, contains, check_image, C, check_metric, x, n, tol):
    iterates, distances = [x], []
    for _ in range(n):
        if not ({_IMAGE}):
            check_image(x, y)
        d = S(x, y)
        if not (type(d) is float and 0.0 <= d <= {_FLOAT_MAX!r}):
            d = float(check_metric(d, x, x, y))
        iterates.append(y)
        distances.append(d)
        if d <= tol:
            break
        x = y
    return iterates, distances
"""


def _image_rule(space: ComposedSpace, F: SelfMap) -> tuple:
    """(text, names): the lambda of F that _IMAGE inlines (see
    spaces._map_text) where F.domain is space.domain, else None, and the
    values of its names.  On another domain F.apply, which tests the source
    point first, is called, and every image goes to _check_image."""
    dom = F.domain
    same = dom == space.domain
    lo, hi = (dom.lo, dom.hi) if same and dom.kind == "real_interval" else (1, 0)  # (1, 0): none
    return (_map_text(F) if same else None,
            (F.fn if same else F.apply, lo, hi, same, dom.contains, partial(_check_image, space, F)))


@lru_cache(maxsize=64)
def _loop(source: str, F: str | None, S: str | None = None) -> Callable:
    """source, _IMAGES or _ORBIT, with each of the lambdas F and S that is
    not None inlined, compiled once per text and only when first run."""
    return compile_function(source, {k: v for k, v in {"F": F, "S": S}.items() if v}, {})


def _image_function(space: ComposedSpace, F: SelfMap) -> Callable:
    """I: a chunk of tuples of points to the list of their images under F,
    in sample order, each tested by _IMAGE."""
    text, names = _image_rule(space, F)
    images = _loop(_IMAGES, text)(*names)
    images.local = text is not None  # the map is inlined: package code alone
    return images


def _orbit(space: ComposedSpace, F: SelfMap, x0, tol: float, n: int) -> tuple[list, list]:
    """The orbit x_{k+1} = F(x_k) of x_0 = x0 in space.domain and its step
    distances d_k = C(x_k, x_k, x_{k+1}) as floats, to the first d_k <= tol or
    n steps, in one compiled loop.  Each image is tested by _IMAGE; S is
    inlined where the metric is fused, and any other metric called.  A
    finite float distance >= 0 passes a quick test, any other goes to
    _check_metric, so an error names the first bad step."""
    metric = _fused_metric(space)
    text, names = _image_rule(space, F)
    loop = _loop(_ORBIT, text, metric[1] if metric else _SELF_CALLED)
    return loop(*names, space.metric.fn, partial(_check_metric, space), x0, n, tol)


def picard(space: ComposedSpace, F: SelfMap, x0, tol: float = DEFAULT_TOL,
           max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Iterate F from x0 until the step distance is at most tol.

    Returns the newest iterate with the full orbit.  ``converged`` is set
    only when the stop was tolerance-driven and the independently recomputed
    residual C(x, x, F(x)) is itself at most tol.  F and the metric run once
    per step, and an error names the first bad step.  A built-in map (see
    make_self_map) on a metric with a fused form runs inlined, with the
    metric's self-distance, in one compiled loop; any other map or metric is
    called from it.
    """
    if not tol > 0:
        raise ConfigurationError("tolerance must be positive")
    if type(max_iter) is not int or max_iter < 1:
        raise ConfigurationError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not space.domain.contains(x0):
        raise DomainError(f"start point {x0!r} is outside the domain")
    iterates, steps = _orbit(space, F, x0, tol, max_iter)
    fixed_point = iterates[-1]
    residual = eval_metric(space, fixed_point, fixed_point, F.apply(fixed_point))
    orbit = Orbit(iterates=tuple(iterates), step_distances=tuple(steps))
    return SolveResult(fixed_point=fixed_point, iterations=len(steps),
                       residual=residual, converged=steps[-1] <= tol and residual <= tol,
                       orbit=orbit)


def _estimate(space: ComposedSpace, F: SelfMap, cfg: SampleConfig) -> tuple:
    def finish(col):
        # The slack is -ratio, and every row violates, so the witness is the argmax.
        if cfg.count == 0:  # only a count of 0 draws no tuple
            raise ConfigurationError("check 'contraction_estimate' evaluated an empty sample")
        if col.witness is None:
            raise ConfigurationError("every sampled triple was degenerate; nothing to estimate")
        slack, argmax = col.witness
        # 0.0 - slack, not -slack: a zero ratio must not come out as -0.0.
        return ContractionEstimate(sup_ratio=0.0 - slack, argmax_tuple=argmax,
                                   samples=col.checked)

    # Checked only, as every row violates; a degenerate triple has no images.
    return [(space.domain, 3, _kernel(
        "lambda chunk: [((q, h, w), -(C(a, b, c) / d), -inf) for q, h, w in chunk"
        f" for d in [C(q, h, w)] if d >= {_RATIO_FLOOR!r} for a, b, c in [I([(q, h, w)])]]",
        space, fused=False, I=_image_function(space, F)))], [finish]


def estimate_contraction_factor(space: ComposedSpace, F: SelfMap,
                                cfg: SampleConfig) -> ContractionEstimate:
    """Maximum observed image-to-source distance ratio over sampled triples."""
    return _audit(cfg, [lambda: _estimate(space, F, cfg)])[0]


def _banach(space: ComposedSpace, F: SelfMap, r: float) -> tuple:
    if not (0.0 < r < 1.0):
        raise ConfigurationError(f"contraction factor must lie in (0, 1), got {r!r}")
    # Images pass the image rule in both forms, so they lie in the domain,
    # where the fused metric is finite.
    return [(space.domain, 3, _kernel(
        "lambda chunk: [((q, h, w), (v := r * C(q, h, w)) - C(a, b, c), T(v))"
        " for fx in [I(chunk)] for (q, h, w), a, b, c in zip(chunk, fx[0::3], fx[1::3], fx[2::3])]",
        space, r=r, I=_image_function(space, F)))], ["banach_contraction"]


def check_banach(space: ComposedSpace, F: SelfMap, r: float,
                 cfg: SampleConfig) -> Verdict:
    """C(Fq, Fh, Fw) <= r * C(q, h, w) over sampled triples."""
    return _audit(cfg, [lambda: _banach(space, F, r)])[0]


def _checked_mf(Mf: MfFunction) -> Callable:
    """Mf as templates call it, in both forms: a value that is NaN, below 0
    or not a real raises NumericError."""
    def checked(*t):
        if isinstance(value := Mf.fn(*t), (int, float)) and value >= 0:
            return value
        raise NumericError(f"Mf {Mf.id!r} returned {value!r} at {t!r}")
    return checked


def _m1(Mf: MfFunction, r: float) -> tuple:
    if not (0.0 <= r < 1.0):
        raise ConfigurationError(f"reduction factor must lie in [0, 1), got {r!r}")
    # An unguarded tuple counts with slack +inf: checked, never the worst.
    return [(_NONNEG_DOMAIN, 3, _kernel(
        "lambda chunk: [((o, h, w), r * o - h if w <= 2 * o + h and h <= Mf(o, o, 0.0, w, h)"
        " else inf, T(r * o)) for o, h, w in chunk]", None, r=r, Mf=_checked_mf(Mf)))], ["m1"]


def check_m1(Mf: MfFunction, r: float, cfg: SampleConfig) -> Verdict:
    """Selection property one: whenever h <= Mf(o, o, 0, w, h) and
    w <= 2o + h, the reduction h <= r*o must follow."""
    return _audit(cfg, [lambda: _m1(Mf, r)])[0]


def _m2(Mf: MfFunction) -> tuple:
    # An unguarded h counts with slack +inf, as in M1.
    return [(_NONNEG_DOMAIN, 1, _kernel(
        "lambda chunk: [((h,), 0.0 - h if h <= Mf(h, 0.0, h, h, 0.0) else inf, T(0.0))"
        " for (h,) in chunk]", None, Mf=_checked_mf(Mf)))], ["m2"]


def check_m2(Mf: MfFunction, cfg: SampleConfig) -> Verdict:
    """Selection property two: h <= Mf(h, 0, h, h, 0) forces h = 0."""
    return _audit(cfg, [lambda: _m2(Mf)])[0]


def _mf_contraction(space: ComposedSpace, F: SelfMap, Mf: MfFunction) -> tuple:
    if not space.symmetric_claim:
        raise PreconditionError("the generalized contraction check needs a symmetric space")
    return [(space.domain, 2, _kernel(
        "lambda chunk: [((o, h), (v := Mf(S(o, h), S(fo, o), S(fo, h), S(fh, o), S(fh, h)))"
        " - S(fo, fh), T(v))"
        " for fx in [I(chunk)] for (o, h), fo, fh in zip(chunk, fx[0::2], fx[1::2])]",
        space, I=_image_function(space, F), Mf=_checked_mf(Mf)))], ["mf_contraction"]


def check_mf_contraction(space: ComposedSpace, F: SelfMap, Mf: MfFunction,
                         cfg: SampleConfig) -> Verdict:
    """Generalized contraction bound over sampled pairs; the space must be
    symmetric for the five distances to play their intended roles."""
    return _audit(cfg, [lambda: _mf_contraction(space, F, Mf)])[0]


def verify_fixed_point(space: ComposedSpace, F: SelfMap, x,
                       tol: float = DEFAULT_TOL) -> Verdict:
    """Is x a fixed point of F up to tol, measured by C(x, x, F(x))?"""
    if not tol > 0:
        raise ConfigurationError("tolerance must be positive")
    residual = eval_metric(space, x, x, F.apply(x))
    return _Collector().add([(x, residual)], [tol - residual], [residual > tol]).verdict(
        "fixed_point_residual", None)


def uniqueness_probe(space: ComposedSpace, F: SelfMap, starts: Sequence,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> Verdict:
    """Run Picard from every start; pass when all runs converge and all
    reported fixed points coincide to within tol."""
    if not starts:
        raise ConfigurationError("uniqueness probe needs at least one start")
    col = _Collector()
    limits = []
    for x0 in starts:
        result = picard(space, F, x0, tol, max_iter)
        if not result.converged:
            return col.add([(x0,)], [-result.residual], [True]).verdict("uniqueness", None)
        col.checked += 1
        limits.append(result.fixed_point)
    pairs = list(combinations(limits, 2))
    d = [eval_metric(space, a, a, b) for a, b in pairs]
    return col.add(pairs, [tol - v for v in d], [v > tol for v in d]).verdict("uniqueness", None)

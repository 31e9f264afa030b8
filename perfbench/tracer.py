#!/usr/bin/env python3
"""Run one csmetric command with its layers instrumented from outside.

    python3 perfbench/tracer.py STATS.json -- <csmetric arguments>

The command runs through ``csmetric.cli.main``, as the console script
would, and writes its report to standard output as usual.  Before it
starts, the public functions of each layer are wrapped:

* coarse calls (tuple sampling, each check, Picard, bisection) get a span:
  their duration, and the time of spans nested in them; the CLI's ``run``
  records when it starts and ends, which splits parsing from emission;
* fine calls (the triple metric, the compiled composing function,
  ``SelfMap.apply``, ``eval_metric`` and the polynomial residual) are not
  timed; their arguments are recorded, which counts them exactly.

When the command has returned, every fine function is replayed over its
recorded arguments in a tight loop, which gives its self time without a
timer around each call.  The cost of the recording wrapper is measured the
same way, around a function that does nothing, and taken out of every span
that contains recorded calls.  STATS.json receives the per-layer figures of
this one invocation, and ``post_main_s``, the time spent after the command
returned, which the caller subtracts from the traced wall time.
"""

from __future__ import annotations

import json
import math
import sys
import time

from csmetric import axiom_audit, cli, fixed_point, poly_solver, sampling, spaces

MODULES = (spaces, sampling, axiom_audit, fixed_point, poly_solver, cli)
REPLAY_REPEATS = 3
now = time.perf_counter


def _recorder(fn, calls: list):
    append = calls.append

    def recorded(*args):
        append(args)
        return fn(*args)
    return recorded


def _noop(*args):
    return None


def _loop_s(fn, calls: list) -> float:
    """Best time over REPLAY_REPEATS of calling fn once per recorded call."""
    best = math.inf
    for _ in range(REPLAY_REPEATS):
        start = now()
        for args in calls:
            fn(*args)
        best = min(best, now() - start)
    return best


def _replace(original, replacement) -> None:
    """Rebind every module-level name that refers to original."""
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


class Sink:
    """The recorded calls of one fine-grained function."""

    def __init__(self, layer: str, fn):
        self.layer = layer
        self.fn = fn
        self.calls: list[tuple] = []


class Span:
    """Totals of one span name: calls, duration, nested-span time, and the
    recorded fine calls made inside it, per sink."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.nested_s = 0.0
        self.fine: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.sinks: dict[str, Sink] = {}
        self.spans: dict[str, Span] = {}
        self.stack: list[list] = []
        # Time spent in the tracer's own bookkeeping, excluded from every
        # span that is open meanwhile.
        self.book_s = 0.0
        self.tuples_drawn = 0
        self.redrawn = 0
        self.list_bytes = 0
        self.drawn: dict[tuple, int] = {}
        self.checked = 0
        self.iterations = 0
        self.run_bounds = (0.0, 0.0)

    # --- recording ----------------------------------------------------------

    def sink(self, key: str, layer: str, fn) -> list:
        if key not in self.sinks:
            self.sinks[key] = Sink(layer, fn)
        return self.sinks[key].calls

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) runs outside the timing."""
        def spanned(*args, **kwargs):
            enter = now()
            lengths = {key: len(s.calls) for key, s in self.sinks.items()}
            book_at_enter = self.book_s
            self.stack.append([0.0])
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = now()
                nested_s = self.stack.pop()[0]
                elapsed = stop - start - (self.book_s - book_at_enter)
                totals = self.spans.setdefault(name, Span())
                totals.calls += 1
                totals.total_s += elapsed
                totals.nested_s += nested_s
                for key, s in self.sinks.items():
                    inside = len(s.calls) - lengths.get(key, 0)
                    totals.fine[key] = totals.fine.get(key, 0) + inside
                if self.stack:
                    self.stack[-1][0] += elapsed
                self.book_s = book_at_enter + (now() - enter) - elapsed
            if after is not None:
                book_start = now()
                after(args, result)
                self.book_s += now() - book_start
            return result
        return spanned

    def _after_sampling(self, args, tuples) -> None:
        domain, arity, cfg = args
        n = len(tuples)
        self.tuples_drawn += n
        stream = (domain, arity, cfg.seed, cfg.strategy, cfg.pinned)
        earlier = self.drawn.get(stream, 0)
        self.redrawn += min(earlier, n)
        self.drawn[stream] = max(earlier, n)
        # Computed size: the list, its tuples and each distinct point object.
        points = {id(x): x for tup in tuples for x in tup}
        size = sys.getsizeof(tuples) + sum(sys.getsizeof(t) for t in tuples)
        size += sum(sys.getsizeof(x) for x in points.values())
        self.list_bytes = max(self.list_bytes, size)

    def _after_check(self, args, verdict) -> None:
        self.checked += verdict.checked

    def _after_picard(self, args, result) -> None:
        self.iterations += result.iterations

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        spanned = self.span("sampling", sampling.sample_tuples, self._after_sampling)
        _replace(sampling.sample_tuples, spanned)
        for name in axiom_audit.__all__:
            if name.startswith("check_"):
                original = getattr(axiom_audit, name)
                _replace(original, self.span(f"check:{name[6:]}", original,
                                             self._after_check))
        _replace(fixed_point.picard,
                 self.span("picard", fixed_point.picard, self._after_picard))
        _replace(fixed_point.check_banach, self.span("banach", fixed_point.check_banach))
        _replace(poly_solver.bisection_oracle,
                 self.span("bisection", poly_solver.bisection_oracle))
        cli.run = self._bounded(cli.run)

        _replace(spaces.eval_metric, _recorder(
            spaces.eval_metric, self.sink("eval_metric", "eval_metric", spaces.eval_metric)))
        _replace(poly_solver.residual, _recorder(
            poly_solver.residual, self.sink("residual", "residual", poly_solver.residual)))
        spaces.SelfMap.apply = _recorder(
            spaces.SelfMap.apply, self.sink("map", "map", spaces.SelfMap.apply))

        metric_by_name = spaces.metric_by_name

        def recorded_metric(name):
            metric = metric_by_name(name)
            calls = self.sink(f"metric:{name}", "metric", metric.fn)
            return spaces.TripleMetric(id=metric.id, fn=_recorder(metric.fn, calls))
        _replace(metric_by_name, recorded_metric)

        post_init = spaces.AlphaFunction.__post_init__

        def recorded_alpha(alpha):
            post_init(alpha)  # compiles and probes with the unwrapped function
            calls = self.sink(f"alpha:{alpha.expr}", "alpha", alpha._fn)
            object.__setattr__(alpha, "_fn", _recorder(alpha._fn, calls))
        spaces.AlphaFunction.__post_init__ = recorded_alpha

    def _bounded(self, fn):
        def bounded(*args):
            start = now()
            try:
                return fn(*args)
            finally:
                self.run_bounds = (start, now())
        return bounded

    # --- figures ------------------------------------------------------------

    def layer_metrics(self, main_start: float, main_end: float) -> dict:
        counts = {key: len(s.calls) for key, s in self.sinks.items()}
        overhead_ns = {}
        busy_s = {}
        infinite = 0
        for key, s in self.sinks.items():
            if not s.calls:
                overhead_ns[key] = busy_s[key] = 0.0
                continue
            wrapped = _recorder(_noop, [])
            overhead = _loop_s(wrapped, s.calls) - _loop_s(_noop, s.calls)
            overhead_ns[key] = max(overhead, 0.0) / counts[key]
            if s.layer in ("metric", "alpha", "map"):
                busy_s[key] = _loop_s(s.fn, s.calls)
            if s.layer == "alpha":
                infinite += sum(1 for (t,) in s.calls if s.fn(t) == math.inf)

        def corrected(name: str) -> float:
            span = self.spans.get(name)
            if span is None:
                return 0.0
            return span.total_s - sum(n * overhead_ns[k] for k, n in span.fine.items())

        def by_layer(table: dict, layer: str) -> float:
            return sum(v for k, v in table.items() if self.sinks[k].layer == layer)

        self_s = 0.0
        for name, span in self.spans.items():
            if name.startswith("check:"):
                inner = sum(n * busy_s[k] / counts[k] for k, n in span.fine.items()
                            if self.sinks[k].layer in ("metric", "alpha"))
                self_s += corrected(name) - span.nested_s - inner
        run_start, run_end = self.run_bounds
        metrics = {
            "sampling.tuples_drawn": self.tuples_drawn,
            "sampling.busy_s": corrected("sampling"),
            "sampling.list_bytes": self.list_bytes,
            "sampling.redrawn_tuples": self.redrawn,
            "spaces.metric_calls": by_layer(counts, "metric"),
            "spaces.metric_busy_s": by_layer(busy_s, "metric"),
            "spaces.map_apply_calls": by_layer(counts, "map"),
            "spaces.map_apply_busy_s": by_layer(busy_s, "map"),
            "spaces.eval_metric_calls": by_layer(counts, "eval_metric"),
            "expressions.alpha_calls": by_layer(counts, "alpha"),
            "expressions.alpha_busy_s": by_layer(busy_s, "alpha"),
            "expressions.alpha_inf": infinite,
        }
        for name in self.spans:
            if name.startswith("check:"):
                metrics[f"axiom_audit.{name[6:]}_s"] = corrected(name)
        metrics.update({
            "axiom_audit.checked": self.checked,
            "axiom_audit.self_s": self_s,
            "fixed_point.picard_calls": self.spans["picard"].calls
            if "picard" in self.spans else 0,
            "fixed_point.iterations": self.iterations,
            "fixed_point.picard_s": corrected("picard"),
            "fixed_point.banach_s": corrected("banach"),
            "poly_solver.bisection_s": corrected("bisection"),
            "poly_solver.residual_calls": by_layer(counts, "residual"),
            "cli.parse_s": run_start - main_start,
            "cli.emit_s": main_end - run_end,
        })
        return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS.json -- <csmetric arguments>", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    main_start = now()
    code = cli.main(cli_args)
    main_end = now()
    stats = tracer.layer_metrics(main_start, main_end)
    stats["post_main_s"] = now() - main_end
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

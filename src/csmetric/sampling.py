"""Deterministic tuple sampling for the audit checks.

A sample is the prefix of a fixed infinite (or exhaustively finite) stream
determined by (domain, arity, seed, strategy, pinned).  Prefix stability
gives two guarantees the auditors rely on:

* replay: identical configurations enumerate identical tuples, and
* monotonicity: raising ``count`` only appends tuples, so a witness found
  at some count can never disappear at a larger one.

Strategies:

* ``uniform_random``: seeded independent draws, made in one batch for the
  whole random part of a sample.
* ``stratified_grid``: for discrete domains the full lexicographic product
  (the stream is finite, which makes exhaustive checks possible); for real
  intervals a dyadically refined lattice emitted level by level.
* ``grid_plus_random``: a bounded coarse lattice that always contains the
  domain corners, followed by the uniform random stream.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import ConfigurationError, DomainError
from .spaces import PointDomain

__all__ = ["SampleConfig", "sample_tuples", "STRATEGIES"]

STRATEGIES = ("uniform_random", "stratified_grid", "grid_plus_random")

# The coarse block of grid_plus_random is capped so that high arities stay cheap.
_GRID_BLOCK_CAP = 4096


@dataclass(frozen=True)
class SampleConfig:
    """Provenance of a sampled check: seed, tuple count, strategy, and an
    optional tuple of pinned tuples enumerated ahead of the stream."""

    seed: int = 42
    count: int = 10000
    strategy: str = "grid_plus_random"
    pinned: tuple = ()

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigurationError("seed must be an unsigned 64-bit integer")
        if self.count < 0:
            raise ConfigurationError("count must be nonnegative")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        object.__setattr__(self, "pinned", tuple(tuple(t) for t in self.pinned))


def _rng_for(seed: int, arity: int) -> random.Random:
    # Mix the arity into the seed so streams of different tuple shapes differ.
    return random.Random((seed * 1000003 + arity) % 2 ** 64)


def _random_tuples(domain: PointDomain, arity: int, seed: int, n: int) -> Iterator[tuple]:
    # lo + (hi - lo) * random() is what uniform(lo, hi) computes, and
    # randrange(max + 1) takes the path of randint(0, max): same stream.
    rng = _rng_for(seed, arity)
    size = n * arity
    if domain.kind == "real_interval":
        lo, width, rand = domain.lo, domain.hi - domain.lo, rng.random
        draws = [lo + width * rand() for _ in range(size)]
    elif domain.kind == "naturals_up_to":
        stop, randrange = domain.max_value + 1, rng.randrange
        draws = [randrange(stop) for _ in range(size)]
    else:
        elements, randrange = domain.elements, rng.randrange
        draws = [elements[randrange(len(elements))] for _ in range(size)]
    return zip(*[iter(draws)] * arity)


def _axis_points(domain: PointDomain, per_axis: int) -> list:
    if domain.is_discrete:
        members = domain.members()
        if len(members) <= per_axis:
            return list(members)
        step = (len(members) - 1) / (per_axis - 1)
        return [members[round(i * step)] for i in range(per_axis)]
    lo, hi = domain.lo, domain.hi
    return [lo + (hi - lo) * i / (per_axis - 1) for i in range(per_axis)]


def _grid_block(domain: PointDomain, arity: int) -> Iterator[tuple]:
    if domain.is_discrete and len(domain.members()) ** arity <= _GRID_BLOCK_CAP:
        axis = list(domain.members())
    else:
        per_axis = max(2, int(_GRID_BLOCK_CAP ** (1.0 / arity)))
        axis = _axis_points(domain, per_axis)
    return itertools.product(axis, repeat=arity)


def _dyadic_stream(domain: PointDomain, arity: int, count: int) -> Iterator[tuple]:
    if domain.is_discrete:
        # Exhaustive and finite.  A tuple of lexicographic rank below count
        # uses only the first count members, hence the cut.
        yield from itertools.product(domain.members()[:count], repeat=arity)
        return
    lo, hi = domain.lo, domain.hi
    known: set[float] = set()
    for level in itertools.count(1):
        n = 2 ** level
        axis = [lo + (hi - lo) * i / n for i in range(n + 1)]
        if any(x not in known for x in axis):
            # Emit only tuples that use at least one fresh coordinate, in
            # lexicographic order over the refined axis.
            for tup in itertools.product(axis, repeat=arity):
                if any(x not in known for x in tup):
                    yield tup
            known = set(axis)


def sample_tuples(domain: PointDomain, arity: int, cfg: SampleConfig) -> list[tuple]:
    """Materialize the first ``cfg.count`` tuples of the configured stream.

    Pinned tuples of the requested arity come first and count toward the
    total; pins of other arities are ignored, so one pinned pool can serve
    checks that sample several tuple shapes.  A finite stream (exhaustive
    discrete grid) may yield fewer than ``count`` tuples.
    """
    if arity < 1:
        raise ConfigurationError("tuple arity must be >= 1")
    pinned = tuple(t for t in cfg.pinned if len(t) == arity)
    for tup in pinned:
        for x in tup:
            if not domain.contains(x):
                raise DomainError(f"pinned tuple {tup!r} leaves the domain")
    if cfg.strategy == "stratified_grid":
        stream = itertools.chain(pinned, _dyadic_stream(domain, arity, cfg.count))
        return list(itertools.islice(stream, cfg.count))
    head = list(pinned[:cfg.count])
    if cfg.strategy == "grid_plus_random":
        head.extend(itertools.islice(_grid_block(domain, arity), cfg.count - len(head)))
    head.extend(_random_tuples(domain, arity, cfg.seed, cfg.count - len(head)))
    return head

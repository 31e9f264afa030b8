"""Deterministic tuple sampling for the audit checks.

A sample is the first ``count`` tuples of one stream determined by
(domain, arity, seed, strategy, pinned): the pinned tuples of that arity,
then the strategy's tuples.  Prefix stability gives two guarantees the
auditors rely on:

* replay: identical configurations enumerate identical tuples, and
* monotonicity: raising ``count`` only appends tuples, so a witness found
  at some count can never disappear at a larger one.

Strategies:

* ``uniform_random``: seeded independent draws, drawn a chunk of ``CHUNK``
  tuples at a time; a discrete domain draws ``members[randrange(len(members))]``,
  computed from the same ``getrandbits`` words as ``randrange`` with no
  Python call per draw.
* ``stratified_grid``: the full lexicographic product of a finite domain;
  the stream is finite, which makes exhaustive checks possible.  A real
  interval has no such product and is a configuration error.
* ``grid_plus_random``: a bounded coarse lattice that always contains the
  domain corners, followed by the uniform random stream.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections.abc import Iterator, Sequence

from .errors import ConfigurationError, DomainError
from .spaces import PointDomain, Record

__all__ = ["SampleConfig", "sample_tuples", "STRATEGIES"]

STRATEGIES = ("uniform_random", "stratified_grid", "grid_plus_random")

# The coarse block of grid_plus_random is capped so that high arities stay cheap.
_GRID_BLOCK_CAP = 4096
CHUNK = 1024  # tuples per chunk, so per-chunk lists stay small


class SampleConfig(Record):
    """Provenance of a sampled check: seed, tuple count, strategy, and an
    optional tuple of pinned tuples enumerated ahead of the stream."""

    seed: int = 42
    count: int = 10000
    strategy: str = "grid_plus_random"
    pinned: tuple = ()

    def __post_init__(self):
        if type(self.seed) is not int or not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if type(self.count) is not int or not 0 <= self.count <= sys.maxsize:
            raise ConfigurationError(
                f"sample count must be an integer in [0, {sys.maxsize}], got {self.count!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        try:
            pinned = tuple(self.pinned)
        except TypeError:  # not iterable
            pinned = (None,)
        if not all(isinstance(t, (tuple, list)) for t in pinned):
            raise ConfigurationError(
                f"pinned must be an iterable of tuples or lists, got {self.pinned!r}")
        object.__setattr__(self, "pinned", tuple(map(tuple, pinned)))


def _rng_for(seed: int, arity: int) -> random.Random:
    # Mix the arity into the seed so streams of different tuple shapes differ.
    return random.Random((seed * 1000003 + arity) % 2 ** 64)


def _discrete_draws(members: Sequence, rng: random.Random) -> Iterator:
    """members[rng.randrange(n)] over and over, n = len(members): like it,
    draw getrandbits(n.bit_length()) words and keep those below n."""
    n = len(members)
    return map(members.__getitem__,
               filter(n.__gt__, map(rng.getrandbits, itertools.repeat(n.bit_length()))))


def _axis_points(domain: PointDomain, per_axis: int) -> list:
    if domain.is_discrete:
        members = domain.members()
        step = (len(members) - 1) / (per_axis - 1)
        return [members[round(i * step)] for i in range(per_axis)]
    lo, hi, width, n = domain.lo, domain.hi, domain.hi - domain.lo, per_axis - 1
    # width * i overflows on the widest intervals, where width * (i / n) does
    # not; min keeps a point that rounds up past hi in the domain.
    return [min(hi, lo + (width * i / n if width * i < math.inf else width * (i / n)))
            for i in range(per_axis)]


def _grid_block(domain: PointDomain, arity: int) -> Iterator[tuple]:
    if domain.is_discrete and len(domain.members()) ** arity <= _GRID_BLOCK_CAP:
        axis = list(domain.members())
    else:
        per_axis = max(2, int(_GRID_BLOCK_CAP ** (1.0 / arity)))
        axis = _axis_points(domain, per_axis)
    return itertools.product(axis, repeat=arity)


def _chunks(domain: PointDomain, arity: int, cfg: SampleConfig,
            part: int | None = None) -> Iterator[list[tuple]]:
    """The tuples of sample_tuples, validated now and drawn as they are read,
    CHUNK at a time.  Part 0 or 1 yields only the even or the odd chunks and
    skips the draws of the others, leaving the generator as drawing them
    would: a discrete domain draws and drops them, and an interval takes the
    64 bits of each of their random() calls in one getrandbits call."""
    if type(arity) is not int or arity < 1:
        raise ConfigurationError(f"tuple arity must be an integer >= 1, got {arity!r}")
    pinned = tuple(t for t in cfg.pinned if len(t) == arity)
    for tup in pinned:
        for x in tup:
            if not domain.contains(x):
                raise DomainError(f"pinned tuple {tup!r} leaves the domain")
    if cfg.strategy == "stratified_grid":
        # members() rejects a real interval.  A tuple of lexicographic rank
        # below count uses only the first count members, hence the cut.
        grid = itertools.product(domain.members()[:cfg.count], repeat=arity)
        draw = skip = lambda k: ()  # the stream ends with the grid
    else:
        grid = _grid_block(domain, arity) if cfg.strategy == "grid_plus_random" else ()
        rng = _rng_for(cfg.seed, arity)
        if domain.is_discrete:  # on range(max + 1), what randint(0, max) draws
            points = _discrete_draws(domain.members(), rng)
            draw = skip = lambda k: list(itertools.islice(points, k))
        else:  # lo + (hi - lo) * random() is what uniform(lo, hi) computes
            lo, width = domain.lo, domain.hi - domain.lo
            draw = lambda k: [lo + width * u
                              for u in itertools.starmap(rng.random, itertools.repeat((), k))]
            skip = lambda k: rng.getrandbits(64 * k)
    head = itertools.chain(pinned, grid)

    def read():
        for start in range(0, cfg.count, CHUNK):
            size = min(CHUNK, cfg.count - start)
            chunk = list(itertools.islice(head, size))
            if part is None or start // CHUNK % 2 == part:
                chunk += zip(*[iter(draw((size - len(chunk)) * arity))] * arity)
                if not chunk:  # a finite stream ended
                    return
                yield chunk
            else:
                skip((size - len(chunk)) * arity)
    return read()


def sample_tuples(domain: PointDomain, arity: int, cfg: SampleConfig) -> list[tuple]:
    """The first ``cfg.count`` tuples of the configured stream, as a list.

    Pinned tuples of the requested arity come first and count toward the
    total; pins of other arities are ignored, so one pinned pool can serve
    checks that sample several tuple shapes.  A finite stream (exhaustive
    discrete grid) may yield fewer than ``count`` tuples.
    """
    return list(itertools.chain.from_iterable(_chunks(domain, arity, cfg)))

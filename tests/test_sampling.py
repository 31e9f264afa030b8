import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmetric import (ConfigurationError, DomainError, PointDomain,
                      SampleConfig, sample_tuples, sampling)

INTERVAL = PointDomain.real_interval(0.0, 1.0)
NATS = PointDomain.naturals_up_to(4)
FINITE = PointDomain.finite_real_set([0.5, 1.5, 2.5])
# stratified_grid needs a finite domain; this one's product is cut by the
# counts below (41 ** 2 pairs, 41 ** 3 triples).
WIDE_NATS = PointDomain.naturals_up_to(40)


@pytest.mark.parametrize("strategy", ["uniform_random", "stratified_grid", "grid_plus_random"])
@pytest.mark.parametrize("domain", [INTERVAL, NATS, FINITE])
def test_replay_is_exact(strategy, domain):
    if strategy == "stratified_grid" and domain is INTERVAL:
        domain = WIDE_NATS
    cfg = SampleConfig(seed=7, count=500, strategy=strategy)
    assert sample_tuples(domain, 3, cfg) == sample_tuples(domain, 3, cfg)


@pytest.mark.parametrize("strategy", ["uniform_random", "stratified_grid", "grid_plus_random"])
def test_count_growth_only_appends(strategy):
    domain = WIDE_NATS if strategy == "stratified_grid" else INTERVAL
    small = SampleConfig(seed=3, count=400, strategy=strategy)
    large = SampleConfig(seed=3, count=800, strategy=strategy)
    a = sample_tuples(domain, 2, small)
    b = sample_tuples(domain, 2, large)
    assert len(a) == 400
    assert b[:len(a)] == a


@pytest.mark.parametrize("domain", [INTERVAL, NATS, FINITE])
def test_samples_stay_in_domain(domain):
    cfg = SampleConfig(seed=11, count=300)
    for tup in sample_tuples(domain, 4, cfg):
        assert all(domain.contains(x) for x in tup)


def test_naturals_are_exact_integers():
    cfg = SampleConfig(seed=1, count=200, strategy="uniform_random")
    for tup in sample_tuples(NATS, 2, cfg):
        assert all(isinstance(x, int) for x in tup)


def test_discrete_grid_is_exhaustive():
    cfg = SampleConfig(seed=0, count=10 ** 6, strategy="stratified_grid")
    tuples = sample_tuples(NATS, 2, cfg)
    assert len(tuples) == 25
    assert set(tuples) == set(itertools.product(range(5), repeat=2))


def test_discrete_grid_exhausts_quadruples():
    cfg = SampleConfig(seed=0, count=10 ** 6, strategy="stratified_grid")
    tuples = sample_tuples(NATS, 4, cfg)
    assert len(tuples) == 5 ** 4
    assert len(set(tuples)) == 5 ** 4


def test_stratified_grid_rejects_a_real_interval():
    cfg = SampleConfig(count=10, strategy="stratified_grid")
    with pytest.raises(ConfigurationError, match="no finite member list"):
        sample_tuples(INTERVAL, 2, cfg)


def test_grid_block_contains_corners():
    cfg = SampleConfig(seed=5, count=5000, strategy="grid_plus_random")
    tuples = sample_tuples(INTERVAL, 3, cfg)
    assert (0.0, 0.0, 0.0) in tuples
    assert (1.0, 1.0, 1.0) in tuples


@pytest.mark.parametrize("lo, hi", [(0.0, 1.7e308), (-1.7e308, 0.0), (-8.9e307, 8.9e307),
                                    (1.0, sys.float_info.max), (0.1, 0.3)])
@pytest.mark.parametrize("arity", [1, 2, 3, 4, 6])
def test_grid_block_stays_in_domain_on_wide_intervals(lo, hi, arity):
    # (hi - lo) * i overflows on all but the last interval.
    domain = PointDomain.real_interval(lo, hi)
    block = list(sampling._grid_block(domain, arity))
    assert all(domain.contains(x) for tup in block for x in tup)
    assert (lo,) * arity in block and (hi,) * arity in block
    axis = sorted({tup[0] for tup in block})
    assert len(axis) == max(2, int(4096 ** (1.0 / arity)))


def test_grid_block_keeps_its_points_where_the_product_is_finite():
    lo, hi, n = 1.0, 100.0, 15
    assert sampling._axis_points(PointDomain.real_interval(lo, hi), n + 1) == [
        lo + (hi - lo) * i / n for i in range(n + 1)]


def test_grid_block_of_a_two_element_set_at_high_arity_is_its_full_product():
    # 2 ** 13 tuples exceed the block cap, and the axis keeps both elements.
    pair = PointDomain.finite_real_set([0.0, 2.0])
    assert list(sampling._grid_block(pair, 13)) == list(itertools.product([0.0, 2.0], repeat=13))


def test_pinned_tuples_lead_the_stream():
    pins = ((0.25, 0.75), (0.5, 0.5))
    cfg = SampleConfig(seed=5, count=100, pinned=pins)
    tuples = sample_tuples(INTERVAL, 2, cfg)
    assert tuple(tuples[:2]) == pins


@pytest.mark.parametrize("strategy", ["uniform_random", "stratified_grid", "grid_plus_random"])
def test_pinned_tuples_lead_every_strategy_s_stream(strategy):
    pins = ((3, 1), (0, 0), (3, 1))
    cfg = SampleConfig(seed=5, count=1000, strategy=strategy, pinned=pins)
    tuples = sample_tuples(WIDE_NATS, 2, cfg)
    assert tuple(tuples[:3]) == pins and len(tuples) == 1000
    assert tuples[3:] == sample_tuples(WIDE_NATS, 2, SampleConfig(seed=5, count=997,
                                                                  strategy=strategy))


def test_pinned_other_arities_are_skipped():
    cfg = SampleConfig(seed=5, count=10, pinned=((0.1, 0.2, 0.3),))
    pairs = sample_tuples(INTERVAL, 2, cfg)
    assert (0.1, 0.2, 0.3) not in pairs
    triples = sample_tuples(INTERVAL, 3, cfg)
    assert triples[0] == (0.1, 0.2, 0.3)


def test_pinned_must_live_in_domain():
    cfg = SampleConfig(seed=5, count=10, pinned=((2.0, 0.5),))
    with pytest.raises(DomainError):
        sample_tuples(INTERVAL, 2, cfg)


@pytest.mark.parametrize("arity, cfg, error", [
    (0, SampleConfig(), ConfigurationError),
    (2, SampleConfig(pinned=((2.0, 0.5),)), DomainError),
    (2, SampleConfig(strategy="stratified_grid"), ConfigurationError),
], ids=["arity", "pinned", "stratified-interval"])
def test_a_bad_stream_raises_when_requested(arity, cfg, error):
    # Not when first read: the audit requests each stream before its kernels
    # run, so a configuration error comes first, as with a drawn list.
    with pytest.raises(error):
        sampling._chunks(INTERVAL, arity, cfg)


@pytest.mark.parametrize("pinned", [(0.5,), 5, "ab", ((0.5, 0.5), 0.5), [None]],
                         ids=["floats", "int", "str", "tuple-then-float", "none"])
def test_pinned_must_be_an_iterable_of_tuples_or_lists(pinned):
    with pytest.raises(ConfigurationError, match="pinned"):
        SampleConfig(pinned=pinned)


def test_pinned_lists_and_iterables_become_tuples():
    cfg = SampleConfig(pinned=iter([[0.25, 0.75], (0.5, 0.5)]))
    assert cfg.pinned == ((0.25, 0.75), (0.5, 0.5))


def test_config_validation():
    for seed in (-1, 2 ** 64, 2.5, True, "a"):
        with pytest.raises(ConfigurationError, match="seed"):
            SampleConfig(seed=seed)
    assert SampleConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    with pytest.raises(ConfigurationError):
        SampleConfig(count=-5)
    for count in (2 ** 63, 2.5, 3.0, True, "10"):
        with pytest.raises(ConfigurationError, match="sample count"):
            SampleConfig(count=count)
    assert SampleConfig(count=sys.maxsize).count == sys.maxsize
    with pytest.raises(ConfigurationError):
        SampleConfig(strategy="lattice")
    with pytest.raises(ConfigurationError):
        sample_tuples(INTERVAL, 0, SampleConfig())


def _reference_sample(domain, arity, cfg):
    """Draw-by-draw reference: pinned tuples, the grid block, then one
    ``uniform``, ``randint`` or ``randrange`` call per coordinate."""
    out = [t for t in cfg.pinned if len(t) == arity][:cfg.count]
    if cfg.strategy == "grid_plus_random":
        for tup in sampling._grid_block(domain, arity):
            if len(out) == cfg.count:
                break
            out.append(tup)
    rng = sampling._rng_for(cfg.seed, arity)

    def draw():
        if domain.kind == "real_interval":
            return rng.uniform(domain.lo, domain.hi)
        if domain.kind == "naturals_up_to":
            return rng.randint(0, domain.max_value)
        return domain.elements[rng.randrange(len(domain.elements))]

    while len(out) < cfg.count:
        out.append(tuple(draw() for _ in range(arity)))
    return out


@pytest.mark.parametrize("strategy", ["uniform_random", "grid_plus_random"])
@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("domain", [PointDomain.real_interval(-0.25, 3.0),
                                    PointDomain.naturals_up_to(7), FINITE],
                         ids=["interval", "naturals", "finite"])
def test_batch_draw_matches_draw_by_draw_reference(domain, arity, strategy):
    corner = tuple(domain.members()[-1] if domain.is_discrete else domain.hi
                   for _ in range(arity))
    # Counts 0 and 1, one above every grid block (at most 4096 tuples), and
    # both sides of one and two chunks after the pins and grid block; the
    # last pinned pool is longer than the smallest counts.
    grid = len(list(sampling._grid_block(domain, arity))) if strategy == "grid_plus_random" else 0
    batch = sampling.CHUNK
    for pinned in ((), (corner,), (corner,) * 3):
        head = grid + len(pinned)
        for count in (0, 1, 4100, head + batch - 1, head + batch, head + batch + 1,
                      head + 2 * batch - 1, head + 2 * batch, head + 2 * batch + 1):
            cfg = SampleConfig(seed=count + len(pinned), count=count,
                               strategy=strategy, pinned=pinned)
            got = sample_tuples(domain, arity, cfg)
            want = _reference_sample(domain, arity, cfg)
            assert got == want
            assert [tuple(map(type, t)) for t in got] == \
                [tuple(map(type, t)) for t in want]


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 7, 30, 200])
def test_discrete_grid_prefix_uses_only_the_needed_members(arity, count):
    domain = PointDomain.naturals_up_to(20)
    cfg = SampleConfig(count=count, strategy="stratified_grid")
    full = itertools.product(domain.members(), repeat=arity)
    assert sample_tuples(domain, arity, cfg) == list(itertools.islice(full, count))


def test_discrete_grid_on_a_huge_naturals_domain():
    # The full product would materialize range(2**40 + 1) first.
    domain = PointDomain.naturals_up_to(2 ** 40)
    cfg = SampleConfig(count=5, strategy="stratified_grid")
    assert sample_tuples(domain, 2, cfg) == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]


@pytest.mark.parametrize("n", [1, 2, 3, 51, 64, 65, 2 ** 32, 2 ** 32 + 1, 2 ** 53 + 1])
def test_discrete_draws_are_randrange_draws(n):
    # The same values from the same words: both rules leave the generator in
    # the same state, at member counts on both sides of powers of two.
    for seed in (0, 1, 7, 2 ** 63 + 5):
        ours, reference = random.Random(seed), random.Random(seed)
        draws = list(itertools.islice(sampling._discrete_draws(range(n), ours), 500))
        assert draws == [reference.randrange(n) for _ in range(500)]
        assert ours.getstate() == reference.getstate()


def test_an_interval_skip_leaves_the_generator_as_its_random_calls_would():
    # getrandbits(64 * n) takes 2n words, as n random() calls do.
    for seed in (0, 1, 2 ** 63 + 5):
        for n in (0, 1, 2, 1023, 4096):
            ours, reference = random.Random(seed), random.Random(seed)
            ours.getrandbits(64 * n)
            for _ in range(n):
                reference.random()
            assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("domain", [INTERVAL, NATS, FINITE], ids=["interval", "naturals", "finite"])
def test_chunks_hold_chunk_tuples_up_to_the_count(domain):
    # A one-tuple sample draws one tuple, not a whole chunk.
    chunk = sampling.CHUNK
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        cfg = SampleConfig(seed=11, count=count, strategy="uniform_random")
        sizes = [len(c) for c in sampling._chunks(domain, 3, cfg)]
        assert sizes == [chunk] * (count // chunk) + [count % chunk] * (count % chunk > 0)


def _comprehension_stream(domain, arity, seed):
    """The random stream as it was drawn before chunks: one rng.random() call
    per draw, from a comprehension over a range."""
    rng = sampling._rng_for(seed, arity)
    points = sampling._discrete_draws(domain.members(), rng) if domain.is_discrete else None
    while True:
        if domain.is_discrete:
            draws = list(itertools.islice(points, arity))
        else:
            lo, width, rand = domain.lo, domain.hi - domain.lo, rng.random
            draws = [lo + width * rand() for _ in range(arity)]
        yield tuple(draws)


@pytest.mark.parametrize("domain", [
    PointDomain.real_interval(-0.25, 3.0),
    PointDomain.real_interval(-sys.float_info.max / 4, sys.float_info.max / 4), NATS, FINITE,
], ids=["interval", "wide", "naturals", "finite"])
def test_random_chunks_equal_the_comprehension_they_replace(domain):
    # The first 1100 tuples: into the second chunk of 1024 tuples.
    def typed(tuples):
        return [tuple((type(x), float(x).hex()) for x in t) for t in tuples]
    for seed in range(32):
        for arity in (1, 2, 3, 4):
            cfg = SampleConfig(seed=seed, count=1100, strategy="uniform_random")
            assert typed(sample_tuples(domain, arity, cfg)) == \
                typed(itertools.islice(_comprehension_stream(domain, arity, seed), 1100))


# Every domain kind; stratified_grid needs a finite one.  Its product of
# 5 ** 5 tuples ends in the fourth chunk, an odd one.
_PART_DOMAINS = [PointDomain.real_interval(-0.25, 3.0), PointDomain.naturals_up_to(6),
                 PointDomain.finite_real_set([0.5, 1.5, 2.5, 9.0, 11.0])]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(domain=st.sampled_from(_PART_DOMAINS), arity=st.integers(1, 5),
       strategy=st.sampled_from(sampling.STRATEGIES), seed=st.integers(0, 2 ** 64 - 1),
       pins=st.integers(0, 3), data=st.data())
def test_the_two_parts_interleave_to_the_serial_chunks(domain, arity, strategy, seed, pins,
                                                       data):
    # Counts off and on multiples of CHUNK, and at the grid block's edge.
    if strategy == "stratified_grid" and not domain.is_discrete:
        domain = _PART_DOMAINS[1]
    block = len(list(sampling._grid_block(domain, arity))) + pins
    edges = [n for k in range(1, 6) for n in (k * sampling.CHUNK - 1, k * sampling.CHUNK,
                                              k * sampling.CHUNK + 1)]
    count = data.draw(st.one_of(st.integers(0, 6 * sampling.CHUNK), st.sampled_from(edges),
                                st.sampled_from([block - 1, block, block + 1])))
    corner = tuple(domain.members()[-1] if domain.is_discrete else domain.hi
                   for _ in range(arity))
    cfg = SampleConfig(seed=seed, count=count, strategy=strategy, pinned=(corner,) * pins)
    serial = list(sampling._chunks(domain, arity, cfg))
    even, odd = (list(sampling._chunks(domain, arity, cfg, part)) for part in (0, 1))
    assert even == serial[0::2] and odd == serial[1::2]
    assert [tuple(map(type, t)) for c in even + odd for t in c] == \
        [tuple(map(type, t)) for c in serial[0::2] + serial[1::2] for t in c]

import itertools
import random
import sys

import pytest

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
        sampling._stream(INTERVAL, arity, cfg)


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
    # both sides of one and two draw batches after the pins and grid block;
    # the last pinned pool is longer than the smallest counts.
    grid = len(list(sampling._grid_block(domain, arity))) if strategy == "grid_plus_random" else 0
    batch = sampling._DRAW_BATCH
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


@pytest.mark.parametrize("domain", [INTERVAL, NATS, FINITE], ids=["interval", "naturals", "finite"])
def test_random_batches_double_from_one_tuple(domain):
    # A one-tuple sample draws one tuple, not a whole batch.
    batches = sampling._random_batches(domain, 3, 11)
    sizes = [len(list(next(batches))) for _ in range(11)]
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256]
    assert sampling._DRAW_BATCH == 256


def _comprehension_batches(domain, arity, seed):
    """_random_batches as it drew an interval before: one rng.random() call
    per draw, from a comprehension over a range."""
    rng, size = sampling._rng_for(seed, arity), 1
    points = sampling._discrete_draws(domain.members(), rng) if domain.is_discrete else None
    while True:
        span, size = range(size * arity), min(2 * size, sampling._DRAW_BATCH)
        if domain.is_discrete:
            draws = list(itertools.islice(points, len(span)))
        else:
            lo, width, rand = domain.lo, domain.hi - domain.lo, rng.random
            draws = [lo + width * rand() for _ in span]
        yield zip(*[iter(draws)] * arity)


@pytest.mark.parametrize("domain", [
    PointDomain.real_interval(-0.25, 3.0),
    PointDomain.real_interval(-sys.float_info.max / 4, sys.float_info.max / 4), NATS, FINITE,
], ids=["interval", "wide", "naturals", "finite"])
def test_random_batches_equal_the_comprehension_they_replace(domain):
    # The first 300 tuples: into the first batch of 256 tuples, at 255.
    def stream(batches):
        return [tuple((type(x), float(x).hex()) for x in t)
                for t in itertools.islice(itertools.chain.from_iterable(batches), 300)]
    for seed in range(128):
        for arity in (1, 2, 3, 4):
            assert stream(sampling._random_batches(domain, arity, seed)) == \
                stream(_comprehension_batches(domain, arity, seed))

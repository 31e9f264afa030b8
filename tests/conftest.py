import os

import pytest
from hypothesis import settings

from csmetric import (ComposedSpace, PointDomain, SampleConfig, TripleMetric,
                      make_alpha, make_builtin_space)

# HYPOTHESIS_PROFILE=ci runs the property tests that set no max_examples of
# their own, the fused-against-checked differential test among them, on five
# times as many examples.
settings.register_profile("ci", max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def app_space():
    return make_builtin_space("app_metric")


@pytest.fixture
def squared_diff_space():
    return make_builtin_space("squared_diff", [1, 100])


@pytest.fixture
def discrete_space():
    return make_builtin_space("discrete_nat", [10])


@pytest.fixture
def cfg_small():
    return SampleConfig(seed=42, count=2000)


@pytest.fixture
def broken_pair_distance_space():
    """Vanishes on any triple with equal first two entries, so the identity
    axiom fails; witness pinned in the tests."""
    metric = TripleMetric(id="broken_pair_distance", fn=lambda q, h, w: abs(q - h))
    domain = PointDomain.real_interval(0.0, 10.0)
    return ComposedSpace(domain, metric, make_alpha("identity"), symmetric_claim=False)


@pytest.fixture
def asymmetric_space():
    """C(q, h, w) = max(0, q + 2h - 3w); brute force over a 10-point grid
    pinned (0, 1) as a symmetry witness: C(0,0,1) = 0 vs C(1,1,0) = 3."""
    metric = TripleMetric(id="clipped_plane", fn=lambda q, h, w: max(0.0, q + 2.0 * h - 3.0 * w))
    domain = PointDomain.real_interval(0.0, 1.0)
    return ComposedSpace(domain, metric, make_alpha("identity"), symmetric_claim=False)

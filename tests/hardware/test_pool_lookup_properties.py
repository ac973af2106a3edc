"""The bisect pool lookup answers exactly as the seed's comparison loop.

:meth:`~repro.hardware.profiles.ProfileService.get_hw_pool` finds a
rate's pool by bisecting precomputed per-node rate ceilings; the seed
compared every node's sweet-spot goodput against the rate on each call
(:func:`~tests.oracles.reference_policy.reference_hw_pool`).  The two
must agree on every rate, above all on the rates where a node enters or
leaves the pool: each ceiling and its ``nextafter`` neighbours.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.profiles import ProfileService
from repro.workloads.models import ALL_MODELS
from tests.oracles.reference_policy import reference_hw_pool

PROFILES = ProfileService()
SLO_SECONDS = 0.2
#: (headroom, cpu_headroom): the defaults, then no GPU / no margin at all.
HEADROOMS = [(1.25, 1.5), (1.0, 1.5), (1.0, 1.0)]
CASES = [
    pytest.param(model, h, ch, id=f"{model.name}-{h}-{ch}")
    for model in ALL_MODELS
    for h, ch in HEADROOMS
]


def _names(pool):
    return [hw.name for hw in pool]


def _agree(model, rate, headroom, cpu_headroom):
    got = PROFILES.get_hw_pool(model, rate, SLO_SECONDS, headroom, cpu_headroom)
    want = reference_hw_pool(
        PROFILES, model, rate, SLO_SECONDS, headroom, cpu_headroom
    )
    assert _names(got) == _names(want), f"rate {rate!r}"


def _edge_rates(model, headroom, cpu_headroom):
    """0, +inf, and every node's ceiling with its two neighbours — both
    the precomputed ceilings and ``sweet / headroom`` from first
    principles."""
    rates = {0.0, math.inf}
    pivots = set(
        PROFILES.hw_pools(model, SLO_SECONDS, headroom, cpu_headroom).ceilings
    )
    for hw in PROFILES.catalog:
        sweet = PROFILES.sweet_spot_rps(model, hw, SLO_SECONDS)
        pivots.add(sweet / (headroom if hw.is_gpu else cpu_headroom))
    for c in pivots:
        if math.isfinite(c) and c > 0.0:
            rates |= {c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf)}
    return sorted(rates)


@pytest.mark.parametrize("model, headroom, cpu_headroom", CASES)
def test_pool_matches_seed_loop_at_every_ceiling(model, headroom, cpu_headroom):
    for rate in _edge_rates(model, headroom, cpu_headroom):
        _agree(model, rate, headroom, cpu_headroom)


@pytest.mark.parametrize("model, headroom, cpu_headroom", CASES)
@given(
    rate=st.one_of(
        st.floats(min_value=0.0, max_value=2000.0),
        st.floats(min_value=0.0, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_pool_matches_seed_loop_at_random_rates(model, headroom, cpu_headroom, rate):
    _agree(model, rate, headroom, cpu_headroom)


def test_each_ceiling_closes_its_pool():
    """A ceiling is the last rate its pool answers; the next double
    belongs to the next pool (the fallback after the last ceiling)."""
    for model in ALL_MODELS:
        pools = PROFILES.hw_pools(model, SLO_SECONDS)
        assert len(pools.pools) == len(pools.ceilings) + 1
        for i, c in enumerate(pools.ceilings):
            assert pools.lookup(c)[0] == i
            assert pools.lookup(math.nextafter(c, math.inf))[0] == i + 1

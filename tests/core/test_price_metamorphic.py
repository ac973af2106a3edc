"""Metamorphic test of Algorithm 1: doubling every price changes only cost.

``choose_best_HW`` ranks candidates by latency and, inside the
cost/performance window, by price.  Scaling every ``price_per_hour`` by
the same positive factor preserves every price comparison, so every
decision, and hence every request's latency and the switch log, must be
unchanged, while the bill scales by that factor.  A factor of 2 is exact
in IEEE-754 (it only bumps the exponent), so the comparison is exact too:
any difference at all is a real dependence on absolute prices.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.catalog import HardwareCatalog, default_catalog
from repro.hardware.profiles import ProfileService
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace


def run_with_prices(model_name, factor, seed):
    catalog = HardwareCatalog(
        dataclasses.replace(spec, price_per_hour=spec.price_per_hour * factor)
        for spec in default_catalog()
    )
    profiles = ProfileService(catalog)
    model = get_model(model_name)
    slo = SLO()
    trace = azure_trace(peak_rps=model.peak_rps, duration=120.0, seed=seed)
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return ServerlessRun(
        model, trace, policy, profiles, slo, RunConfig(seed=seed)
    ).execute()


@pytest.mark.parametrize("model_name, seed", [("resnet50", 3), ("bert", 1)])
def test_doubling_every_price_only_doubles_cost(model_name, seed):
    base = run_with_prices(model_name, 1.0, seed)
    doubled = run_with_prices(model_name, 2.0, seed)

    base_lat = np.asarray(base.metrics.latencies(), dtype=np.float64)
    doubled_lat = np.asarray(doubled.metrics.latencies(), dtype=np.float64)
    assert base_lat.tobytes() == doubled_lat.tobytes()
    assert doubled.switch_log == base.switch_log
    assert len(base.switch_log) > 1  # the run actually made decisions
    assert doubled.total_cost == 2.0 * base.total_cost

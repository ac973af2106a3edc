"""Golden bit-identity: the vectorized policy core vs the seed oracle.

The vectorized-policy-core PR rewrote Algorithm 1's candidate scan as a
columnar :class:`~repro.core.hardware_selection.CandidateTable`, batched
the Equation-(1) solve over a ``(candidates x y)`` grid, and memoised
split decisions and window plans.  Its contract is *bit identity*: every
per-request completion time and the run's total cost must carry the
exact IEEE-754 bits the seed stack produces.

The oracle here is the full seed stack from ``tests/oracles/`` —
:class:`~tests.oracles.reference_simulator.ReferenceSimulator` (the
preserved seed engine) driving the reference policies of
:mod:`tests.oracles.reference_policy` (the seed's uncached row-by-row
scan and per-call solves).  The candidate stack is the production one:
the tuple-heap :class:`~repro.simulator.engine.Simulator` with the
columnar policy core.

Covered regimes: every model in the catalog (all 16, Azure-signature
traces), chaos injection (crashes + slowdowns + MPS faults), retry-based
resilience, the contention-aware and Oracle policy variants, and
multi-model co-location.
"""

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import ResilienceConfig
from repro.experiments.schemes import make_policy
from repro.framework.multimodel import Deployment, MultiModelRun
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import ChaosSpec, MPSFaults, Slowdowns, StochasticCrashes
from repro.simulator.engine import Simulator
from repro.workloads.models import ALL_MODELS, get_model
from repro.workloads.traces import azure_trace, constant_trace, poisson_trace
from tests.oracles.reference_policy import (
    ReferenceHardwareSelector,
    ReferencePaldiaPolicy,
    make_reference_policy,
)
from tests.oracles.reference_simulator import ReferenceSimulator


def _execute(model_name, *, scheme, reference, duration, trace_kind,
             seed, config=None):
    """One full run on the chosen stack; returns the RunResult.

    ``reference`` selects the whole stack: the seed oracle pairs the
    reference engine with the reference policy, the candidate pairs the
    tuple-heap engine with the production policy.
    """
    model = get_model(model_name)
    profiles = ProfileService()
    slo = SLO()
    if trace_kind == "poisson":
        trace = poisson_trace(
            rate_rps=model.peak_rps, duration=duration, seed=seed
        )
    else:
        trace = azure_trace(
            peak_rps=model.peak_rps, duration=duration, seed=seed
        )
    make = make_reference_policy if reference else make_policy
    policy = make(scheme, model, profiles, slo.target_seconds, trace)
    assert isinstance(policy.selector, ReferenceHardwareSelector) == reference
    cfg = config if config is not None else RunConfig(seed=seed)
    sim = ReferenceSimulator() if reference else Simulator()
    return ServerlessRun(
        model, trace, policy, profiles, slo, cfg, sim=sim
    ).execute()


def _assert_bit_identical(oracle, candidate):
    """Per-request completion times and total cost, bit for bit."""
    ref = np.asarray(oracle.metrics.latencies(), dtype=np.float64)
    new = np.asarray(candidate.metrics.latencies(), dtype=np.float64)
    assert ref.shape == new.shape, (
        f"request counts diverge: {ref.shape} vs {new.shape}"
    )
    assert ref.tobytes() == new.tobytes(), (
        "per-request latencies are not bit-identical "
        f"(max |delta| = {np.max(np.abs(ref - new)) if ref.size else 0.0})"
    )
    assert oracle.total_cost == candidate.total_cost
    assert oracle.completed_requests == candidate.completed_requests
    assert oracle.n_switches == candidate.n_switches
    assert oracle.cold_starts == candidate.cold_starts


@pytest.mark.parametrize("model_name", [m.name for m in ALL_MODELS])
def test_all_models_bit_identical(model_name):
    kw = dict(scheme="paldia", duration=20.0, trace_kind="azure", seed=4)
    oracle = _execute(model_name, reference=True, **kw)
    candidate = _execute(model_name, reference=False, **kw)
    _assert_bit_identical(oracle, candidate)


def test_chaos_bit_identical():
    def cfg():
        # A fresh config per stack: chaos state is mutable across a run.
        return RunConfig(
            seed=3,
            chaos=ChaosSpec(
                faults=(
                    StochasticCrashes(30.0, 10.0),
                    Slowdowns(20.0, 5.0, factor=2.0),
                    MPSFaults(40.0, 10.0),
                ),
                seed=7,
            ),
        )

    kw = dict(scheme="paldia", duration=40.0, trace_kind="poisson", seed=3)
    oracle = _execute("resnet50", reference=True, config=cfg(), **kw)
    candidate = _execute("resnet50", reference=False, config=cfg(), **kw)
    _assert_bit_identical(oracle, candidate)


def test_resilience_retry_bit_identical():
    def cfg():
        return RunConfig(
            seed=5,
            resilience=ResilienceConfig(recovery="retry"),
            chaos=ChaosSpec(faults=(StochasticCrashes(25.0, 8.0),), seed=11),
        )

    kw = dict(scheme="paldia", duration=40.0, trace_kind="poisson", seed=5)
    oracle = _execute("resnet50", reference=True, config=cfg(), **kw)
    candidate = _execute("resnet50", reference=False, config=cfg(), **kw)
    _assert_bit_identical(oracle, candidate)


def test_contention_aware_bit_identical():
    kw = dict(
        scheme="paldia_contention_aware", duration=30.0,
        trace_kind="poisson", seed=2,
    )
    oracle = _execute("resnet50", reference=True, **kw)
    candidate = _execute("resnet50", reference=False, **kw)
    _assert_bit_identical(oracle, candidate)


def test_oracle_policy_bit_identical():
    kw = dict(scheme="oracle", duration=30.0, trace_kind="azure", seed=6)
    oracle = _execute("resnet50", reference=True, **kw)
    candidate = _execute("resnet50", reference=False, **kw)
    _assert_bit_identical(oracle, candidate)


def _multimodel(policy_cls):
    profiles = ProfileService()
    slo = SLO()
    deps = []
    for name, rate in (("resnet50", 12.0), ("senet18", 8.0)):
        m = get_model(name)
        deps.append(
            Deployment(
                m,
                constant_trace(rate, 40.0),
                policy_cls(m, profiles, slo.target_seconds),
            )
        )
    return MultiModelRun(deps, profiles, slo).execute()


def test_multimodel_bit_identical():
    # MultiModelRun owns its engine, so both stacks share the tuple-heap
    # Simulator here; the engines' own bit-identity is certified by
    # test_golden_trace.py.  What this pins is the policy core: two
    # co-located production cores vs two reference cores.
    oracle = _multimodel(ReferencePaldiaPolicy)
    candidate = _multimodel(PaldiaPolicy)
    assert oracle.total_cost == candidate.total_cost
    for name in oracle.per_model:
        _assert_bit_identical(
            oracle.per_model[name], candidate.per_model[name]
        )

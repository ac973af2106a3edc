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
resilience, node outages and open circuit breakers (nodes the selector
must skip), the contention-aware and Oracle policy variants, and
multi-model co-location.
"""

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import BreakerPolicy, ResilienceConfig
from repro.experiments.schemes import make_policy
from repro.framework.multimodel import Deployment, MultiModelRun
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import (
    ChaosSpec,
    MPSFaults,
    PeriodicOutage,
    Slowdowns,
    StochasticCrashes,
)
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


@pytest.mark.parametrize("breaker", [False, True], ids=["outage", "breaker"])
def test_unavailable_nodes_bit_identical(breaker, monkeypatch):
    """Ticks whose unavailable set is non-empty: Fig 13b's outage marks
    the failed node, and (with a one-strike breaker) the node's breaker
    blocks it for the cooldown after each failure.  After each recovery
    the selector must not reuse a table built while the node was out."""
    seen = []
    unavailable = ServerlessRun._unavailable

    def spy(run):
        names = unavailable(run)
        blocked = [
            hw.name
            for hw in run.profiles.catalog
            if run.resilience is not None
            and run.resilience.target_blocked(hw.name, run.sim.now)
        ]
        seen.append((names, blocked))
        return names

    monkeypatch.setattr(ServerlessRun, "_unavailable", spy)

    def cfg():
        return RunConfig(
            seed=1,
            chaos=ChaosSpec(faults=(PeriodicOutage(120.0, 60.0, 60.0),)),
            resilience=ResilienceConfig(
                recovery="retry",
                breaker=BreakerPolicy(failure_threshold=1, cooldown_seconds=30.0),
            )
            if breaker
            else None,
        )

    kw = dict(scheme="paldia", duration=240.0, trace_kind="azure", seed=1)
    oracle = _execute("densenet121", reference=True, config=cfg(), **kw)
    candidate = _execute("densenet121", reference=False, config=cfg(), **kw)
    _assert_bit_identical(oracle, candidate)
    assert any(names for names, _ in seen)
    if breaker:
        assert any(blocked for _, blocked in seen)


def test_contention_aware_bit_identical():
    kw = dict(
        scheme="paldia_contention_aware", duration=30.0,
        trace_kind="poisson", seed=2,
    )
    oracle = _execute("resnet50", reference=True, **kw)
    candidate = _execute("resnet50", reference=False, **kw)
    _assert_bit_identical(oracle, candidate)


def test_contention_aware_colocated_bit_identical():
    """SeBS co-location moves the contention estimates between ticks, so
    the selector's memo must key on them."""
    kw = dict(
        scheme="paldia_contention_aware", duration=60.0,
        trace_kind="azure", seed=2,
    )
    oracle = _execute(
        "resnet50", reference=True,
        config=RunConfig(seed=2, sebs_colocation=True), **kw
    )
    candidate = _execute(
        "resnet50", reference=False,
        config=RunConfig(seed=2, sebs_colocation=True), **kw
    )
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

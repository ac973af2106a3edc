"""Cost-meter gates: conservation on a real run and zero disabled cost.

Two contracts from the cost-observability PR:

* **Conservation** — on a fixed mid-size traced scenario the meter's
  itemization accounts for every lease-second:
  ``sum(per-request busy dollars) + idle + coldstart + reconfig ==
  RunResult.total_cost`` to 1e-9 relative.  The line sweep assigns each
  instant of every lease to exactly one bucket, so this single identity
  is the whole "no dollar lost, no dollar double-counted" claim.
* **Zero disabled cost** — an untraced run (``Tracer`` absent)
  constructs no ``CostMeter``, executes no code from the ``costmeter``
  module, and produces bit-identical results.  (The meter is on
  whenever the tracer is.)  Gated on *work executed*
  (deterministic call counts via ``sys.setprofile``), the same way the
  self-profiler's disabled path is gated in ``test_bench_selfprof.py``.
"""

import math
import sys

import numpy as np

from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.telemetry import Tracer
from repro.telemetry.costmeter import CostMeter
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace

DURATION = 60.0


def run_once(tracer=None):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=DURATION, seed=0)
    policy = make_policy("paldia", model, profiles, slo.target_seconds, trace)
    run = ServerlessRun(model, trace, policy, profiles, slo, tracer=tracer)
    return run.execute(), run


def count_calls_into(fn, filename):
    """Python-level calls executed by ``fn`` whose code lives in
    ``filename`` (deterministic, unlike wall-clock)."""
    n = 0

    def profiler(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename == filename:
            n += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def test_traced_run_conserves_every_dollar():
    result, run = run_once(tracer=Tracer())
    bd = result.cost_breakdown
    assert bd is not None
    assert result.total_cost > 0
    residual = abs(bd.attributed_dollars() - result.total_cost)
    print(f"\ntotal ${result.total_cost:.6f}, "
          f"attribution residual {residual:.3e}")
    assert math.isclose(
        bd.attributed_dollars(), result.total_cost,
        rel_tol=1e-9, abs_tol=1e-12,
    )
    # The per-spec split agrees with the lease records the simulator
    # keeps independently.
    for spec, dollars in bd.spec_dollars.items():
        assert math.isclose(
            dollars, result.cost_by_spec[spec],
            rel_tol=1e-9, abs_tol=1e-12,
        )


def test_untraced_run_executes_no_costmeter_code():
    # The disabled-path contract, gated deterministically: without a
    # tracer the telemetry pillar is never set up, so a run never enters
    # the costmeter module — no CostMeter construction, no hooks.  Every
    # instrumented site pays one attribute load and one ``is None``
    # branch, neither of which is a function call.
    run_once()  # warm-up: lazy profile tables and allocator pools
    constructions = 0
    orig_init = CostMeter.__init__

    def counting_init(self, *a, **kw):
        nonlocal constructions
        constructions += 1
        return orig_init(self, *a, **kw)

    import repro.telemetry.costmeter as costmeter_module

    CostMeter.__init__ = counting_init
    try:
        meter_calls = count_calls_into(run_once, costmeter_module.__file__)
    finally:
        CostMeter.__init__ = orig_init
    print(f"\ncostmeter-module calls in untraced run: {meter_calls}, "
          f"CostMeter constructions: {constructions}")
    assert constructions == 0
    assert meter_calls == 0


def test_metered_run_is_bit_identical():
    # The meter observes billing events only; it must not perturb the
    # simulation.  Same seed, same trace => identical results with and
    # without the meter installed.
    plain, _ = run_once()
    metered, _ = run_once(tracer=Tracer())
    assert plain.total_cost == metered.total_cost
    assert plain.n_switches == metered.n_switches
    assert plain.cold_starts == metered.cold_starts
    assert np.array_equal(
        plain.metrics.latencies(), metered.metrics.latencies()
    )

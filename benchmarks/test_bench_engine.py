"""Engine dispatch-throughput benchmark and regression baseline.

The tuple-heap engine rewrite promises >=1.5x event-dispatch throughput
over the seed's dataclass-``Event`` engine.  This file measures that
claim directly against :class:`tests.oracles.reference_simulator.
ReferenceSimulator` (the seed engine, kept verbatim for exactly this
comparison) and records
the results in ``BENCH_engine.current.json``.

The recorded metric is the **new/reference speedup ratio**, not absolute
events/second: the ratio is machine-independent (both engines run
interleaved on the same core in the same process), so the committed
baseline ``benchmarks/BENCH_engine.json`` can gate regressions on any CI
runner.  ``tools/check_bench.py`` fails the build when a ratio drops more
than 25% below the baseline.

Like the telemetry-overhead bench, this uses paired best-of-N
``perf_counter`` timings rather than pytest-benchmark fixtures: ratio
assertions need the two variants timed back-to-back in the same process.
"""

import json
import os
from time import perf_counter

import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.slo import SLO
from repro.framework.system import ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.engine import Simulator
from repro.workloads.models import get_model
from repro.workloads.traces import poisson_trace
from tests.oracles.reference_policy import ReferencePaldiaPolicy
from tests.oracles.reference_simulator import ReferenceSimulator

ROUNDS = 5
#: Events per round for the flat (pre-scheduled, deep heap) micro bench.
N_FLAT = 200_000
#: Chain length for the schedule-inside-dispatch micro bench.
N_CHAIN = 150_000

#: Collected ``{name: {"value": ratio, ...}}`` entries, written to
#: ``BENCH_engine.current.json`` once the module finishes.
RESULTS = {}


def _out_path():
    return os.environ.get(
        "REPRO_BENCH_OUT",
        os.path.join(os.path.dirname(__file__), "BENCH_engine.current.json"),
    )


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if not RESULTS:
        return
    payload = {
        "schema": 1,
        "metric": "speedup ratio: reference engine time / new engine time "
                  "(higher is better; machine-independent)",
        "benchmarks": RESULTS,
    }
    with open(_out_path(), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {_out_path()}")


def best_of_paired(fn_a, fn_b, rounds=ROUNDS):
    """Best-of-N with the variants interleaved round by round, so machine
    drift (thermal, page cache, a noisy neighbour) hits both equally."""
    best_a = best_b = float("inf")
    fn_a()
    fn_b()
    for _ in range(rounds):
        best_a = min(best_a, fn_a())
        best_b = min(best_b, fn_b())
    return best_a, best_b


def _noop():
    pass


def flat_dispatch(sim_cls, n=N_FLAT):
    """Pre-schedule ``n`` events, then time draining the deep heap —
    pure dispatch throughput, no scheduling inside the timed region."""
    sim = sim_cls()
    for i in range(n):
        sim.schedule_at(i * 1e-6, _noop)
    t0 = perf_counter()
    sim.run()
    return perf_counter() - t0


def chain_dispatch(sim_cls, n=N_CHAIN):
    """A single self-rescheduling event: every dispatch also pays one
    ``schedule()`` — the shape of real framework callbacks."""
    sim = sim_cls()
    remaining = n

    def tick():
        nonlocal remaining
        remaining -= 1
        if remaining:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    t0 = perf_counter()
    sim.run()
    return perf_counter() - t0


def test_flat_dispatch_speedup():
    ref, new = best_of_paired(
        lambda: flat_dispatch(ReferenceSimulator),
        lambda: flat_dispatch(Simulator),
    )
    ratio = ref / new
    RESULTS["flat_dispatch"] = {
        "value": round(ratio, 3),
        "events": N_FLAT,
        "new_meps": round(N_FLAT / new / 1e6, 3),
        "reference_meps": round(N_FLAT / ref / 1e6, 3),
    }
    print(f"\nflat dispatch: reference {ref * 1e3:.1f} ms, "
          f"new {new * 1e3:.1f} ms, speedup {ratio:.2f}x")
    assert ratio >= 1.5, (
        f"dispatch throughput speedup {ratio:.2f}x below the 1.5x contract"
    )


def test_chain_dispatch_speedup():
    ref, new = best_of_paired(
        lambda: chain_dispatch(ReferenceSimulator),
        lambda: chain_dispatch(Simulator),
    )
    ratio = ref / new
    RESULTS["chain_dispatch"] = {
        "value": round(ratio, 3),
        "events": N_CHAIN,
        "new_meps": round(N_CHAIN / new / 1e6, 3),
        "reference_meps": round(N_CHAIN / ref / 1e6, 3),
    }
    print(f"\nchain dispatch: reference {ref * 1e3:.1f} ms, "
          f"new {new * 1e3:.1f} ms, speedup {ratio:.2f}x")
    # schedule() dominates here (heap push + validation per dispatch);
    # the win is smaller than the flat bench but must stay a win.
    assert ratio >= 1.2, (
        f"chain dispatch speedup {ratio:.2f}x below the 1.2x floor"
    )


def _run_once(sim_cls, policy_cls):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = poisson_trace(rate_rps=model.peak_rps, duration=60.0, seed=0)
    policy = policy_cls(model, profiles, slo.target_seconds)
    run = ServerlessRun(
        model, trace, policy, profiles, slo, sim=sim_cls()
    )
    t0 = perf_counter()
    run.execute()
    return perf_counter() - t0


def test_end_to_end_run_no_regression():
    """Meso check: the full seed stack vs the full current stack.

    The seed side runs the reference engine *and* the reference policy
    from ``tests/oracles/`` (the seed's uncached row-by-row Algorithm 1
    scan and per-call Equation-(1) solves — the same oracle the golden
    bit-identity suite certifies against).  The new side runs the
    tuple-heap engine with the columnar/memoised policy core.  The
    vectorized-policy PR's contract is a >=2x whole-run speedup; the
    committed baseline gates regressions in CI via check_bench."""
    ref, new = best_of_paired(
        lambda: _run_once(ReferenceSimulator, ReferencePaldiaPolicy),
        lambda: _run_once(Simulator, PaldiaPolicy),
        rounds=3,
    )
    ratio = ref / new
    RESULTS["end_to_end_run"] = {
        "value": round(ratio, 3),
        "new_seconds": round(new, 4),
        "reference_seconds": round(ref, 4),
    }
    print(f"\nend-to-end run: reference {ref * 1e3:.1f} ms, "
          f"new {new * 1e3:.1f} ms, speedup {ratio:.2f}x")
    assert ratio >= 2.0, (
        f"vectorized policy core below the 2.0x whole-run contract: "
        f"{ratio:.2f}x"
    )

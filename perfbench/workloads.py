"""The benchmark's four workloads, their inputs, and their output checks.

Every workload replays resnet50 traffic through the public API
(``ServerlessRun`` or ``run_matrix``).  A workload fixes its rate curve
(the "recorded" trace shape), its fault schedule and its run length; the
benchmark seed only draws the arrival times from that curve.  Host time
then moves with the code, and the simulated outcome moves little from
seed to seed, so one seed's result is a fair sample of the workload.

Each function here runs inside one repetition process (see ``rep.py``).
"""

from __future__ import annotations

import hashlib
import math
import shutil
import struct
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from repro import (
    PaldiaPolicy,
    ProfileService,
    RunConfig,
    SLO,
    ServerlessRun,
    Trace,
    azure_trace,
    get_model,
    poisson_trace,
    twitter_trace,
)
from repro.core.resilience import ResilienceConfig
from repro.experiments.cache import ResultCache
from repro.experiments.executors.serial import SerialExecutor
from repro.experiments.runner import run_matrix
from repro.experiments.schemes import SCHEMES
from repro.simulator.chaos import (
    ChaosSpec,
    ColdStartFailures,
    MPSFaults,
    OOMKills,
    Slowdowns,
    StochasticCrashes,
)
from repro.telemetry.tracer import Tracer
from repro.workloads.traces import AZURE_PEAK_TO_MEAN

WORKLOADS = ("azure_day", "peak_poisson", "erratic_chaos_traced", "scheme_matrix")

MODEL = "resnet50"
#: Seed of every workload's rate curve and fault schedule.  Fixed, so the
#: benchmark seed varies only the arrivals drawn from the curve.
SHAPE_SEED = 1
#: Trace lengths in simulated seconds: (full run, smoke run for tests).
DURATION = {
    "azure_day": (86_400.0, 3_600.0),
    "peak_poisson": (3_600.0, 60.0),
    "erratic_chaos_traced": (1_800.0, 120.0),
    "scheme_matrix": (1_500.0, 120.0),
}
AZURE_DAY_REQUESTS = 100_000
#: Fig 12b: the Twitter trace's mean is five times the Azure trace's.
TWITTER_MEAN_MULTIPLIER = 5.0
MATRIX_SCHEMES = SCHEMES + ("oracle",)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def replay(shape: Trace, seed: int) -> Trace:
    """Draw Poisson arrivals from ``shape``'s rate curve with ``seed``."""
    rng = np.random.default_rng(seed)
    width = shape.bin_seconds
    counts = rng.poisson(shape.bin_rates * width)
    starts = np.repeat(np.arange(shape.bin_rates.size) * width, counts)
    arrivals = np.sort(starts + rng.random(starts.size) * width)
    return Trace(shape.name, arrivals, shape.duration, shape.bin_rates, width)


def make_trace(workload: str, seed: int, smoke: bool = False) -> Trace:
    """The arrival trace a ServerlessRun workload replays."""
    duration = DURATION[workload][smoke]
    peak = get_model(MODEL).peak_rps
    if workload == "azure_day":
        # Sized so the whole day offers ~AZURE_DAY_REQUESTS requests.
        day_peak = AZURE_DAY_REQUESTS * AZURE_PEAK_TO_MEAN / DURATION[workload][0]
        shape = azure_trace(peak_rps=day_peak, duration=duration, seed=SHAPE_SEED)
    elif workload == "peak_poisson":
        shape = poisson_trace(rate_rps=peak, duration=duration, seed=SHAPE_SEED)
    elif workload == "erratic_chaos_traced":
        mean = peak / AZURE_PEAK_TO_MEAN * TWITTER_MEAN_MULTIPLIER
        shape = twitter_trace(mean_rps=mean, duration=duration, seed=SHAPE_SEED)
    else:
        raise ValueError(f"{workload} has no single trace")
    return replay(shape, seed)


def matrix_trace(duration: float, model, seed: int) -> Trace:
    """Trace factory of the scheme matrix: Fig 7's Azure trace shape."""
    shape = azure_trace(peak_rps=model.peak_rps, duration=duration, seed=SHAPE_SEED)
    return replay(shape, seed)


def chaos_spec() -> ChaosSpec:
    """All five stochastic fault kinds at their default rates."""
    return ChaosSpec(
        faults=(
            StochasticCrashes(),
            Slowdowns(),
            ColdStartFailures(),
            OOMKills(),
            MPSFaults(),
        ),
        seed=SHAPE_SEED,
    )


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """What one repetition of a workload produced."""

    results: list  # RunResult per simulated run, in order
    traces: list[Trace]  # the trace each result replayed
    engine_start: float  # time.monotonic() when the engine started
    run_s: float  # host seconds from engine start to results in hand
    tracer: Optional[Tracer] = None
    #: The scheme matrix's result-cache counters (``ResultCache.stats``).
    cache_stats: Optional[dict] = None


def run_workload(
    workload: str,
    seed: int,
    *,
    smoke: bool = False,
    sinks: bool = True,
    scratch: Optional[Path] = None,
) -> RunRecord:
    """Set up and run one repetition of ``workload``.

    ``sinks=False`` runs the same workload with the tracer off (the
    baseline of ``telemetry.overhead_ratio``).  ``scratch`` is where the
    scheme matrix keeps its fresh result cache.
    """
    if workload == "scheme_matrix":
        return _run_matrix(seed, smoke, scratch)
    model = get_model(MODEL)
    profiles = ProfileService()
    slo = SLO()
    trace = make_trace(workload, seed, smoke)
    config = RunConfig(seed=seed)
    tracer = None
    if workload == "erratic_chaos_traced":
        config = RunConfig(
            seed=seed,
            chaos=chaos_spec(),
            resilience=ResilienceConfig(recovery="retry"),
            reqtrace=True,
            reqtrace_sample=0.1,
        )
        if sinks:
            tracer = Tracer()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    run = ServerlessRun(model, trace, policy, profiles, slo, config, tracer=tracer)
    # arm() + sim.run + finalize() is execute() split at the engine start
    # (the shared-clock entry points), so set-up and run time separate.
    run.arm()
    horizon = trace.duration + config.drain_grace_seconds
    t0 = time.monotonic()
    run.sim.run(until=horizon)
    result = run.finalize()
    if tracer is not None:
        len(tracer.spans)  # spans materialise lazily; readers pay for it
    t1 = time.monotonic()
    return RunRecord(
        results=[result],
        traces=[trace],
        engine_start=t0,
        run_s=t1 - t0,
        tracer=tracer,
    )


def _run_matrix(seed: int, smoke: bool, scratch: Optional[Path]) -> RunRecord:
    if scratch is None:
        raise ValueError("the scheme matrix needs a scratch directory")
    cache_dir = scratch / f"cache-{seed}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(str(cache_dir))
    factory = partial(matrix_trace, DURATION["scheme_matrix"][smoke])
    trace = factory(get_model(MODEL), seed)  # what every cell replays
    t0 = time.monotonic()
    matrix = run_matrix(
        MATRIX_SCHEMES,
        [MODEL],
        factory,
        repetitions=1,
        seed0=seed,
        cache=cache,
        executor=SerialExecutor(),
        keep_metrics=True,
        journal=False,
    )
    t1 = time.monotonic()
    shutil.rmtree(cache_dir, ignore_errors=True)
    return RunRecord(
        results=list(matrix.results),
        traces=[trace] * len(matrix.results),
        engine_start=t0,
        run_s=t1 - t0,
        cache_stats=dict(cache.stats),
    )


# ----------------------------------------------------------------------
# Outputs
# ----------------------------------------------------------------------
def fingerprint(results) -> str:
    """SHA-256 over each result's latency bytes, total cost and switches."""
    digest = hashlib.sha256()
    for r in results:
        latencies = np.ascontiguousarray(r.metrics.latencies(), dtype="<f8")
        digest.update(latencies.tobytes())
        digest.update(struct.pack("<d", r.total_cost))
        digest.update(repr(r.switch_log).encode())
    return digest.hexdigest()


def check_outputs(record: RunRecord) -> list[str]:
    """The output checks; returns one message per failed check."""
    failures = []
    for r, trace in zip(record.results, record.traces):
        where = f"{r.scheme}/{r.model}"
        if r.completed_requests + r.unserved_requests != r.offered_requests:
            failures.append(
                f"{where}: completed {r.completed_requests} + unserved "
                f"{r.unserved_requests} != offered {r.offered_requests}"
            )
        if r.offered_requests != trace.n_requests:
            failures.append(
                f"{where}: offered {r.offered_requests} != "
                f"{trace.n_requests} trace arrivals"
            )
        split = sum(r.cost_by_spec.values())
        if not math.isclose(split, r.total_cost, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(
                f"{where}: sum(cost_by_spec) {split!r} != total_cost "
                f"{r.total_cost!r}"
            )
        if not 0.0 <= r.slo_compliance <= 1.0:
            failures.append(f"{where}: slo_compliance {r.slo_compliance!r}")
    stats = record.cache_stats
    if stats is not None and stats["stores"] != len(record.results):
        failures.append(
            f"result cache stored {stats['stores']} of {len(record.results)} cells"
        )
    return failures


def simulated_outcome(record: RunRecord) -> dict[str, float]:
    """The simulated outcome of the workload's Paldia run."""
    r = next(r for r in record.results if r.scheme == "paldia")
    return {
        "slo_compliance": r.slo_compliance,
        "p99_latency_ms": r.p99_seconds * 1e3,
        "cost_per_hour": r.cost_per_hour,
    }


def offered(record: RunRecord) -> int:
    return sum(r.offered_requests for r in record.results)


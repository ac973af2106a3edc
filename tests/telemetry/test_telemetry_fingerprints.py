"""Every telemetry output keeps the fingerprint recorded before the
leave-on telemetry rework.

Two seeded traced runs are pinned:

* ``erratic_chaos_smoke`` — the 120 s shape of the benchmark's
  ``erratic_chaos_traced`` workload: the Fig 12b Twitter rate curve
  replayed as Poisson arrivals, all five stochastic faults, retry
  recovery and request tracing at sample 0.1;
* ``resnet50_poisson`` — 60 s of Poisson arrivals at resnet50's peak.

Each run's fingerprint is one SHA-256 per telemetry output: every span
and event with all fields and attributes in order, the metric sample
rows, the latency histogram (counts, n, sum, p50/p90/p99 and whether it
is still exact), every time-series column byte for byte (so NaN compares
equal), the ``slo_alert`` events, the cost breakdown (buckets and
per-batch dollars) and the request-trace records.  Scalars are encoded
with their type, so a float that turns into a NumPy scalar, or an int
into a float, changes the fingerprint even where the values agree.
Every constant was recorded before the rework; the reworked sinks must
reproduce each one bit for bit.

Batch and node ids come from process-wide counters, and request-trace
sampling hashes the batch id, so each run starts both counters at zero;
so do the process-wide result-cache counters the ``cache.*`` columns read.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import ResilienceConfig
from repro.experiments.cache import CACHE_METRICS
from repro.framework import request
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import (
    ChaosSpec,
    ColdStartFailures,
    MPSFaults,
    OOMKills,
    Slowdowns,
    StochasticCrashes,
)
from repro.simulator.cluster import NodeInstance
from repro.telemetry.tracer import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import (
    AZURE_PEAK_TO_MEAN,
    Trace,
    poisson_trace,
    twitter_trace,
)


def canon(x) -> str:
    """A type-tagged, order-preserving text encoding of a telemetry value."""
    if x is None or isinstance(x, (bool, str)):
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return f"{type(x).__name__}:{int(x)}"
    if isinstance(x, (float, np.floating)):
        return f"{type(x).__name__}:{float(x).hex()}"
    if isinstance(x, np.ndarray):
        return f"ndarray:{x.dtype.str}:{x.tobytes().hex()}"
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}={canon(v)}" for k, v in x.items()) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + canon(
            {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
        )
    raise TypeError(f"no canonical encoding for {type(x).__name__}")


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def fingerprints(run: ServerlessRun, result) -> dict[str, str]:
    tracer = run.tracer
    hist = tracer.metrics.histogram("request.latency_seconds")
    sampler = run.tracer.timeseries
    breakdown = result.cost_breakdown
    rt = result.reqtrace
    return {
        "spans": digest(
            canon((s.name, s.cat, s.track, s.start, s.end, s.attrs))
            for s in tracer.spans
        ),
        "events": digest(
            canon((e.name, e.cat, e.track, e.time, e.attrs))
            for e in tracer.events
        ),
        "metrics.samples": digest(canon(row) for row in tracer.metrics.samples),
        "histogram": digest([
            canon(list(hist.counts)),
            canon(int(hist.n)),
            canon(float(hist.sum)),
            canon([float(hist.quantile(q)) for q in (0.50, 0.90, 0.99)]),
            canon(hist.exact),
        ]),
        "timeseries": digest(
            [sampler.times().astype("<f8").tobytes().hex()]
            + [
                f"{name}:{col.astype('<f8').tobytes().hex()}"
                for name, col in sampler.columns().items()
            ]
        ),
        "slo_alerts": digest(
            canon((e.time, e.attrs)) for e in tracer.events_named("slo_alert")
        ),
        "cost": digest([
            canon(breakdown.total_dollars),
            canon(breakdown.bucket_dollars),
            canon(breakdown.bucket_seconds),
            canon(breakdown.batch_cost_dollars),
            canon(breakdown.batch_requests),
            canon(breakdown.spec_dollars),
            canon(breakdown.leases),
        ]),
        "reqtrace": (
            digest(
                [canon(rt.meta), canon(rt.events)]
                + [canon(r.as_dict()) for r in rt.records]
            )
            if rt is not None else None
        ),
    }


def _run(trace, config):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    run = ServerlessRun(
        model, trace, policy, profiles, slo, config, tracer=Tracer()
    )
    return fingerprints(run, run.execute())


def _erratic_chaos_smoke():
    """The benchmark's erratic_chaos_traced workload at its 120 s shape,
    seed 0: the rate curve has seed 1, the arrivals are drawn with 0."""
    peak = get_model("resnet50").peak_rps
    shape = twitter_trace(
        mean_rps=peak / AZURE_PEAK_TO_MEAN * 5.0, duration=120.0, seed=1
    )
    rng = np.random.default_rng(0)
    width = shape.bin_seconds
    counts = rng.poisson(shape.bin_rates * width)
    starts = np.repeat(np.arange(shape.bin_rates.size) * width, counts)
    arrivals = np.sort(starts + rng.random(starts.size) * width)
    trace = Trace(shape.name, arrivals, shape.duration, shape.bin_rates, width)
    faults = (
        StochasticCrashes(), Slowdowns(), ColdStartFailures(), OOMKills(),
        MPSFaults(),
    )
    return _run(trace, RunConfig(
        seed=0,
        chaos=ChaosSpec(faults=faults, seed=1),
        resilience=ResilienceConfig(recovery="retry"),
        reqtrace=True,
        reqtrace_sample=0.1,
    ))


def _resnet50_poisson():
    peak = get_model("resnet50").peak_rps
    return _run(
        poisson_trace(rate_rps=peak, duration=60.0, seed=0), RunConfig()
    )


RUNS = {
    "erratic_chaos_smoke": _erratic_chaos_smoke,
    "resnet50_poisson": _resnet50_poisson,
}

#: Recorded before the leave-on telemetry rework.
RECORDED = {
    "erratic_chaos_smoke": {
        "spans": "29a9d19c1ae3a7bd13bab4507a88a4baf660ac71491d4430a479c74d5b785a25",
        "events": "bd645d0ecfa2226dc3f0a68660fbec1a20c95e87396977ca2c483557f80b1095",
        "metrics.samples": "bb15d2b70d93ea07c264d13a0678a6c1ba397fd1fe511a30b9c27c432cdfee6a",
        "histogram": "6b133ea80ff59896db2292b053b271a7dbfd53b5d67e0e324c0cc62d4b913adc",
        "timeseries": "963466459e7f3fc7bfc74e594f9be8f9749dc7f1e80d8195a719ab46d476b477",
        "slo_alerts": "c8099f7c6f3e8715b1dbd20bb8651a27f6bcfbd8ef46eeb39b9e4fac651cad27",
        "cost": "468b03032464eab3c0edb4a90d53a091fc452a1c96bd6715e7a4e17936e3a3cb",
        "reqtrace": "2885b4fe194cbab3c2800dd160a84bda9caeca35bd6bdadd129b1ef2a92064ce",
    },
    "resnet50_poisson": {
        "spans": "68b9f4042eba3411ce9f205e4ac36d5f2903217f68501ed5e1208d4eba17e34e",
        "events": "213bc3e5b19bd8658e37370f24d12be63327c52a35eca5c55323aeb7f1c2680b",
        "metrics.samples": "a31b29c1439074b72c151ba91e4371c6d5eb49d78f3eb21b393ff6b3342c2f96",
        "histogram": "89b5d594625f6c873592749d674d70d6030474e6f2da78fee429c0f98f482612",
        "timeseries": "baa3859bf2d5e7acc625edeb14195d65b0b5525961bcc77f4d309616ffe1e26d",
        "slo_alerts": "1ce76b7bc08caa198545f795a71aa0b57a21b5dbf8f50265ad29943ed4f3edbd",
        "cost": "6099d6d5ce95468b27ceac5f24b0847d6bf6a3ea0fc2b267f214e0a01e04e7b5",
        "reqtrace": None,
    },
}


def test_every_run_is_recorded():
    assert set(RUNS) == set(RECORDED)


@pytest.mark.parametrize("case", list(RECORDED))
def test_telemetry_reproduces_recorded_fingerprints(case, monkeypatch):
    monkeypatch.setattr(request, "_batch_ids", itertools.count())
    monkeypatch.setattr(NodeInstance, "_ids", 0)
    for name in ("experiment_cache.hits", "experiment_cache.misses"):
        monkeypatch.setattr(CACHE_METRICS.counter(name), "value", 0.0)
    assert RUNS[case]() == RECORDED[case]

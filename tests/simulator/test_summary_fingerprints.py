"""Run summaries keep the fingerprints recorded before the columnar ledger.

``perfbench/fingerprints.json`` pins per-request latency bytes, total
cost and switches.  The summary fields :class:`MetricsCollector` derives
from those latencies are pinned here instead: SLO compliance, the p50 and
p99 ``repr``s, the tail breakdown, the mode split, the hardware usage
(in first-completion order), goodput over fixed windows and the latency
CDF.  Every constant was recorded with the per-batch ``BatchRecord``
collector (the one ``tests/oracles/reference_metrics.py`` keeps); the
columnar ledger must reproduce each one bit for bit.

Runs cover Paldia on the GPU (peak Poisson) and on the CPU (an Azure
slice), chaos with retry recovery under every telemetry sink, each
baseline scheme plus the Oracle, and SeBS co-location.
"""

import hashlib

import pytest

from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import ResilienceConfig
from repro.experiments.runner import CellSpec, run_cell
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory
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
from repro.telemetry.tracer import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace, poisson_trace, twitter_trace


def summary_fingerprint(r):
    """SHA-256 over the summary fields a run derives from its ledger."""
    m = r.metrics
    xs, ys = m.latency_cdf()
    windows = [(0.0, r.duration / 2), (r.duration / 4, r.duration)]
    fields = (
        repr(r.slo_compliance),
        repr(r.p50_seconds),
        repr(r.p99_seconds),
        repr(sorted(r.tail_breakdown.items())),
        repr(list(r.mode_split.items())),
        repr(list(r.hardware_usage.items())),
        repr([m.goodput(r.slo_seconds, w) for w in windows]),
        repr([sorted(m.tail_breakdown(q).items()) for q in (50.0, 90.0)]),
        xs.astype("<f8").tobytes().hex(),
        ys.astype("<f8").tobytes().hex(),
        repr((r.completed_requests, r.unserved_requests, r.offered_requests)),
    )
    return hashlib.sha256("\n".join(fields).encode()).hexdigest()


def _paldia(trace, config=RunConfig(), tracer=None, model_name="resnet50"):
    model = get_model(model_name)
    profiles = ProfileService()
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return ServerlessRun(
        model, trace, policy, profiles, slo, config, tracer=tracer
    ).execute()


def _peak_poisson_gpu():
    peak = get_model("resnet50").peak_rps
    return _paldia(poisson_trace(rate_rps=peak, duration=60.0, seed=0))


def _azure_cpu():
    return _paldia(azure_trace(peak_rps=6.0, duration=300.0, seed=1))


def _chaos_retry_traced():
    config = RunConfig(
        seed=3,
        chaos=ChaosSpec(
            faults=(
                StochasticCrashes(mean_interarrival_seconds=30.0,
                                  downtime_seconds=10.0),
                Slowdowns(mean_interarrival_seconds=20.0),
                ColdStartFailures(),
                OOMKills(mean_interarrival_seconds=15.0),
                MPSFaults(mean_interarrival_seconds=30.0),
            ),
            seed=1,
        ),
        resilience=ResilienceConfig(recovery="retry"),
        reqtrace=True,
        reqtrace_sample=0.1,
    )
    trace = twitter_trace(mean_rps=40.0, duration=120.0, seed=1)
    return _paldia(trace, config, tracer=Tracer())


def _scheme(scheme):
    return lambda: run_cell(
        CellSpec(scheme, "resnet50", 4, azure_factory(120.0), keep_metrics=True)
    )


def _sebs_colocation():
    return _paldia(
        azure_trace(peak_rps=60.0, duration=120.0, seed=2),
        RunConfig(seed=2, sebs_colocation=True),
    )


RUNS = {
    "paldia/peak_poisson_gpu": _peak_poisson_gpu,
    "paldia/azure_cpu": _azure_cpu,
    "paldia/chaos_retry_traced": _chaos_retry_traced,
    **{f"scheme/{s}": _scheme(s) for s in SCHEMES + ("oracle",)},
    "paldia/sebs_colocation": _sebs_colocation,
}

#: Recorded with the per-batch BatchRecord collector.
RECORDED = {
    "paldia/peak_poisson_gpu": "b71d435e1f3f9fe294a2dae97909a44df791ec7232b18274d5706acf6a1d216b",
    "paldia/azure_cpu": "60e3abfe394d89d4d8c95067b8fff8dec040a206d448460b053889be1b6352ce",
    "paldia/chaos_retry_traced": "5f5c72adf80f3f32830059bd2d1d93f304b18aba9dd9708b653ce7c2b7560cf4",
    "scheme/molecule_P": "1e2434d0535672b50a588fede2ef89f877a919d0def0db004f87a794f531ca4d",
    "scheme/infless_llama_P": "4accc54b281405508f7d63548c622197f8f02b839a806b05f13ef6e3078e225f",
    "scheme/molecule_$": "dc48587d77a7b833a01d318168c53dd38f14e7a12e1dcc93bbb7bb5d767796f6",
    "scheme/infless_llama_$": "eba1473201f87ff1d2aac2d527818350834a19382d70bdb17c050a29ddd07efe",
    "scheme/paldia": "8ae4b5e1015fe625301bed1e8e884024f41641c64a24b8bc0a98ca0b0fc3db4a",
    "scheme/oracle": "db2859a7590d30defc0a93a739cf47524541dd6cd456e314a4ee1679fd488131",
    "paldia/sebs_colocation": "2d655eea4e741e55c672115655f39fa508e6547036a1d6cf9ccffcf69e4c4268",
}


def test_every_run_is_recorded():
    assert set(RUNS) == set(RECORDED)


@pytest.mark.parametrize("case", list(RECORDED))
def test_summary_reproduces_recorded_fingerprint(case):
    assert summary_fingerprint(RUNS[case]()) == RECORDED[case]

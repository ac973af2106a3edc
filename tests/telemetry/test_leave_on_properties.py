"""The leave-on telemetry sinks equal the eager ones they replaced.

* The latency histogram buffers observations and folds them on read; any
  read between observations — across the 4,096-sample handover to the P²
  estimators — must equal the eagerly updated reference histogram.
* The SLO monitor evaluates its windows once per sim instant; its shared
  summary must equal max/min over the reference monitor's
  ``window_stats``, and ``sample``/``window_stats`` (with the alerts they
  emit) must equal the reference under random observe/sample/evict
  sequences.
* The time-series sampler fills every ``node.<spec>.*`` column from one
  pass over the live nodes; each column must equal the one-probe-per-column
  read at every sample instant of a run with reconfigurations and faults.
* ``cold_starts.total`` is one running count; it must equal the sum over
  every pool of every node the run leased, including cold starts taken
  while ``Cluster.acquire`` ran ``on_ready`` (the Oracle's instant
  switches) before the run owned the node.

The references live in :mod:`tests.oracles.reference_telemetry`.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paldia import PaldiaPolicy
from repro.core.resilience import ResilienceConfig
from repro.experiments.schemes import make_policy
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import ChaosSpec, OOMKills, StochasticCrashes
from repro.telemetry.metrics import Histogram
from repro.telemetry.slo_monitor import SLOMonitor
from repro.telemetry.tracer import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace, twitter_trace
from tests.oracles import reference_telemetry as ref

CAP = Histogram.RAW_SAMPLE_CAP
#: Tracked and untracked quantiles, including both ends.
QUANTILES = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


def histogram_state(h) -> tuple:
    return (
        h.n, h.sum, h.mean, list(h.counts), h.exact,
        [h.quantile(q) for q in QUANTILES],
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.one_of(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=CAP - 8, max_value=CAP + 40),
    ),
    reads=st.sets(st.integers(min_value=0, max_value=CAP + 40), max_size=12),
    ties=st.booleans(),
)
def test_histogram_reads_equal_eager_reference(seed, n, reads, ties):
    rng = np.random.default_rng(seed)
    values = rng.lognormal(mean=-2.5, sigma=1.2, size=n)
    if ties:  # long runs of identical latencies stress the P² markers
        values = np.round(values, 2)
    fast, eager = Histogram("lat"), ref.Histogram("lat")
    for i, v in enumerate(values):
        if i in reads:
            assert histogram_state(fast) == histogram_state(eager), i
        fast.observe(float(v))
        eager.observe(float(v))
    assert histogram_state(fast) == histogram_state(eager)


SLO_SECONDS = 0.2
#: Zero steps put several observations and reads at one sim instant; the
#: largest empties every 5 s window.
time_step = st.sampled_from([0.0, 0.0, 0.4, 1.5, 6.0])
observe_op = st.tuples(
    st.just("observe"),
    time_step,
    st.sampled_from(["resnet50", "bert"]),
    st.sampled_from(["g3s.xlarge", "p3.2xlarge", "?"]),
    # Empty batches, single requests and multi-request batches.
    st.lists(st.floats(min_value=0.0, max_value=0.5), max_size=24),
)
read_op = st.tuples(
    st.sampled_from(["sample", "summary", "stats", "stats_p99"]),
    time_step,
)


def monitor_pair():
    kwargs = dict(window_seconds=5.0, burn_rate_threshold=2.0,
                  min_window_requests=3)
    fast_tracer, ref_tracer = Tracer(), Tracer()
    return (
        SLOMonitor(SLO_SECONDS, tracer=fast_tracer, **kwargs),
        ref.SLOMonitor(SLO_SECONDS, tracer=ref_tracer, **kwargs),
        fast_tracer, ref_tracer,
    )


def fields(stats) -> list[tuple]:
    return [dataclasses.astuple(s) for s in stats]


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(observe_op, read_op), max_size=60))
def test_slo_monitor_equals_eager_reference(ops):
    fast, eager, fast_tracer, ref_tracer = monitor_pair()
    now = 0.0
    for op in ops:
        now += op[1]
        if op[0] == "observe":
            _, _, model, hardware, lat = op
            lat = np.array(lat, dtype=np.float64)
            fast.observe_batch(now, model, hardware, lat)
            eager.observe_batch(now, model, hardware, lat)
        elif op[0] == "summary":
            stats = eager.window_stats(now, include_p99=False)
            assert fast.summary(now) == (
                max((s.burn_rate for s in stats), default=0.0),
                min((s.attainment for s in stats), default=1.0),
            )
            # A second read at the same instant reuses the evaluation.
            assert fast.summary(now) == fast.summary(now)
        elif op[0] == "sample":
            assert fields(fast.sample(now)) == fields(eager.sample(now))
        else:
            p99 = op[0] == "stats_p99"
            assert fields(fast.window_stats(now, p99)) == fields(
                eager.window_stats(now, p99)
            )
        assert fast.firing_keys == eager.firing_keys
    assert fast.alerts_emitted == eager.alerts_emitted
    assert [(e.time, e.attrs) for e in fast_tracer.events] == [
        (e.time, e.attrs) for e in ref_tracer.events
    ]


def test_summary_defaults_without_windows():
    assert SLOMonitor(SLO_SECONDS).summary(0.0) == (0.0, 1.0)


def test_summary_sees_a_batch_observed_at_the_same_instant():
    # Another completion can land between two reads at one sim instant,
    # so the shared summary is keyed on the observation count too.
    monitor = SLOMonitor(SLO_SECONDS)
    assert monitor.summary(1.0) == (0.0, 1.0)
    monitor.observe_batch(1.0, "resnet50", "g3s.xlarge", np.array([0.3, 0.1]))
    assert monitor.summary(1.0) == (0.5 / (1.0 - 0.99), 0.5)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    mean_rps=st.floats(min_value=20.0, max_value=90.0),
)
def test_grouped_per_spec_columns_equal_per_probe_reads(seed, mean_rps):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = twitter_trace(mean_rps=mean_rps, duration=60.0, seed=seed)
    config = RunConfig(
        seed=seed,
        chaos=ChaosSpec(
            faults=(
                StochasticCrashes(mean_interarrival_seconds=15.0,
                                  downtime_seconds=5.0),
                OOMKills(mean_interarrival_seconds=10.0),
            ),
            seed=seed,
        ),
        resilience=ResilienceConfig(recovery="retry"),
    )
    tracer = Tracer()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    run = ServerlessRun(model, trace, policy, profiles, slo, config,
                        tracer=tracer)
    checked = []

    def check(now, row):
        for spec in profiles.catalog:
            for column, attr in (("occupancy", "occupancy"),
                                 ("co_run", "co_run_level")):
                want = ref.per_spec_read(
                    run.cluster, run._owned_node_ids, spec.name, attr
                )
                got = row[f"node.{spec.name}.{column}"]
                assert got == want or (math.isnan(got) and math.isnan(want))
        checked.append(now)

    tracer.timeseries_observers.append(check)
    run.execute()
    assert checked


@pytest.mark.parametrize("scheme", ["oracle", "paldia"])
def test_cold_start_count_equals_pool_sum(scheme):
    model = get_model("resnet50")
    profiles = ProfileService()
    slo = SLO()
    trace = azure_trace(peak_rps=model.peak_rps, duration=300.0, seed=4)
    policy = make_policy(scheme, model, profiles, slo.target_seconds, trace)
    tracer = Tracer()
    run = ServerlessRun(model, trace, policy, profiles, slo, tracer=tracer)
    result = run.execute()
    owned = [n for n in run.cluster.nodes if n.node_id in run._owned_node_ids]
    assert result.cold_starts == sum(
        pool.cold_starts for node in owned for pool in node.pools().values()
    )
    assert result.cold_starts > 0
    assert tracer.timeseries.last("cold_starts.total") == (
        tracer.metrics.samples[-1]["cold_starts.total"]
    )

"""The columnar ledger reproduces the seed ``BatchRecord`` collector.

Identical random completed batches — several models, hardware names and
share modes, sizes 1–64, tied and untied latencies, unserved counts, and
the empty collector — go into both :class:`MetricsCollector` and the
frozen oracle in ``tests/oracles/reference_metrics.py``.  Every summary
must match bit for bit, also after reads interleaved with records (a
read compacts the ledger; a later record must invalidate it) and after a
pickle round trip.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.framework.request import Batch, ShareMode
from repro.simulator.metrics import MetricsCollector
from repro.workloads.models import get_model
from tests.oracles.reference_metrics import (
    MetricsCollector as ReferenceMetricsCollector,
)

MODELS = [get_model(name) for name in ("resnet50", "vgg19", "bert")]
#: ``None`` is a batch that never learned its hardware (recorded as "?").
HARDWARE = ("g3s.xlarge", "p3.2xlarge", "c6i.4xlarge", None)
MODES = (ShareMode.SPATIAL, ShareMode.TEMPORAL)
COMPONENTS = (
    "batching_wait", "cold_start_wait", "queue_delay", "exec_solo",
    "interference_extra", "failure_wait",
)
QUANTILES = (0.0, 37.5, 50.0, 90.0, 99.0, 100.0)

#: Coarse values make ties (equal latencies at the percentile cut).
value = st.one_of(
    st.sampled_from([0.0, 0.05, 0.125, 0.2]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
batch_spec = st.tuples(
    st.integers(0, len(MODELS) - 1),
    st.integers(0, len(HARDWARE) - 1),
    st.integers(0, len(MODES) - 1),
    st.integers(1, 64),  # size
    st.floats(min_value=0.0, max_value=100.0),  # first arrival
    value,  # arrival spread
    value,  # completion delay after the last arrival
    st.tuples(*[value] * len(COMPONENTS)),
    st.integers(0, 2**32 - 1),  # arrival draw
)


def _batch(spec):
    m, hw, mode, size, start, spread, delay, comps, seed = spec
    rng = np.random.default_rng(seed)
    arrivals = np.sort(start + np.round(rng.random(size) * spread, 2))
    batch = Batch(
        model=MODELS[m], arrivals=arrivals, dispatched_at=arrivals[-1],
        mode=MODES[mode],
    )
    for name, val in zip(COMPONENTS, comps):
        setattr(batch.breakdown, name, val)
    batch.complete(arrivals[-1] + delay)
    batch.hardware_name = HARDWARE[hw]
    return batch


def _assert_same(new, ref, slo, windows):
    for model in (None, *(m.name for m in MODELS), "absent"):
        assert new.latencies(model).tobytes() == ref.latencies(model).tobytes()
        assert new.completed_requests(model) == ref.completed_requests(model)
        assert repr(new.slo_compliance(slo, model)) == repr(
            ref.slo_compliance(slo, model)
        )
        for q in QUANTILES:
            assert repr(new.percentile_latency(q, model)) == repr(
                ref.percentile_latency(q, model)
            )
            assert repr(new.tail_breakdown(q, model)) == repr(
                ref.tail_breakdown(q, model)
            )
        assert new.percentile_latencies((50.0, 99.0), model) == (
            ref.percentile_latency(50.0, model),
            ref.percentile_latency(99.0, model),
        )
        for n_points in (1, 7, 200):
            for a, b in zip(
                new.latency_cdf(model, n_points), ref.latency_cdf(model, n_points)
            ):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for window in windows:
            assert repr(new.goodput(slo, window, model)) == repr(
                ref.goodput(slo, window, model)
            )
    assert list(new.hardware_usage().items()) == list(
        ref.hardware_usage().items()
    )
    assert list(new.mode_split().items()) == list(ref.mode_split().items())
    assert new.unserved_requests == ref.unserved_requests
    assert new.total_requests_offered == ref.total_requests_offered
    assert len(new.records) == len(ref.records)
    for a, b in zip(new.records, ref.records):
        assert (a.model, a.hardware, a.mode, a.size) == (
            b.model, b.hardware, b.mode, b.size
        )
        assert repr(a.completed_at) == repr(b.completed_at)
        assert a.arrivals.tobytes() == b.arrivals.tobytes()
        for name in COMPONENTS:
            assert repr(getattr(a, name)) == repr(getattr(b, name))


window = st.tuples(
    st.floats(min_value=-1.0, max_value=110.0),
    st.floats(min_value=0.001, max_value=120.0),
).map(lambda w: (w[0], w[0] + w[1]))


@given(
    specs=st.lists(batch_spec, max_size=30),
    read_after=st.integers(0, 30),
    extra_offered=st.integers(0, 50),
    unserved=st.integers(0, 20),
    slo=value,
    windows=st.lists(window, min_size=1, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_ledger_matches_seed_collector(
    specs, read_after, extra_offered, unserved, slo, windows
):
    new, ref = MetricsCollector(), ReferenceMetricsCollector()
    batches = [_batch(spec) for spec in specs]
    for i, batch in enumerate(batches):
        if i == read_after:
            # A read compacts the ledger; the records after it must
            # invalidate the compacted copy.
            _assert_same(new, ref, slo, windows)
        new.record_batch(batch)
        ref.record_batch(batch)
    offered = sum(b.size for b in batches) + extra_offered
    for collector in (new, ref):
        collector.record_offered(offered)
        collector.record_unserved(unserved)
    _assert_same(new, ref, slo, windows)
    _assert_same(pickle.loads(pickle.dumps(new)), ref, slo, windows)


def test_empty_collector_matches_seed_collector():
    new, ref = MetricsCollector(), ReferenceMetricsCollector()
    _assert_same(new, ref, 0.2, [(0.0, 1.0)])
    _assert_same(pickle.loads(pickle.dumps(new)), ref, 0.2, [(0.0, 1.0)])


def test_unpickled_collector_keeps_recording():
    new, ref = MetricsCollector(), ReferenceMetricsCollector()
    first = _batch((0, 0, 0, 3, 1.0, 0.5, 0.1, (0.01,) * 6, 1))
    second = _batch((1, 1, 1, 5, 2.0, 0.5, 0.3, (0.02,) * 6, 2))
    new.record_batch(first)
    ref.record_batch(first)
    new = pickle.loads(pickle.dumps(new))
    new.record_batch(second)
    ref.record_batch(second)
    _assert_same(new, ref, 0.2, [(0.0, 5.0)])


def test_pickle_holds_flat_buffers_not_per_batch_objects():
    new = MetricsCollector()
    for i in range(200):
        new.record_batch(_batch((0, 0, 0, 8, float(i), 0.5, 0.1, (0.01,) * 6, i)))
    state = new.__getstate__()
    (arrivals,) = state["_arrivals"]  # the views, folded into one array
    assert isinstance(arrivals, np.ndarray) and arrivals.size == 1600
    assert state["_table"].shape == (200, 8) and state["_code_col"].size == 200
    assert not state["_rows"] and not state["_codes"]
    assert state["_ledger"] is None

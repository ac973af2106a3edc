"""Device counters and caches must equal what they summarise.

Both devices keep a running count of the requests in their queues
(Algorithm 1 reads it every monitoring tick).  Random sequences of
submissions, completions and every evict path must leave the counter
equal to the sum of the queued batches' sizes.

The GPU also caches its resident set's aggregate FBR and progress rate.
After every operation — and inside completion callbacks that submit
again, while the device is mid-transition — both must equal a fresh
``float(sum(...))`` over the resident set in resident order and the rate
the interference law gives for it, exactly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.framework.request import Batch, ShareMode
from repro.hardware.catalog import default_catalog
from repro.simulator.cpu import CPUDevice
from repro.simulator.engine import Simulator
from repro.simulator.gpu import GPUDevice
from repro.simulator.interference import InterferenceModel
from repro.simulator.job import Job
from repro.workloads.models import get_model

CATALOG = default_catalog()
#: The smallest nodes queue soonest: one CPU lane, 8 GB of GPU memory.
GPU = CATALOG.get("g3s.xlarge")
CPU = CATALOG.get("m4.xlarge")
MODEL = get_model("resnet50")

submit = st.tuples(
    st.just("submit"),
    st.integers(min_value=1, max_value=8),  # batch size
    st.booleans(),  # spatial
    st.floats(min_value=0.5, max_value=5.0),  # memory (GB)
)
ops = st.lists(
    st.one_of(
        submit,
        submit,
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.3)),
        st.tuples(st.just("evict_one")),
        st.tuples(st.just("evict_queued")),
        st.tuples(st.just("evict_all")),
    ),
    max_size=40,
)


def _job(sim, size, spatial, mem):
    mode = ShareMode.SPATIAL if spatial else ShareMode.TEMPORAL
    arrivals = np.full(size, sim.now)
    batch = Batch(model=MODEL, arrivals=arrivals, dispatched_at=sim.now, mode=mode)
    return Job(batch=batch, solo_time=0.05 * size, fbr=0.2, mem_gb=mem, mode=mode)


def _replay(device_cls, spec, script, summed):
    sim = Simulator()
    dev = device_cls(sim, spec, rng=np.random.default_rng(0))
    for op in script:
        if op[0] == "submit":
            dev.submit(_job(sim, *op[1:]))
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        else:
            getattr(dev, op[0])()
        assert dev.queued_requests() == summed(dev)
    sim.run()
    assert dev.queued_requests() == summed(dev) == 0


@given(ops)
@settings(max_examples=80, deadline=None)
def test_cpu_counter_matches_summed_queue(script):
    _replay(
        CPUDevice, CPU, script,
        lambda dev: sum(j.batch.size for j in dev._queue),
    )


@given(ops)
@settings(max_examples=80, deadline=None)
def test_gpu_counter_matches_summed_queues(script):
    _replay(
        GPUDevice, GPU, script,
        lambda dev: sum(j.batch.size for j in dev._pending_spatial)
        + sum(j.batch.size for j in dev._temporal_q),
    )


#: Slowdown below the knee too, so every resident-set change moves the rate.
SLOPED = InterferenceModel(alpha=1.3, sub_knee_slope=0.05)

gpu_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=1, max_value=8),  # batch size
            st.booleans(),  # spatial
            st.floats(min_value=0.5, max_value=3.0),  # memory (GB)
            st.floats(min_value=0.0, max_value=0.9),  # FBR
            st.booleans(),  # submit again from on_complete
        ),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.3)),
        st.tuples(st.just("evict_one")),
        st.tuples(st.just("evict_queued")),
        st.tuples(st.just("evict_all")),
    ),
    max_size=40,
)


def _assert_rate_cache(dev):
    fresh = float(sum(j.fbr for j in dev._active))
    assert dev.total_fbr == fresh
    rate = 1.0 / dev.interference.slowdown(fresh) if dev._active else 1.0
    assert dev._rate() == rate


@given(gpu_ops)
@settings(max_examples=80, deadline=None)
def test_gpu_rate_cache_matches_resident_set(script):
    sim = Simulator()
    dev = GPUDevice(sim, GPU, interference=SLOPED, rng=np.random.default_rng(0))

    def job(size, spatial, mem, fbr, again):
        j = _job(sim, size, spatial, mem)
        j.fbr = fbr

        def on_complete(done):
            _assert_rate_cache(dev)
            if again:
                dev.submit(job(size, not spatial, mem, fbr, False))
                _assert_rate_cache(dev)

        j.on_complete = on_complete
        return j

    for op in script:
        if op[0] == "submit":
            dev.submit(job(*op[1:]))
        elif op[0] == "advance":
            sim.run(until=sim.now + op[1])
        else:
            getattr(dev, op[0])()
        _assert_rate_cache(dev)
    sim.run()
    _assert_rate_cache(dev)
    assert dev.total_fbr == 0.0 and dev._rate() == 1.0

"""``queued_requests()`` is a counter; it must equal the summed queues.

Both devices keep a running count of the requests in their queues
(Algorithm 1 reads it every monitoring tick).  Random sequences of
submissions, completions and every evict path must leave the counter
equal to the sum of the queued batches' sizes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.framework.request import Batch, ShareMode
from repro.hardware.catalog import default_catalog
from repro.simulator.cpu import CPUDevice
from repro.simulator.engine import Simulator
from repro.simulator.gpu import GPUDevice
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

"""Node-failure runs keep the fingerprints of the retired failure path.

Periodic node failures (Fig 13b) used to run through a dedicated
single-pattern injector selected by ``RunConfig(failure_schedule=...)``.
That path was deleted in favour of the one fault-injection path,
``RunConfig(chaos=ChaosSpec(faults=(PeriodicOutage(...),)))``.  Before the
deletion, every failure-schedule run in the repository was recorded on the
old path; the fingerprints are committed below and the periodic-outage
path must reproduce each one bit for bit:

* ``system`` / ``reconfig_*`` / ``horizon_*`` — the framework tests'
  failure runs;
* ``example`` — the node-failure study of ``examples/adverse_conditions.py``;
* ``fig13b/<scheme>/<seed>`` — every cell of Fig 13b at its defaults.

Each entry is ``(sha256 of the float64 per-request latencies, sha256 of
the JSON of result_fingerprint(), total_cost, switch_log)``.
``test_chaos.py`` anchors its own run-level equivalence run the same way.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.paldia import PaldiaPolicy
from repro.experiments.fig13 import FAILURE_CONFIG, FAILURE_MODEL
from repro.experiments.runner import CellSpec, run_cell
from repro.experiments.schemes import SCHEMES
from repro.experiments.trace_factories import azure_factory
from repro.framework.slo import SLO
from repro.framework.system import RunConfig, ServerlessRun
from repro.hardware.profiles import ProfileService
from repro.simulator.chaos import ChaosSpec, PeriodicOutage
from repro.workloads.models import get_model
from repro.workloads.traces import azure_trace, constant_trace


def outage(period, downtime, first_failure_at):
    return RunConfig(
        chaos=ChaosSpec(
            faults=(PeriodicOutage(period, downtime, first_failure_at),)
        )
    )


def result_fingerprint(r):
    """The run-level summary two bit-identical runs must share."""
    return (
        r.slo_compliance, r.total_cost, r.p50_seconds, r.p99_seconds,
        r.completed_requests, r.unserved_requests, r.n_switches,
        r.cold_starts, tuple(r.switch_log), tuple(sorted(r.tail_breakdown.items())),
    )


def fingerprint(r):
    latencies = np.asarray(r.metrics.latencies(), dtype=np.float64)
    return (
        hashlib.sha256(latencies.tobytes()).hexdigest(),
        hashlib.sha256(json.dumps(result_fingerprint(r)).encode()).hexdigest(),
        r.total_cost,
        tuple(tuple(entry) for entry in r.switch_log),
    )


def _paldia(model_name, trace_fn, config):
    model = get_model(model_name)
    profiles = ProfileService()
    slo = SLO()
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    return ServerlessRun(
        model, trace_fn(model), policy, profiles, slo, config
    ).execute()


def _azure(duration, seed):
    return lambda m: azure_trace(peak_rps=m.peak_rps, duration=duration, seed=seed)


def _constant(rate, duration):
    return lambda m: constant_trace(rate, duration)


def _fig13b(scheme, seed):
    return lambda: run_cell(
        CellSpec(
            scheme, FAILURE_MODEL, seed, azure_factory(420.0),
            config=FAILURE_CONFIG, keep_metrics=True,
        )
    )


RUNS = {
    "system": lambda: _paldia(
        "resnet50", _constant(10.0, 150.0), outage(60.0, 20.0, 30.0)
    ),
    "reconfig_excluded": lambda: _paldia(
        "resnet50", _constant(10.0, 130.0), outage(100.0, 40.0, 30.0)
    ),
    "reconfig_deescalation": lambda: _paldia(
        "resnet50", _constant(10.0, 120.0), outage(100.0, 60.0, 20.0)
    ),
    "horizon_exact": lambda: _paldia(
        "resnet50", _constant(5.0, 60.0), outage(120.0, 30.0, 60.0)
    ),
    "horizon_inside": lambda: _paldia(
        "resnet50", _constant(5.0, 60.0), outage(120.0, 30.0, 59.0)
    ),
    "example": lambda: _paldia(
        "densenet121", _azure(300.0, 5), outage(120.0, 60.0, 60.0)
    ),
    **{
        f"fig13b/{scheme}/{seed}": _fig13b(scheme, seed)
        for scheme in SCHEMES
        for seed in (1, 2)
    },
}

#: Recorded on the retired ``failure_schedule`` path.
RECORDED = {
    "system": (
        "af04a1118ea1259c7b46cb3d284dcadd957de8f59331e7288de54ef28ed35038",
        "884ef78723ac0ac8cae981c1ee1360900631a590622795a43090ce667c2bb3ee",
        0.07126111111111111,
        (
            (0.0, "-", "c6i.4xlarge"),
            (35.5, "-", "g3s.xlarge"),
            (41.0, "g3s.xlarge", "p3.2xlarge"),
            (60.5, "p3.2xlarge", "c6i.4xlarge"),
            (95.5, "-", "g3s.xlarge"),
            (101.0, "g3s.xlarge", "p3.2xlarge"),
            (120.5, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
    "reconfig_excluded": (
        "22cda536fd3970bbcb39a8e91d510c4fc7df4fc999997debfb20c9ff478223cb",
        "6374e0809462aba5de8c74ae0643a37b5026293e6441762ba02d54d59a82f5a0",
        0.062075000000000005,
        (
            (0.0, "-", "c6i.4xlarge"),
            (35.5, "-", "g3s.xlarge"),
            (41.0, "g3s.xlarge", "p3.2xlarge"),
            (80.5, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
    "reconfig_deescalation": (
        "0bd813cf3455c5a20b6435d49c9be47d0ef53fa1b32eece5ea603185509236d9",
        "6848a857dc5c6f4343a409369188df5815ccbe027afc27e497ea2a9058c32b8a",
        0.07340833333333334,
        (
            (0.0, "-", "c6i.4xlarge"),
            (25.5, "-", "g3s.xlarge"),
            (31.0, "g3s.xlarge", "p3.2xlarge"),
            (90.5, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
    "horizon_exact": (
        "0c3f1e980f01f565b5e9605403f14be48ab370b7b3fb965fac8ff87a5adffec6",
        "4e021c902dbcad0ebef7250428053a56d9a3c076800c6a2f59d4039340f94c5e",
        0.017,
        (
            (0.0, "-", "c6i.4xlarge"),
        ),
    ),
    "horizon_inside": (
        "e78e780adcd58052c14c0dbcaf94009c1a0c59a4155b2d9f5970059794f87096",
        "88839d304e03aa75ea533184dce10ddcf0e5288650ed1a6d38acd4c79c679d4e",
        0.035111111111111114,
        (
            (0.0, "-", "c6i.4xlarge"),
            (64.5, "-", "g3s.xlarge"),
            (70.0, "g3s.xlarge", "p3.2xlarge"),
        ),
    ),
    "example": (
        "849a0057351c9b1834b632c4307cd6b402b3e280aa23cd1baa876f8119db71c9",
        "61be50b3aede861b4ec284070e80fa5dd4790b0d2bc547cb3cc0921300bfdeb9",
        0.1287625,
        (
            (0.0, "-", "c6i.4xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (71.0, "g3s.xlarge", "p3.2xlarge"),
            (131.0, "p3.2xlarge", "g3s.xlarge"),
            (160.0, "g3s.xlarge", "p3.2xlarge"),
            (185.5, "-", "g3s.xlarge"),
            (247.5, "g3s.xlarge", "c6i.4xlarge"),
        ),
    ),
    "fig13b/molecule_P/1": (
        "e07cd3b2e91be57011af67e20e0c59cb7ee423fed0249c744e46352afbd855f0",
        "a5a381393722b826a4d4ee5c4b68d05e2c7b01b1d9f4da868a69934e9aa447e3",
        0.26851250000000004,
        (
            (0.0, "-", "p3.2xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (126.5, "g3s.xlarge", "p3.2xlarge"),
            (185.5, "-", "g3s.xlarge"),
            (246.5, "g3s.xlarge", "p3.2xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (366.5, "g3s.xlarge", "p3.2xlarge"),
        ),
    ),
    "fig13b/molecule_P/2": (
        "ab510ce483f37580c3962819706b213e9466b9dd14929daf77fa8aee85bf1b7f",
        "65dd9b5662af6f048eb9334f0ed583837cc52056e36293d138acb7089cfd27b1",
        0.26851250000000004,
        (
            (0.0, "-", "p3.2xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (126.5, "g3s.xlarge", "p3.2xlarge"),
            (185.5, "-", "g3s.xlarge"),
            (246.5, "g3s.xlarge", "p3.2xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (366.5, "g3s.xlarge", "p3.2xlarge"),
        ),
    ),
    "fig13b/infless_llama_P/1": (
        "8d5eed2da81cedff899d287b30cfa3a78244c048553fcdf5a2f3862a29a885ea",
        "6d95d46498e5abf0ab2a95b754d8d91710ce161b7b32c508ada49154e04a29ee",
        0.2758041666666667,
        (
            (0.0, "-", "p3.2xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (126.5, "g3s.xlarge", "p3.2xlarge"),
            (185.5, "-", "g3s.xlarge"),
            (246.5, "g3s.xlarge", "p3.2xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (366.5, "g3s.xlarge", "p3.2xlarge"),
        ),
    ),
    "fig13b/infless_llama_P/2": (
        "98c8d21c65ff677df010a24e36e05188b24a0910695111b91bcb4fb4c4d80d79",
        "d5fd358f1369b9781d97c38dfbd634b9cd9980974059a4ccda1eaebec5f7b31d",
        0.27101250000000005,
        (
            (0.0, "-", "p3.2xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (126.5, "g3s.xlarge", "p3.2xlarge"),
            (185.5, "-", "g3s.xlarge"),
            (246.5, "g3s.xlarge", "p3.2xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (366.5, "g3s.xlarge", "p3.2xlarge"),
        ),
    ),
    "fig13b/molecule_$/1": (
        "a33d6c55fce65fe60795b0fce6c08c325f6fb2cd819f34d06a5c5b858a15b117",
        "1da10af136c9368b1980f3c484a60582252a658ee447f4f494a168a17f8bb3bc",
        0.13756527777777777,
        (
            (0.0, "-", "c6i.4xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (185.5, "-", "p3.2xlarge"),
            (249.5, "p3.2xlarge", "c6i.4xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (374.0, "g3s.xlarge", "c6i.4xlarge"),
        ),
    ),
    "fig13b/molecule_$/2": (
        "f1f2b39760b019b126d61e6029af62539b9db5e739f95609d150fc893341b533",
        "f1f321f45cb2774ae6fc99bee41ad5c9a22989c6a8db6959ba68c16191227008",
        0.1828777777777778,
        (
            (0.0, "-", "c6i.4xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (185.5, "-", "p3.2xlarge"),
            (249.5, "p3.2xlarge", "c6i.4xlarge"),
            (263.5, "c6i.4xlarge", "g3s.xlarge"),
            (305.5, "-", "p3.2xlarge"),
            (369.5, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
    "fig13b/infless_llama_$/1": (
        "1b956accd05165badb8fa03390e448f844f250769c351c1ed786e5f084997446",
        "ea7d5863211a78bcfe1bc5e2efb3b320f290d0e68721030fff838a02804e4b1e",
        0.13756527777777777,
        (
            (0.0, "-", "c6i.4xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (185.5, "-", "p3.2xlarge"),
            (249.5, "p3.2xlarge", "c6i.4xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (374.0, "g3s.xlarge", "c6i.4xlarge"),
        ),
    ),
    "fig13b/infless_llama_$/2": (
        "8a17d3b09c7937ede5fe82bb28676cc174b1d9cf0b2d475e0bbba62a88dd3829",
        "3d394dc99123fc41e672e669d3f1ac761660a02c46fdfaa751b9c6a4e2d8181b",
        0.1828777777777778,
        (
            (0.0, "-", "c6i.4xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (185.5, "-", "p3.2xlarge"),
            (249.5, "p3.2xlarge", "c6i.4xlarge"),
            (263.5, "c6i.4xlarge", "g3s.xlarge"),
            (305.5, "-", "p3.2xlarge"),
            (369.5, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
    "fig13b/paldia/1": (
        "4fdd7af878088721d06976d9575ae172be1453ca217819070fcc0d6ecca9bdc0",
        "6d2f6c2d67683996ad789b80af16e25ce6e8d30bf865c8df3c2880516419b8a7",
        0.22991111111111112,
        (
            (0.0, "-", "c6i.4xlarge"),
            (53.5, "c6i.4xlarge", "g3s.xlarge"),
            (65.5, "-", "p3.2xlarge"),
            (131.5, "p3.2xlarge", "g3s.xlarge"),
            (185.5, "-", "p3.2xlarge"),
            (253.5, "p3.2xlarge", "c6i.4xlarge"),
            (305.5, "-", "g3s.xlarge"),
            (311.0, "g3s.xlarge", "p3.2xlarge"),
            (370.0, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
    "fig13b/paldia/2": (
        "3c64e920c65a48c7397d335499ebf0761557dca5705ac1761380ab29148d475d",
        "ea60555f38e53f70b9a2b2891dc7672103f09172f3662b6c105fe02a586d3d84",
        0.24410972222222227,
        (
            (0.0, "-", "c6i.4xlarge"),
            (65.5, "-", "g3s.xlarge"),
            (71.0, "g3s.xlarge", "p3.2xlarge"),
            (131.0, "p3.2xlarge", "g3s.xlarge"),
            (152.5, "g3s.xlarge", "p3.2xlarge"),
            (168.0, "p3.2xlarge", "g3s.xlarge"),
            (185.5, "-", "p3.2xlarge"),
            (250.0, "p3.2xlarge", "c6i.4xlarge"),
            (261.0, "c6i.4xlarge", "g3s.xlarge"),
            (305.5, "-", "p3.2xlarge"),
            (370.5, "p3.2xlarge", "c6i.4xlarge"),
        ),
    ),
}


def test_every_run_is_recorded():
    assert set(RUNS) == set(RECORDED)


@pytest.mark.parametrize("case", list(RECORDED))
def test_periodic_outage_reproduces_recorded_fingerprint(case):
    assert fingerprint(RUNS[case]()) == RECORDED[case]

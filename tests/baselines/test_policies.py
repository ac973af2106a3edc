"""Tests for the baseline policies and the shared interface."""

import pytest

from repro.baselines.base import HysteresisGate, PlannedBatch, WindowPlan
from repro.baselines.infless_llama import InflessLlamaPolicy
from repro.baselines.molecule import MoleculePolicy
from repro.baselines.offline_hybrid import OfflineHybridPolicy
from repro.core.paldia import PaldiaPolicy
from repro.framework.request import ShareMode


def prime(policy, rate, n=6):
    for _ in range(n):
        policy.observe_rate(rate, 0.0)


class TestWindowPlan:
    def test_counts(self):
        plan = WindowPlan(
            batches=(
                PlannedBatch(16, ShareMode.SPATIAL),
                PlannedBatch(8, ShareMode.TEMPORAL),
            ),
            y=8,
        )
        assert plan.n == 24
        assert plan.n_spatial_batches == 1
        assert plan.has_temporal


class TestHysteresisGate:
    def test_same_choice_never_switches(self, m60):
        gate = HysteresisGate(3)
        for _ in range(10):
            assert not gate.propose(m60, m60)

    def test_escalation_after_wait_limit(self, m60, v100):
        gate = HysteresisGate(3, wait_limit_down=10)
        assert not gate.propose(m60, v100)
        assert not gate.propose(m60, v100)
        assert gate.propose(m60, v100)

    def test_deescalation_damped(self, m60, v100):
        gate = HysteresisGate(3, wait_limit_down=5)
        results = [gate.propose(v100, m60) for _ in range(5)]
        assert results == [False] * 4 + [True]

    def test_no_current_switches_immediately(self, m60):
        assert HysteresisGate(3).propose(None, m60)


class TestInflessLlama:
    def test_spatial_only_plans(self, profiles, resnet50, m60):
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2)
        plan = pol.plan_window(64, m60, 0.0, 0.0)
        assert all(b.mode == ShareMode.SPATIAL for b in plan.batches)
        assert plan.y == 0

    def test_cpu_plans_temporal(self, profiles, resnet50, cpu_node):
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2)
        plan = pol.plan_window(8, cpu_node, 0.0, 0.0)
        assert all(b.mode == ShareMode.TEMPORAL for b in plan.batches)

    def test_performant_variant_pins_v100(self, profiles, resnet50):
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2, cost_effective=False)
        assert pol.initial_hardware(5.0).name == "p3.2xlarge"
        assert pol.name == "infless_llama_P"

    def test_cost_variant_starts_cheap_at_low_rate(self, profiles, resnet50):
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2, cost_effective=True)
        assert pol.initial_hardware(5.0).price_per_hour < 1.0

    def test_believed_capacity_is_mps_optimistic(self, profiles, resnet50, m60):
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2)
        believed = pol._believed_capacity(m60)
        actual = profiles.capacity_rps(resnet50, m60, 0.2)
        assert believed > actual  # co-location assumed free

    def test_stays_on_cheap_gpu_at_peak(self, profiles, resnet50, m60):
        # The interference-agnostic rule believes the M60 can serve far
        # beyond its real capability -> no escalation at the class peak.
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2)
        prime(pol, resnet50.peak_rps, n=20)
        desired = pol.desired_hardware(
            0.0, m60, 0.0, 0, unavailable=frozenset()
        )
        assert desired is None

    def test_backlog_ignored(self, profiles, resnet50, m60):
        pol = InflessLlamaPolicy(resnet50, profiles, 0.2)
        prime(pol, 50.0)
        desired = pol.desired_hardware(
            0.0, m60, 0.0, 10_000, unavailable=frozenset()
        )
        assert desired is None  # agnostic by design


class TestMolecule:
    def test_temporal_only_plans(self, profiles, resnet50, m60):
        pol = MoleculePolicy(resnet50, profiles, 0.2)
        plan = pol.plan_window(64, m60, 0.0, 0.0)
        assert all(b.mode == ShareMode.TEMPORAL for b in plan.batches)
        assert plan.y == 64

    def test_inherits_infless_hardware_rule(self, profiles, resnet50):
        mol = MoleculePolicy(resnet50, profiles, 0.2)
        inf = InflessLlamaPolicy(resnet50, profiles, 0.2)
        assert mol.initial_hardware(5.0).name == inf.initial_hardware(5.0).name

    def test_names(self, profiles, resnet50):
        assert MoleculePolicy(resnet50, profiles, 0.2).name == "molecule_$"
        assert (
            MoleculePolicy(resnet50, profiles, 0.2, cost_effective=False).name
            == "molecule_P"
        )


class TestOfflineHybrid:
    def test_pinned_hardware(self, profiles, resnet50, m60):
        pol = OfflineHybridPolicy(resnet50, profiles, 0.2, m60, 0.5)
        assert pol.initial_hardware(100.0) is m60
        assert pol.desired_hardware(0.0, m60, 0.0, 0, frozenset()) is None

    def test_fraction_splits_window(self, profiles, resnet50, m60):
        pol = OfflineHybridPolicy(resnet50, profiles, 0.2, m60, 0.5)
        plan = pol.plan_window(64, m60, 0.0, 0.0)
        assert plan.y == 32
        assert plan.n == 64

    def test_fraction_bounds(self, profiles, resnet50, m60):
        with pytest.raises(ValueError):
            OfflineHybridPolicy(resnet50, profiles, 0.2, m60, 1.5)

    def test_zero_fraction_is_pure_mps(self, profiles, resnet50, m60):
        pol = OfflineHybridPolicy(resnet50, profiles, 0.2, m60, 0.0)
        plan = pol.plan_window(64, m60, 0.0, 0.0)
        assert all(b.mode == ShareMode.SPATIAL for b in plan.batches)


class TestPaldiaPolicy:
    def test_low_rate_initial_is_cpu(self, profiles, resnet50):
        pol = PaldiaPolicy(resnet50, profiles, 0.2)
        assert not pol.initial_hardware(8.0).is_gpu

    def test_peak_rate_initial_is_gpu(self, profiles, resnet50):
        pol = PaldiaPolicy(resnet50, profiles, 0.2)
        assert pol.initial_hardware(resnet50.peak_rps).is_gpu

    def test_plan_covers_window(self, profiles, resnet50, m60):
        pol = PaldiaPolicy(resnet50, profiles, 0.2)
        plan = pol.plan_window(100, m60, 0.0, 0.0)
        assert plan.n == 100

    def test_loaded_device_pushes_to_temporal(self, profiles, resnet50, m60):
        pol = PaldiaPolicy(resnet50, profiles, 0.2)
        free = pol.plan_window(28, m60, 0.0, 0.0)
        loaded = pol.plan_window(28, m60, 2.0, 0.0)  # saturated residency
        assert loaded.y >= free.y

    def test_escalates_at_peak_from_cheap_gpu(self, profiles, resnet50, m60):
        pol = PaldiaPolicy(resnet50, profiles, 0.2)
        prime(pol, resnet50.peak_rps, n=10)
        desired = None
        for i in range(30):
            desired = desired or pol.desired_hardware(
                float(i), m60, 0.0, 500, unavailable=frozenset()
            )
        assert desired is not None
        assert desired.perf_rank < m60.perf_rank

    def test_cpu_plans_temporal_lanes(self, profiles, resnet50, cpu_node):
        pol = PaldiaPolicy(resnet50, profiles, 0.2)
        plan = pol.plan_window(8, cpu_node, 0.0, 0.0)
        assert all(b.mode == ShareMode.TEMPORAL for b in plan.batches)

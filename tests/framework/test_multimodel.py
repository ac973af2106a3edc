"""Tests for multi-model deployments."""

import pytest

from repro.core.paldia import PaldiaPolicy
from repro.framework.multimodel import Deployment, MultiModelRun
from repro.framework.system import ServerlessRun
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulator
from repro.telemetry import Tracer
from repro.workloads.models import get_model
from repro.workloads.traces import constant_trace


def make_deployments(profiles, slo, names=("resnet50", "senet18")):
    deps = []
    for i, name in enumerate(names):
        model = get_model(name)
        trace = constant_trace(10.0 + 5 * i, 60.0)
        deps.append(
            Deployment(model, trace, PaldiaPolicy(model, profiles,
                                                  slo.target_seconds))
        )
    return deps


class TestValidation:
    def test_empty_rejected(self, profiles, slo):
        with pytest.raises(ValueError):
            MultiModelRun([], profiles, slo)

    def test_duplicate_models_rejected(self, profiles, slo):
        deps = make_deployments(profiles, slo, ("resnet50", "resnet50"))
        with pytest.raises(ValueError):
            MultiModelRun(deps, profiles, slo)

    def test_shared_cluster_lane_cannot_be_traced(self, profiles, slo):
        """Lease facts reach the sinks through the cluster's tracer, so a
        traced lane on a shared cluster would bill nothing: refused."""
        (dep,) = make_deployments(profiles, slo, ("resnet50",))
        sim = Simulator()
        cluster = Cluster(sim, profiles.catalog)
        with pytest.raises(ValueError, match="cluster"):
            ServerlessRun(
                dep.model, dep.trace, dep.policy, profiles, slo,
                sim=sim, cluster=cluster, tracer=Tracer(),
            )
        # Untraced lanes (MultiModelRun's) and a disabled tracer are fine.
        ServerlessRun(
            dep.model, dep.trace, dep.policy, profiles, slo,
            sim=sim, cluster=cluster, tracer=Tracer(enabled=False),
        )


class TestAccounting:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.framework.slo import SLO
        from repro.hardware.profiles import ProfileService

        profiles = ProfileService()
        slo = SLO()
        return MultiModelRun(
            make_deployments(profiles, slo), profiles, slo
        ).execute()

    def test_per_model_results_present(self, result):
        assert set(result.per_model) == {"resnet50", "senet18"}

    def test_each_lane_conserves_requests(self, result):
        for r in result.per_model.values():
            assert (
                r.completed_requests + r.unserved_requests == r.offered_requests
            )

    def test_lane_costs_partition_provider_bill(self, result):
        lane_sum = sum(r.total_cost for r in result.per_model.values())
        assert lane_sum == pytest.approx(result.total_cost)

    def test_overall_compliance_is_request_weighted(self, result):
        offered = sum(r.offered_requests for r in result.per_model.values())
        expected = (
            sum(
                r.slo_compliance * r.offered_requests
                for r in result.per_model.values()
            )
            / offered
        )
        assert result.overall_slo_compliance == pytest.approx(expected)

    def test_lanes_serve_concurrently_on_one_clock(self, result):
        # Both lanes ran over the same horizon: each leased hardware for
        # roughly the full duration (not sequentially doubled).
        for r in result.per_model.values():
            assert sum(r.time_by_spec.values()) <= 60.0 + 30.0 + 10.0

    def test_energy_positive(self, result):
        assert result.total_energy_joules > 0


class TestIndependence:
    def test_lanes_match_standalone_runs(self, profiles, slo):
        # With disjoint node leases and no cross-lane coupling, a lane's
        # compliance matches a standalone run of the same deployment.
        from repro.framework.system import ServerlessRun

        model = get_model("resnet50")
        trace = constant_trace(10.0, 60.0)
        standalone = ServerlessRun(
            model, trace,
            PaldiaPolicy(model, profiles, slo.target_seconds),
            profiles, slo,
        ).execute()
        multi = MultiModelRun(
            [Deployment(model, trace,
                        PaldiaPolicy(model, profiles, slo.target_seconds))],
            profiles, slo,
        ).execute()
        lane = multi.per_model["resnet50"]
        assert lane.offered_requests == standalone.offered_requests
        assert lane.slo_compliance == pytest.approx(
            standalone.slo_compliance, abs=0.02
        )

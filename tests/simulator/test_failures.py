"""Tests for periodic node failures (Fig 13b's ``PeriodicOutage``)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.simulator.chaos import ChaosEngine, ChaosHooks, ChaosSpec, PeriodicOutage
from repro.simulator.engine import Simulator


def closed_form_down(outage, t):
    """Whether ``outage`` holds the node down at ``t`` (phase arithmetic)."""
    if t < outage.first_failure_at:
        return False
    phase = (t - outage.first_failure_at) % outage.period_seconds
    return phase < outage.downtime_seconds


def drive(outage, horizon, probes=()):
    """Run ``outage`` on a fresh engine; returns ``(events, down_at,
    engine)``: the fail/recover stream and ``node_down`` at each probe."""
    sim = Simulator()
    events = []
    engine = ChaosEngine(
        sim,
        ChaosSpec(faults=(outage,)),
        ChaosHooks(
            on_node_fail=lambda: events.append(("fail", sim.now)),
            on_node_recover=lambda: events.append(("recover", sim.now)),
        ),
        horizon=horizon,
    )
    down_at = {}
    for t in probes:
        sim.schedule_at(t, lambda t=t: down_at.__setitem__(t, engine.node_down))
    engine.start()
    sim.run()
    return events, down_at, engine


class TestSchedule:
    def test_downtime_must_be_shorter_than_period(self):
        with pytest.raises(ValueError):
            PeriodicOutage(period_seconds=60.0, downtime_seconds=60.0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError):
            PeriodicOutage(period_seconds=-1.0, downtime_seconds=0.5)

    def test_is_down_before_first_failure(self):
        outage = PeriodicOutage(120.0, 60.0, first_failure_at=60.0)
        _, down_at, _ = drive(outage, 400.0, probes=[30.0])
        assert down_at == {30.0: False}

    def test_is_down_during_outage(self):
        outage = PeriodicOutage(120.0, 60.0, first_failure_at=60.0)
        _, down_at, _ = drive(outage, 400.0, probes=[61.0, 119.0])
        assert down_at == {61.0: True, 119.0: True}

    def test_is_up_between_outages(self):
        outage = PeriodicOutage(120.0, 60.0, first_failure_at=60.0)
        _, down_at, _ = drive(outage, 400.0, probes=[130.0, 185.0])
        assert down_at == {130.0: False, 185.0: True}  # second outage at 180


class TestInjector:
    def test_alternating_callbacks(self):
        events, _, engine = drive(
            PeriodicOutage(100.0, 40.0, first_failure_at=10.0), 250.0
        )
        assert events[:4] == [
            ("fail", 10.0),
            ("recover", 50.0),
            ("fail", 110.0),
            ("recover", 150.0),
        ]
        assert engine.injected["periodic_outage"] >= 2

    def test_horizon_stops_injection(self):
        events, _, _ = drive(
            PeriodicOutage(100.0, 40.0, first_failure_at=10.0), 20.0
        )
        assert [kind for kind, _ in events] == ["fail", "recover"]


class TestScheduleInjectorAgreement:
    """Property: the event stream the engine emits agrees with the
    outage's closed-form phase arithmetic across random schedules."""

    @given(
        period=st.floats(min_value=5.0, max_value=300.0),
        downtime_frac=st.floats(min_value=0.05, max_value=0.9),
        first=st.floats(min_value=0.0, max_value=200.0),
        horizon=st.floats(min_value=10.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_events_agree_with_is_down(self, period, downtime_frac, first,
                                       horizon):
        downtime = period * downtime_frac
        # The engine accumulates onsets as float sums; when a grid point
        # sits within float noise of the horizon, whether it fires is
        # ambiguous.  Stay away from that boundary.
        k_near = round((horizon - first) / period)
        assume(abs(first + k_near * period - horizon) > 1e-3)
        outage = PeriodicOutage(period, downtime, first_failure_at=first)
        events, _, engine = drive(outage, horizon)

        # Strict fail/recover alternation, starting with a fail.
        assert [kind for kind, _ in events] == (
            ["fail", "recover"] * (len(events) // 2)
        )

        # Onsets are exactly the schedule's grid points below the horizon.
        expected, t = [], first
        while t < horizon:
            expected.append(t)
            t += period
        fails = [t for kind, t in events if kind == "fail"]
        recovers = [t for kind, t in events if kind == "recover"]
        assert fails == pytest.approx(expected)
        assert recovers == pytest.approx([f + downtime for f in fails])
        assert engine.injected["periodic_outage"] == len(expected)

        # Between each pair, the engine's node_down and the closed form
        # agree at interior sample points (boundary instants are left
        # undefined by float accumulation).
        probes = []
        for f in fails:
            probes += [f + downtime / 2.0,
                       f + downtime + (period - downtime) / 2.0]
        _, down_at, _ = drive(outage, horizon, probes=probes)
        for t in probes:
            assert down_at[t] == closed_form_down(outage, t), t

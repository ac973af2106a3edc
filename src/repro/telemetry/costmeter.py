"""Dollar-grade cost metering: itemized lease-seconds and budget alerts.

The cluster already bills leases (Section V: lease-time-weighted node
prices), but the bill is one opaque scalar.  This module itemizes every
lease-second into exactly one of four buckets:

* **reconfiguration** — the VM is provisioning (lease start until the
  node's ``on_ready``); nothing can run yet, but billing already started.
* **busy** — at least one batch is resident on the device.  Busy dollars
  are attributed to the resident batches *pro-rata by occupancy* (a
  batch of 8 co-running with a batch of 2 absorbs 80% of the interval's
  dollars), so each request gets a ``cost_dollars`` share that rolls up
  exactly to the lease bill — a conservation identity.
* **cold-start** — no batch resident, but containers are spawning (the
  dollars bought warm pools, not inference).
* **idle** — a warm node waiting for traffic (keep-alive dollars).

Every lease-second lands in exactly one bucket, so::

    sum(request cost_dollars) + idle + cold_start + reconfiguration
        == RunResult.total_cost          (within float tolerance)

Like the sampler and self-profiler, the meter is a pure observer with a
zero-overhead disabled path.  Every traced run attaches one to its
:class:`~repro.telemetry.tracer.Tracer`; the cluster, container pools
and framework report lease, spawn and batch facts to the tracer behind
one ``if tracer.enabled:`` branch each, so an untraced run never enters
this module, proven by deterministic
call-count gates (``benchmarks/test_bench_costmeter.py``).

:class:`CostBudgetMonitor` (shape of
:class:`~repro.telemetry.slo_monitor.SLOMonitor`) rides the telemetry
tick: it tracks the $/hour burn rate over a sliding window and emits
edge-triggered ``budget_alert`` trace events when the projected
end-of-run spend crosses ``RunConfig.cost_budget_dollars`` — ``firing``
once on the way up, ``resolved`` once on the way back down.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.catalog import HardwareSpec
    from repro.telemetry.tracer import Tracer

__all__ = [
    "BUCKETS",
    "CostBreakdown",
    "CostBudgetMonitor",
    "CostMeter",
    "LeaseCost",
    "ModelSpecCost",
]

#: Itemization buckets, in waterfall order.
BUCKETS = ("busy", "coldstart", "idle", "reconfig")


class _LeaseState:
    """Everything the meter records about one lease, keyed by node_id."""

    __slots__ = (
        "node_id", "spec_name", "price_per_second", "start", "ready_at",
        "end", "spawns", "batches",
    )

    def __init__(
        self,
        node_id: int,
        spec_name: str,
        price_per_second: float,
        start: float,
        ready_at: float,
    ) -> None:
        self.node_id = node_id
        self.spec_name = spec_name
        self.price_per_second = price_per_second
        self.start = start
        self.ready_at = ready_at
        self.end: Optional[float] = None
        #: (t0, t1) container-spawn intervals on this node.
        self.spawns: list[tuple[float, float]] = []
        #: (batch_id, model, n_requests, started_at, completed_at).
        self.batches: list[tuple[int, str, int, float, float]] = []


@dataclass
class LeaseCost:
    """One lease's itemized bill."""

    node_id: int
    spec: str
    start: float
    end: float
    total_dollars: float
    #: Dollars per bucket; keys are exactly :data:`BUCKETS`.
    bucket_dollars: dict[str, float]
    #: Seconds per bucket (same keys).
    bucket_seconds: dict[str, float]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ModelSpecCost:
    """Busy-dollar aggregate for one (model, hardware spec) pair."""

    model: str
    spec: str
    busy_dollars: float = 0.0
    busy_seconds: float = 0.0
    requests: int = 0
    batches: int = 0

    @property
    def dollars_per_1k_requests(self) -> float:
        return self.busy_dollars / self.requests * 1000.0 if self.requests else 0.0


@dataclass
class CostBreakdown:
    """The meter's end-of-run summary (``RunResult.cost_breakdown``).

    ``total_dollars`` equals the sum of the four buckets by construction;
    ``busy_dollars`` equals the sum of ``batch_cost_dollars`` values (the
    per-batch pro-rata attribution), so per-request dollars
    (``batch cost / batch size``) roll up to the full bill.
    """

    total_dollars: float = 0.0
    bucket_dollars: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BUCKETS}
    )
    bucket_seconds: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in BUCKETS}
    )
    #: Per-lease itemized bills, in acquisition order.
    leases: list[LeaseCost] = field(default_factory=list)
    #: Busy-dollar attribution per (model, spec).
    by_model_spec: dict[tuple[str, str], ModelSpecCost] = field(
        default_factory=dict
    )
    #: All-bucket dollars per hardware spec.
    spec_dollars: dict[str, float] = field(default_factory=dict)
    #: Pro-rata busy dollars per batch_id.
    batch_cost_dollars: dict[int, float] = field(default_factory=dict)
    #: Requests per batch_id (denominator for per-request cost).
    batch_requests: dict[int, int] = field(default_factory=dict)

    @property
    def busy_dollars(self) -> float:
        return self.bucket_dollars["busy"]

    @property
    def coldstart_dollars(self) -> float:
        return self.bucket_dollars["coldstart"]

    @property
    def idle_dollars(self) -> float:
        return self.bucket_dollars["idle"]

    @property
    def reconfig_dollars(self) -> float:
        return self.bucket_dollars["reconfig"]

    def request_cost_dollars(self, batch_id: int) -> float:
        """One request's pro-rata dollar share of its batch."""
        n = self.batch_requests.get(batch_id, 0)
        return self.batch_cost_dollars.get(batch_id, 0.0) / n if n else 0.0

    def attributed_dollars(self) -> float:
        """Per-request attribution + overhead buckets (the conservation
        identity's left-hand side)."""
        return (
            sum(self.batch_cost_dollars.values())
            + self.bucket_dollars["coldstart"]
            + self.bucket_dollars["idle"]
            + self.bucket_dollars["reconfig"]
        )


class CostMeter:
    """Per-lease cost itemization with pro-rata request attribution.

    The meter is event-driven and passive: the cluster reports lease
    acquire/release, container pools report spawn intervals, and the
    framework reports each completed batch's residency interval.  The
    expensive part — the per-lease line sweep that decomposes lease time
    into buckets — runs once per lease at release (or at
    :meth:`summarize` for leases still open), never on the hot path.
    """

    def __init__(self) -> None:
        #: Open leases by node_id.
        self._open: dict[int, _LeaseState] = {}
        #: Closed lease states, in release order.
        self._closed: list[_LeaseState] = []
        #: Running total of closed-lease dollars (for :meth:`spent`).
        self._closed_dollars = 0.0

    # ------------------------------------------------------------------
    # Hooks (called by the tracer's run-fact methods)
    # ------------------------------------------------------------------
    def on_acquire(
        self, node_id: int, spec: "HardwareSpec", now: float, ready_at: float
    ) -> None:
        """Billing starts: lease opened at ``now``; the node can serve
        traffic from ``ready_at`` (== ``now`` for instant acquisition)."""
        self._open[node_id] = _LeaseState(
            node_id, spec.name, spec.price_per_second, now, ready_at
        )

    def on_release(self, node_id: int, now: float) -> None:
        """Billing stops for ``node_id``'s lease."""
        state = self._open.pop(node_id, None)
        if state is None:
            return
        state.end = now
        self._closed.append(state)
        self._closed_dollars += (now - state.start) * state.price_per_second

    def on_spawn(self, node_id: int, t0: float, t1: float) -> None:
        """A container spawn on ``node_id`` occupies ``[t0, t1)``."""
        state = self._open.get(node_id)
        if state is not None:
            state.spawns.append((t0, t1))

    def on_batch(
        self,
        node_id: int,
        model: str,
        batch_id: int,
        n_requests: int,
        started_at: float,
        completed_at: float,
    ) -> None:
        """A batch executed on ``node_id`` over ``[started_at,
        completed_at)``; busy dollars in that span are shared pro-rata
        with any co-resident batches."""
        state = self._open.get(node_id)
        if state is not None:
            state.batches.append(
                (batch_id, model, int(n_requests), started_at, completed_at)
            )

    # ------------------------------------------------------------------
    # Live reads (budget monitor / time-series probes)
    # ------------------------------------------------------------------
    def spent(self, now: float) -> float:
        """Dollars spent so far: closed leases plus open leases billed to
        ``now``.  O(open leases); mutates nothing."""
        open_dollars = sum(
            (now - s.start) * s.price_per_second
            for s in self._open.values()
        )
        return self._closed_dollars + open_dollars

    @property
    def n_leases(self) -> int:
        return len(self._open) + len(self._closed)

    # ------------------------------------------------------------------
    # Itemization
    # ------------------------------------------------------------------
    @staticmethod
    def _itemize(state: _LeaseState, end: float) -> LeaseCost:
        """Line-sweep one lease into bucket dollars/seconds.

        Transition points are the lease boundaries, the ready instant,
        and every (clipped) spawn/batch endpoint; between consecutive
        points the resident set and spawn count are constant, so each
        sub-interval lands in exactly one bucket.  Bucket priority:
        busy > reconfiguration > cold-start > idle.
        """
        start, pps = state.start, state.price_per_second
        ready = min(max(state.ready_at, start), end)
        # (time, order, kind, payload): order makes removals apply before
        # additions at the same instant and keeps sorting deterministic.
        events: list[tuple[float, int, int, tuple]] = []
        ADD_BATCH, REMOVE_BATCH, ADD_SPAWN, REMOVE_SPAWN = 0, 1, 2, 3
        for batch_id, model, n, b0, b1 in state.batches:
            b0, b1 = max(b0, start), min(b1, end)
            if b1 <= b0:
                continue
            events.append((b0, 1, ADD_BATCH, (batch_id, model, n)))
            events.append((b1, 0, REMOVE_BATCH, (batch_id, model, n)))
        for s0, s1 in state.spawns:
            s0, s1 = max(s0, start), min(s1, end)
            if s1 <= s0:
                continue
            events.append((s0, 1, ADD_SPAWN, ()))
            events.append((s1, 0, REMOVE_SPAWN, ()))
        if start < ready:
            events.append((ready, 0, -1, ()))  # bucket boundary only
        events.sort(key=itemgetter(0, 1))

        bucket_dollars = {b: 0.0 for b in BUCKETS}
        bucket_seconds = {b: 0.0 for b in BUCKETS}
        batch_dollars: dict[int, float] = {}
        batch_meta: dict[int, tuple[str, int]] = {}
        resident: dict[int, int] = {}  # batch_id -> n_requests
        resident_requests = 0
        spawning = 0
        cursor = start

        def close_interval(until: float) -> None:
            nonlocal cursor
            dt = until - cursor
            cursor = until
            if dt <= 0:
                return
            dollars = dt * pps
            if resident_requests > 0:
                bucket_dollars["busy"] += dollars
                bucket_seconds["busy"] += dt
                for bid, n in resident.items():
                    batch_dollars[bid] = (
                        batch_dollars.get(bid, 0.0)
                        + dollars * (n / resident_requests)
                    )
            elif until <= ready:
                bucket_dollars["reconfig"] += dollars
                bucket_seconds["reconfig"] += dt
            elif spawning > 0:
                bucket_dollars["coldstart"] += dollars
                bucket_seconds["coldstart"] += dt
            else:
                bucket_dollars["idle"] += dollars
                bucket_seconds["idle"] += dt

        for t, _, kind, payload in events:
            close_interval(min(t, end))
            if kind == ADD_BATCH:
                bid, model, n = payload
                resident[bid] = resident.get(bid, 0) + n
                resident_requests += n
                batch_meta[bid] = (model, n)
            elif kind == REMOVE_BATCH:
                bid, _, n = payload
                resident_requests -= n
                left = resident.get(bid, 0) - n
                if left > 0:
                    resident[bid] = left
                else:
                    resident.pop(bid, None)
            elif kind == ADD_SPAWN:
                spawning += 1
            elif kind == REMOVE_SPAWN:
                spawning -= 1
        close_interval(end)

        lease = LeaseCost(
            node_id=state.node_id,
            spec=state.spec_name,
            start=start,
            end=end,
            total_dollars=sum(bucket_dollars.values()),
            bucket_dollars=bucket_dollars,
            bucket_seconds=bucket_seconds,
        )
        # Stash the per-batch attribution on the result for summarize().
        lease._batch_dollars = batch_dollars  # type: ignore[attr-defined]
        lease._batch_meta = batch_meta  # type: ignore[attr-defined]
        return lease

    def summarize(self, now: float) -> CostBreakdown:
        """Aggregate every lease into a :class:`CostBreakdown`.

        Open leases are billed to ``now`` without being closed (the
        meter stays live).
        """
        out = CostBreakdown()
        states = self._closed + list(self._open.values())
        states.sort(key=lambda s: (s.start, s.node_id))
        for state in states:
            end = state.end if state.end is not None else now
            lease = self._itemize(state, end)
            out.leases.append(lease)
            out.total_dollars += lease.total_dollars
            spec = lease.spec
            out.spec_dollars[spec] = (
                out.spec_dollars.get(spec, 0.0) + lease.total_dollars
            )
            for b in BUCKETS:
                out.bucket_dollars[b] += lease.bucket_dollars[b]
                out.bucket_seconds[b] += lease.bucket_seconds[b]
            batch_dollars = lease._batch_dollars  # type: ignore[attr-defined]
            batch_meta = lease._batch_meta  # type: ignore[attr-defined]
            for bid, dollars in batch_dollars.items():
                model, n = batch_meta[bid]
                out.batch_cost_dollars[bid] = (
                    out.batch_cost_dollars.get(bid, 0.0) + dollars
                )
                out.batch_requests[bid] = max(
                    out.batch_requests.get(bid, 0), n
                )
                key = (model, spec)
                cell = out.by_model_spec.get(key)
                if cell is None:
                    cell = out.by_model_spec[key] = ModelSpecCost(
                        model=model, spec=spec
                    )
                cell.busy_dollars += dollars
            # Requests/batches count each batch once, on the lease where
            # it ran (a batch runs on exactly one node).
            for bid, (model, n) in batch_meta.items():
                key = (model, spec)
                cell = out.by_model_spec.get(key)
                if cell is None:
                    cell = out.by_model_spec[key] = ModelSpecCost(
                        model=model, spec=spec
                    )
                cell.requests += n
                cell.batches += 1
        # Busy seconds per (model, spec): re-derive from batch residency
        # is ambiguous under co-run; credit each cell its dollar share of
        # the spec's busy seconds instead (exact when prices are uniform
        # within a spec, which they are — one price per spec).
        for (model, spec), cell in out.by_model_spec.items():
            spec_busy_dollars = sum(
                l.bucket_dollars["busy"] for l in out.leases if l.spec == spec
            )
            spec_busy_seconds = sum(
                l.bucket_seconds["busy"] for l in out.leases if l.spec == spec
            )
            if spec_busy_dollars > 0:
                cell.busy_seconds = (
                    cell.busy_dollars / spec_busy_dollars * spec_busy_seconds
                )
        return out


class CostBudgetMonitor:
    """Sliding-window burn-rate watchdog over a :class:`CostMeter`.

    Every sample tick reads the meter's cumulative spend, maintains a
    window of (t, spent) points, and computes the **burn rate** in
    dollars/hour.  With a budget configured, the projected end-of-run
    spend (``spent + burn_rate * time_remaining``) is compared against
    it: crossing up emits one edge-triggered ``budget_alert`` trace
    event with ``state="firing"``, crossing back down one with
    ``state="resolved"`` — the same fire-once semantics as
    :class:`~repro.telemetry.slo_monitor.SLOMonitor`.

    Parameters
    ----------
    meter:
        The live cost meter to read.
    tracer:
        Sink for ``budget_alert`` events (and nothing else).
    budget_dollars:
        The run's dollar budget; ``None`` disables alerting (the burn
        rate is still computed for the time-series probes).
    window_seconds:
        Sliding-window width for the burn-rate estimate.
    horizon_seconds:
        When the run ends (trace duration + drain), for the projection.
        ``None`` projects nothing — the alert then compares the *spend
        so far* against the budget.
    """

    def __init__(
        self,
        meter: CostMeter,
        *,
        tracer: Optional["Tracer"] = None,
        budget_dollars: Optional[float] = None,
        window_seconds: float = 30.0,
        horizon_seconds: Optional[float] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if budget_dollars is not None and budget_dollars <= 0:
            raise ValueError("budget_dollars must be positive")
        self.meter = meter
        self.tracer = tracer
        self.budget_dollars = budget_dollars
        self.window_seconds = float(window_seconds)
        self.horizon_seconds = horizon_seconds
        self._samples: deque[tuple[float, float]] = deque()
        self._firing = False
        self.alerts_emitted = 0
        #: Latest windowed $/hour burn rate (time-series probe surface).
        self.burn_rate_per_hour = 0.0
        #: Latest projected end-of-run spend.
        self.projected_dollars = 0.0

    @property
    def firing(self) -> bool:
        return self._firing

    def sample(self, now: float) -> float:
        """One monitor tick; returns the projected end-of-run dollars."""
        spent = self.meter.spent(now)
        samples = self._samples
        samples.append((now, spent))
        cutoff = now - self.window_seconds
        while len(samples) > 1 and samples[0][0] < cutoff:
            samples.popleft()
        t0, s0 = samples[0]
        dt = now - t0
        self.burn_rate_per_hour = (spent - s0) / dt * 3600.0 if dt > 0 else 0.0
        remaining = (
            max(0.0, self.horizon_seconds - now)
            if self.horizon_seconds is not None
            else 0.0
        )
        projected = spent + self.burn_rate_per_hour / 3600.0 * remaining
        self.projected_dollars = projected
        if self.budget_dollars is None:
            return projected
        # Projection needs a real window (two points) before it can fire;
        # a single sample projects from a zero burn rate, which would
        # understate the spend and then flap on the second tick.
        should_fire = dt > 0 and projected > self.budget_dollars
        if should_fire and not self._firing:
            self._firing = True
            self._emit(now, spent, projected, "firing")
        elif not should_fire and self._firing:
            self._firing = False
            self._emit(now, spent, projected, "resolved")
        return projected

    def _emit(
        self, now: float, spent: float, projected: float, state: str
    ) -> None:
        self.alerts_emitted += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "budget_alert",
                now,
                cat="alert",
                track="cost-monitor",
                state=state,
                spent_dollars=spent,
                projected_dollars=projected,
                budget_dollars=self.budget_dollars,
                burn_rate_per_hour=self.burn_rate_per_hour,
                window_seconds=self.window_seconds,
                horizon_seconds=self.horizon_seconds,
            )

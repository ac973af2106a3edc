"""The tracer: spans, decision events, and the disabled-path contract.

Hook sites throughout the simulator and control plane hold a
:class:`Tracer` reference (defaulting to the shared :data:`NULL_TRACER`)
and guard every emission with ``if tracer.enabled:``.  The guard is the
whole disabled-path cost — no attribute dictionaries are built, no
strings formatted, no events scheduled — which is what lets the
acceptance contract hold: a run with tracing disabled is bit-identical
to a run of the untraced code.

Times are **simulation seconds** throughout; the exporters convert to
microseconds for the Chrome ``trace_event`` format.

Span model
----------
A request batch becomes one ``request`` span covering
``[first_arrival, completed_at]`` whose attributes carry the full latency
breakdown (``batching_wait + cold_start_wait + queue_delay + exec_solo +
interference_extra`` — the same components :class:`~repro.simulator.metrics.
MetricsCollector` aggregates), plus three child phase spans:

* ``batching`` — ``[first_arrival, dispatched_at]``: the gateway window.
* ``wait`` — ``[dispatched_at, started_at]``: container acquisition
  (cold-start / queue / interference waits, split in the attributes).
* ``execute`` — ``[started_at, completed_at]``: time on the device.

Decision events are point-in-time records (``hardware_selection.tick``,
``job_distribution.split``, ``autoscaler.*``, ``failure.*``, ``node.*``,
``reconfig.*``) whose attributes are plain JSON-serialisable values so
the audit log survives export/import round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.request import Batch

__all__ = ["SpanRecord", "TraceEventRecord", "Tracer", "NULL_TRACER"]


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """A completed interval on some track of the run timeline."""

    name: str
    cat: str
    track: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class TraceEventRecord:
    """A point-in-time decision/audit event."""

    name: str
    cat: str
    track: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)


# The tracer builds one record per span and event, so their construction
# is its cost.  These constructors fill the slot descriptors directly and
# build the same records as the keyword ``__init__``, without its
# per-field ``object.__setattr__`` calls (a frozen dataclass's price).
# The setters are bound as defaults so that each is a local lookup.
_new = object.__new__
_SPAN_SET = [SpanRecord.__dict__[f].__set__ for f in SpanRecord.__slots__]
_EVENT_SET = [
    TraceEventRecord.__dict__[f].__set__ for f in TraceEventRecord.__slots__
]


def _span_record(
    name, cat, track, start, end, attrs,
    _cls=SpanRecord, _name=_SPAN_SET[0], _cat=_SPAN_SET[1],
    _track=_SPAN_SET[2], _start=_SPAN_SET[3], _end=_SPAN_SET[4],
    _attrs=_SPAN_SET[5],
) -> SpanRecord:
    rec = _new(_cls)
    _name(rec, name)
    _cat(rec, cat)
    _track(rec, track)
    _start(rec, start)
    _end(rec, end)
    _attrs(rec, attrs)
    return rec


def _event_record(
    name, cat, track, time, attrs,
    _cls=TraceEventRecord, _name=_EVENT_SET[0], _cat=_EVENT_SET[1],
    _track=_EVENT_SET[2], _time=_EVENT_SET[3], _attrs=_EVENT_SET[4],
) -> TraceEventRecord:
    rec = _new(_cls)
    _name(rec, name)
    _cat(rec, cat)
    _track(rec, track)
    _time(rec, time)
    _attrs(rec, attrs)
    return rec


class Tracer:
    """Collects spans, events, and metrics for one run.

    It is also the run's one telemetry handle: a traced run attaches
    every sink to it, and each run fact (see "Run facts" below) is one
    method that reaches every attached sink, so emit sites name none.

    Parameters
    ----------
    enabled:
        When ``False`` every emission method returns immediately and hook
        sites skip attribute construction entirely.
    metrics:
        The sim-time metrics registry; a fresh one is created by default.

    Examples
    --------
    >>> tr = Tracer()
    >>> tr.event("demo.tick", 1.0, cat="decision", value=3)
    >>> tr.events[0].attrs["value"]
    3
    """

    def __init__(
        self, enabled: bool = True, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.enabled = bool(enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._spans: list[SpanRecord] = []
        #: One row of scalars per completed batch not yet materialised
        #: into spans (see :meth:`record_batch_span`).
        self._pending_rows: list[tuple] = []
        self.events: list[TraceEventRecord] = []
        self.meta: dict[str, Any] = {}
        #: The run's :class:`~repro.telemetry.timeseries.StateSampler`,
        #: attached by the framework when time-series sampling is on
        #: (``None`` otherwise) so exporters and the Prometheus snapshot
        #: can reach the sampled columns.
        self.timeseries: Any = None
        #: Callbacks ``(now, row)`` forwarded to the sampler at
        #: construction — the CLI registers the live dashboard here
        #: before the run (and its sampler) exists.
        self.timeseries_observers: list[Any] = []
        # The run's other sinks, attached when a traced run sets up
        # (``None`` when absent): a CostMeter, its CostBudgetMonitor, a
        # RequestTracer, an SLOMonitor and the latency histogram.
        self.costmeter: Any = None
        self.cost_monitor: Any = None
        self.reqtrace: Any = None
        self.slo_monitor: Any = None
        self.latency_histogram: Any = None
        #: Sim time the run ended at (set by :meth:`run_end`); where a
        #: Prometheus snapshot evaluates the sinks unless told otherwise.
        self.end_time: Optional[float] = None

    @property
    def spans(self) -> list[SpanRecord]:
        """All recorded spans (materialising any queued batch rows first)."""
        if self._pending_rows:
            self._flush_rows()
        return self._spans

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "span",
        track: str = "run",
        **attrs: Any,
    ) -> None:
        """Record a completed span (retroactive recording: the simulator
        knows both endpoints by the time anything interesting finished)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        self._spans.append(
            _span_record(name, cat, track, float(start), float(end), attrs)
        )

    def event(
        self,
        name: str,
        time: float,
        *,
        cat: str = "event",
        track: str = "control-plane",
        **attrs: Any,
    ) -> None:
        """Record a point-in-time event (decisions, failures, leases)."""
        if not self.enabled:
            return
        self.events.append(_event_record(name, cat, track, float(time), attrs))

    # ------------------------------------------------------------------
    # High-level helpers
    # ------------------------------------------------------------------
    def record_batch_span(self, batch: "Batch") -> None:
        """Queue the request span (plus phase children) for a completed batch.

        The attributes carry the exact breakdown components
        :class:`~repro.simulator.metrics.MetricsCollector` aggregates, so a
        trace file can reproduce the collector's numbers independently.

        This is the highest-frequency hook in a traced run (once per
        completed batch, inside the simulation loop), so it only stores
        one compact row of the batch's scalars here; the four span
        records per batch materialise lazily on first access to
        :attr:`spans` — at export time, off the hot path.  The row holds
        no reference to the batch, so the tracer keeps no completed batch
        alive.
        """
        if not self.enabled:
            return
        if batch.completed_at is None:
            raise ValueError(f"batch {batch.batch_id} has not completed")
        bd = batch.breakdown
        self._pending_rows.append((
            batch.batch_id, batch.model.name, batch.size, batch.mode,
            batch.hardware_name, batch.first_arrival, batch.completed_at,
            batch.started_at, batch.dispatched_at, bd.batching_wait,
            bd.cold_start_wait, bd.queue_delay, bd.exec_solo,
            bd.interference_extra, bd.failure_wait, batch.retries,
        ))

    # ------------------------------------------------------------------
    # Run facts: one method per fact, called behind one ``if
    # tracer.enabled:`` guard at its emit site.  Each reaches every
    # attached sink, in a fixed order, skipping absent ones.
    # ------------------------------------------------------------------
    def node_acquire(self, node_id, spec, now, ready_at, instant) -> None:
        """A lease opened at ``now``; the node serves from ``ready_at``."""
        if self.costmeter is not None:
            self.costmeter.on_acquire(node_id, spec, now, ready_at)
        if self.reqtrace is not None:
            self.reqtrace.on_node_acquire(
                node_id, spec.name, now, ready_at, instant
            )
        self.event(
            "node.acquire", now, cat="lease", track="cluster",
            hardware=spec.name, node_id=node_id, instant=instant,
            provision_seconds=spec.provision_seconds,
        )

    def node_release(self, node_id, lease, now) -> None:
        """``lease`` (a :class:`~repro.simulator.cluster.LeaseRecord`)
        closed at ``now``."""
        if self.costmeter is not None:
            self.costmeter.on_release(node_id, now)
        if self.reqtrace is not None:
            self.reqtrace.on_node_release(node_id, now)
        self.event(
            "node.release", now, cat="lease", track="cluster",
            hardware=lease.spec.name, node_id=node_id,
            lease_seconds=lease.duration(now), lease_cost=lease.cost(now),
        )
        self._lease_span(node_id, lease, now)

    def _lease_span(self, node_id, lease, now, **extra) -> None:
        hardware = lease.spec.name
        self.span(
            f"lease:{hardware}", lease.start, now, cat="lease",
            track="leases", hardware=hardware, node_id=node_id,
            cost=lease.cost(now), **extra,
        )

    def container_spawn(self, node_id, t0, t1) -> None:
        """A container spawn on ``node_id`` occupies ``[t0, t1)``."""
        if self.costmeter is not None:
            self.costmeter.on_spawn(node_id, t0, t1)

    def execute_start(self, batch_id, now, hardware, co_run, fbr) -> None:
        """A device started executing the batch."""
        if self.reqtrace is not None:
            self.reqtrace.on_execute_start(batch_id, now, hardware, co_run, fbr)

    def batch_complete(self, batch: "Batch", node_id, now) -> None:
        """A batch completed on ``node_id``: bill its residency, close its
        request trace, queue its spans, record its latency and feed the
        SLO windows."""
        done = float(batch.completed_at)
        if self.costmeter is not None:
            self.costmeter.on_batch(
                node_id, batch.model.name, batch.batch_id, batch.size,
                float(batch.started_at), done,
            )
        if self.reqtrace is not None:
            self.reqtrace.on_batch_complete(batch, node_id)
        self.record_batch_span(batch)
        self.latency_histogram.observe(done - batch.first_arrival)
        if self.slo_monitor is not None:
            self.slo_monitor.observe_batch(
                now, batch.model.name, batch.hardware_name or "?",
                batch.latencies(),
            )

    def shed(self, now, batch_id, n, reason) -> None:
        """``n`` requests shed; ``batch_id`` is ``None`` for requests shed
        at dispatch, before they formed a batch."""
        ids = {} if batch_id is None else {"batch_id": batch_id}
        self.event("retry.shed", now, cat="resilience", **ids, n=n,
                   reason=reason)
        if self.reqtrace is not None:
            self.reqtrace.on_shed(now, batch_id, n, reason)

    def drop(self, batch_id, now, n) -> None:
        """A batch of ``n`` requests was lost (``recovery="drop"``)."""
        if self.reqtrace is not None:
            self.reqtrace.on_drop(batch_id, now, n)

    def retry_abandoned(self, batch_id, now, attempt, deadline) -> None:
        """No retry attempt can meet the batch's deadline."""
        self.event(
            "retry.abandoned", now, cat="resilience", batch_id=batch_id,
            attempt=attempt, deadline=deadline,
        )
        if self.reqtrace is not None:
            self.reqtrace.on_retry_abandoned(
                batch_id, now, "deadline_unreachable"
            )

    def retry_dispatch(self, batch_id, attempt, now, deadline, hardware):
        """Retry ``attempt`` of the batch went to ``hardware``."""
        self.event(
            "retry.dispatch", now, cat="resilience", batch_id=batch_id,
            attempt=attempt, deadline=deadline, hardware=hardware,
        )
        if self.reqtrace is not None:
            self.reqtrace.on_retry_dispatch(batch_id, attempt, now, hardware)

    def breaker_transition(self, target, state, now, failures) -> None:
        """``target``'s circuit breaker entered ``state`` after
        ``failures`` consecutive failures."""
        if self.reqtrace is not None:
            self.reqtrace.on_breaker(target, state, now)
        self.event(
            f"breaker.{state}", now, cat="resilience", target=target,
            consecutive_failures=failures,
        )

    def run_end(self, now, leases):
        """The run ended at ``now``: close the spans of the ``leases``
        (``(node, lease)`` pairs) still open, record the instant and close
        the request trace, returning its data (``None`` without one)."""
        for node, lease in leases:
            if lease.end is None:
                self._lease_span(node.node_id, lease, now, open_at_end=True)
        self.end_time = now
        if self.reqtrace is None:
            return None
        self.reqtrace.on_run_end(now)
        return self.reqtrace.data()

    def _flush_rows(self) -> None:
        rows, self._pending_rows = self._pending_rows, []
        append = self._spans.append
        span = _span_record
        for (
            batch_id, model, n, mode, hardware, first, completed_at,
            started_at, dispatched_at, batching_wait, cold_start_wait,
            queue_delay, exec_solo, interference_extra, failure_wait,
            retries,
        ) in rows:
            track = hardware or "?"
            done = float(completed_at)
            started = started_at if started_at is not None else done
            dispatched = min(dispatched_at, done)
            append(span(
                f"batch#{batch_id}", "request", track, first, done,
                {
                    "batch_id": batch_id,
                    "model": model,
                    "n": n,
                    "mode": mode,
                    "hardware": track,
                    "dispatched_at": dispatched,
                    "started_at": started,
                    "batching_wait": batching_wait,
                    "cold_start_wait": cold_start_wait,
                    "queue_delay": queue_delay,
                    "exec_solo": exec_solo,
                    "interference_extra": interference_extra,
                    "failure_wait": failure_wait,
                    "retries": retries,
                },
            ))
            # Phase children: clamp to the parent interval so float slop
            # in the accounting can never produce a negative-duration
            # phase.
            started = min(max(started, first), done)
            dispatched = min(max(dispatched, first), started)
            append(span(
                "batching", "phase", track, first, dispatched,
                {"batch_id": batch_id},
            ))
            append(span(
                "wait", "phase", track, dispatched, started,
                {
                    "batch_id": batch_id,
                    "cold_start_wait": cold_start_wait,
                    "queue_delay": queue_delay,
                },
            ))
            append(span(
                "execute", "phase", track, started, done,
                {
                    "batch_id": batch_id,
                    "exec_solo": exec_solo,
                    "interference_extra": interference_extra,
                },
            ))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def request_spans(self) -> list[SpanRecord]:
        """Just the per-batch request spans (phase children excluded)."""
        return [s for s in self.spans if s.cat == "request"]

    def events_named(self, name: str) -> list[TraceEventRecord]:
        """Events with exactly this name, in emission order."""
        return [e for e in self.events if e.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({state}, spans={len(self.spans)}, "
            f"events={len(self.events)})"
        )


#: Shared disabled tracer: the default everywhere a tracer is optional.
#: One instance so the ``tracer.enabled`` guard stays monomorphic on the
#: hot paths.
NULL_TRACER = Tracer(enabled=False)

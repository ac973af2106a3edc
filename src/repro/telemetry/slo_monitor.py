"""Live SLO burn-rate monitoring: sliding-window attainment and alerts.

The tracer records *what happened*; this module watches it *while it
happens*.  A :class:`SLOMonitor` keeps one sliding window (default 30
sim-seconds) of request completions per **model** and per **hardware**
track, and every sample tick evaluates windowed attainment, p99, and the
SRE-style **burn rate** — the ratio of the window's violation rate to the
SLO's allowed error budget (``1 - compliance_goal``).  A burn rate of 1.0
spends the error budget exactly as fast as the SLO allows; 2.0 spends it
twice as fast.

When a window's burn rate crosses ``burn_rate_threshold`` the monitor
emits a ``slo_alert`` trace event (``state="firing"``), and a matching
``state="resolved"`` event when it drops back below — so autoscaler or
selector misbehaviour is visible *in the trace timeline* next to the
decisions that caused it, not only in a post-mortem aggregate.  Alerts
are edge-triggered per key: a window that stays bad fires once.

The monitor is a pure observer: it never touches the control plane, and
it only exists when tracing is enabled (the framework constructs it in
``_setup_telemetry``), so a run without it is bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.telemetry.tracer import Tracer

__all__ = ["SLOMonitor", "WindowStats"]

@dataclass(frozen=True)
class WindowStats:
    """One (scope, key) window's state at a sample instant."""

    scope: str  # "model" | "hardware"
    key: str
    n_requests: int
    n_violations: int
    attainment: float  # fraction of windowed requests meeting the SLO
    p99_seconds: float
    burn_rate: float
    firing: bool


class SLOMonitor:
    """Sliding-window SLO attainment tracker with burn-rate alerts.

    Parameters
    ----------
    slo_seconds:
        The per-request deadline attainment is judged against.
    tracer:
        Sink for ``slo_alert`` events (and nothing else).
    window_seconds:
        Sliding-window width in sim-seconds.
    compliance_goal:
        Target attainment (the paper's >= 99%); the error budget is
        ``1 - compliance_goal``.
    burn_rate_threshold:
        Fire when the windowed violation rate exceeds this multiple of
        the error budget.
    min_window_requests:
        Windows with fewer requests never fire (a single violating
        request in a near-idle window is noise, not a burn).
    """

    def __init__(
        self,
        slo_seconds: float,
        tracer: Optional[Tracer] = None,
        window_seconds: float = 30.0,
        compliance_goal: float = 0.99,
        burn_rate_threshold: float = 2.0,
        min_window_requests: int = 20,
    ) -> None:
        if slo_seconds <= 0:
            raise ValueError("slo_seconds must be positive")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0 < compliance_goal < 1:
            raise ValueError("compliance_goal must be in (0, 1)")
        self.slo_seconds = float(slo_seconds)
        self.tracer = tracer
        self.window_seconds = float(window_seconds)
        self.compliance_goal = float(compliance_goal)
        self.burn_rate_threshold = float(burn_rate_threshold)
        self.min_window_requests = int(min_window_requests)
        #: (scope, key) -> window index.  Each window keeps O(1) running
        #: totals, its requests and violations, updated as the batch
        #: entries arrive and expire, and its live batches' latency
        #: arrays, oldest first; the per-tick evaluation touches no
        #: latency unless an alert transitions (its p99 is then computed
        #: on demand).
        self._index: dict[tuple[str, str], int] = {}
        self._n: list[int] = []
        self._viol: list[int] = []
        self._lat: list[deque] = []
        #: (completed_at, n, n_violations, model window index, hardware
        #: window index) per observed batch, oldest first.  The entries
        #: hold only scalars, so the cyclic GC stops tracking them
        #: instead of promoting them.
        self._entries: deque = deque()
        #: ((scope, key), index) in (scope, key) order — the evaluation
        #: order.
        self._ordered: list[tuple[tuple[str, str], int]] = []
        #: (model, hardware) -> that batch's (model, hardware) windows.
        self._pairs: dict[tuple[str, str], tuple[int, int]] = {}
        self._firing: set[tuple[str, str]] = set()
        self.alerts_emitted = 0
        #: Batches observed so far; with the sim time it keys the summary.
        self._n_observed = 0
        self._summary_key: Optional[tuple[float, int]] = None
        self._summary = (0.0, 1.0)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe_batch(
        self, now: float, model: str, hardware: str, latencies: np.ndarray
    ) -> None:
        """Record one completed batch's per-request latencies (seconds)
        under both its model and its hardware window.

        ``now`` is the sim time of the completion; it never decreases.
        """
        lat = np.asarray(latencies, dtype=np.float64)
        n = lat.size
        if n == 0:
            return
        n_viol = int(np.count_nonzero(lat > self.slo_seconds))
        pair = self._pairs.get((model, hardware))
        if pair is None:
            pair = self._pairs[(model, hardware)] = (
                self._window("model", model),
                self._window("hardware", hardware),
            )
        by_model, by_hardware = pair
        self._entries.append((now, n, n_viol, by_model, by_hardware))
        self._lat[by_model].append(lat)
        self._lat[by_hardware].append(lat)
        counts, viols = self._n, self._viol
        counts[by_model] += n
        counts[by_hardware] += n
        viols[by_model] += n_viol
        viols[by_hardware] += n_viol
        self._n_observed += 1

    def _window(self, scope: str, key: str) -> int:
        ident = (scope, key)
        index = self._index.get(ident)
        if index is None:
            index = self._index[ident] = len(self._n)
            self._n.append(0)
            self._viol.append(0)
            self._lat.append(deque())
            self._ordered = sorted(self._index.items())
        return index

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, now: float) -> list[tuple]:
        """Evict expired entries and evaluate every window at ``now``.

        One pass in (scope, key) order; returns ``(ident, index,
        n_requests, n_violations, attainment, burn_rate)`` per window and
        caches the worst burn rate and lowest attainment for
        :meth:`summary`.
        """
        cutoff = now - self.window_seconds
        entries = self._entries
        counts, viols, lats = self._n, self._viol, self._lat
        while entries and entries[0][0] < cutoff:
            _, n, n_viol, by_model, by_hardware = entries.popleft()
            counts[by_model] -= n
            counts[by_hardware] -= n
            viols[by_model] -= n_viol
            viols[by_hardware] -= n_viol
            lats[by_model].popleft()
            lats[by_hardware].popleft()
        error_budget = 1.0 - self.compliance_goal
        worst, lowest = 0.0, 1.0
        out = []
        for ident, index in self._ordered:
            n, n_viol = counts[index], viols[index]
            if n:
                attainment = 1.0 - n_viol / n
                burn_rate = (n_viol / n) / error_budget
            else:
                attainment, burn_rate = 1.0, 0.0
            if burn_rate > worst:
                worst = burn_rate
            if attainment < lowest:
                lowest = attainment
            out.append((ident, index, n, n_viol, attainment, burn_rate))
        self._summary_key = (now, self._n_observed)
        self._summary = (worst, lowest)
        return out

    def summary(self, now: float) -> tuple[float, float]:
        """``(worst burn rate, lowest attainment)`` over every window at
        ``now``: ``(0.0, 1.0)`` while there are no windows.

        Shared by every reader at one sim instant: a second read at the
        same ``now`` with no batch observed in between reuses the result
        instead of evaluating the windows again.
        """
        if self._summary_key != (now, self._n_observed):
            self._evaluate(now)
        return self._summary

    def window_stats(
        self, now: float, include_p99: bool = True
    ) -> list[WindowStats]:
        """Evaluate every window at ``now`` (evicting expired entries).

        ``include_p99=False`` skips the latency-percentile computation
        (the only non-O(1) part) and reports 0.0.
        """
        firing = self._firing
        return [
            WindowStats(
                ident[0], ident[1], n, n_viol, attainment,
                self._p99(index) if include_p99 else 0.0,
                burn_rate, ident in firing,
            )
            for ident, index, n, n_viol, attainment, burn_rate
            in self._evaluate(now)
        ]

    def sample(self, now: float) -> list[WindowStats]:
        """One monitor tick: evaluate windows, emit alert transitions.

        Returns the evaluated stats (p99 reported as 0.0), with the
        firing flags after this tick's transitions.  ``slo_alert`` events
        are edge-triggered: ``firing`` on the first bad sample,
        ``resolved`` on the first good one after.  The common
        no-transition tick costs one pass over the windows — p99 is only
        computed for a window whose alert state actually changes (its
        event carries the exact value).
        """
        firing = self._firing
        out = []
        for ident, index, n, n_viol, attainment, burn_rate in (
            self._evaluate(now)
        ):
            should_fire = (
                n >= self.min_window_requests
                and burn_rate >= self.burn_rate_threshold
            )
            if should_fire != (ident in firing):
                if should_fire:
                    firing.add(ident)
                else:
                    firing.discard(ident)
                self._emit(
                    now,
                    WindowStats(
                        ident[0], ident[1], n, n_viol, attainment,
                        self._p99(index), burn_rate, not should_fire,
                    ),
                    "firing" if should_fire else "resolved",
                )
            out.append(WindowStats(
                ident[0], ident[1], n, n_viol, attainment, 0.0, burn_rate,
                should_fire,
            ))
        return out

    def _p99(self, index: int) -> float:
        """The p99 latency over one window's live entries (0.0 if none)."""
        if not self._n[index]:
            return 0.0
        lat = np.concatenate(self._lat[index])
        return float(np.percentile(lat, 99.0))

    def _emit(self, now: float, s: WindowStats, state: str) -> None:
        self.alerts_emitted += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "slo_alert",
                now,
                cat="alert",
                track="slo-monitor",
                state=state,
                scope=s.scope,
                key=s.key,
                attainment=s.attainment,
                p99_seconds=s.p99_seconds,
                burn_rate=s.burn_rate,
                burn_rate_threshold=self.burn_rate_threshold,
                window_seconds=self.window_seconds,
                n_requests=s.n_requests,
                n_violations=s.n_violations,
                slo_seconds=self.slo_seconds,
            )

    @property
    def firing_keys(self) -> list[tuple[str, str]]:
        """Currently-firing (scope, key) pairs, sorted."""
        return sorted(self._firing)

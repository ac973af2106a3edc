"""The eager telemetry sinks, kept as oracles.

These are the parts of :mod:`repro.telemetry` that the leave-on telemetry
rework replaced, verbatim apart from this docstring and
:func:`per_spec_read`:

* :class:`Histogram` — observation folded into the buckets, the raw
  sample and the P² estimators on every ``observe`` call;
* :class:`SLOMonitor` (with its ``_Window`` and ``WindowStats``) — one
  ``window_stats`` pass per reader, ``sample`` re-reading the firing
  flags after its transitions;
* :func:`per_spec_read` — the body of the per-(spec, attribute) probe
  closure the time-series sampler ran once per column.

``tests/telemetry/test_leave_on_properties.py`` holds the production
sinks to these under random sequences.  Nothing under ``src/`` may import
this module (``tests/test_layering.py`` enforces it).  Do not optimise it.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.telemetry.metrics import P2Quantile
from repro.telemetry.tracer import Tracer

__all__ = ["Histogram", "SLOMonitor", "WindowStats", "per_spec_read"]


class Histogram:
    """Fixed-bucket histogram (latencies, batch sizes) with an exact tier.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything above the last bound.

    Raw samples are additionally retained up to :data:`RAW_SAMPLE_CAP`
    observations, so :meth:`quantile` (and the ``p50``/``p99`` columns of
    :meth:`MetricsRegistry.histogram_summaries`) are *exact* for typical
    run sizes.  Once the ``RAW_SAMPLE_CAP + 1``-th observation arrives
    the raw list is handed to one :class:`P2Quantile` estimator per
    quantile in :data:`TRACKED_QUANTILES` — seeded from the exact sorted
    sample, so the estimate is exact at the handover — and then dropped
    (bounding memory).  From there tracked quantiles stay within the P²
    marker-interpolation error (empirically ~1% relative on latency-like
    distributions, shrinking as ``O(n^-1/2)``); only *untracked*
    quantiles fall back to bucket resolution — the upper bound of the
    bucket holding the target observation, ``inf`` for the overflow
    bucket.
    """

    DEFAULT_BOUNDS: tuple[float, ...] = (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
        0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    )

    #: Handover point: beyond this many observations the raw samples
    #: seed the P² estimators and are then discarded.
    RAW_SAMPLE_CAP: int = 4096

    #: Quantiles kept at P² accuracy past the cap.  Matches what the
    #: summaries and the paper's metrics actually read (p50/p90/p99).
    TRACKED_QUANTILES: tuple[float, ...] = (0.50, 0.90, 0.99)

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        bs = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(bs) != sorted(bs) or len(set(bs)) != len(bs):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bs
        self.counts = [0] * (len(bs) + 1)
        self.n = 0
        self.sum = 0.0
        self._raw: Optional[list[float]] = []
        self._p2: Optional[dict[float, P2Quantile]] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.n += 1
        self.sum += value
        if self._raw is not None:
            if self.n <= self.RAW_SAMPLE_CAP:
                self._raw.append(float(value))
            else:
                # Handover: seed one P² estimator per tracked quantile
                # from the exact sorted prefix, then release the raw
                # list.  The new observation folds into the estimators
                # below like every later one.
                prefix = sorted(self._raw)
                self._p2 = {
                    q: P2Quantile.seeded(prefix, q)
                    for q in self.TRACKED_QUANTILES
                }
                self._raw = None
                for est in self._p2.values():
                    est.add(float(value))
                return
        elif self._p2 is not None:
            for est in self._p2.values():
                est.add(float(value))

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else 0.0

    @property
    def exact(self) -> bool:
        """Whether quantiles are still computed from raw samples."""
        return self._raw is not None

    def quantile(self, q: float) -> float:
        """The ``q``-th quantile: exact while at most
        :data:`RAW_SAMPLE_CAP` observations were made; P²-accurate for
        :data:`TRACKED_QUANTILES` afterwards; bucket-resolution only for
        untracked quantiles past the cap (see the class docstring)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.n == 0:
            return 0.0
        target = max(1, int(round(q * self.n)))
        if self._raw is not None:
            return sorted(self._raw)[target - 1]
        if self._p2 is not None and q in self._p2:
            return self._p2[q].value()
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - unreachable


class _Window:
    """One (scope, key) sliding window with O(1) running totals.

    The per-tick evaluation must stay off the latency-percentile path:
    request and violation counts are maintained incrementally on append
    and evict, so :meth:`SLOMonitor.sample` touches no latency arrays
    unless an alert actually transitions (when the p99 for that one
    window is computed on demand).
    """

    __slots__ = ("entries", "n", "viol")

    def __init__(self) -> None:
        #: (completed_at, latencies, n, n_violations) per observed batch.
        self.entries: deque = deque()
        self.n = 0
        self.viol = 0

    def append(self, t: float, lat: np.ndarray, n_viol: int) -> None:
        self.entries.append((t, lat, int(lat.size), n_viol))
        self.n += int(lat.size)
        self.viol += n_viol

    def evict_before(self, cutoff: float) -> None:
        entries = self.entries
        while entries and entries[0][0] < cutoff:
            _, _, n, viol = entries.popleft()
            self.n -= n
            self.viol -= viol

    def p99(self) -> float:
        if not self.entries:
            return 0.0
        lat = np.concatenate([e[1] for e in self.entries])
        return float(np.percentile(lat, 99.0))


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
        self._windows: dict[tuple[str, str], _Window] = {}
        self._firing: set[tuple[str, str]] = set()
        self.alerts_emitted = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def observe_batch(
        self, now: float, model: str, hardware: str, latencies: np.ndarray
    ) -> None:
        """Record one completed batch's per-request latencies (seconds)
        under both its model and its hardware window."""
        lat = np.asarray(latencies, dtype=np.float64)
        if lat.size == 0:
            return
        n_viol = int(np.count_nonzero(lat > self.slo_seconds))
        for scope, key in (("model", model), ("hardware", hardware)):
            window = self._windows.get((scope, key))
            if window is None:
                window = self._windows[(scope, key)] = _Window()
            window.append(now, lat, n_viol)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def window_stats(
        self, now: float, include_p99: bool = True
    ) -> list[WindowStats]:
        """Evaluate every window at ``now`` (evicting expired entries).

        ``include_p99=False`` skips the latency-percentile computation
        (the only non-O(1) part) and reports 0.0 — the per-tick alerting
        path uses it, since firing is judged on burn rate alone.
        """
        out: list[WindowStats] = []
        error_budget = 1.0 - self.compliance_goal
        for (scope, key), window in sorted(self._windows.items()):
            window.evict_before(now - self.window_seconds)
            n, n_viol = window.n, window.viol
            out.append(
                WindowStats(
                    scope=scope, key=key, n_requests=n, n_violations=n_viol,
                    attainment=1.0 - n_viol / n if n else 1.0,
                    p99_seconds=window.p99() if include_p99 else 0.0,
                    burn_rate=(n_viol / n) / error_budget if n else 0.0,
                    firing=(scope, key) in self._firing,
                )
            )
        return out

    def sample(self, now: float) -> list[WindowStats]:
        """One monitor tick: evaluate windows, emit alert transitions.

        Returns the evaluated stats.  ``slo_alert`` events are
        edge-triggered: ``firing`` on the first bad sample, ``resolved``
        on the first good one after.  The common no-transition tick costs
        O(windows) — p99 is only computed for a window whose alert state
        actually changes (its event carries the exact value).
        """
        stats = self.window_stats(now, include_p99=False)
        for s in stats:
            ident = (s.scope, s.key)
            should_fire = (
                s.n_requests >= self.min_window_requests
                and s.burn_rate >= self.burn_rate_threshold
            )
            if should_fire and ident not in self._firing:
                self._firing.add(ident)
                self._emit(now, self._with_p99(s), "firing")
            elif not should_fire and ident in self._firing:
                self._firing.discard(ident)
                self._emit(now, self._with_p99(s), "resolved")
        # Re-read firing flags so the returned stats reflect transitions.
        return [
            s if s.firing == ((s.scope, s.key) in self._firing)
            else WindowStats(
                scope=s.scope, key=s.key, n_requests=s.n_requests,
                n_violations=s.n_violations, attainment=s.attainment,
                p99_seconds=s.p99_seconds, burn_rate=s.burn_rate,
                firing=(s.scope, s.key) in self._firing,
            )
            for s in stats
        ]

    def _with_p99(self, s: WindowStats) -> WindowStats:
        """Fill in the on-demand p99 for one window's stats."""
        window = self._windows.get((s.scope, s.key))
        return replace(s, p99_seconds=window.p99() if window else 0.0)

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


def per_spec_read(cluster, owned_node_ids, spec_name: str, attr: str) -> float:
    """One ``node.<spec>.<column>`` column's reading, as its own probe."""
    vals = [
        getattr(node, attr)
        for node in cluster.active_nodes()
        if node.node_id in owned_node_ids
        and node.spec.name == spec_name
    ]
    if not vals:
        return math.nan
    return float(sum(vals)) / len(vals)

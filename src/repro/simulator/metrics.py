"""Run metrics: the completion ledger, SLO accounting, goodput, breakdowns.

One :class:`MetricsCollector` per (scheme, run).  Batches report in on
completion and land in a columnar ledger: per batch, a flat row of
scalars (completion time, size and the six breakdown components), one
interned small-int code for its (model, hardware, mode), and its arrival
view.  The first read compacts the ledger into NumPy columns — per-request
latencies are ``np.repeat(completed, sizes) - arrivals`` — and every
summary is a vectorised pass over those columns.  The compacted ledger
is cached until the next record.

Requests still unfinished when the run ends count against compliance
only: :meth:`MetricsCollector.slo_compliance` divides by every *offered*
request (the paper's compliance percentages are over all requests),
while percentiles, the CDF, goodput and breakdowns cover completed
requests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.framework.request import Batch
from repro.telemetry.reqtrace import PHASES

__all__ = ["BatchRecord", "MetricsCollector"]

#: Scalars per ledger row: completion time, size, then the breakdown
#: components in ``PHASES`` order.
_ROW = 2 + len(PHASES)


@dataclass(frozen=True, eq=False)
class BatchRecord:
    """Immutable snapshot of one completed batch (a ledger row view)."""

    model: str
    arrivals: np.ndarray
    completed_at: float
    hardware: str
    mode: str
    batching_wait: float
    cold_start_wait: float
    queue_delay: float
    exec_solo: float
    interference_extra: float
    failure_wait: float = 0.0

    @property
    def size(self) -> int:
        return int(self.arrivals.size)

    def latencies(self) -> np.ndarray:
        return self.completed_at - self.arrivals


class _Ledger:
    """The compacted, read-only columns of a collector.

    Per batch: ``completed``, ``sizes``, ``codes`` (index into ``keys``,
    the interned ``(model, hardware, mode)`` triples in first-completion
    order) and one column per breakdown component.  Per request:
    ``arrivals`` in completion order.  Derived columns are computed on
    first use.
    """

    __slots__ = (
        "keys", "completed", "sizes", "components", "codes", "arrivals",
        "_latencies", "_worst",
    )

    def __init__(self, keys, table, codes, arrivals):
        self.keys: list[tuple[str, str, str]] = keys
        self.completed: np.ndarray = table[:, 0]
        self.sizes: np.ndarray = table[:, 1].astype(np.intp)
        self.components = tuple(table[:, i] for i in range(2, _ROW))
        self.codes: np.ndarray = codes
        self.arrivals: np.ndarray = arrivals
        self._latencies: Optional[np.ndarray] = None
        self._worst: Optional[np.ndarray] = None

    @property
    def latencies(self) -> np.ndarray:
        """Per-request latency, in completion order."""
        if self._latencies is None:
            self._latencies = (
                np.repeat(self.completed, self.sizes) - self.arrivals
            )
        return self._latencies

    @property
    def worst(self) -> np.ndarray:
        """Per-batch latency of the first (oldest) arrival."""
        if self._worst is None:
            starts = np.cumsum(self.sizes) - self.sizes
            self._worst = self.completed - self.arrivals[starts]
        return self._worst

    def batch_mask(self, model: str) -> np.ndarray:
        """Batches of ``model``."""
        of_model = np.fromiter(
            (key[0] == model for key in self.keys), dtype=bool,
            count=len(self.keys),
        )
        return of_model[self.codes]

    def counts_by(self, field: int) -> dict[str, int]:
        """Completed requests per ``keys[*][field]``, in first-completion
        order of that field's values."""
        per_key = np.bincount(
            self.codes, weights=self.sizes, minlength=len(self.keys)
        )
        out: dict[str, int] = {}
        for key, n in zip(self.keys, per_key.tolist()):
            out[key[field]] = out.get(key[field], 0) + int(n)
        return out


class MetricsCollector:
    """Accumulates batch completions and offered/unserved request counts."""

    def __init__(self) -> None:
        self.unserved_requests = 0
        self.total_requests_offered = 0
        self._keys: dict[tuple[str, str, str], int] = {}
        # Rows and codes recorded since the last compaction, then the
        # compacted ones.
        self._rows = array("d")
        self._codes = array("i")
        self._table = np.empty((0, _ROW))
        self._code_col = np.empty(0, dtype=np.intc)
        #: Per-batch arrival views; a single array once compacted.
        self._arrivals: list[np.ndarray] = []
        self._ledger: Optional[_Ledger] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_batch(self, batch: Batch) -> None:
        """Append a completed batch to the ledger."""
        done = batch.completed_at
        if done is None:
            raise ValueError(f"batch {batch.batch_id} has not completed")
        bd = batch.breakdown
        key = (batch.model.name, batch.hardware_name or "?", batch.mode)
        code = self._keys.get(key)
        if code is None:
            code = self._keys[key] = len(self._keys)
        arrivals = batch.arrivals
        self._codes.append(code)
        self._rows.extend((
            done, arrivals.size, bd.batching_wait, bd.cold_start_wait,
            bd.queue_delay, bd.exec_solo, bd.interference_extra,
            bd.failure_wait,
        ))
        self._arrivals.append(arrivals)
        self._ledger = None

    def record_offered(self, n: int) -> None:
        """Count requests offered to the system (arrivals)."""
        self.total_requests_offered += int(n)

    def record_unserved(self, n: int) -> None:
        """Count requests never completed (dropped or still queued at the
        end of the run); they are SLO violations by definition."""
        self.unserved_requests += int(n)

    # ------------------------------------------------------------------
    # Compaction and pickling
    # ------------------------------------------------------------------
    def _compacted(self) -> _Ledger:
        """The ledger as NumPy columns, built once per batch of records:
        rows, codes and arrival views recorded since the last compaction
        are folded into the compacted arrays and released."""
        led = self._ledger
        if led is None:
            rows = np.frombuffer(self._rows, dtype=np.float64)
            self._table = np.concatenate((self._table, rows.reshape(-1, _ROW)))
            self._code_col = np.concatenate(
                (self._code_col, np.frombuffer(self._codes, dtype=np.intc))
            )
            self._rows = array("d")
            self._codes = array("i")
            views = self._arrivals
            arrivals = np.concatenate(views) if views else np.empty(0)
            self._arrivals = [arrivals]
            led = self._ledger = _Ledger(
                list(self._keys), self._table, self._code_col, arrivals
            )
        return led

    def __getstate__(self) -> dict:
        # Pickles the compacted arrays only; the column views and derived
        # columns are rebuilt on first read.
        self._compacted()
        return {**self.__dict__, "_ledger": None}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[BatchRecord]:
        """One :class:`BatchRecord` per completed batch, in completion
        order (a read-only compatibility view built on each access)."""
        led = self._compacted()
        ends = np.cumsum(led.sizes).tolist()
        return [
            BatchRecord(model, led.arrivals[start:end], done, hardware, mode, *parts)
            for (model, hardware, mode), start, end, done, *parts in zip(
                map(led.keys.__getitem__, led.codes.tolist()),
                [0, *ends], ends, led.completed.tolist(),
                *(c.tolist() for c in led.components),
            )
        ]

    def latencies(self, model: Optional[str] = None) -> np.ndarray:
        """All per-request latencies (seconds), in completion order."""
        lat = self._latencies(model)
        return lat.copy() if model is None else lat

    def _latencies(self, model: Optional[str]) -> np.ndarray:
        """:meth:`latencies`, sharing the cached array when unfiltered."""
        led = self._compacted()
        if model is None:
            return led.latencies
        return led.latencies[np.repeat(led.batch_mask(model), led.sizes)]

    def completed_requests(self, model: Optional[str] = None) -> int:
        led = self._compacted()
        if model is None:
            return int(led.arrivals.size)
        return int(led.sizes[led.batch_mask(model)].sum())

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def slo_compliance(self, slo_seconds: float, model: Optional[str] = None) -> float:
        """Fraction of *offered* requests finishing within the SLO.

        Unserved requests count against compliance.  When offered counts
        were not recorded, the denominator falls back to completed +
        unserved.
        """
        lat = self._latencies(model)
        met = int(np.count_nonzero(lat <= slo_seconds))
        denom = self.total_requests_offered
        if denom <= 0 or model is not None:
            denom = lat.size + (self.unserved_requests if model is None else 0)
        if model is None:
            denom = max(denom, lat.size + self.unserved_requests)
        if denom == 0:
            return 1.0
        return met / denom

    def percentile_latency(
        self, q: float, model: Optional[str] = None
    ) -> float:
        """Latency percentile in seconds (e.g. ``q=99`` for P99)."""
        return self.percentile_latencies((q,), model)[0]

    def percentile_latencies(
        self, qs: Sequence[float], model: Optional[str] = None
    ) -> tuple[float, ...]:
        """Several latency percentiles from one partition of the
        latencies; each equals :meth:`percentile_latency` at that ``q``."""
        lat = self._latencies(model)
        if lat.size == 0:
            return tuple(0.0 for _ in qs)
        return tuple(np.percentile(lat, list(qs)).tolist())

    def latency_cdf(
        self, model: Optional[str] = None, n_points: int = 200
    ) -> tuple[np.ndarray, np.ndarray]:
        """(latency_seconds, cumulative_fraction) curve for Fig 6."""
        lat = np.sort(self._latencies(model))
        if lat.size == 0:
            return np.empty(0), np.empty(0)
        idx = np.linspace(0, lat.size - 1, min(n_points, lat.size)).astype(int)
        return lat[idx], (idx + 1) / lat.size

    def goodput(
        self,
        slo_seconds: float,
        window: tuple[float, float],
        model: Optional[str] = None,
    ) -> float:
        """SLO-compliant completions per second whose *arrivals* fall in
        ``window`` (Fig 7a's surge-tolerance metric)."""
        t0, t1 = window
        if t1 <= t0:
            raise ValueError("empty goodput window")
        led = self._compacted()
        arrivals = led.arrivals
        good = (arrivals >= t0) & (arrivals < t1) & (led.latencies <= slo_seconds)
        if model is not None:
            good &= np.repeat(led.batch_mask(model), led.sizes)
        return int(np.count_nonzero(good)) / (t1 - t0)

    # ------------------------------------------------------------------
    # Tail-latency breakdown (Figs 1 and 4)
    # ------------------------------------------------------------------
    def tail_breakdown(
        self, q: float = 99.0, model: Optional[str] = None, tail_frac: float = 0.05
    ) -> dict[str, float]:
        """Average latency breakdown of the batches around the P``q`` tail.

        Mirrors the paper's stacked tail bars: among batches whose
        completion latency (of their first arrival — the worst request)
        falls in the top ``tail_frac`` of per-batch latencies, average each
        breakdown component.  Returns seconds per component plus 'total'.
        """
        led = self._compacted()
        worst = led.worst
        selected = None if model is None else np.flatnonzero(led.batch_mask(model))
        if selected is not None:
            worst = worst[selected]
        if worst.size == 0:
            return dict.fromkeys((*PHASES, "total"), 0.0)
        cut = np.percentile(worst, q)
        tail = np.flatnonzero(worst >= cut)
        if tail.size == 0:
            tail = np.arange(worst.size)
        if selected is not None:
            tail = selected[tail]
        # Each mean runs over a contiguous 1-D copy of one component's
        # tail rows, so it sums in the same order as a mean over a list
        # of the batches' values (a 2-D mean(axis=0) would not).
        out = {
            name: float(np.mean(column[tail]))
            for name, column in zip(PHASES, led.components)
        }
        out["total"] = float(sum(out.values()))
        return out

    def hardware_usage(self) -> dict[str, int]:
        """Completed-request counts per hardware type."""
        return self._compacted().counts_by(1)

    def mode_split(self) -> dict[str, int]:
        """Completed-request counts per share mode (spatial/temporal)."""
        return self._compacted().counts_by(2)

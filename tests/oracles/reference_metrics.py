"""The seed completion ledger (per-batch ``BatchRecord`` rows), kept as an oracle.

This is :mod:`repro.simulator.metrics` as it was before the columnar
ledger, verbatim apart from this docstring: one frozen ``BatchRecord``
per completed batch and Python loops over them for every summary.
``tests/simulator/test_metrics_oracle.py`` feeds identical completed
batches into both collectors and asserts bit-identical summaries.

Nothing under ``src/`` may import this module (``tests/test_layering.py``
enforces it).  Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.framework.request import Batch

__all__ = ["BatchRecord", "MetricsCollector"]


@dataclass(frozen=True, eq=False)
class BatchRecord:
    """Immutable snapshot of one completed batch."""

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


class MetricsCollector:
    """Accumulates batch completions and unserved-request counts."""

    def __init__(self) -> None:
        self.records: list[BatchRecord] = []
        self.unserved_requests = 0
        self.total_requests_offered = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_batch(self, batch: Batch) -> None:
        """Snapshot a completed batch."""
        if batch.completed_at is None:
            raise ValueError(f"batch {batch.batch_id} has not completed")
        bd = batch.breakdown
        self.records.append(
            BatchRecord(
                model=batch.model.name,
                arrivals=batch.arrivals,
                completed_at=batch.completed_at,
                hardware=batch.hardware_name or "?",
                mode=batch.mode,
                batching_wait=bd.batching_wait,
                cold_start_wait=bd.cold_start_wait,
                queue_delay=bd.queue_delay,
                exec_solo=bd.exec_solo,
                interference_extra=bd.interference_extra,
                failure_wait=bd.failure_wait,
            )
        )

    def record_offered(self, n: int) -> None:
        """Count requests offered to the system (arrivals)."""
        self.total_requests_offered += int(n)

    def record_unserved(self, n: int) -> None:
        """Count requests never completed (dropped or still queued at the
        end of the run); they are SLO violations by definition."""
        self.unserved_requests += int(n)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def latencies(self, model: Optional[str] = None) -> np.ndarray:
        """All per-request latencies (seconds), vectorised."""
        parts = [
            r.latencies()
            for r in self.records
            if model is None or r.model == model
        ]
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(parts)

    def completed_requests(self, model: Optional[str] = None) -> int:
        return sum(
            r.size for r in self.records if model is None or r.model == model
        )

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    def slo_compliance(self, slo_seconds: float, model: Optional[str] = None) -> float:
        """Fraction of *offered* requests finishing within the SLO.

        Unserved requests count against compliance.  When offered counts
        were not recorded, the denominator falls back to completed +
        unserved.
        """
        lat = self.latencies(model)
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
        lat = self.latencies(model)
        if lat.size == 0:
            return 0.0
        return float(np.percentile(lat, q))

    def latency_cdf(
        self, model: Optional[str] = None, n_points: int = 200
    ) -> tuple[np.ndarray, np.ndarray]:
        """(latency_seconds, cumulative_fraction) curve for Fig 6."""
        lat = np.sort(self.latencies(model))
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
        good = 0
        for r in self.records:
            if model is not None and r.model != model:
                continue
            mask = (r.arrivals >= t0) & (r.arrivals < t1)
            if not mask.any():
                continue
            lat = r.completed_at - r.arrivals[mask]
            good += int(np.count_nonzero(lat <= slo_seconds))
        return good / (t1 - t0)

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
        recs = [r for r in self.records if model is None or r.model == model]
        if not recs:
            return {
                "batching_wait": 0.0,
                "cold_start_wait": 0.0,
                "queue_delay": 0.0,
                "exec_solo": 0.0,
                "interference_extra": 0.0,
                "failure_wait": 0.0,
                "total": 0.0,
            }
        worst = np.array([r.completed_at - r.arrivals[0] for r in recs])
        cut = np.percentile(worst, q)
        tail = [r for r, w in zip(recs, worst) if w >= cut]
        if not tail:
            tail = recs
        out = {
            "batching_wait": float(np.mean([r.batching_wait for r in tail])),
            "cold_start_wait": float(np.mean([r.cold_start_wait for r in tail])),
            "queue_delay": float(np.mean([r.queue_delay for r in tail])),
            "exec_solo": float(np.mean([r.exec_solo for r in tail])),
            "interference_extra": float(
                np.mean([r.interference_extra for r in tail])
            ),
            "failure_wait": float(np.mean([r.failure_wait for r in tail])),
        }
        out["total"] = float(sum(out.values()))
        return out

    def hardware_usage(self) -> dict[str, int]:
        """Completed-request counts per hardware type."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.hardware] = out.get(r.hardware, 0) + r.size
        return out

    def mode_split(self) -> dict[str, int]:
        """Completed-request counts per share mode (spatial/temporal)."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.mode] = out.get(r.mode, 0) + r.size
        return out

"""Offline Hybrid: the motivation study's scheme (Fig 1).

Section II's quantification experiment sweeps, *beforehand*, the number of
batches to time-share vs. spatially share on a fixed (cost-effective) GPU
and picks the combination with the best overall SLO compliance.  It is the
existence proof for Insight 2 — a good static split beats both pure modes —
and the reason Paldia needs an *online* model (Equation (1)) instead of an
impractical offline sweep.

:class:`OfflineHybridPolicy` serves with a fixed hardware choice and a fixed
temporal fraction; :func:`sweep_fractions` is the offline sweep harness that
finds the best fraction for a given workload/trace.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.baselines.base import PlannedBatch, Policy, WindowPlan
from repro.framework.batching import carve_sizes
from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec

__all__ = ["OfflineHybridPolicy", "DEFAULT_FRACTION_GRID"]

#: The fraction grid the offline sweep explores (0 = pure MPS, 1 = pure
#: time sharing).
DEFAULT_FRACTION_GRID: tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


class OfflineHybridPolicy(Policy):
    """Fixed hardware, fixed temporal fraction.

    Parameters
    ----------
    hardware:
        The node this scheme executes on for the whole run (the motivation
        study pins the M60 or V100).
    temporal_fraction:
        Fraction of each window's requests sent to the time-share queue
        (``y = round(fraction * N)``); found offline by sweeping.
    """

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        slo_seconds: float,
        hardware: HardwareSpec,
        temporal_fraction: float,
    ) -> None:
        super().__init__(model, profiles, slo_seconds)
        if not 0.0 <= temporal_fraction <= 1.0:
            raise ValueError("temporal fraction must be in [0, 1]")
        self.hardware = hardware
        self.temporal_fraction = float(temporal_fraction)
        self.name = f"offline_hybrid[{hardware.name},{temporal_fraction:.1f}]"

    # ------------------------------------------------------------------
    def initial_hardware(self, rate_hint_rps: float) -> HardwareSpec:
        return self.hardware

    def desired_hardware(
        self,
        now: float,
        current: Optional[HardwareSpec],
        existing_fbr: float,
        backlog_requests: int,
        unavailable: frozenset[str],
    ) -> Optional[HardwareSpec]:
        return None  # pinned

    def plan_window(
        self,
        n: int,
        hw: HardwareSpec,
        existing_fbr: float,
        now: float,
        existing_queue: int = 0,
    ) -> WindowPlan:
        batch = self.batch_size_on(hw)
        if not hw.is_gpu:
            sizes = carve_sizes(n, batch)
            return WindowPlan(
                batches=tuple(
                    PlannedBatch(size=s, mode=ShareMode.TEMPORAL) for s in sizes
                ),
                y=n,
            )
        y = int(round(self.temporal_fraction * n))
        y = min(max(y, 0), n)
        spatial_sizes = carve_sizes(n - y, batch)
        temporal_sizes = carve_sizes(y, batch)
        return WindowPlan(
            batches=tuple(
                [PlannedBatch(size=s, mode=ShareMode.SPATIAL) for s in spatial_sizes]
                + [
                    PlannedBatch(size=s, mode=ShareMode.TEMPORAL)
                    for s in temporal_sizes
                ]
            ),
            y=y,
        )

"""The seed's Paldia policy: uncached, row by row, one solve per call.

The production policy (:class:`repro.core.paldia.PaldiaPolicy`) scans
Algorithm 1's candidates as one columnar grid and memoises profile
lookups, candidate rows, split decisions and window plans.  This module
keeps the seed's call pattern as the oracle those optimisations are held
to:

* :class:`ReferenceHardwareSelector` builds each tick's pool with the
  seed's comparison loop (:func:`reference_hw_pool`), evaluates every
  candidate with its own Equation-(1) solve (:func:`~tests.oracles.
  reference_model.reference_optimal_split`) and picks with the scalar
  ``choose_best_HW`` rule, memoising nothing;
* :class:`ReferencePolicyMixin` puts that selector under
  :class:`~repro.core.paldia.PaldiaPolicy` or any subclass, and replaces
  the memoised ``batch_size_on`` and ``plan_window`` with per-call ones.

Outputs are bit-identical to the production path (the golden suites
assert it); only the wall clock differs.  Do not optimise this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.base import PlannedBatch, WindowPlan
from repro.baselines.oracle import OraclePolicy
from repro.core.contention import ContentionAwarePaldiaPolicy
from repro.core.hardware_selection import (
    CandidateTable,
    HardwareSelector,
    SelectionOutcome,
)
from repro.core.model import cpu_t_max
from repro.core.paldia import PaldiaPolicy
from repro.framework.batching import carve_sizes
from repro.framework.request import ShareMode
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.workloads.models import ModelSpec
from tests.oracles.reference_model import reference_optimal_split

__all__ = [
    "CandidateEvaluation",
    "ReferenceContentionAwarePaldiaPolicy",
    "ReferenceHardwareSelector",
    "ReferenceOraclePolicy",
    "ReferencePaldiaPolicy",
    "ReferencePolicyMixin",
    "choose_best",
    "make_reference_policy",
    "reference_hw_pool",
]


def reference_hw_pool(
    profiles: ProfileService,
    model: ModelSpec,
    predicted_rps: float,
    slo_seconds: float,
    headroom: float = 1.25,
    cpu_headroom: float = 1.5,
) -> list[HardwareSpec]:
    """The seed's ``get_hw_pool``: one comparison per node, cheapest
    first, the most performant node when none qualifies."""
    if predicted_rps < 0:
        raise ValueError("predicted rate cannot be negative")
    sweets = [
        (hw, profiles.sweet_spot_rps(model, hw, slo_seconds))
        for hw in profiles.catalog.by_cost()
    ]
    fallback = min(
        profiles.catalog,
        key=lambda h: (
            -profiles.sweet_spot_rps(model, h, slo_seconds),
            h.price_per_hour,
        ),
    )
    pool = [
        hw
        for hw, sweet in sweets
        if sweet > 0.0
        and sweet
        >= predicted_rps * (headroom if hw.is_gpu else cpu_headroom)
    ]
    return pool if pool else [fallback]


@dataclass(frozen=True, slots=True)
class CandidateEvaluation:
    """One row of Algorithm 1's ``HW_dict``: a candidate's best latency."""

    hw: HardwareSpec
    least_t_max: float
    best_y: Optional[int]
    cost: float


def choose_best(
    evaluations: list[CandidateEvaluation], budget: float, slack: float
) -> CandidateEvaluation:
    """The seed's scalar ``choose_best_HW``: cheapest candidate within
    ``slack`` of the most performant; the fastest when nothing fits."""
    if not evaluations:
        raise ValueError("no candidates to choose from")
    best_t = min(e.least_t_max for e in evaluations)
    fitting = [e for e in evaluations if e.least_t_max <= budget]
    if not fitting:
        return min(evaluations, key=lambda e: (e.least_t_max, e.cost))
    threshold = max(best_t + slack, 0.8 * budget)
    window = [e for e in fitting if e.least_t_max <= threshold]
    pool = window or fitting
    return min(pool, key=lambda e: (e.cost, e.least_t_max))


def _pack(evaluations: list[CandidateEvaluation]) -> CandidateTable:
    """Scalar rows as a table.  The scalar scan never computes the
    co-run and occupancy columns, so they are NaN."""
    nan = np.full(len(evaluations), math.nan)
    return CandidateTable(
        specs=tuple(e.hw for e in evaluations),
        least_t_max=np.array(
            [e.least_t_max for e in evaluations], dtype=np.float64
        ),
        best_y=np.array(
            [math.nan if e.best_y is None else float(e.best_y)
             for e in evaluations],
            dtype=np.float64,
        ),
        cost_per_hour=np.array([e.cost for e in evaluations], dtype=np.float64),
        co_run=nan,
        occupancy=nan.copy(),
    )


class ReferenceHardwareSelector(HardwareSelector):
    """Algorithm 1 with the seed's scalar candidate scan, unmemoised."""

    def evaluate(
        self, hw: HardwareSpec, n_future: int, existing_fbr: float = 0.0
    ) -> CandidateEvaluation:
        """Best achievable worst-case latency of ``hw`` for ``n_future``
        requests (Algorithm 1 steps c/d)."""
        budget = self.slo_seconds * self.latency_budget_fraction
        batch = self.profiles.best_batch(self.model, hw, self.slo_seconds)
        if batch == 0:
            return CandidateEvaluation(
                hw=hw, least_t_max=float("inf"), best_y=None,
                cost=hw.price_per_hour,
            )
        contention_for = self.contention_for or (lambda hw: 1.0)
        solo = self.profiles.solo_time(self.model, hw, batch) * max(
            1.0, contention_for(hw)
        )
        if not hw.is_gpu:
            t = cpu_t_max(
                n_future, batch, solo, hw.cpu_lanes,
                horizon=self.plan_horizon_seconds,
            )
            return CandidateEvaluation(
                hw=hw, least_t_max=t, best_y=None, cost=hw.price_per_hour
            )
        decision = reference_optimal_split(
            n=n_future,
            batch_size=batch,
            solo=solo,
            fbr=self.profiles.fbr(self.model, hw),
            slo_seconds=budget,
            interference=self.profiles.interference,
            existing_fbr=existing_fbr,
            max_coresident=self.profiles.max_coresident(self.model, hw),
            solo_single=self.profiles.solo_time(self.model, hw, 1),
        )
        return CandidateEvaluation(
            hw=hw,
            least_t_max=decision.t_max,
            best_y=decision.y,
            cost=hw.price_per_hour,
        )

    def _table_entry(
        self,
        pool: list[HardwareSpec],
        n_future: int,
        current_hw: Optional[HardwareSpec],
        existing_fbr: float,
    ) -> list:
        """The scan ``tick`` runs, as ``[table, chosen index]``: every
        candidate evaluated afresh, then the scalar ``choose_best_HW``."""
        evaluations = [
            self.evaluate(
                hw,
                n_future,
                # Residency only burdens the node that actually holds
                # it: a candidate we would switch to starts empty.
                existing_fbr=existing_fbr
                if current_hw is not None and hw.name == current_hw.name
                else 0.0,
            )
            for hw in pool
        ]
        best = choose_best(
            evaluations,
            self.slo_seconds * self.latency_budget_fraction,
            self.perf_slack_seconds,
        )
        index = next(i for i, e in enumerate(evaluations) if e is best)
        return [_pack(evaluations), index]

    def tick(
        self,
        now: float,
        current_hw: Optional[HardwareSpec],
        existing_fbr: float = 0.0,
        backlog: int = 0,
        unavailable: frozenset[str] = frozenset(),
    ) -> SelectionOutcome:
        """Run one Hardware_Selection pass; applies hysteresis.

        ``backlog`` is the current software-queue depth (Algorithm 1 reads
        ``curr_request_queue`` before predicting): hardware must be able to
        drain what has already accumulated *and* what is coming.
        ``switch_requested`` is only True after ``wait_limit`` consecutive
        mismatches (the paper's ``wait_ctr``)."""
        rate = self.predictor.predict(now, self.lookahead_seconds)
        n_future = max(1, math.ceil(rate * self.plan_horizon_seconds) + max(0, backlog))
        effective_rate = rate + max(0, backlog) / max(
            self.lookahead_seconds, 1e-9
        )
        pool = [
            hw
            for hw in reference_hw_pool(
                self.profiles, self.model, effective_rate, self.slo_seconds
            )
            if hw.name not in unavailable
        ]
        if not pool:
            pool = [hw for hw in self.profiles.catalog.by_cost() if hw.name not in unavailable]
        if not pool:
            raise RuntimeError("no available hardware in the catalog")
        if current_hw is not None and all(
            hw.name != current_hw.name for hw in pool
        ):
            # Keep the incumbent in the comparison: its (in)feasibility is
            # what emergency escalation is judged against.
            pool.append(current_hw)
        budget = self.slo_seconds * self.latency_budget_fraction
        entry = self._table_entry(pool, n_future, current_hw, existing_fbr)
        table = entry[0]
        if entry[1] is None:
            # choose_best_HW (Algorithm 1 step e).
            entry[1] = table.choose_best_index(budget, self.perf_slack_seconds)
        chosen = table.specs[entry[1]]

        switch = False
        emergency = False
        if current_hw is None or chosen.name != current_hw.name:
            self._wait_ctr += 1
            escalating = (
                current_hw is None or chosen.perf_rank < current_hw.perf_rank
            )
            # Emergency: the node we are on cannot meet the SLO for the
            # predicted load.  The wait_ctr exists to damp cost-driven
            # churn, not to sit through an active violation risk.
            cur_idx = (
                table.index_of(current_hw.name)
                if current_hw is not None
                else None
            )
            emergency = (
                escalating
                and cur_idx is not None
                and float(table.least_t_max[cur_idx]) > budget
            )
            limit = self.wait_limit if escalating else self.wait_limit_down
            if current_hw is None or emergency or self._wait_ctr >= limit:
                switch = True
        else:
            self._wait_ctr = 0
        if self.tracer.enabled:
            # The full Algorithm 1 audit row: candidate table, hysteresis
            # state *before* any post-switch reset, and the verdict.
            self.tracer.event(
                "hardware_selection.tick",
                now,
                cat="decision",
                predicted_rps=rate,
                n_future=n_future,
                backlog=backlog,
                current=current_hw.name if current_hw is not None else None,
                chosen=chosen.name,
                switch_requested=switch,
                emergency=emergency,
                wait_ctr=self._wait_ctr,
                wait_limit=self.wait_limit,
                wait_limit_down=self.wait_limit_down,
                slo_budget=self.slo_seconds * self.latency_budget_fraction,
                perf_slack=self.perf_slack_seconds,
                candidates=table.as_trace_rows(),
            )
        if switch:
            self._wait_ctr = 0
            self.switches_requested += 1
        return SelectionOutcome(
            chosen=chosen,
            table=table,
            switch_requested=switch,
            predicted_rps=rate,
        )


class ReferencePolicyMixin:
    """Seed call pattern for :class:`PaldiaPolicy` and its subclasses.

    List it before the production class
    (``class X(ReferencePolicyMixin, PaldiaPolicy)``).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Keep the selector's state and wiring (the contention-aware
        # hook, the Oracle's clairvoyant predictor); swap only its scan.
        self.selector.__class__ = ReferenceHardwareSelector

    def batch_size_on(self, hw: HardwareSpec) -> int:
        b = self.profiles.best_batch(self.model, hw, self.slo_seconds)
        return b if b > 0 else 1

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
        solo = self._effective_solo(hw, batch)
        decision = reference_optimal_split(
            n=n,
            batch_size=batch,
            solo=solo,
            fbr=self.profiles.fbr(self.model, hw),
            slo_seconds=self.slo_seconds * self.latency_budget_fraction,
            interference=self.profiles.interference,
            existing_fbr=existing_fbr,
            existing_queue=existing_queue,
            max_coresident=self.profiles.max_coresident(self.model, hw),
            max_total_fbr=self.occupancy_cap_knees
            * self.profiles.interference.knee,
            solo_single=self.profiles.solo_time(self.model, hw, 1),
        )
        spatial_sizes = carve_sizes(decision.n_spatial, batch)
        temporal_sizes = carve_sizes(decision.y, batch)
        plan = WindowPlan(
            batches=tuple(
                [PlannedBatch(size=s, mode=ShareMode.SPATIAL) for s in spatial_sizes]
                + [
                    PlannedBatch(size=s, mode=ShareMode.TEMPORAL)
                    for s in temporal_sizes
                ]
            ),
            y=decision.y,
            predicted_t_max=decision.t_max,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "job_distribution.split",
                now,
                cat="decision",
                hardware=hw.name,
                n=n,
                y=decision.y,
                n_spatial=decision.n_spatial,
                batch_size=decision.batch_size,
                t_max=decision.t_max,
                feasible=decision.feasible,
                existing_fbr=existing_fbr,
                existing_queue=existing_queue,
            )
        return plan


class ReferencePaldiaPolicy(ReferencePolicyMixin, PaldiaPolicy):
    """:class:`PaldiaPolicy` on the seed call pattern."""


class ReferenceContentionAwarePaldiaPolicy(
    ReferencePolicyMixin, ContentionAwarePaldiaPolicy
):
    """:class:`ContentionAwarePaldiaPolicy` on the seed call pattern."""


class ReferenceOraclePolicy(ReferencePolicyMixin, OraclePolicy):
    """:class:`OraclePolicy` on the seed call pattern."""


def make_reference_policy(scheme, model, profiles, slo_seconds, trace=None):
    """The reference twin of :func:`repro.experiments.schemes.make_policy`
    for the Paldia-family schemes."""
    if scheme == "paldia":
        return ReferencePaldiaPolicy(model, profiles, slo_seconds)
    if scheme == "paldia_contention_aware":
        return ReferenceContentionAwarePaldiaPolicy(model, profiles, slo_seconds)
    if scheme == "oracle":
        return ReferenceOraclePolicy(model, profiles, slo_seconds, trace)
    raise ValueError(f"no reference policy for scheme {scheme!r}")

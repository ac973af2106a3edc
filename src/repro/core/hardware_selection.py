"""Algorithm 1: Paldia's Hardware Selection module.

Every monitoring interval the selector:

1. predicts the near-future request rate (EWMA over observed window rates,
   ~4 s lookahead so hardware can be acquired in time),
2. builds the candidate pool — configurations whose profiled capacity can
   serve the predicted rate (cheap CPU nodes qualify at low rates, GPU
   generations at high rates),
3. estimates each candidate's best achievable worst-case latency: Equation
   (1)'s minimum over ``y`` for GPUs (the vectorised sweep of
   :func:`repro.core.model.optimal_split`), the lane model for CPUs,
4. picks the cheapest candidate within ``perf_slack`` (~50 ms) of the most
   performant one,
5. applies hysteresis: only after ``wait_limit`` (3) consecutive intervals
   disagreeing with the current hardware does it request a reconfiguration
   — a single off-trend interval should not churn nodes.

The candidate scan is *columnar*: one :class:`CandidateTable` holds the
whole ``HW_dict`` as parallel numpy arrays (latency, cost, co-run level,
occupancy), solved in a single ``(candidates x y)`` grid by
:func:`repro.core.model.optimal_split_batch` and reduced with vectorised
feasibility masks + argmin.  The seed's row-by-row scan is kept with the
tests (``tests/oracles/``) as the oracle; the two are bit-identical (same
IEEE operation order, same first-index tie-breaking) and the golden suite
holds them to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.model import cpu_t_max, optimal_split_batch
from repro.core.predictor import RatePredictor
from repro.hardware.catalog import HardwareSpec
from repro.hardware.profiles import ProfileService
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.workloads.models import ModelSpec

__all__ = [
    "CandidateRow",
    "CandidateTable",
    "SelectionOutcome",
    "HardwareSelector",
    "choose_best_row",
]


@dataclass(frozen=True, slots=True)
class CandidateRow:
    """A recorded ``HW_dict`` row, decoupled from live catalog objects.

    The ``hardware_selection.tick`` trace event serialises each candidate
    as ``{hw, least_t_max, best_y, cost_per_hour}`` (with ``inf`` written
    as ``null``), and :meth:`from_attrs` parses that back so the
    counterfactual engine can re-run ``choose_best_HW`` over logged state
    without re-simulation.  The live loop never builds these; it runs
    on :class:`CandidateTable`'s arrays.
    """

    hw_name: str
    least_t_max: float
    best_y: Optional[int]
    cost_per_hour: float

    @classmethod
    def from_attrs(cls, attrs: dict) -> "CandidateRow":
        """Parse one serialised candidate (JSONL round trip: ``null``
        ``least_t_max`` means the candidate was infeasible at any split)."""
        t = attrs.get("least_t_max")
        return cls(
            hw_name=str(attrs.get("hw")),
            least_t_max=float("inf") if t is None else float(t),
            best_y=attrs.get("best_y"),
            cost_per_hour=float(attrs.get("cost_per_hour", 0.0)),
        )


def _lexmin_index(primary: np.ndarray, secondary: np.ndarray) -> int:
    """First index minimising ``(primary, secondary)`` lexicographically —
    the vectorised twin of ``min(rows, key=lambda r: (p(r), s(r)))``,
    including Python ``min``'s first-occurrence tie-breaking."""
    pmin = primary.min()
    cand = primary == pmin
    smin = secondary[cand].min()
    return int(np.flatnonzero(cand & (secondary == smin))[0])


def choose_best_row(
    rows: list[CandidateRow],
    slo_budget: float,
    perf_slack_seconds: float = 0.050,
) -> CandidateRow:
    """Replay ``choose_best_HW`` over a recorded candidate table.

    Given the rows of one ``hardware_selection.tick`` event (see
    :meth:`CandidateRow.from_attrs`) and the latency budget the selector
    was judging against, returns the row the live algorithm would pick —
    the primitive the offline counterfactual engine
    (:mod:`repro.analysis.attribution`) builds on.  The live selector
    runs the same rule on arrays (:meth:`CandidateTable.choose_best_index`).
    """
    if not rows:
        raise ValueError("no candidates to choose from")
    best_t = min(r.least_t_max for r in rows)
    fitting = [r for r in rows if r.least_t_max <= slo_budget]
    if not fitting:
        return min(rows, key=lambda r: (r.least_t_max, r.cost_per_hour))
    # "Within ~50 ms of the most performant" (the paper's rule), but
    # when every candidate sits far inside the budget the comparison
    # degenerates (at light load T_max values are all tiny and the
    # fastest GPU always "wins" by more than the slack); any node with
    # comfortable margin is equally good, so cost decides.
    threshold = max(best_t + perf_slack_seconds, 0.8 * slo_budget)
    window = [r for r in fitting if r.least_t_max <= threshold]
    pool = window or fitting
    return min(pool, key=lambda r: (r.cost_per_hour, r.least_t_max))


@dataclass(frozen=True)
class CandidateTable:
    """Algorithm 1's ``HW_dict`` as parallel (columnar) numpy arrays.

    This is the public selection API: one tick's candidate scan lives in
    one table — no per-candidate Python objects on the hot path.  A row
    is materialised on demand (:meth:`row`); the recorded
    ``hardware_selection.tick`` payload (:meth:`as_trace_rows`) keeps the
    exact seed schema, so ``repro.attribution/1`` replay is unchanged.

    Attributes
    ----------
    specs:
        Candidate hardware, fixing row order.
    least_t_max:
        Best achievable worst-case latency per candidate (``inf`` when
        the candidate cannot serve the model at all).
    best_y:
        The Equation-(1) ``y`` achieving it (``NaN`` for CPU/incapable
        rows, where no spatial/temporal split applies).
    cost_per_hour:
        Lease price per candidate.
    co_run:
        Co-located batch count implied by ``best_y``.
    occupancy:
        Planned aggregate FBR (existing + new residents) at ``best_y``.

    The arrays are frozen (non-writeable views) — a table is a value.
    """

    specs: tuple[HardwareSpec, ...]
    least_t_max: np.ndarray
    best_y: np.ndarray
    cost_per_hour: np.ndarray
    co_run: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self) -> None:
        for arr in (
            self.least_t_max, self.best_y, self.cost_per_hour,
            self.co_run, self.occupancy,
        ):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    # Vectorised selection (choose_best_HW on arrays)
    # ------------------------------------------------------------------
    def choose_best_index(self, budget: float, slack: float) -> int:
        """Vectorised ``choose_best_HW``: cheapest candidate within
        ``slack`` of the most performant (see :func:`choose_best_row`,
        whose semantics — including first-index tie-breaking — this
        reproduces exactly).  Candidates violating ``budget`` are only
        chosen when *nothing* fits, in which case the fastest wins
        (graceful degradation — the Fig 13a regime)."""
        t = self.least_t_max
        if t.size == 0:
            raise ValueError("no candidates to choose from")
        cost = self.cost_per_hour
        fitting = t <= budget
        if not fitting.any():
            return _lexmin_index(t, cost)
        threshold = max(float(t.min()) + slack, 0.8 * budget)
        window = fitting & (t <= threshold)
        pool = window if window.any() else fitting
        return _lexmin_index(
            np.where(pool, cost, np.inf), np.where(pool, t, np.inf)
        )

    def index_of(self, hw_name: str) -> Optional[int]:
        for i, spec in enumerate(self.specs):
            if spec.name == hw_name:
                return i
        return None

    # ------------------------------------------------------------------
    # Row views
    # ------------------------------------------------------------------
    def _best_y_at(self, i: int) -> Optional[int]:
        y = float(self.best_y[i])
        return None if math.isnan(y) else int(y)

    def row(self, i: int) -> CandidateRow:
        """Materialise row ``i`` as a replay-shaped :class:`CandidateRow`."""
        return CandidateRow(
            hw_name=self.specs[i].name,
            least_t_max=float(self.least_t_max[i]),
            best_y=self._best_y_at(i),
            cost_per_hour=float(self.cost_per_hour[i]),
        )

    def as_trace_rows(self) -> list[dict]:
        """The ``hardware_selection.tick`` candidate payload — the exact
        seed schema (``{hw, least_t_max, best_y, cost_per_hour}``)."""
        return [
            {
                "hw": self.specs[i].name,
                "least_t_max": float(self.least_t_max[i]),
                "best_y": self._best_y_at(i),
                "cost_per_hour": float(self.cost_per_hour[i]),
            }
            for i in range(len(self.specs))
        ]


@dataclass
class SelectionOutcome:
    """Result of one monitoring tick (``table`` is the candidate scan)."""

    chosen: HardwareSpec
    table: CandidateTable
    switch_requested: bool
    predicted_rps: float


class HardwareSelector:
    """Stateful Algorithm 1 executor (one per model being served).

    Parameters
    ----------
    model / profiles:
        Workload and the profiling database.
    predictor:
        Rate predictor (EWMA, or the Oracle's clairvoyant one).
    slo_seconds:
        The request SLO.
    lookahead_seconds:
        How far ahead hardware must be capable (~4 s: procurement time).
    plan_horizon_seconds:
        The window of requests Equation (1) is solved over (``N = rate *
        horizon``).
    perf_slack_seconds:
        ``choose_best_HW``'s cost/performance window (~50 ms).
    wait_limit:
        Consecutive mismatching intervals before an *escalating* switch
        (3, per Algorithm 1).
    wait_limit_down:
        Consecutive mismatching intervals before a *de-escalating* switch.
        De-escalation is deliberately damped (default 20): giving up a
        faster node costs SLO compliance when the dip is noise or a ramp
        plateau, while holding it a few extra seconds costs fractions of a
        cent.
    latency_budget_fraction:
        Fraction of the SLO that T_max may consume (the rest absorbs
        batching wait, dispatch, and prediction error).
    """

    def __init__(
        self,
        model: ModelSpec,
        profiles: ProfileService,
        predictor: RatePredictor,
        slo_seconds: float,
        lookahead_seconds: float = 4.0,
        plan_horizon_seconds: float = 0.1,
        perf_slack_seconds: float = 0.050,
        wait_limit: int = 3,
        wait_limit_down: int = 20,
        latency_budget_fraction: float = 0.85,
    ) -> None:
        self.model = model
        self.profiles = profiles
        self.predictor = predictor
        self.slo_seconds = float(slo_seconds)
        self.lookahead_seconds = float(lookahead_seconds)
        self.plan_horizon_seconds = float(plan_horizon_seconds)
        self.perf_slack_seconds = float(perf_slack_seconds)
        self.wait_limit = int(wait_limit)
        self.wait_limit_down = int(wait_limit_down)
        self.latency_budget_fraction = float(latency_budget_fraction)
        #: Host-contention inflation per candidate (>= 1).  ``None`` — no
        #: inflation — is the paper's model; the contention-aware
        #: extension (its stated future work) plugs in live estimates.
        self.contention_for: Optional[Callable[[HardwareSpec], float]] = None
        #: Algorithm 1's ``get_HW_pool`` as one bisect per tick.
        self._pools = profiles.hw_pools(model, self.slo_seconds)
        #: Every node, cheapest first: the pool of last resort.
        self._catalog = tuple(profiles.catalog.by_cost())
        self._wait_ctr = 0
        self.switches_requested = 0
        #: Decision-audit sink; every tick emits a
        #: ``hardware_selection.tick`` event when tracing is enabled.
        self.tracer: Tracer = NULL_TRACER
        #: Per-hardware profiled constants (batch, solo, fbr, bounds) —
        #: pure functions of (model, hw, slo), resolved once.
        self._consts: dict[str, tuple] = {}
        #: Memoised ``[table, chosen index]`` entries per tick key (see
        #: :meth:`tick`).
        self._table_cache: dict[tuple, list] = {}
        #: Memoised per-candidate solve results keyed on
        #: ``(hw.name, n_future, existing_fbr, contention)``.  Rows of the
        #: candidate grid are independent (every operation in the solver
        #: is elementwise), so a row computed for one pool is bit-reusable
        #: in any other pool containing the same candidate — and residency
        #: only burdens the incumbent, so the other rows survive every
        #: ``existing_fbr`` variation.
        self._row_cache: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Candidate evaluation (the par_for body of Algorithm 1)
    # ------------------------------------------------------------------
    def _hw_consts(self, hw: HardwareSpec) -> tuple:
        """Profiled per-candidate constants, resolved once per hardware:
        ``(batch, solo_base, fbr, max_coresident, solo_single, price)``.
        ``batch == 0`` marks an incapable node; ``fbr`` is 0 for CPUs."""
        try:
            return self._consts[hw.name]
        except KeyError:
            pass
        profiles = self.profiles
        batch = profiles.best_batch(self.model, hw, self.slo_seconds)
        if batch == 0:
            entry = (0, 0.0, 0.0, 0, 0.0, hw.price_per_hour)
        else:
            entry = (
                batch,
                profiles.solo_time(self.model, hw, batch),
                profiles.fbr(self.model, hw) if hw.is_gpu else 0.0,
                profiles.max_coresident(self.model, hw) if hw.is_gpu else 0,
                profiles.solo_time(self.model, hw, 1) if hw.is_gpu else 0.0,
                hw.price_per_hour,
            )
        self._consts[hw.name] = entry
        return entry

    def evaluate_pool(
        self,
        pool: list[HardwareSpec],
        n_future: int,
        current_hw: Optional[HardwareSpec] = None,
        existing_fbr: float = 0.0,
    ) -> CandidateTable:
        """Columnar candidate scan: the whole pool solved as one
        ``(candidates x y)`` grid (see
        :func:`repro.core.model.optimal_split_batch`).

        Residency (``existing_fbr``) only burdens the incumbent row — a
        candidate we would switch to starts empty.  Per-candidate solves
        are memoised on their exact inputs.
        """
        cf = self.contention_for
        contentions = (
            [1.0] * len(pool)
            if cf is None
            else [max(1.0, cf(hw)) for hw in pool]
        )
        inc = current_hw.name if current_hw is not None else None

        c = len(pool)
        consts = [self._hw_consts(hw) for hw in pool]
        t_col = np.empty(c, dtype=np.float64)
        y_col = np.full(c, np.nan)
        cost_col = np.array([e[5] for e in consts], dtype=np.float64)
        co_run_col = np.zeros(c)
        occ_col = np.zeros(c)

        row_cache = self._row_cache
        unsolved: list[int] = []
        for i, hw in enumerate(pool):
            batch, solo_base, _fbr, _mc, _ss, _price = consts[i]
            if batch == 0:
                t_col[i] = np.inf
                continue
            ef_i = (
                existing_fbr
                if inc is not None and hw.name == inc
                else 0.0
            )
            row_key = (hw.name, n_future, ef_i, contentions[i])
            row = row_cache.get(row_key)
            if row is not None:
                t_col[i], y_col[i], co_run_col[i], occ_col[i] = row
            elif not hw.is_gpu:
                t = cpu_t_max(
                    n_future, batch, solo_base * contentions[i],
                    hw.cpu_lanes, horizon=self.plan_horizon_seconds,
                )
                t_col[i] = t
                row_cache[row_key] = (t, np.nan, 0.0, 0.0)
            else:
                unsolved.append(i)
        if unsolved:
            idx = np.array(unsolved)
            t_best, y_best, k_best, occ_best = optimal_split_batch(
                n=n_future,
                batch_sizes=np.array([consts[i][0] for i in unsolved]),
                solos=np.array(
                    [consts[i][1] * contentions[i] for i in unsolved]
                ),
                fbrs=np.array([consts[i][2] for i in unsolved]),
                interference=self.profiles.interference,
                existing_fbrs=np.array(
                    [
                        existing_fbr
                        if inc is not None and pool[i].name == inc
                        else 0.0
                        for i in unsolved
                    ]
                ),
                max_coresidents=np.array([consts[i][3] for i in unsolved]),
                solo_singles=np.array([consts[i][4] for i in unsolved]),
            )
            t_col[idx] = t_best
            y_col[idx] = y_best
            co_run_col[idx] = k_best
            occ_col[idx] = occ_best
            if len(row_cache) >= 16384:
                row_cache.clear()
            for j, i in enumerate(unsolved):
                hw = pool[i]
                ef_i = (
                    existing_fbr
                    if inc is not None and hw.name == inc
                    else 0.0
                )
                row_cache[(hw.name, n_future, ef_i, contentions[i])] = (
                    float(t_best[j]),
                    float(y_best[j]),
                    float(k_best[j]),
                    float(occ_best[j]),
                )

        return CandidateTable(
            specs=tuple(pool),
            least_t_max=t_col,
            best_y=y_col,
            cost_per_hour=cost_col,
            co_run=co_run_col,
            occupancy=occ_col,
        )

    def _candidates(
        self,
        pool: tuple[HardwareSpec, ...],
        unavailable: frozenset[str],
        current_hw: Optional[HardwareSpec],
    ) -> list[HardwareSpec]:
        """The tick's ``HW_dict`` rows: the available part of ``pool``
        (else of the whole catalog), plus the incumbent."""
        cands = [hw for hw in pool if hw.name not in unavailable]
        if not cands:
            cands = [hw for hw in self._catalog if hw.name not in unavailable]
        if not cands:
            raise RuntimeError("no available hardware in the catalog")
        if current_hw is not None and all(
            hw.name != current_hw.name for hw in cands
        ):
            # Keep the incumbent in the comparison: its (in)feasibility is
            # what emergency escalation is judged against.
            cands.append(current_hw)
        return cands

    # ------------------------------------------------------------------
    # One monitoring tick (the outer loop of Algorithm 1)
    # ------------------------------------------------------------------
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
        ``unavailable`` names the nodes that cannot be leased right now
        (failed, or behind an open circuit breaker).
        ``switch_requested`` is only True after ``wait_limit`` consecutive
        mismatches (the paper's ``wait_ctr``).

        The candidate table and its verdict are memoised on six scalars
        that determine them: the pool index, ``unavailable``, the
        incumbent's name, ``n_future``, ``existing_fbr`` and the
        contention estimates (``None`` without a contention model).  A
        steady-state tick is a bisect and two dictionary lookups."""
        rate = self.predictor.predict(now, self.lookahead_seconds)
        n_future = max(1, math.ceil(rate * self.plan_horizon_seconds) + max(0, backlog))
        effective_rate = rate + max(0, backlog) / max(
            self.lookahead_seconds, 1e-9
        )
        pool_index, pool = self._pools.lookup(effective_rate)
        cf = self.contention_for
        contention = None
        if cf is not None:
            # Every candidate is a catalog node.
            contention = tuple(max(1.0, cf(hw)) for hw in self._catalog)
        key = (
            pool_index,
            unavailable,
            current_hw.name if current_hw is not None else None,
            n_future,
            existing_fbr,
            contention,
        )
        budget = self.slo_seconds * self.latency_budget_fraction
        entry = self._table_cache.get(key)
        if entry is None:
            table = self.evaluate_pool(
                self._candidates(pool, unavailable, current_hw),
                n_future,
                current_hw,
                existing_fbr,
            )
            # choose_best_HW (Algorithm 1 step e).  Budget and slack are
            # selector constants, so a table's verdict never changes.
            entry = [table, table.choose_best_index(budget, self.perf_slack_seconds)]
            if len(self._table_cache) >= 4096:
                self._table_cache.clear()
            self._table_cache[key] = entry
        table = entry[0]
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

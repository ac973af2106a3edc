"""Cross-run ledger: a SQLite record of every run's headline metrics.

A run's time-series answers "what did *this* run look like over time";
the ledger answers "how does this run compare to every run before it".
Each :meth:`RunLedger.record` persists one row — scheme, model, trace,
seed, git SHA, wall metrics (p99, cost, compliance, violation rate),
cold starts, switches, cache hit counters — and :meth:`RunLedger.compare`
diffs any two rows with explicit regression flags, which is what the CI
regression workflow (``docs/PERFORMANCE.md``) keys off.

The store is a single SQLite file (stdlib ``sqlite3``, no server, safe
for concurrent readers).  Schema changes bump ``SCHEMA_VERSION``; the
ledger refuses files written by a newer schema rather than guessing.
Older files are migrated in place on open (``ALTER TABLE ... ADD
COLUMN`` with defaults), so a v1 ledger keeps working under v2 — its
pre-migration rows simply carry zero wall-clock.
"""

from __future__ import annotations

import datetime as _dt
import json
import logging
import sqlite3
import subprocess
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.telemetry._warn_once import WarnOnce

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.framework.system import RunResult

logger = logging.getLogger(__name__)

__all__ = [
    "RunLedger",
    "RunRecord",
    "LedgerComparison",
    "MetricDelta",
    "git_sha",
    "DEFAULT_LEDGER_PATH",
]

#: Default on-disk location (gitignored, like the result cache).
DEFAULT_LEDGER_PATH = ".repro-ledger.sqlite"

#: v2 added wall_seconds / top_phase / top_phase_share (self-profiling);
#: v3 added the cost-meter columns (idle/cold-start dollars, $/1k);
#: v4 added the executor fault columns (retries, timeouts, crashes);
#: v5 added the worst-request forensics columns (request trace).
SCHEMA_VERSION = 5

#: Columns added since v1, applied to older files on open.
_MIGRATIONS = (
    "wall_seconds REAL NOT NULL DEFAULT 0",
    "top_phase TEXT",
    "top_phase_share REAL NOT NULL DEFAULT 0",
    "idle_cost REAL NOT NULL DEFAULT 0",
    "coldstart_cost REAL NOT NULL DEFAULT 0",
    "cost_per_1k_requests REAL NOT NULL DEFAULT 0",
    "cell_retries INTEGER NOT NULL DEFAULT 0",
    "cell_timeouts INTEGER NOT NULL DEFAULT 0",
    "worker_crashes INTEGER NOT NULL DEFAULT 0",
    "worst_request_id INTEGER NOT NULL DEFAULT -1",
    "worst_request_latency REAL NOT NULL DEFAULT 0",
    "worst_request_phase TEXT",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS ledger_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    created_utc     TEXT NOT NULL,
    git_sha         TEXT,
    scheme          TEXT NOT NULL,
    model           TEXT NOT NULL,
    trace           TEXT NOT NULL,
    seed            INTEGER NOT NULL,
    duration        REAL NOT NULL,
    slo_seconds     REAL NOT NULL,
    offered         INTEGER NOT NULL,
    completed       INTEGER NOT NULL,
    slo_compliance  REAL NOT NULL,
    violation_rate  REAL NOT NULL,
    p50_seconds     REAL NOT NULL,
    p99_seconds     REAL NOT NULL,
    total_cost      REAL NOT NULL,
    cold_starts     INTEGER NOT NULL,
    n_switches      INTEGER NOT NULL,
    cache_hits      INTEGER NOT NULL DEFAULT 0,
    cache_misses    INTEGER NOT NULL DEFAULT 0,
    extra_json      TEXT NOT NULL DEFAULT '{}',
    wall_seconds    REAL NOT NULL DEFAULT 0,
    top_phase       TEXT,
    top_phase_share REAL NOT NULL DEFAULT 0,
    idle_cost       REAL NOT NULL DEFAULT 0,
    coldstart_cost  REAL NOT NULL DEFAULT 0,
    cost_per_1k_requests REAL NOT NULL DEFAULT 0,
    cell_retries    INTEGER NOT NULL DEFAULT 0,
    cell_timeouts   INTEGER NOT NULL DEFAULT 0,
    worker_crashes  INTEGER NOT NULL DEFAULT 0,
    worst_request_id      INTEGER NOT NULL DEFAULT -1,
    worst_request_latency REAL NOT NULL DEFAULT 0,
    worst_request_phase   TEXT
);
"""


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current short commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass(frozen=True)
class RunRecord:
    """One persisted run row."""

    run_id: int
    created_utc: str
    git_sha: Optional[str]
    scheme: str
    model: str
    trace: str
    seed: int
    duration: float
    slo_seconds: float
    offered: int
    completed: int
    slo_compliance: float
    violation_rate: float
    p50_seconds: float
    p99_seconds: float
    total_cost: float
    cold_starts: int
    n_switches: int
    cache_hits: int = 0
    cache_misses: int = 0
    extra: dict[str, Any] = field(default_factory=dict)
    #: Host wall-clock of the run (0.0 for rows recorded before v2 or
    #: without measurement) and its hottest self-profile phase.
    wall_seconds: float = 0.0
    top_phase: Optional[str] = None
    top_phase_share: float = 0.0
    #: Cost-meter columns (0.0 for rows recorded before v3 or for runs
    #: without the meter): itemized idle / cold-start dollars and the
    #: headline efficiency scalar, dollars per 1000 offered requests.
    idle_cost: float = 0.0
    coldstart_cost: float = 0.0
    cost_per_1k_requests: float = 0.0
    #: Executor fault columns (v4; 0 for rows recorded before, or for
    #: runs that never hit a fault): cell retries, cell timeouts, and
    #: worker crashes survived while producing this row.
    cell_retries: int = 0
    cell_timeouts: int = 0
    worker_crashes: int = 0
    #: Worst-request forensics columns (v5; absent for rows recorded
    #: before, or for runs without ``--reqtrace``): the slowest traced
    #: request's id, end-to-end latency, and dominant causal phase.
    worst_request_id: int = -1
    worst_request_latency: float = 0.0
    worst_request_phase: Optional[str] = None


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric: baseline -> candidate, with a regression flag.

    ``higher_is_worse`` encodes the metric's direction; ``regressed`` is
    set when the candidate worsened by more than the comparison's
    relative tolerance (absolute tolerance for rate-like metrics in
    ``[0, 1]``).
    """

    name: str
    baseline: float
    candidate: float
    higher_is_worse: bool
    regressed: bool
    improved: bool

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.candidate else 1.0
        return self.candidate / self.baseline


@dataclass(frozen=True)
class LedgerComparison:
    """The diff of two ledger rows."""

    baseline: RunRecord
    candidate: RunRecord
    deltas: list[MetricDelta]
    comparable: bool  # same scheme+model+trace+seed+duration

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)


class RunLedger:
    """SQLite-backed cross-run metric store.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "ledger.sqlite")
    >>> ledger = RunLedger(path)
    >>> ledger.list_runs()
    []
    """

    def __init__(self, path: str = DEFAULT_LEDGER_PATH) -> None:
        self.path = path
        self._warn_write = WarnOnce(
            logger,
            "ledger write to %s failed (%s); the run completed but is "
            "not recorded (further ledger write errors are silenced)",
        )
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM ledger_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO ledger_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row["value"]) > SCHEMA_VERSION:
                raise ValueError(
                    f"{path} was written by ledger schema {row['value']}; "
                    f"this build understands <= {SCHEMA_VERSION}"
                )
            elif int(row["value"]) < SCHEMA_VERSION:
                # Migrate an older file in place: add the missing columns
                # with defaults (existing rows read as zero/NULL) and
                # stamp the new version.  CREATE TABLE IF NOT EXISTS
                # above was a no-op for it, so the DDL never conflicts.
                have = {
                    r["name"]
                    for r in self._conn.execute("PRAGMA table_info(runs)")
                }
                for ddl in _MIGRATIONS:
                    if ddl.split()[0] not in have:
                        self._conn.execute(
                            f"ALTER TABLE runs ADD COLUMN {ddl}"
                        )
                self._conn.execute(
                    "UPDATE ledger_meta SET value = ? "
                    "WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def record(
        self,
        result: "RunResult",
        *,
        trace: str,
        seed: int,
        sha: Optional[str] = None,
        cache_hits: int = 0,
        cache_misses: int = 0,
        extra: Optional[dict[str, Any]] = None,
        top_phase: Optional[str] = None,
        top_phase_share: float = 0.0,
        cell_retries: int = 0,
        cell_timeouts: int = 0,
        worker_crashes: int = 0,
        worst_request_id: int = -1,
        worst_request_latency: float = 0.0,
        worst_request_phase: Optional[str] = None,
    ) -> int:
        """Persist one run's summary; returns the new row id, or ``-1``
        when the write itself failed (see below).

        ``wall_seconds`` is read off the result; the hottest self-profile
        phase (``top_phase``/``top_phase_share``) is passed explicitly by
        callers that ran under a :class:`~repro.telemetry.selfprof.
        RunProfiler`, and the worst-request columns by callers that ran
        with a request trace (``RunConfig.reqtrace``).

        A failing write (read-only file, full disk, locked database)
        degrades the ledger instead of aborting the run that produced
        the result: the error is warned once per ledger and ``-1`` is
        returned.
        """
        offered = result.offered_requests
        violations = offered - round(result.slo_compliance * offered)
        created = _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        )
        bd = getattr(result, "cost_breakdown", None)
        idle_cost = bd.idle_dollars if bd is not None else 0.0
        coldstart_cost = bd.coldstart_dollars if bd is not None else 0.0
        cost_per_1k = (
            result.total_cost / offered * 1000.0 if offered else 0.0
        )
        try:
            with self._conn:
                cur = self._conn.execute(
                    """
                    INSERT INTO runs (
                        created_utc, git_sha, scheme, model, trace, seed,
                        duration, slo_seconds, offered, completed,
                        slo_compliance, violation_rate, p50_seconds,
                        p99_seconds, total_cost, cold_starts, n_switches,
                        cache_hits, cache_misses, extra_json,
                        wall_seconds, top_phase, top_phase_share,
                        idle_cost, coldstart_cost, cost_per_1k_requests,
                        cell_retries, cell_timeouts, worker_crashes,
                        worst_request_id, worst_request_latency,
                        worst_request_phase
                    ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,
                              ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,
                              ?, ?)
                    """,
                    (
                        created,
                        sha if sha is not None else git_sha(),
                        result.scheme,
                        result.model,
                        trace,
                        int(seed),
                        float(result.duration),
                        float(result.slo_seconds),
                        int(offered),
                        int(result.completed_requests),
                        float(result.slo_compliance),
                        float(violations / offered) if offered else 0.0,
                        float(result.p50_seconds),
                        float(result.p99_seconds),
                        float(result.total_cost),
                        int(result.cold_starts),
                        int(result.n_switches),
                        int(cache_hits),
                        int(cache_misses),
                        json.dumps(extra or {}),
                        float(getattr(result, "wall_seconds", 0.0)),
                        top_phase,
                        float(top_phase_share),
                        float(idle_cost),
                        float(coldstart_cost),
                        float(cost_per_1k),
                        int(cell_retries),
                        int(cell_timeouts),
                        int(worker_crashes),
                        int(worst_request_id),
                        float(worst_request_latency),
                        worst_request_phase,
                    ),
                )
        except (sqlite3.OperationalError, OSError) as exc:
            self._warn_write.note(self.path, exc)
            return -1
        return int(cur.lastrowid)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @staticmethod
    def _to_record(row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            run_id=row["id"],
            created_utc=row["created_utc"],
            git_sha=row["git_sha"],
            scheme=row["scheme"],
            model=row["model"],
            trace=row["trace"],
            seed=row["seed"],
            duration=row["duration"],
            slo_seconds=row["slo_seconds"],
            offered=row["offered"],
            completed=row["completed"],
            slo_compliance=row["slo_compliance"],
            violation_rate=row["violation_rate"],
            p50_seconds=row["p50_seconds"],
            p99_seconds=row["p99_seconds"],
            total_cost=row["total_cost"],
            cold_starts=row["cold_starts"],
            n_switches=row["n_switches"],
            cache_hits=row["cache_hits"],
            cache_misses=row["cache_misses"],
            extra=json.loads(row["extra_json"]),
            wall_seconds=row["wall_seconds"] or 0.0,
            top_phase=row["top_phase"],
            top_phase_share=row["top_phase_share"] or 0.0,
            idle_cost=row["idle_cost"] or 0.0,
            coldstart_cost=row["coldstart_cost"] or 0.0,
            cost_per_1k_requests=row["cost_per_1k_requests"] or 0.0,
            cell_retries=row["cell_retries"] or 0,
            cell_timeouts=row["cell_timeouts"] or 0,
            worker_crashes=row["worker_crashes"] or 0,
            worst_request_id=(
                row["worst_request_id"]
                if row["worst_request_id"] is not None else -1
            ),
            worst_request_latency=row["worst_request_latency"] or 0.0,
            worst_request_phase=row["worst_request_phase"],
        )

    def list_runs(self, limit: Optional[int] = None) -> list[RunRecord]:
        """All runs, newest first."""
        sql = "SELECT * FROM runs ORDER BY id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [self._to_record(r) for r in self._conn.execute(sql)]

    def get(self, run_id: int) -> RunRecord:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (int(run_id),)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run #{run_id} in {self.path}")
        return self._to_record(row)

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()["n"]
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def compare(
        self,
        baseline_id: int,
        candidate_id: int,
        *,
        rel_tolerance: float = 0.05,
        abs_tolerance: float = 0.005,
    ) -> LedgerComparison:
        """Diff two runs with regression flags.

        A scalar metric (p99, cost, cold starts) regresses when the
        candidate worsens by more than ``rel_tolerance`` relative to the
        baseline; a rate metric in ``[0, 1]`` (compliance, violation
        rate) regresses when it worsens by more than ``abs_tolerance``
        absolute.  The same thresholds, mirrored, set ``improved``.
        """
        base = self.get(baseline_id)
        cand = self.get(candidate_id)

        def scalar(name: str, b: float, c: float,
                   higher_is_worse: bool = True) -> MetricDelta:
            span = abs(b) * rel_tolerance
            worse = (c - b) if higher_is_worse else (b - c)
            return MetricDelta(
                name=name, baseline=b, candidate=c,
                higher_is_worse=higher_is_worse,
                regressed=worse > span,
                improved=worse < -span,
            )

        def rate(name: str, b: float, c: float,
                 higher_is_worse: bool) -> MetricDelta:
            worse = (c - b) if higher_is_worse else (b - c)
            return MetricDelta(
                name=name, baseline=b, candidate=c,
                higher_is_worse=higher_is_worse,
                regressed=worse > abs_tolerance,
                improved=worse < -abs_tolerance,
            )

        deltas = [
            rate("slo_compliance", base.slo_compliance, cand.slo_compliance,
                 higher_is_worse=False),
            rate("violation_rate", base.violation_rate, cand.violation_rate,
                 higher_is_worse=True),
            scalar("p50_seconds", base.p50_seconds, cand.p50_seconds),
            scalar("p99_seconds", base.p99_seconds, cand.p99_seconds),
            scalar("total_cost", base.total_cost, cand.total_cost),
            scalar("cold_starts", float(base.cold_starts),
                   float(cand.cold_starts)),
            scalar("n_switches", float(base.n_switches),
                   float(cand.n_switches)),
        ]
        if (
            base.cost_per_1k_requests > 0
            and cand.cost_per_1k_requests > 0
        ):
            # Cost-meter columns (v3): only compared when both rows carry
            # them — a pre-v3 migrated baseline reads 0 and would flag a
            # spurious regression otherwise.  Dollar values near zero
            # get an absolute floor so rounding noise can't flap.
            def cost_scalar(name: str, b: float, c: float) -> MetricDelta:
                span = max(abs(b) * rel_tolerance, 5e-4)
                worse = c - b
                return MetricDelta(
                    name=name, baseline=b, candidate=c,
                    higher_is_worse=True,
                    regressed=worse > span,
                    improved=worse < -span,
                )

            deltas.extend(
                [
                    cost_scalar("cost_per_1k_requests",
                                base.cost_per_1k_requests,
                                cand.cost_per_1k_requests),
                    cost_scalar("idle_cost", base.idle_cost,
                                cand.idle_cost),
                    cost_scalar("coldstart_cost", base.coldstart_cost,
                                cand.coldstart_cost),
                ]
            )
        if base.wall_seconds > 0 and cand.wall_seconds > 0:
            # Host wall-clock is noisy between runs (shared machines, CPU
            # frequency scaling), so it gets a wider floor than the
            # simulated metrics: at least 25% relative worsening before
            # it is flagged — and at least 0.5 s absolute, because on
            # sub-second runs scheduler jitter alone exceeds any
            # relative floor.
            wall_tol = max(rel_tolerance, 0.25)
            worse = cand.wall_seconds - base.wall_seconds
            span = max(base.wall_seconds * wall_tol, 0.5)
            deltas.append(
                MetricDelta(
                    name="wall_seconds",
                    baseline=base.wall_seconds,
                    candidate=cand.wall_seconds,
                    higher_is_worse=True,
                    regressed=worse > span,
                    improved=worse < -span,
                )
            )
        comparable = (
            base.scheme == cand.scheme
            and base.model == cand.model
            and base.trace == cand.trace
            and base.seed == cand.seed
            and base.duration == cand.duration
        )
        return LedgerComparison(
            baseline=base, candidate=cand, deltas=deltas, comparable=comparable
        )


# ----------------------------------------------------------------------
# Terminal rendering (used by the ``runs`` CLI)
# ----------------------------------------------------------------------
def render_run_rows(records: list[RunRecord]) -> list[list[Any]]:
    """Rows for ``render_table`` (newest first, as listed)."""
    return [
        [
            r.run_id,
            r.created_utc.replace("+00:00", "Z"),
            r.git_sha or "-",
            r.scheme,
            r.model,
            r.trace,
            r.seed,
            round(100 * r.slo_compliance, 2),
            round(r.p99_seconds * 1e3, 1),
            round(r.total_cost, 4),
            round(r.wall_seconds, 2) if r.wall_seconds else "-",
        ]
        for r in records
    ]


def render_comparison(cmp: LedgerComparison) -> str:
    """Human-readable diff of two ledger rows."""
    b, c = cmp.baseline, cmp.candidate
    lines = [
        f"baseline  #{b.run_id}  {b.scheme}/{b.model}/{b.trace} "
        f"seed {b.seed}  sha {b.git_sha or '-'}  ({b.created_utc})",
        f"candidate #{c.run_id}  {c.scheme}/{c.model}/{c.trace} "
        f"seed {c.seed}  sha {c.git_sha or '-'}  ({c.created_utc})",
    ]
    if not cmp.comparable:
        lines.append(
            "note: runs differ in scheme/model/trace/seed/duration — "
            "deltas mix configuration and code effects"
        )
    lines.append("")
    name_w = max(len(d.name) for d in cmp.deltas)
    for d in cmp.deltas:
        flag = "REGRESSED" if d.regressed else ("improved" if d.improved else "")
        arrow = "^" if d.delta > 0 else ("v" if d.delta < 0 else "=")
        lines.append(
            f"  {d.name:<{name_w}s}  {d.baseline:>12.6g} -> "
            f"{d.candidate:>12.6g}  {arrow} {d.delta:+.6g}  {flag}"
        )
    lines.append("")
    if cmp.regressed:
        names = ", ".join(d.name for d in cmp.regressions)
        lines.append(f"verdict: REGRESSED ({names})")
    else:
        lines.append("verdict: no regressions")
    return "\n".join(lines)

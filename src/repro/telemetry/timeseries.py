"""Time-series telemetry: periodic state sampling into columnar buffers.

The third telemetry pillar, next to spans (:mod:`~repro.telemetry.tracer`)
and instrument snapshots (:mod:`~repro.telemetry.metrics`): a
:class:`StateSampler` polls registered **probe callbacks** — queue depths,
per-node occupancy and MPS co-run level, container-pool sizes, breaker
states, predicted vs. offered rate — on a fixed simulated-time interval
and appends each reading into a preallocated numpy **ring-buffer column**.
This is what lets a run answer "what did the system look like at *t*"
(the shape the paper's Figs. 9–13 reason about) instead of only "why did
request *r* miss its deadline".

Cost model
----------
* **Disabled** (the default): no sampler is constructed, no events are
  scheduled — the run executes the exact pre-sampler code path.
* **Enabled**: one simulator event per interval; each tick makes one
  call per probe and one float store per column (probes read state that
  already exists — nothing is shadow-copied on the hot path).  A *probe
  group* fills several columns from one call, so state that several
  columns derive from (the live nodes, the SLO windows) is read once
  per tick.  Columns are preallocated from the run horizon, so
  steady-state sampling allocates no column storage.

A probe that raises is disabled after its first failure (its columns
hold NaN from then on) and the error is recorded in
``meta["probe_errors"]`` — a broken gauge must never kill the run it
observes.

Export / import
---------------
:meth:`StateSampler.save` writes the columns and meta as a compressed
NumPy archive (``timeseries.npz`` in a run bundle); :func:`read_timeseries`
loads it back into a :class:`TimeSeriesData` that
:mod:`repro.analysis.timeseries_report` renders as aligned per-metric
panels.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.simulator.engine import RepeatingEvent, Simulator

__all__ = [
    "StateSampler",
    "TimeSeriesData",
    "read_timeseries",
    "TIMESERIES_SCHEMA",
]

#: Schema tag written into every exported archive.
TIMESERIES_SCHEMA = "repro.timeseries/1"

#: Default ring capacity when no horizon is known at start time.
_DEFAULT_CAPACITY = 4096


@dataclass
class TimeSeriesData:
    """A loaded time-series: aligned columns over one time axis."""

    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def names(self) -> list[str]:
        return list(self.columns)


class StateSampler:
    """Samples registered probes on a fixed simulated-time interval.

    Parameters
    ----------
    interval_seconds:
        Sampling cadence (must be positive).
    capacity:
        Ring-buffer length in samples.  Defaults to the run horizon at
        :meth:`start` (``ceil(horizon / interval) + 1``); when more
        samples than ``capacity`` arrive the buffer wraps and only the
        most recent ``capacity`` readings are retained.
    meta:
        Free-form metadata (scheme, model, seed, hardware codes…)
        carried through export.

    Examples
    --------
    >>> s = StateSampler(1.0)
    >>> s.probe("x", lambda: 42.0)
    >>> s.sample(0.0)
    >>> float(s.column("x")[0])
    42.0
    """

    def __init__(
        self,
        interval_seconds: float,
        *,
        capacity: Optional[int] = None,
        meta: Optional[dict[str, Any]] = None,
    ) -> None:
        if not interval_seconds > 0:
            raise ValueError("sampling interval must be positive")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.interval_seconds = float(interval_seconds)
        self.meta: dict[str, Any] = dict(meta) if meta else {}
        self._capacity = capacity
        #: Column names -> (probe, whether it returns one scalar); the
        #: probe is ``None`` once it has failed.  Flattened in order, the
        #: names are the columns of :attr:`_data`.
        self._probes: dict[tuple[str, ...], tuple[Optional[Callable], bool]] = {}
        #: Column name -> column index in :attr:`_data`.
        self._columns: dict[str, int] = {}
        self._times: Optional[np.ndarray] = None
        #: Ring buffer of sample rows, ``(capacity, n columns)``.
        self._data: Optional[np.ndarray] = None
        self._n = 0  # total samples ever taken (>= capacity once wrapped)
        self._handle: Optional[RepeatingEvent] = None
        #: Called as ``observer(now, row)`` after every sample — the live
        #: dashboard's hook point.
        self.observers: list[Callable[[float, dict[str, float]], None]] = []
        #: Optional :class:`~repro.telemetry.selfprof.RunProfiler` — when
        #: set, each sample brackets itself as a ``telemetry.sampler``
        #: frame so the sampler's own cost shows up in the phase tree.
        self.selfprof = None

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register (or rebind) a named probe.

        Probes registered after sampling began get a new column whose
        already-elapsed rows are NaN.
        """
        self._register((name,), fn, True)

    def probe_group(
        self, names: Sequence[str], fn: Callable[[], Sequence[float]]
    ) -> None:
        """Register (or rebind) one probe that fills several columns.

        ``fn`` returns one value per name, in ``names`` order.  If it
        raises (or returns the wrong number of values) every column of
        the group is disabled together.
        """
        self._register(tuple(names), fn, False)

    def _register(
        self, names: tuple[str, ...], fn: Callable, scalar: bool
    ) -> None:
        if not callable(fn):
            raise TypeError(f"probe {names[0]!r} must be callable")
        if len(set(names)) != len(names) or (
            names not in self._probes
            and any(name in self._columns for name in names)
        ):
            raise ValueError(
                f"probe columns {names!r} repeat or belong to another probe"
            )
        self._probes[names] = (fn, scalar)
        for name in names:
            if name not in self._columns:
                self._columns[name] = len(self._columns)
                if self._data is not None:
                    nan_column = np.full((self._capacity, 1), np.nan)
                    self._data = np.concatenate([self._data, nan_column], axis=1)

    def probe_names(self) -> list[str]:
        return list(self._columns)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        sim: Simulator,
        horizon: Optional[float] = None,
        *,
        priority: int = 90,
    ) -> RepeatingEvent:
        """Allocate the ring buffers and begin the sampling loop on ``sim``.

        The first sample lands at ``now + interval``; a ``horizon``
        shorter than one interval therefore yields zero samples (and an
        empty — but still exportable — series).
        """
        if self._handle is not None:
            raise RuntimeError("sampler already started")
        self._ensure_buffers(horizon)
        self._handle = sim.every(
            self.interval_seconds,
            lambda: self.sample(sim.now),
            until=horizon,
            priority=priority,
        )
        return self._handle

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()

    def _ensure_buffers(self, horizon: Optional[float] = None) -> None:
        if self._times is not None:
            return
        if self._capacity is None:
            if horizon is not None and horizon >= 0:
                self._capacity = int(math.ceil(horizon / self.interval_seconds)) + 1
            else:
                self._capacity = _DEFAULT_CAPACITY
        self._times = np.full(self._capacity, np.nan)
        self._data = np.full((self._capacity, len(self._columns)), np.nan)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float) -> dict[str, float]:
        """Take one sample row at simulated time ``now``."""
        prof = self.selfprof
        if prof is not None:
            prof.push("telemetry.sampler")
        self._ensure_buffers()
        values: list[float] = []
        for names, (fn, scalar) in self._probes.items():
            group = None
            if fn is not None:
                try:
                    group = [float(fn())] if scalar else [float(v) for v in fn()]
                    if len(group) != len(names):
                        raise ValueError(
                            f"probe group returned {len(group)} values "
                            f"for {len(names)} columns"
                        )
                except Exception as exc:  # noqa: BLE001 - probe isolation
                    self._probes[names] = (None, scalar)
                    errors = self.meta.setdefault("probe_errors", {})
                    for name in names:
                        errors[name] = repr(exc)
                    group = None
            values.extend([math.nan] * len(names) if group is None else group)
        idx = self._n % self._capacity
        self._times[idx] = now
        self._data[idx] = values
        row: dict[str, float] = {"t": float(now)}
        row.update(zip(self._columns, values))
        self._n += 1
        for observer in self.observers:
            observer(now, row)
        if prof is not None:
            prof.pop()
        return row

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Samples currently retained (<= capacity once wrapped)."""
        if self._capacity is None:
            return 0
        return min(self._n, self._capacity)

    @property
    def wrapped(self) -> bool:
        return self._capacity is not None and self._n > self._capacity

    def _unwrap(self, arr: np.ndarray) -> np.ndarray:
        if self._n <= self._capacity:
            return arr[: self._n].copy()
        idx = self._n % self._capacity
        return np.concatenate([arr[idx:], arr[:idx]])

    def times(self) -> np.ndarray:
        """Sample times, oldest first."""
        if self._times is None:
            return np.empty(0)
        return self._unwrap(self._times)

    def column(self, name: str) -> np.ndarray:
        """One probe's readings, aligned with :meth:`times`."""
        if self._data is None:
            return np.empty(0)
        return self._unwrap(self._data[:, self._columns[name]])

    def columns(self) -> dict[str, np.ndarray]:
        if self._data is None:
            return {}
        return {name: self.column(name) for name in self._columns}

    def last(self, name: str) -> float:
        """Most recent reading of ``name`` (NaN before the first sample)."""
        if self._data is None or self._n == 0 or name not in self._columns:
            return math.nan
        return float(
            self._data[(self._n - 1) % self._capacity, self._columns[name]]
        )

    def data(self) -> TimeSeriesData:
        meta = dict(self.meta)
        meta.setdefault("schema", TIMESERIES_SCHEMA)
        meta["interval_seconds"] = self.interval_seconds
        meta["n_samples"] = self.n_samples
        meta["wrapped"] = self.wrapped
        return TimeSeriesData(times=self.times(), columns=self.columns(), meta=meta)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Write a compressed ``.npz`` archive; returns columns written."""
        data = self.data()
        arrays: dict[str, np.ndarray] = {"t": data.times}
        for name, col in data.columns.items():
            arrays[f"col:{name}"] = col
        np.savez_compressed(
            path, __meta__=np.frombuffer(
                json.dumps(data.meta).encode("utf-8"), dtype=np.uint8
            ), **arrays,
        )
        return len(data.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateSampler(interval={self.interval_seconds}, "
            f"probes={len(self._probes)}, samples={self.n_samples})"
        )


# ----------------------------------------------------------------------
# Import
# ----------------------------------------------------------------------
def read_timeseries(path: str) -> TimeSeriesData:
    """Load an archive written by :meth:`StateSampler.save`.

    Raises ``ValueError`` when the file is not a NumPy archive carrying
    ``repro.timeseries/1`` meta (a trace saved by
    :func:`repro.workloads.save_npz` is an archive, but not a time-series).
    """
    try:
        archive = np.load(path)
    except (EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a NumPy archive: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a NumPy archive")
    with archive:
        meta: Any = {}
        if "__meta__" in archive.files:
            meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        if not isinstance(meta, dict) or meta.get("schema") != TIMESERIES_SCHEMA:
            raise ValueError(f"{path}: not a {TIMESERIES_SCHEMA} archive")
        times = archive["t"] if "t" in archive.files else np.empty(0)
        columns = {
            name[len("col:"):]: archive[name]
            for name in archive.files
            if name.startswith("col:")
        }
    return TimeSeriesData(times=np.asarray(times, dtype=float),
                          columns=columns, meta=meta)

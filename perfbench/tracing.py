"""Spans for the traced run: wrappers around each layer's public calls.

A :class:`SpanRecorder` keeps spans in memory as parallel arrays (name
id, parent span, start, end) and serves as the engine's hierarchical
``DispatchProfiler``: ``push_site``/``pop`` open and close one span per
dispatched callback, so everything a callback calls nests under it.
:func:`install` replaces the methods listed in :data:`TARGETS` on their
classes with span-recording wrappers; :func:`uninstall` puts the
originals back.  Untraced runs never call either.

A span's self time is its duration minus the durations of its direct
children, so the self times inside ``Simulator.run`` add up to its wall
time exactly; :func:`accounting` splits that wall time by frame.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

#: Marker set on every wrapper (the "no wrapper installed" check reads it).
MARK = "__perfbench_wrapped__"

#: (module, class, method, span name).  Wrapped only in the traced run.
#: An empty class wraps a name the benchmark's own workloads module calls
#: (its trace factories stay plain functions, so the result cache keys them).
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("workloads", "", "azure_trace", "traces.gen"),
    ("workloads", "", "poisson_trace", "traces.gen"),
    ("workloads", "", "twitter_trace", "traces.gen"),
    ("workloads", "", "replay", "traces.gen"),
    ("repro.simulator.engine", "Simulator", "run", "engine.run"),
    ("repro.framework.system", "ServerlessRun", "__init__", "framework.init"),
    ("repro.framework.system", "ServerlessRun", "arm", "framework.arm"),
    ("repro.framework.system", "ServerlessRun", "execute", "framework.execute"),
    ("repro.framework.system", "ServerlessRun", "finalize", "framework.finalize"),
    ("repro.framework.batching", "WindowTable", "plan", "framework.window_plan"),
    ("repro.simulator.metrics", "MetricsCollector", "record_offered", "metrics.record_offered"),
    ("repro.simulator.metrics", "MetricsCollector", "record_batch", "metrics.record_batch"),
    ("repro.core.paldia", "PaldiaPolicy", "plan_window", "plan"),
    ("repro.baselines.infless_llama", "InflessLlamaPolicy", "plan_window", "plan"),
    ("repro.baselines.molecule", "MoleculePolicy", "plan_window", "plan"),
    ("repro.core.hardware_selection", "HardwareSelector", "tick", "selector.tick"),
    ("repro.core.autoscaler", "Autoscaler", "tick", "autoscaler.tick"),
    ("repro.core.autoscaler", "Autoscaler", "reactive", "autoscaler.reactive"),
    ("repro.simulator.gpu", "GPUDevice", "submit", "gpu.submit"),
    ("repro.simulator.cpu", "CPUDevice", "submit", "cpu.submit"),
    ("repro.simulator.containers", "ContainerPool", "request", "containers.request"),
    ("repro.simulator.containers", "ContainerPool", "release", "containers.release"),
    ("repro.simulator.cluster", "Cluster", "acquire", "cluster.acquire"),
    ("repro.simulator.cluster", "Cluster", "release", "cluster.release"),
    ("repro.simulator.chaos", "ChaosEngine", "start", "chaos.start"),
    ("repro.core.resilience", "ResilienceController", "plan_retry", "resilience.plan_retry"),
    ("repro.core.resilience", "ResilienceController", "record_success", "resilience.record"),
    ("repro.core.resilience", "ResilienceController", "record_failure", "resilience.record"),
    ("repro.telemetry.tracer", "Tracer", "span", "telemetry.tracer"),
    ("repro.telemetry.tracer", "Tracer", "event", "telemetry.tracer"),
    ("repro.telemetry.tracer", "Tracer", "record_batch_span", "telemetry.tracer"),
    ("repro.telemetry.metrics", "MetricsRegistry", "sample", "telemetry.metrics"),
    ("repro.telemetry.metrics", "Histogram", "observe", "telemetry.metrics"),
    ("repro.telemetry.costmeter", "CostMeter", "on_acquire", "telemetry.costmeter"),
    ("repro.telemetry.costmeter", "CostMeter", "on_release", "telemetry.costmeter"),
    ("repro.telemetry.costmeter", "CostMeter", "on_spawn", "telemetry.costmeter"),
    ("repro.telemetry.costmeter", "CostMeter", "on_batch", "telemetry.costmeter"),
    ("repro.telemetry.costmeter", "CostMeter", "summarize", "telemetry.costmeter"),
    ("repro.telemetry.costmeter", "CostBudgetMonitor", "sample", "telemetry.costmeter"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_execute_start", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_batch_complete", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_retry_dispatch", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_retry_abandoned", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_shed", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_drop", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_node_acquire", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_node_release", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_breaker", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "on_run_end", "telemetry.reqtrace"),
    ("repro.telemetry.reqtrace", "RequestTracer", "data", "telemetry.reqtrace"),
    ("repro.telemetry.timeseries", "StateSampler", "sample", "telemetry.sampler"),
    ("repro.telemetry.slo_monitor", "SLOMonitor", "observe_batch", "telemetry.slo_monitor"),
    ("repro.telemetry.slo_monitor", "SLOMonitor", "sample", "telemetry.slo_monitor"),
    ("repro.experiments.cache", "ResultCache", "put", "cache.put"),
    ("repro.hardware.profiles", "ProfileService", "__init__", "profiles.build"),
)

#: Engine callback sites (by qualname) that are frames of a named layer.
#: Any other site's self time is reported as unattributed.
SITE_FRAMES = {
    "ServerlessRun._pump_windows": "framework.windows",
    "ServerlessRun._monitor_tick": "framework.monitor_tick",
    "ServerlessRun._autoscale_tick": "framework.autoscale_tick",
    "ServerlessRun._telemetry_tick": "telemetry.tick",
    "GPUDevice._on_completion": "gpu.complete",
    "CPUDevice._dispatch.<locals>.<lambda>": "cpu.complete",
    "Simulator.every.<locals>.tick": "engine.every",
}


class SpanRecorder:
    """In-memory span store; also the engine's hierarchical profiler."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._sites: dict[Any, int] = {}
        #: Counts taken at the wrapped boundaries.
        self.counters: dict[str, float] = {}
        #: Distinct Paldia plan_window argument tuples (memo hit ratio).
        self.plan_args: set = set()
        self.chaos_engines: list = []

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> None:
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1])
        stack.append(len(self.start))
        self.end.append(0.0)
        self.start.append(perf_counter())

    def close(self) -> None:
        self.end[self._stack.pop()] = perf_counter()

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- engine DispatchProfiler hook ----------------------------------
    def push_site(self, fn: Callable[[], None]) -> None:
        func = getattr(fn, "__func__", fn)
        # Keyed by code object: lambdas made per event share one site.
        code = getattr(getattr(func, "__wrapped__", func), "__code__", None)
        nid = self._sites.get(code)
        if nid is None:
            site = getattr(fn, "__qualname__", type(fn).__name__)
            nid = self._sites[code] = self.name_of(
                SITE_FRAMES.get(site, "site:" + site)
            )
        self.open(nid)

    def pop(self) -> None:
        self.close()

    def site_names(self) -> list[str]:
        """Names of the spans opened by the engine, one per callback."""
        return [self.names[i] for i in set(self._sites.values())]

    # -- analysis ------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: Path) -> None:
        """Write the spans (npz arrays plus the name table)."""
        a = self.arrays()
        np.savez(
            path,
            name_id=a["name_id"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
            names=np.array(json.dumps(self.names)),
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span_wrapper(fn, rec: SpanRecorder, nid: int, hook=None):
    open_, close = rec.open, rec.close
    if hook is None:
        def wrapper(*args, **kwargs):
            open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()
    else:
        def wrapper(*args, **kwargs):
            hook(*args, **kwargs)
            open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()
    return wrapper


def _plan_wrapper(fn, rec: SpanRecorder):
    """plan_window: one span name per scheme; Paldia's arguments kept."""
    ids: dict[str, int] = {}

    def wrapper(self, n, hw, existing_fbr, now, existing_queue=0):
        nid = ids.get(self.name)
        if nid is None:
            name = "policy.plan" if self.name == "paldia" else (
                "baselines.plan." + scheme_key(self.name)
            )
            nid = ids[self.name] = rec.name_of(name)
        if self.name == "paldia":
            # `now` only stamps a trace event, so it is not a plan input.
            rec.plan_args.add((n, hw.name, existing_fbr, existing_queue))
        rec.open(nid)
        try:
            return fn(self, n, hw, existing_fbr, now, existing_queue)
        finally:
            rec.close()

    return wrapper


def scheme_key(scheme: str) -> str:
    """A scheme name usable in a metric name (``$`` is not)."""
    return scheme.replace("_$", "_cost").replace("_P", "_perf")


def _hooks(rec: SpanRecorder) -> dict[str, Callable]:
    def offered(collector, n):
        rec.count("framework.requests", n)

    def completed(collector, batch):
        if batch.retries:
            rec.count("resilience.retried_completions")

    def gpu_job(device, job):
        if job.is_spatial:
            rec.count("gpu.spatial_submits")

    def chaos(engine):
        rec.chaos_engines.append(engine)

    def engine(sim, *args, **kwargs):
        sim.set_profiler(rec)

    return {
        "metrics.record_offered": offered,
        "metrics.record_batch": completed,
        "gpu.submit": gpu_job,
        "chaos.start": chaos,
        "engine.run": engine,
    }


def _owner(module: str, cls: str):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(rec: SpanRecorder) -> list[tuple[Any, str, Any]]:
    """Wrap every target; returns what :func:`uninstall` restores."""
    hooks = _hooks(rec)
    saved = []
    for module, cls, attr, name in TARGETS:
        owner = _owner(module, cls)
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if name == "plan":
            wrapper = _plan_wrapper(fn, rec)
        else:
            wrapper = _span_wrapper(fn, rec, rec.name_of(name), hooks.get(name))
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attr, wrapper)
    return saved


def uninstall(saved: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


def installed_wrappers() -> int:
    """How many targets currently carry a benchmark wrapper."""
    n = 0
    for module, cls, attr, _ in TARGETS:
        raw = _owner(module, cls).__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        n += bool(getattr(fn, MARK, False))
    return n


# ----------------------------------------------------------------------
# Per-layer numbers
# ----------------------------------------------------------------------
def frame_totals(rec: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    a = rec.arrays()
    k = len(rec.names)
    calls = np.bincount(a["name_id"], minlength=k)
    incl = np.bincount(a["name_id"], weights=a["dur"], minlength=k)
    own = np.bincount(a["name_id"], weights=a["self"], minlength=k)
    return {
        name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
        for i, name in enumerate(rec.names)
    }


def execute_split(rec: SpanRecorder) -> tuple[float, float]:
    """Set-up and finalize seconds of ``execute()`` calls (matrix cells).

    ``execute()`` runs set-up, the engine and finalize in one call; the
    split is at its ``engine.run`` child span.
    """
    engine, execute = rec._ids.get("engine.run"), rec._ids.get("framework.execute")
    if engine is None or execute is None:
        return 0.0, 0.0
    a = rec.arrays()
    runs = np.flatnonzero(a["name_id"] == engine)
    parents = a["parent"][runs]
    inside = parents >= 0
    runs, parents = runs[inside], parents[inside]
    inside = a["name_id"][parents] == execute
    runs, parents = runs[inside], parents[inside]
    setup = float((a["start"][runs] - a["start"][parents]).sum())
    final = float((a["end"][parents] - a["end"][runs]).sum())
    return setup, final


def accounting(rec: SpanRecorder) -> dict[str, Any]:
    """Split ``Simulator.run`` wall time into self time per frame.

    Frames are the span names of :data:`TARGETS` and :data:`SITE_FRAMES`;
    the self time of any other engine callback site is unattributed.
    """
    a = rec.arrays()
    engine = rec._ids.get("engine.run")
    if engine is None:
        return {"run_s": 0.0, "frames": {}, "unattributed_s": 0.0, "sites": {}}
    runs = np.flatnonzero(a["name_id"] == engine)
    inside = np.zeros(a["start"].size, dtype=bool)
    for j in runs:
        # Spans are stored in the order they opened, so a run's subtree is
        # the contiguous block that opened before the run span closed.
        last = int(np.searchsorted(a["start"], a["end"][j], side="left"))
        inside[j:last] = True
    k = len(rec.names)
    own = np.bincount(a["name_id"][inside], weights=a["self"][inside], minlength=k)
    frames, sites = {}, {}
    for i, name in enumerate(rec.names):
        if own[i] == 0.0:
            continue
        target = sites if name.startswith("site:") else frames
        target[name] = float(own[i])
    run_s = float(a["dur"][runs].sum())
    return {
        "run_s": run_s,
        "frames": frames,
        "unattributed_s": run_s - sum(frames.values()),
        "sites": sites,
    }

"""Run bundles: one directory per run holding every output it recorded.

``repro run --out DIR`` and ``repro profile --out DIR`` write one; every
report command reads one, so a run's trace and its request trace can
never be paired with another run's.  A bundle is ``manifest.json`` —
``{"schema": "repro.bundle/1", "meta": <tracer or profiler meta>,
"files": {<sink>: <file name>}}``, listing only the files written —
plus one file per sink under the fixed names of :data:`BUNDLE_FILES`,
each exactly what that sink's writer produces.  The manifest is written
last, so an interrupted write leaves no bundle.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Optional

from repro.telemetry.exporters import (
    _jsonable,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.prometheus import write_prometheus
from repro.telemetry.reqtrace import read_reqtrace
from repro.telemetry.selfprof import RunProfiler, load_profile
from repro.telemetry.timeseries import read_timeseries
from repro.telemetry.tracer import Tracer

__all__ = ["BUNDLE_FILES", "BUNDLE_SCHEMA", "RunBundle", "read_bundle",
           "write_bundle"]

BUNDLE_SCHEMA = "repro.bundle/1"

MANIFEST = "manifest.json"

#: Sink -> its fixed file name inside a bundle.
BUNDLE_FILES = {
    "trace": "trace.jsonl",
    "chrome": "trace.chrome.json",
    "metrics": "metrics.prom",
    "timeseries": "timeseries.npz",
    "reqtrace": "reqtrace.jsonl",
    "profile": "profile.json",
    "speedscope": "profile.speedscope.json",
    "collapsed": "profile.collapsed.txt",
}

#: Readable sink -> (what its file holds, the loader that parses it).
_READERS = {
    "trace": ("trace file", read_jsonl),
    "reqtrace": ("request trace", read_reqtrace),
    "timeseries": ("time-series file", read_timeseries),
    "profile": ("self-profile", load_profile),
}


def write_bundle(
    out_dir: str,
    *,
    tracer: Optional[Tracer] = None,
    selfprof: Optional[RunProfiler] = None,
) -> dict[str, str]:
    """Write one run's outputs into ``out_dir`` (created if needed);
    returns ``{file path: what it holds}`` in writing order."""
    os.makedirs(out_dir, exist_ok=True)
    notes: dict[str, str] = {}

    def at(sink: str) -> str:
        return os.path.join(out_dir, BUNDLE_FILES[sink])

    if tracer is not None:
        notes["trace"] = f"{write_jsonl(tracer, at('trace'))} JSONL records"
        notes["chrome"] = (
            f"{write_chrome_trace(tracer, at('chrome'))} Chrome trace events"
        )
        notes["metrics"] = (
            f"{write_prometheus(tracer, at('metrics'))} Prometheus samples"
        )
        sampler = tracer.timeseries
        if sampler is not None:
            n = sampler.save(at("timeseries"))
            notes["timeseries"] = (
                f"{n} time-series columns ({sampler.n_samples} samples)"
            )
        if tracer.reqtrace is not None:
            n = tracer.reqtrace.data().save_jsonl(at("reqtrace"))
            notes["reqtrace"] = f"{n} request-trace records"
    if selfprof is not None:
        selfprof.save(at("profile"))
        notes["profile"] = "self-profile JSON"
        name = "/".join(
            str(selfprof.meta.get(k, "-")) for k in ("scheme", "model", "trace")
        )
        with open(at("speedscope"), "w", encoding="utf-8") as fh:
            json.dump(selfprof.to_speedscope(name), fh, indent=1)
            fh.write("\n")
        notes["speedscope"] = "speedscope profile"
        with open(at("collapsed"), "w", encoding="utf-8") as fh:
            fh.write(selfprof.to_collapsed())
        notes["collapsed"] = "flamegraph.pl collapsed stacks"

    meta = tracer.meta if tracer is not None else (
        selfprof.meta if selfprof is not None else {}
    )
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "meta": _jsonable(meta),
        "files": {sink: BUNDLE_FILES[sink] for sink in notes},
    }
    with open(os.path.join(out_dir, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return {at(sink): note for sink, note in notes.items()}


@dataclass(frozen=True)
class RunBundle:
    """A bundle directory as its manifest describes it."""

    path: str
    #: The sinks the manifest lists, i.e. the ones the run recorded.
    sinks: frozenset[str]

    def load(self, sink: str) -> Any:
        """Parse one sink's file (``"trace"``, ``"reqtrace"``,
        ``"timeseries"`` or ``"profile"``); raises ``ValueError`` naming
        the sink when the bundle lacks it or its file does not parse."""
        what, reader = _READERS[sink]
        if sink not in self.sinks:
            raise ValueError(
                f"run bundle {self.path} has no {what} "
                f"({BUNDLE_FILES[sink]} was not recorded)"
            )
        try:
            return reader(os.path.join(self.path, BUNDLE_FILES[sink]))
        except (OSError, ValueError) as exc:
            raise ValueError(f"not a valid {what}: {exc}") from exc


def read_bundle(path: str) -> RunBundle:
    """Open the bundle at ``path``; raises ``ValueError`` when ``path``
    is missing or has no readable ``repro.bundle/1`` manifest."""
    manifest_path = os.path.join(path, MANIFEST)
    if not os.path.isfile(manifest_path):
        raise ValueError(f"run bundle not found: {path} has no {MANIFEST}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(f"{manifest_path}: not a {BUNDLE_SCHEMA} manifest")
    return RunBundle(path, frozenset(manifest.get("files") or ()))

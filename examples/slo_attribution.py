#!/usr/bin/env python
"""Attribute SLO violations to causes and replay the hardware decisions.

Records one traced Paldia run, then walks the offline analysis chain:

1. `attribute_trace` — every violating request span split across the
   five breakdown components (+ residual), with each violation joined to
   the `hardware_selection.tick` that governed it and re-judged against
   the recorded candidate table (avoidable / mis-selected / unavoidable);
2. the live `SLOMonitor`'s `slo_alert` events, straight from the trace;
3. a self-contained HTML report with the windowed-attainment timeline;
4. `diff_traces` — the same workload on a different seed, phase by phase.

Run:  python examples/slo_attribution.py

The same chain from the CLI, on run bundles:

    python -m repro run resnet50 --duration 120 --out run
    python -m repro run resnet50 --duration 120 --seed 1 --out run-seed1
    python -m repro trace-attribution run --html report.html
    python -m repro trace-diff run run-seed1
"""

import tempfile
from pathlib import Path

from repro import PaldiaPolicy, ProfileService, SLO, ServerlessRun, get_model
from repro.analysis import (
    attribute_trace,
    diff_traces,
    render_attribution_html,
    render_attribution_report,
    render_trace_diff,
    write_attribution_json,
)
from repro.telemetry import Tracer, read_jsonl, write_jsonl
from repro.workloads.traces import azure_trace

DURATION = 120.0


def record_run(model, profiles, out_path, seed=0):
    """One traced run, round-tripped through the JSONL file (exactly
    the trace.jsonl of a `python -m repro run ... --out DIR` bundle)."""
    slo = SLO()
    trace = azure_trace(peak_rps=model.peak_rps, duration=DURATION, seed=seed)
    policy = PaldiaPolicy(model, profiles, slo.target_seconds)
    tracer = Tracer()
    ServerlessRun(model, trace, policy, profiles, slo, tracer=tracer).execute()
    write_jsonl(tracer, out_path)
    return read_jsonl(out_path)


def main() -> None:
    model = get_model("resnet50")
    profiles = ProfileService()
    workdir = Path(tempfile.mkdtemp(prefix="slo_attribution_"))

    baseline = record_run(model, profiles, str(workdir / "seed0.jsonl"))
    report = attribute_trace(baseline)

    print(render_attribution_report(report))
    print()

    # The live monitor's burn-rate alerts sit in the same trace, next to
    # the decisions that caused them.
    for e in report.alerts:
        a = e["attrs"]
        print(
            f"slo_alert {a['state']:>8s}  t={e['t']:7.1f}s  "
            f"{a['scope']}={a['key']}  attainment={100 * a['attainment']:.1f}%"
            f"  burn={a['burn_rate']:.1f}x"
        )
    print()

    # Machine-readable + shareable artifacts.
    write_attribution_json(report, str(workdir / "attribution.json"))
    (workdir / "attribution.html").write_text(
        render_attribution_html(report), encoding="utf-8"
    )
    print(f"wrote {workdir / 'attribution.json'}")
    print(f"wrote {workdir / 'attribution.html'} (open in any browser)")
    print()

    # Regression view: the same workload under a different arrival seed.
    candidate = record_run(
        model, profiles, str(workdir / "seed1.jsonl"), seed=1
    )
    print(render_trace_diff(diff_traces(baseline, candidate)))


if __name__ == "__main__":
    main()

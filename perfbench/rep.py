"""One repetition of a benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays the import and set-up a user pays, and its peak memory is its own.
It prints one JSON line: timings, the simulated outcome, the result
fingerprint, failed output checks and, in the traced mode, the
per-layer numbers.

Modes:
  untraced   the workload as defined; what the end-to-end metrics use
  sinks_off  the same with the tracer off (telemetry overhead baseline)
  traced     untraced plus span wrappers on every layer boundary
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def layer_metrics(rec, record, workloads, tracing) -> tuple[dict, dict]:
    """The per-layer numbers of one traced repetition and its accounting."""
    totals = tracing.frame_totals(rec)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def incl_s(name: str) -> float:
        return totals.get(name, {}).get("incl_s", 0.0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def per_call_us(name: str) -> float:
        return self_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    results = record.results
    offered = workloads.offered(record)

    def per_request_us(name: str) -> float:
        return self_s(name) / offered * 1e6

    sites = set(rec.site_names())
    events = sum(calls(n) for n in sites)
    exec_setup, exec_final = tracing.execute_split(rec)

    windows = calls("metrics.record_offered")
    gpu_submits = calls("gpu.submit")
    plans = calls("policy.plan")
    retries = sum(r.retries_scheduled for r in results)
    tracer = record.tracer
    acct = tracing.accounting(rec)
    m = {
        "engine.events": events,
        "engine.run_s": acct["run_s"],
        "engine.self_us_per_event": ratio(self_s("engine.run"), events) * 1e6,
        "framework.windows": windows,
        "framework.requests_per_window": ratio(
            rec.counters.get("framework.requests", 0), windows
        ),
        "framework.window_self_us": ratio(self_s("framework.windows"), windows) * 1e6,
        "framework.finalize_s": incl_s("framework.finalize") + exec_final,
        "framework.setup_s": incl_s("framework.init") + incl_s("framework.arm") + exec_setup,
        "policy.plan_calls": plans,
        "policy.plan_us": per_call_us("policy.plan"),
        "policy.plan_memo_hit_ratio": 1.0 - ratio(len(rec.plan_args), plans) if plans else 0.0,
        "selector.ticks": calls("selector.tick"),
        "selector.tick_us": per_call_us("selector.tick"),
        "autoscaler.ticks": calls("autoscaler.tick"),
        "autoscaler.tick_us": per_call_us("autoscaler.tick"),
        "gpu.submits": gpu_submits,
        "gpu.submit_us": per_call_us("gpu.submit"),
        "gpu.complete_us": per_call_us("gpu.complete"),
        "gpu.spatial_share": ratio(rec.counters.get("gpu.spatial_submits", 0), gpu_submits),
        "cpu.submits": calls("cpu.submit"),
        "cpu.submit_us": per_call_us("cpu.submit"),
        "cpu.complete_us": per_call_us("cpu.complete"),
        "containers.requests": calls("containers.request"),
        "containers.cold_starts": sum(r.cold_starts for r in results),
        "cluster.leases": calls("cluster.acquire"),
        "cluster.switches": sum(r.n_switches for r in results),
        "chaos.faults": sum(sum(e.injected.values()) for e in rec.chaos_engines),
        "resilience.retries": retries,
        "resilience.abandoned": sum(r.retries_abandoned for r in results),
        "resilience.shed": sum(r.requests_shed for r in results),
        "resilience.retry_success_ratio": ratio(
            rec.counters.get("resilience.retried_completions", 0), retries
        ),
        "telemetry.spans": len(tracer.spans) if tracer is not None else 0,
        "telemetry.events": len(tracer.events) if tracer is not None else 0,
        "telemetry.tracer_us": per_request_us("telemetry.tracer"),
        "telemetry.costmeter_us": per_request_us("telemetry.costmeter"),
        "telemetry.reqtrace_us": per_request_us("telemetry.reqtrace"),
        "telemetry.sampler_us": per_request_us("telemetry.sampler"),
        "telemetry.slo_monitor_us": per_request_us("telemetry.slo_monitor"),
        "telemetry.metrics_us": per_request_us("telemetry.metrics"),
        "runner.overhead_s": (
            record.run_s - incl_s("framework.execute") if record.cache_stats else 0.0
        ),
        "cache.store_s": incl_s("cache.put"),
        "traces.gen_s": incl_s("traces.gen"),
        "profiles.build_s": incl_s("profiles.build"),
        "trace.unattributed_share": ratio(acct["unattributed_s"], acct["run_s"]),
    }
    for scheme in workloads.MATRIX_SCHEMES:
        if scheme != "paldia":
            key = tracing.scheme_key(scheme)
            m[f"baselines.plan_us.{key}"] = per_call_us(f"baselines.plan.{key}")
    return {k: float(v) for k, v in m.items()}, acct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "sinks_off", "traced"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import calibration
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    rec = saved = None
    if args.mode == "traced":
        rec = tracing.SpanRecorder()
        saved = tracing.install(rec)
    try:
        record = workloads.run_workload(
            args.workload,
            args.seed,
            smoke=args.smoke,
            sinks=args.mode != "sinks_off",
            scratch=OUT,
        )
    finally:
        if saved is not None:
            tracing.uninstall(saved)
    out = {
        "mode": args.mode,
        "engine_start": record.engine_start,
        "run_s": record.run_s,
        "offered": workloads.offered(record),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": workloads.fingerprint(record.results),
        "failures": workloads.check_outputs(record),
        "wrappers": tracing.installed_wrappers(),
        **workloads.simulated_outcome(record),
    }
    if rec is not None:
        out["layers"], out["accounting"] = layer_metrics(rec, record, workloads, tracing)
        smoke = "-smoke" if args.smoke else ""
        rec.save(OUT / f"{args.workload}{smoke}.spans.npz")
    out["loop_rate"] = calibration.loop_rate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

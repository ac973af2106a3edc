"""Benchmark of the Paldia reproduction: four seeded simulator workloads.

    python3 perfbench/run.py --workload azure_day --seed 0 --seconds 26 --trace 0

Runs repetitions of one workload, each in a fresh process (``rep.py``),
until ``--seconds`` have passed (at least three), checks every
repetition's outputs, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json`` (medians
over the repetitions); with ``--trace 1`` one untraced, one tracer-off
and one traced repetition give the per-layer metrics, the tracing
overhead and the accounting of ``Simulator.run`` time by frame.
``perfbench/predictions.json`` says which end-to-end metric each
per-layer metric should move, and on which workload.

Claims made with this benchmark must also hold on the held-out seed
``HELD_OUT_SEED``; do not tune against it.

Exit codes: 0 when every check passed, 1 when a repetition failed or an
output check did not hold, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_LOOP_RATE, loop_rate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919
MIN_REPS = 3
SMOKE_MIN_REPS = 2
#: No repetition starts after this many seconds, so a run ends well
#: inside three minutes whatever --seconds says.
DEADLINE_S = 100.0
REP_TIMEOUT_S = 170.0
#: The traced run: the workload as defined, with the tracer off, traced.
TRACE_MODES = ("untraced", "sinks_off", "traced")


class RepFailed(Exception):
    """A repetition exited non-zero or printed no result."""


def spawn(workload: str, seed: int, mode: str, smoke: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if smoke:
        cmd.append("--smoke")
    before = loop_rate()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode} repetition timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RepFailed(f"{mode} repetition exited {proc.returncode}: {' | '.join(tail)}")
    out = json.loads(lines[-1])
    # Host seconds from process start until the engine started.
    out["setup_s"] = out.pop("engine_start") - t0
    # Host speed around the repetition, relative to the reference host.
    out["speed"] = (before + out.pop("loop_rate")) / 2 / REFERENCE_LOOP_RATE
    return out


def check(rep: dict, first: str, expected: str | None) -> list[str]:
    """A repetition's own output checks, plus: its fingerprint matches the
    first repetition's (and the committed one), and no span wrapper was
    left installed (untraced runs install none)."""
    problems = list(rep["failures"])
    fp = rep["fingerprint"]
    if fp != first:
        problems.append(f"fingerprint {fp[:12]} != first repetition's {first[:12]}")
    if expected is not None and fp != expected:
        problems.append(f"fingerprint {fp[:12]} != committed {expected[:12]}")
    if rep["wrappers"]:
        problems.append(f"{rep['wrappers']} span wrappers installed")
    return problems


def measure(args) -> tuple[list[dict], list[str], int]:
    """Run the repetitions; returns (results, errors, attempted)."""
    reps: list[dict] = []
    errors: list[str] = []
    start = time.monotonic()

    def attempt(mode: str) -> None:
        timeout = REP_TIMEOUT_S - (time.monotonic() - start)
        try:
            reps.append(spawn(args.workload, args.seed, mode, args.smoke, timeout))
        except RepFailed as exc:
            errors.append(str(exc))

    if args.trace:
        for mode in TRACE_MODES:
            attempt(mode)
        return reps, errors, len(TRACE_MODES)
    min_reps = SMOKE_MIN_REPS if args.smoke else MIN_REPS
    attempted = 0
    while True:
        t0 = time.monotonic()
        attempt("untraced")
        attempted += 1
        now = time.monotonic()
        # Stop when another repetition as long as the last would overrun.
        expected_end = now - start + (now - t0)
        if attempted >= min_reps and expected_end > args.seconds:
            break
        if expected_end > DEADLINE_S:
            break
    return reps, errors, attempted


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Per-repetition samples; host times at the reference host's speed."""
    samples = {
        "sim_rps": [r["offered"] / (r["run_s"] * r["speed"]) for r in reps],
        "setup_s": [r["setup_s"] * r["speed"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for name in ("slo_compliance", "p99_latency_ms", "cost_per_hour"):
        samples[name] = [r[name] for r in reps]
    return samples


def per_layer(reps: list[dict]) -> dict[str, float]:
    by_mode = {r["mode"]: r for r in reps}
    plain, off, traced = by_mode["untraced"], by_mode["sinks_off"], by_mode["traced"]
    layers = dict(traced["layers"])
    def host_s(rep: dict) -> float:
        return rep["run_s"] * rep["speed"]

    layers["trace.overhead_ratio"] = host_s(traced) / host_s(plain)
    layers["telemetry.overhead_ratio"] = host_s(plain) / host_s(off)
    layers["telemetry.heap_mb"] = plain["peak_rss_mb"] - off["peak_rss_mb"]
    return layers


def print_accounting(traced: dict) -> None:
    acct = traced["accounting"]
    run_s = acct["run_s"]
    print(f"  Simulator.run wall time (traced): {run_s:.3f} s, self time by frame:")
    frames = sorted(acct["frames"].items(), key=lambda kv: -kv[1])
    for name, secs in frames:
        print(f"    {name:32s} {secs:9.4f} s  {secs / run_s:7.2%}")
    print(f"    {'unattributed':32s} {acct['unattributed_s']:9.4f} s  "
          f"{acct['unattributed_s'] / run_s:7.2%}")
    for name, secs in sorted(acct["sites"].items(), key=lambda kv: -kv[1])[:8]:
        print(f"      {name:30s} {secs:9.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=f"held-out seed for claims: {HELD_OUT_SEED}",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short workloads and two repetitions (tests)")
    parser.add_argument("--fingerprints", type=Path, default=HERE / "fingerprints.json",
                        help="committed result fingerprints to check against")
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store this run's fingerprint instead of checking it")
    args = parser.parse_args(argv)

    schema_path = ROOT / "BENCHMARK.json"
    if not (schema_path.is_file() and (ROOT / "src" / "repro" / "__init__.py").is_file()):
        print(f"error: {ROOT} holds no repro sources or BENCHMARK.json", file=sys.stderr)
        return 2
    schema = json.loads(schema_path.read_text())
    names = [w["name"] for w in schema["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    key = f"{args.workload}:{args.seed}" + (":smoke" if args.smoke else "")
    committed = (
        json.loads(args.fingerprints.read_text()) if args.fingerprints.is_file() else {}
    )
    reps, problems, attempted = measure(args)
    if not reps or (args.trace and len(reps) < len(TRACE_MODES)):
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)
        return 1
    expected = None if args.record_fingerprint else committed.get(key)
    failed_reps = attempted - len(reps)
    for i, rep in enumerate(reps):
        found = check(rep, reps[0]["fingerprint"], expected)
        failed_reps += bool(found)
        problems += [f"rep {i} ({rep['mode']}): {msg}" for msg in found]

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} {mode}: "
          f"{attempted} repetitions, {reps[0]['offered']} requests offered each")
    metrics = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in schema["per_layer"]}
        predicted = json.loads((HERE / "predictions.json").read_text())["per_layer"]
        layers = per_layer(reps)
        for name, unit in units.items():
            metrics[name] = {"value": layers[name], "unit": unit}
            p = predicted[name]
            print(f"  {name:38s} {layers[name]:14.6g} {unit:6s} -> {p['moves']}"
                  f" on {', '.join(p['on']) or '-'}")
        print_accounting(next(r for r in reps if r["mode"] == "traced"))
    else:
        units = {m["name"]: m["unit"] for m in schema["end_to_end"]}
        samples = end_to_end(reps)
        for name, unit in units.items():
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name:16s} {med:14.6g} {unit:6s} median of {len(samples[name])}"
                  f" (quartiles {q1:.6g} .. {q3:.6g})")
    speeds = sorted(r["speed"] for r in reps)
    print(f"  host speed {statistics.median(speeds):.3f} of the reference host"
          f" ({speeds[0]:.3f} .. {speeds[-1]:.3f}); host times above are scaled to it")
    print(f"  {'run_fail_share':16s} {failed_reps / attempted:14.6g} ratio  "
          f"{failed_reps} of {attempted} runs raised or failed a check")
    for p in problems:
        print(f"  FAILED: {p}")

    if args.record_fingerprint and not problems:
        committed[key] = reps[0]["fingerprint"]
        args.fingerprints.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_reps,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

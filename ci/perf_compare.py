#!/usr/bin/env python3
"""Compare a bench_table2 --json report against BENCH_baseline.json.

Deterministic-field whitelist
-----------------------------
Only deterministic model outputs are compared; every field outside the
whitelist is ignored. The gate must never flake on machine speed, so
the rule is: a field is compared if and only if rerunning the binary
on any machine yields the same value.

  per-flow, threshold-compared (METRICS, smaller is better):
    cycles        simulator cycle count (deterministic model output)
    exec_time_ns  cycles x modeled clock period
    lut, ff, dsp  area-model columns
  top-level "verify" object, compared EXACTLY (VERIFY_EXACT — these
  come from the governed verification probe, which is a pure function
  of circuit + budget, so any difference is a real behavior change,
  not noise):
    level, verify_states, reachable_pairs, cache_hits, cache_misses,
    second_compile_cache_hit

  explicitly ignored wall-clock noise (WALL_CLOCK_FIELDS):
    measure_seconds  per-flow simulation wall time
    phases           per-phase wall times of the run
    clock_period_ns  is compared only via exec_time_ns

  explicitly ignored resource telemetry (RESOURCE_FIELDS):
    verify_resources  peak bytes are stable, but states_per_second is
                      wall-clock — the object stays out of the
                      threshold comparison and exists for humans
                      reading the report
                      (docs/verification_observability.md), with one
                      exception below

  memory-efficiency gate (RESOURCE_HARD, always blocking):
    verify_resources.peak_bytes_per_state is deterministic (size-based
    byte accounting over a fixed budget; docs/parallelism.md, "Compact
    encoding") and a >10% regression FAILS the gate even without
    --enforce — memory-footprint regressions in the verification core
    are never warn-only. states_per_second is wall-clock and is only
    recorded into the history trajectory, never compared.

A threshold metric regresses when it grows more than --threshold
percent over the baseline. Baseline values <= 0 are skipped (nothing
meaningful to compare against), as are benchmarks or flows absent from
either side — but each skip is reported so a silently shrinking
benchmark set cannot pass the gate.

Bench trajectory (--history PATH): after comparing, append one
timestamped line summarizing the current run's whitelisted metrics to
PATH (JSON lines), and WARN on any metric that grew on each of the
last three recorded runs — a slow monotone drift that per-run
thresholds never catch. History warnings never fail the gate, even
under --enforce: the signal is "look at the trend", not "block".

Exit status: 0 when clean, or when regressions were found but the gate
is warn-only (the default); 1 when regressions were found and
enforcement is on (--enforce or PERF_GATE_ENFORCE=1); 2 on bad input.
"""

import argparse
import datetime
import json
import os
import sys

FLOWS = ("df_io", "df_ooo", "graphiti", "vericert")
METRICS = ("cycles", "exec_time_ns", "lut", "ff", "dsp")
# Deterministic fields of the top-level "verify" probe: compared for
# exact equality, since the governed verdict is machine independent
# (docs/parallelism.md).
VERIFY_EXACT = ("level", "verify_states", "reachable_pairs",
                "cache_hits", "cache_misses", "second_compile_cache_hit")
# Wall-clock fields that must never be compared (run-to-run noise).
WALL_CLOCK_FIELDS = frozenset({"measure_seconds", "phases"})
# Resource-telemetry objects that ride next to the deterministic ones
# and must never be compared (wall-clock rates are noise).
RESOURCE_FIELDS = frozenset({"verify_resources"})
# verify_resources fields recorded into the history trajectory
# (memory-efficiency figures of the compact state encoding).
RESOURCE_HISTORY = ("peak_bytes_per_state", "states_per_second")
# The always-blocking subset of RESOURCE_HISTORY: deterministic
# (size-based accounting), so a regression is a real encoding change,
# and memory-footprint regressions must never pass as warn-only.
RESOURCE_HARD = ("peak_bytes_per_state",)
RESOURCE_HARD_THRESHOLD = 10.0
# History keys where growth is an improvement (throughput), exempt
# from the monotone-drift warning.
BIGGER_IS_BETTER = frozenset({"verify_resources.states_per_second"})
assert WALL_CLOCK_FIELDS.isdisjoint(METRICS)
assert WALL_CLOCK_FIELDS.isdisjoint(VERIFY_EXACT)
assert RESOURCE_FIELDS.isdisjoint(VERIFY_EXACT)
assert set(RESOURCE_HARD) <= set(RESOURCE_HISTORY)
# Consecutive increases (runs, including the current one) that count
# as a monotone drift worth warning about.
HISTORY_RUNS = 3


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def index_benchmarks(doc):
    return {b.get("name", f"#{i}"): b
            for i, b in enumerate(doc.get("benchmarks", []))}


def compare_verify(base_doc, cur_doc, regressions, skipped):
    """Exact comparison of the deterministic verification probe."""
    base = base_doc.get("verify")
    cur = cur_doc.get("verify")
    if not isinstance(base, dict):
        skipped.append("verify: missing from baseline; regenerate "
                       "BENCH_baseline.json to cover it")
        return 0
    if not isinstance(cur, dict):
        skipped.append("verify: missing from current run")
        return 0
    compared = 0
    for field in VERIFY_EXACT:
        b = base.get(field)
        c = cur.get(field)
        if b is None:
            skipped.append(f"verify.{field}: missing from baseline")
            continue
        if c is None:
            skipped.append(f"verify.{field}: missing from current run")
            continue
        compared += 1
        if b != c:
            regressions.append(
                f"verify.{field}: {b!r} -> {c!r} (deterministic field "
                "must match exactly)")
    return compared


def compare_resources(base_doc, cur_doc, hard_failures, skipped):
    """Memory-efficiency gate over verify_resources.

    peak_bytes_per_state is deterministic (size-based accounting over
    a fixed budget), so a >RESOURCE_HARD_THRESHOLD% growth lands in
    hard_failures — which fail the gate even without --enforce.
    """
    base = base_doc.get("verify_resources")
    cur = cur_doc.get("verify_resources")
    if not isinstance(base, dict):
        skipped.append("verify_resources: missing from baseline; "
                       "regenerate BENCH_baseline.json to cover it")
        return 0
    if not isinstance(cur, dict):
        skipped.append("verify_resources: missing from current run")
        return 0
    compared = 0
    for field in RESOURCE_HARD:
        b = base.get(field)
        c = cur.get(field)
        if not isinstance(b, (int, float)) or b <= 0:
            skipped.append(f"verify_resources.{field}: missing from "
                           "baseline; regenerate BENCH_baseline.json "
                           "to cover it")
            continue
        if not isinstance(c, (int, float)):
            skipped.append(f"verify_resources.{field}: missing from "
                           "current run")
            continue
        compared += 1
        delta = (c - b) / b * 100.0
        if delta > RESOURCE_HARD_THRESHOLD:
            hard_failures.append(
                f"verify_resources.{field}: {b:g} -> {c:g} "
                f"(+{delta:.1f}% > {RESOURCE_HARD_THRESHOLD:g}%)")
    return compared


def flatten_metrics(doc):
    """The whitelisted metrics of one report as a flat {key: number}.

    Keys are dotted (`bicg.graphiti.cycles`, `verify.verify_states`);
    only numeric values land here, so history comparison is a plain
    number-to-number affair.
    """
    flat = {}
    for name, bench in sorted(index_benchmarks(doc).items()):
        for flow in FLOWS:
            flow_obj = bench.get(flow)
            if not isinstance(flow_obj, dict):
                continue
            for metric in METRICS:
                value = flow_obj.get(metric)
                if isinstance(value, (int, float)):
                    flat[f"{name}.{flow}.{metric}"] = value
    verify = doc.get("verify")
    if isinstance(verify, dict):
        for field in VERIFY_EXACT:
            value = verify.get(field)
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                flat[f"verify.{field}"] = value
    resources = doc.get("verify_resources")
    if isinstance(resources, dict):
        for field in RESOURCE_HISTORY:
            value = resources.get(field)
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                flat[f"verify_resources.{field}"] = value
    return flat


def update_history(path, cur_doc):
    """Append the current run to the trajectory file and return
    warning lines for metrics that grew on each of the last
    HISTORY_RUNS runs."""
    entries = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue  # a corrupt line never wedges the gate
                if isinstance(entry, dict) and \
                        isinstance(entry.get("metrics"), dict):
                    entries.append(entry)
    except OSError:
        pass  # first run: no history yet

    current = {
        "ts": datetime.datetime.now(datetime.timezone.utc)
              .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "metrics": flatten_metrics(cur_doc),
    }
    window = entries[-(HISTORY_RUNS - 1):] + [current]

    warnings = []
    if len(window) == HISTORY_RUNS:
        for key in sorted(current["metrics"]):
            if key in BIGGER_IS_BETTER:
                continue  # growth there is improvement, not drift
            values = [e["metrics"].get(key) for e in window]
            if any(not isinstance(v, (int, float)) for v in values):
                continue
            if all(values[i] < values[i + 1]
                   for i in range(len(values) - 1)):
                trend = " -> ".join(f"{v:g}" for v in values)
                warnings.append(
                    f"{key}: grew {HISTORY_RUNS} runs straight "
                    f"({trend})")

    try:
        with open(path, "a") as f:
            f.write(json.dumps(current, sort_keys=True,
                               separators=(",", ":")) + "\n")
    except OSError as e:
        warnings.append(f"cannot append to {path}: {e}")
    return warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in BENCH_baseline.json")
    parser.add_argument("current", help="fresh bench_table2 --json output")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent "
                             "(default: 10)")
    parser.add_argument("--enforce", action="store_true",
                        help="fail (exit 1) on regressions instead of "
                             "warning; PERF_GATE_ENFORCE=1 also works")
    parser.add_argument("--history", metavar="PATH",
                        help="append a one-line summary of this run to "
                             "PATH (JSON lines) and warn on metrics "
                             "that grew three runs straight")
    args = parser.parse_args()

    enforce = args.enforce or \
        os.environ.get("PERF_GATE_ENFORCE", "0") == "1"
    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    base = index_benchmarks(base_doc)
    cur = index_benchmarks(cur_doc)

    regressions = []
    improvements = 0
    compared = 0
    skipped = []

    for name in sorted(base):
        if name not in cur:
            skipped.append(f"benchmark {name}: missing from current run")
            continue
        for flow in FLOWS:
            b_flow = base[name].get(flow)
            c_flow = cur[name].get(flow)
            if not isinstance(b_flow, dict):
                continue
            if not isinstance(c_flow, dict):
                skipped.append(f"{name}.{flow}: missing from current run")
                continue
            for metric in METRICS:
                b = b_flow.get(metric)
                c = c_flow.get(metric)
                if not isinstance(b, (int, float)) or b <= 0:
                    continue
                if not isinstance(c, (int, float)):
                    skipped.append(f"{name}.{flow}.{metric}: "
                                   "missing from current run")
                    continue
                compared += 1
                delta = (c - b) / b * 100.0
                if delta > args.threshold:
                    regressions.append(
                        f"{name}.{flow}.{metric}: {b:g} -> {c:g} "
                        f"(+{delta:.1f}% > {args.threshold:g}%)")
                elif delta < -args.threshold:
                    improvements += 1
    for name in sorted(set(cur) - set(base)):
        skipped.append(f"benchmark {name}: new (no baseline); "
                       "regenerate BENCH_baseline.json to cover it")

    compared += compare_verify(base_doc, cur_doc, regressions, skipped)
    hard_failures = []
    compared += compare_resources(base_doc, cur_doc, hard_failures,
                                  skipped)

    if args.history:
        for line in update_history(args.history, cur_doc):
            print(f"perf gate: TREND WARNING: {line}")

    for line in skipped:
        print(f"perf gate: skip: {line}")
    print(f"perf gate: {compared} metrics compared, "
          f"{len(regressions)} regressions, "
          f"{len(hard_failures)} memory regressions, "
          f"{improvements} improvements beyond threshold")
    failed = False
    if regressions:
        for line in regressions:
            print(f"perf gate: REGRESSION: {line}")
        if enforce:
            failed = True
        else:
            print("perf gate: WARN only (set PERF_GATE_ENFORCE=1 or "
                  "pass --enforce to make this blocking)")
    if hard_failures:
        # Memory-footprint regressions in the verification core block
        # unconditionally — there is no warn-only mode for them.
        for line in hard_failures:
            print(f"perf gate: MEMORY REGRESSION: {line}")
        failed = True
    if failed:
        print("perf gate: FAIL")
        return 1
    if not regressions:
        print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

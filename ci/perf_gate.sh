#!/usr/bin/env bash
# Performance-regression gate: run bench_table2 --json from an existing
# build and compare its deterministic outputs (cycles, exec_time_ns,
# lut/ff/dsp) against the checked-in BENCH_baseline.json.
#
# Warn-only by default; set PERF_GATE_ENFORCE=1 (or pass --enforce as
# the second argument) to make regressions fail the gate. Exception:
# verify_resources.peak_bytes_per_state — the verification core's
# memory footprint per explored state (docs/parallelism.md, "Compact
# encoding") — FAILS the gate on a >10% regression even without
# enforcement. Regenerate the baseline after an intentional perf
# change with:
#
#     build/bench/bench_table2 --json BENCH_baseline.json
#
# Every run also appends a one-line timestamped summary of the
# whitelisted metrics to BENCH_history.jsonl; perf_compare.py warns
# (never fails) when a metric grew on three consecutive runs — the
# slow drift a per-run threshold cannot see. The history file is
# per-machine working state, not a checked-in artifact.
#
# Isolation overhead (docs/service.md, "Process isolation"): the gate
# also runs bench_served back-to-back in-thread and --isolate with the
# same seed and load, records the verify p50/p99 overhead ratios and
# the crash-storm answered rate to BENCH_history.jsonl, and warns when
# the ratio blows the 2x budget (wall-clock ratios are advisory, never
# blocking — only the same-machine back-to-back pairing makes them
# meaningful at all).
#
# Repository benchmark smoke (perfbench/README.md): the gate configures
# perfbench/ into a temp dir, builds it from the current sources, runs
# every workload for 2 s with the layer ledger on, and FAILS unless
# each run is correct with ok_rate (1 - failed/attempted) 1. Nothing else in CI builds
# perfbench, yet it links the service observer, the verdict store and
# the compile/verify timers by name.
#
# Usage: ci/perf_gate.sh [build-dir] [--enforce]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BASELINE="BENCH_baseline.json"
BENCH="${BUILD}/bench/bench_table2"

if [ ! -f "${BASELINE}" ]; then
    echo "perf gate: ${BASELINE} missing; generate it with" \
         "'${BENCH} --json ${BASELINE}'"
    exit 2
fi
if [ ! -x "${BENCH}" ]; then
    echo "perf gate: ${BENCH} not built (configure+build ${BUILD} first)"
    exit 2
fi

CURRENT="$(mktemp)"
INTHREAD="$(mktemp)"
ISOLATED="$(mktemp)"
STORM="$(mktemp)"
trap 'rm -f "${CURRENT}" "${INTHREAD}" "${ISOLATED}" "${STORM}"' EXIT
"${BENCH}" --json "${CURRENT}" > /dev/null

python3 ci/perf_compare.py "${BASELINE}" "${CURRENT}" \
    --history BENCH_history.jsonl "${@:2}"

# --- Isolation overhead: in-thread vs --isolate, same seed and load,
# back to back on the same machine, plus a crash-storm answered-rate
# probe. Advisory: records to history and warns past 2x, never fails.
SERVED="${BUILD}/bench/bench_served"
if [ -x "${SERVED}" ]; then
    "${SERVED}" --clients 2 --requests 4 --workers 2 \
        --json "${INTHREAD}" > /dev/null
    "${SERVED}" --clients 2 --requests 4 --workers 2 --isolate 2 \
        --json "${ISOLATED}" > /dev/null
    "${SERVED}" --clients 2 --requests 6 --workers 2 --isolate 2 \
        --crash-rate 0.3 --json "${STORM}" > /dev/null
    python3 - "${INTHREAD}" "${ISOLATED}" "${STORM}" <<'EOF'
import datetime, json, sys
inthread, isolated, storm = (json.load(open(p)) for p in sys.argv[1:4])
def p(doc, q):
    return float(doc["latency"]["verify"][q])
metrics = {}
for q in ("p50", "p99"):
    base, iso = p(inthread, q), p(isolated, q)
    ratio = iso / base if base > 0 else 0.0
    metrics[f"served.isolate.overhead_{q}"] = round(ratio, 3)
    tag = "OK" if ratio < 2.0 else "WARN: blew the 2x budget"
    print(f"perf gate: isolate overhead {q}: {base:.1f}ms -> "
          f"{iso:.1f}ms ({ratio:.2f}x) [{tag}]")
metrics["served.isolate.answered_rate"] = storm.get("answered_rate", 0.0)
crashes = storm.get("workers", {}).get("crashes", 0)
print(f"perf gate: crash storm: answered rate "
      f"{100.0 * metrics['served.isolate.answered_rate']:.1f}% "
      f"through {crashes} worker death(s)")
entry = {"ts": datetime.datetime.now(datetime.timezone.utc)
               .strftime("%Y-%m-%dT%H:%M:%SZ"),
         "metrics": metrics}
with open("BENCH_history.jsonl", "a") as f:
    f.write(json.dumps(entry, sort_keys=True,
                       separators=(",", ":")) + "\n")
EOF
else
    echo "perf gate: skip: ${SERVED} not built (isolation overhead" \
         "not measured)"
fi

# --- Repository benchmark smoke: build perfbench/ out of tree and run
# each workload briefly, traced. Blocking: a workload that does not
# build, run or answer every op correctly fails the gate.
PERFBENCH_BUILD="$(mktemp -d)"
trap 'rm -f "${CURRENT}" "${INTHREAD}" "${ISOLATED}" "${STORM}";
      rm -rf "${PERFBENCH_BUILD}"' EXIT
cmake -S perfbench -B "${PERFBENCH_BUILD}" -DCMAKE_BUILD_TYPE=Release \
    > /dev/null
cmake --build "${PERFBENCH_BUILD}" --target perfbench \
    -j "$(nproc 2>/dev/null || echo 4)" > /dev/null
for workload in paper-suite served-mix; do
    RESULT="$(CARGO_TARGET_DIR="${PERFBENCH_BUILD}" python3 perfbench/run.py \
        --workload "${workload}" --seed 1 --seconds 2 --trace 1 | tail -1)"
    python3 - "${workload}" "${RESULT}" <<'EOF'
import json, sys
workload, doc = sys.argv[1], json.loads(sys.argv[2])
# A traced run prints only per-layer metrics; ok_rate is
# 1 - failed/attempted either way.
attempted = doc["attempted"]
ok_rate = (attempted - doc["failed"]) / attempted if attempted else 0
print(f"perf gate: perfbench {workload}: correct={doc['correct']} "
      f"ok_rate={ok_rate} ({attempted} ops)")
if not doc["correct"] or ok_rate != 1:
    sys.exit(f"perf gate: FAIL: perfbench {workload} ok_rate {ok_rate}")
EOF
done

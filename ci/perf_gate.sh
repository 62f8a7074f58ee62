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
# Crash storm (docs/service.md, "Process isolation"): the gate also
# runs bench_served with a seeded worker crash rate and records the
# answered rate to BENCH_history.jsonl (advisory, never blocking).
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
STORM="$(mktemp)"
trap 'rm -f "${CURRENT}" "${STORM}"' EXIT
"${BENCH}" --json "${CURRENT}" > /dev/null

python3 ci/perf_compare.py "${BASELINE}" "${CURRENT}" \
    --history BENCH_history.jsonl "${@:2}"

# --- Crash-storm answered-rate probe. Advisory: records to history,
# never fails.
SERVED="${BUILD}/bench/bench_served"
if [ -x "${SERVED}" ]; then
    "${SERVED}" --clients 2 --requests 6 --workers 2 \
        --crash-rate 0.3 --json "${STORM}" > /dev/null
    python3 - "${STORM}" <<'EOF'
import datetime, json, sys
storm = json.load(open(sys.argv[1]))
metrics = {"served.storm.answered_rate": storm.get("answered_rate", 0.0)}
crashes = storm.get("workers", {}).get("crashes", 0)
print(f"perf gate: crash storm: answered rate "
      f"{100.0 * metrics['served.storm.answered_rate']:.1f}% "
      f"through {crashes} worker death(s)")
entry = {"ts": datetime.datetime.now(datetime.timezone.utc)
               .strftime("%Y-%m-%dT%H:%M:%SZ"),
         "metrics": metrics}
with open("BENCH_history.jsonl", "a") as f:
    f.write(json.dumps(entry, sort_keys=True,
                       separators=(",", ":")) + "\n")
EOF
else
    echo "perf gate: skip: ${SERVED} not built (crash storm not" \
         "measured)"
fi

# --- Repository benchmark smoke: build perfbench/ out of tree and run
# each workload briefly, traced. Blocking: a workload that does not
# build, run or answer every op correctly fails the gate.
PERFBENCH_BUILD="$(mktemp -d)"
trap 'rm -f "${CURRENT}" "${STORM}"; rm -rf "${PERFBENCH_BUILD}"' EXIT
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

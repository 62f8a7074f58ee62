#!/usr/bin/env bash
# Verification-core gate (docs/parallelism.md):
#
#   1. TSan sweep: build the `par`-labelled tests with
#      -DGRAPHITI_SANITIZE=thread in a dedicated build tree and run
#      them under ThreadSanitizer. The verification core runs on one
#      lane, but a StopToken is still fired from another thread (the
#      racing-cancel tests), and test_state_encoding covers the
#      interned state pool and parked frontiers.
#   2. Deterministic ratchet: run bench_refine_checker's
#      BM_LoopRewriteRefinement/3 (the theorem 5.3 gcd instance at
#      input budget 3) once from the regular build and require its
#      state, pair and fixpoint-round counts to equal the recorded
#      figures exactly. A change to exploration or the simulation
#      game that moves any of them fails here.
#   3. Perf gate: ci/perf_gate.sh, which also compares the
#      deterministic verify/cache fields exactly (ci/perf_compare.py).
#
# Usage: ci/par_gate.sh [build-dir] [tsan-build-dir]
#        (defaults: build, build-tsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"
JOBS="${PAR_GATE_JOBS:-2}"

echo "== par gate: TSan build (${TSAN_BUILD}) =="
cmake -S . -B "${TSAN_BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGRAPHITI_SANITIZE=thread > /dev/null
cmake --build "${TSAN_BUILD}" --target test_parallel \
    test_state_encoding -j "${JOBS}"

echo "== par gate: TSan run (ctest -L par) =="
ctest --test-dir "${TSAN_BUILD}" -L par --output-on-failure

echo "== par gate: budget-3 ratchet =="
BENCH="${BUILD}/bench/bench_refine_checker"
if [ ! -x "${BENCH}" ]; then
    echo "par gate: ${BENCH} not built (configure+build ${BUILD} first)"
    exit 2
fi
RATCHET="$(mktemp)"
trap 'rm -f "${RATCHET}"' EXIT
"${BENCH}" --benchmark_filter='BM_LoopRewriteRefinement/3$' \
    --benchmark_min_time=0 \
    --benchmark_out="${RATCHET}" --benchmark_out_format=json \
    > /dev/null

python3 - "${RATCHET}" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
runs = [b for b in doc.get("benchmarks", [])
        if b.get("name") == "BM_LoopRewriteRefinement/3"]
if not runs:
    sys.exit("par gate: BM_LoopRewriteRefinement/3 missing from the "
             "benchmark output")
run = runs[0]
if run.get("error_occurred"):
    sys.exit("par gate: FAIL: " + run.get("error_message", "error"))

expected = {
    "game_pairs": 147186,
    "impl_states": 1681,
    "verify_states": 3273,
    "fixpoint_iterations": 1,
}
failed = False
for name, want in expected.items():
    got = run.get(name)
    if got != want:
        print(f"par gate: FAIL: {name} = {got}, expected {want}")
        failed = True
if failed:
    sys.exit(1)
print("par gate: budget-3 counters exact ("
      + ", ".join(f"{k}={v}" for k, v in expected.items())
      + f"); {run['real_time']:.1f} ms")
PY

echo "== par gate: perf gate =="
ci/perf_gate.sh "${BUILD}"

echo "par gate: OK"

#!/usr/bin/env bash
# Observability CI gate: tier-1 passes, including the obs-labeled
# suite with the <2x instrumented-gcd overhead assertion, and
# graphiti-report produces valid gcd metrics/trace/waveform and
# profile bundles.
#
# Usage: ci/obs_gate.sh [build-dir-prefix]   (default: build-ci)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== build =="
cmake -B "${PREFIX}" -S .
cmake --build "${PREFIX}" -j "${JOBS}"
# Full tier-1; the obs label carries ObsGcd.OverheadUnderTwoTimes.
(cd "${PREFIX}" && ctest --output-on-failure -j "${JOBS}")
(cd "${PREFIX}" && ctest -L obs --output-on-failure)

echo "== gcd bundle smoke =="
OUT="$(mktemp -d)"
"${PREFIX}/tools/graphiti-report" gcd --out-dir "${OUT}"
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
m = json.load(open(out + "/metrics.json"))
counters = m["metrics"]["counters"]
for layer in ("sim.", "rewrite.", "egraph.", "refine."):
    assert any(k.startswith(layer) and v > 0
               for k, v in counters.items()), layer + "* all zero"
trace = json.load(open(out + "/trace.json"))
assert len(trace["traceEvents"]) > 0
vcd = open(out + "/gcd.vcd").read()
assert "$enddefinitions $end" in vcd and "$timescale" in vcd
print("OK: bundle valid (all three layers nonzero)")
EOF

echo "== gcd profile smoke =="
"${PREFIX}/tools/graphiti-report" gcd --no-verify \
    --out-dir "${OUT}" --provenance --critpath
python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]
p = json.load(open(out + "/profile.json"))
for key in ("sequential", "transformed"):
    rep = p[key]
    tokens = [t for t in rep["tokens"] if not t.get("truncated")]
    assert tokens, key + ": no complete tokens profiled"
    for t in tokens:
        a = t["attribution"]
        s = a["compute"] + a["queue_wait"] + a["backpressure"]
        assert s == t["latency"], \
            f"{key}: attribution {s} != latency {t['latency']}"
    degenerate = all(int(k) == 0 for k in rep["reorder"]["buckets"])
    assert degenerate == (key == "sequential"), \
        key + ": unexpected reorder histogram shape"
prov = json.load(open(out + "/provenance.json"))
assert prov["transformed"]["firings"], "empty transformed hop log"
print("OK: profile valid (attribution exact; reorder degenerate only "
      "on the sequential circuit)")
EOF

echo "== perf gate (warn-only) =="
ci/perf_gate.sh "${PREFIX}"

echo "obs gate: all checks passed"

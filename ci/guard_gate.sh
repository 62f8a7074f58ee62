#!/usr/bin/env bash
# Guarded-pipeline CI gate: the structural validator, transactional
# rewrites, and the resource-governed verification ladder must hold.
#
#  1. Regular build: tier-1 passes, the guard-labeled suite passes
#     (broken-circuit corpus, fuzz determinism, governor ladder), and
#     graphiti-validate accepts every benchmark circuit before AND
#     after the out-of-order pipeline with zero rollbacks.
#  2. Governed report smoke: graphiti-report --governed reaches the
#     "full" rung on the gcd benchmark and records it in metrics.json.
#  3. Sanitizer build: the guard suite (validator fuzz included), the
#     core suite, the rewrite splice differential and pinned digests,
#     the simulator tests, the operator kernels and the stress profile
#     run clean under ASan + UBSan.
#
# Usage: ci/guard_gate.sh [build-dir-prefix]   (default: build-guard)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-guard}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== regular configuration =="
cmake -B "${PREFIX}" -S .
cmake --build "${PREFIX}" -j "${JOBS}"
(cd "${PREFIX}" && ctest --output-on-failure -j "${JOBS}")
(cd "${PREFIX}" && ctest -L guard --output-on-failure)

echo "== benchmark validation (pre + post pipeline) =="
"${PREFIX}/tools/graphiti-validate"
"${PREFIX}/tools/graphiti-validate" --post-ooo

echo "== malformed input is a diagnostic, not a crash =="
BAD="$(mktemp --suffix=.dot)"
cat > "${BAD}" <<'EOF'
digraph broken {
  a [type = "input", index = "0"];
  j [type = "join"];
  r [type = "output", index = "0"];
  a -> j [to = "in0"];
  j -> r [from = "out0"];
}
EOF
if "${PREFIX}/tools/graphiti-validate" --dot "${BAD}" --quiet; then
    echo "FAIL: validator accepted a dangling join input"
    exit 1
fi
echo "OK: dangling input rejected with exit 1"
rm -f "${BAD}"

echo "== governed verification smoke =="
OUT="$(mktemp -d)"
"${PREFIX}/tools/graphiti-report" gcd --no-verify --governed \
    --out-dir "${OUT}"
python3 - "$OUT" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1] + "/metrics.json"))
compile_report = m["compile"]
assert compile_report["validation"]["errors"] == 0
assert compile_report["rollbacks"] == []
level = compile_report["verification_level"]
assert level == "full", "expected full verification, got " + level
assert compile_report["verification"]["refines"] is True
print("OK: governed gcd compile verified at level 'full'")
EOF

echo "== sanitizer configuration (ASan + UBSan) =="
cmake -B "${PREFIX}-asan" -S . -DGRAPHITI_SANITIZE=address,undefined
cmake --build "${PREFIX}-asan" -j "${JOBS}"
(cd "${PREFIX}-asan" && ctest -L guard --output-on-failure)
(cd "${PREFIX}-asan" && ctest -R "^(Compiler|Validator)" \
    --output-on-failure)
# The rewrite splice's index arithmetic and the pinned pipeline and
# validator digests.
(cd "${PREFIX}-asan" && ctest -R "^(SpliceDifferential|RewriteContract)\." \
    --output-on-failure)
(cd "${PREFIX}-asan" && ctest -L stress --output-on-failure)
# The simulator, its schedule digests and the flat tokens' pair arena.
(cd "${PREFIX}-asan" && ctest -R "^(Sim|SimEdge|SimSchedule|SimToken)\." \
    --output-on-failure)
# The operator kernels: their wrapping integer arithmetic, and the
# differential against the boxed adapter. UBSan halts on its first
# report, so undefined arithmetic fails the step.
(cd "${PREFIX}-asan" && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest -R "(^|/)(OperatorEval|OperatorKernel)\." --output-on-failure)

echo "guard gate: all checks passed"

#!/usr/bin/env bash
# Compile-service gate (docs/service.md):
#
#   1. Served tests: build and run the `served`-labelled suite —
#      framing, admission/fair-share policy, the crash-safe verdict
#      store, and the daemon byte-identity / shed-honesty / restart
#      contracts, in-process.
#   2. Daemon smoke: boot graphiti-served on a temporary socket with a
#      persistent verdict store, drive it with graphiti-client (ping,
#      then a governed verify of a real benchmark), and require an ok
#      response.
#   3. Crash recovery: kill -9 the daemon, restart it on the same
#      store directory, and require the pre-kill verdict to come back
#      as a verify_cache_hit — the write-through store must survive
#      an unclean death, not just a polite shutdown. The compile entry
#      must come back too: the post-restart request reports a
#      compile_cache_hit, the restarted daemon applied no rewrite and
#      ran no validation (so no compile ran at all), and the output
#      circuit is the pre-kill one.
#   4. Observability probe (docs/service_observability.md): while the
#      smoke daemon is up, require live --stats and --health answers
#      (per-verb windows, lane liveness, a compile.seconds timer
#      counting every completed verify job and the verify's
#      refine.states counter — proof that the sandboxed children's
#      metrics cross the process boundary), then SIGUSR1
#      and require the
#      journal dump to appear with job.done events, each of which is
#      also in the daemon's --log JSON-lines mirror.
#   5. Soak: a bounded bench_served run with --misbehave — concurrent
#      clients, a deterministic slice of them hostile (half-written
#      frames, mid-job disconnects, deadline-zero floods, junk) — and
#      require every healthy request answered.
#   6. Crash-containment smoke (docs/service.md, "Process isolation"):
#      boot the default daemon with a targeted GRAPHITI_CRASH_PLAN,
#      kill one worker mid-compile via its job id, and require a
#      structured error with a post-mortem artifact, an ok follow-up
#      job on the same daemon, and a health report showing the
#      respawn.
#   7. Crash-storm soak: bench_served --crash-rate — workers
#      die at a seeded rate while every request still gets a
#      structured response (ok, error, or an honest shed), never
#      silence.
#   8. Sanitizer leg: the served-labelled suite (sandbox tests
#      included) runs clean under ASan + UBSan in a separate build
#      tree. float-cast-overflow is added explicitly: GCC's
#      -fsanitize=undefined leaves it out, and it is the check that
#      reports a wire double cast to an out-of-range integer. Skip
#      with SERVED_GATE_ASAN=0.
#
# Usage: ci/served_gate.sh [build-dir]    (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
JOBS="${SERVED_GATE_JOBS:-2}"
SOAK_CLIENTS="${SERVED_GATE_CLIENTS:-4}"
SOAK_REQUESTS="${SERVED_GATE_REQUESTS:-10}"

WORK="$(mktemp -d)"
SOCKET="${WORK}/served.sock"
STORE="${WORK}/verdicts"
DAEMON_LOG="${WORK}/daemon.log"
JOURNAL_DUMP="${WORK}/journal.json"
JOURNAL_LOG="${WORK}/journal.jsonl"
DAEMON_PID=""

cleanup() {
    [ -n "${DAEMON_PID}" ] && kill -9 "${DAEMON_PID}" 2> /dev/null || true
    rm -rf "${WORK}"
}
trap cleanup EXIT

wait_for_listen() {
    # The daemon prints its listening line before serving; poll for it
    # so the client never races the bind.
    for _ in $(seq 1 100); do
        grep -q "listening on" "${DAEMON_LOG}" 2> /dev/null && return 0
        kill -0 "$1" 2> /dev/null || {
            echo "served gate: daemon died during startup:"
            cat "${DAEMON_LOG}"
            exit 1
        }
        sleep 0.1
    done
    echo "served gate: daemon never started listening:"
    cat "${DAEMON_LOG}"
    exit 1
}

echo "== served gate: build =="
cmake --build "${BUILD}" -j "${JOBS}" \
    --target test_served test_sandbox bench_served graphiti-served \
    graphiti-client

echo "== served gate: tests (ctest -L served) =="
ctest --test-dir "${BUILD}" -L served --output-on-failure

echo "== served gate: daemon smoke =="
"${BUILD}/tools/graphiti-served" --socket "${SOCKET}" --workers 2 \
    --store "${STORE}" --flight "${JOURNAL_DUMP}" --log "${JOURNAL_LOG}" \
    > "${DAEMON_LOG}" 2>&1 &
DAEMON_PID=$!
wait_for_listen "${DAEMON_PID}"

"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" ping > /dev/null
# Tight budgets (the test-suite shape): the gate checks the service
# plumbing, not assurance depth — bicg at full budgets takes minutes.
BENCHMARK="bicg"
TIGHT="--max-states 800 --partial-states 300 --input-budget 1 \
    --trace-walks 2"
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" verify \
    --benchmark "${BENCHMARK}" ${TIGHT} > "${WORK}/verify1.json"
grep -q '"status": "ok"' "${WORK}/verify1.json" || {
    echo "served gate: verify of ${BENCHMARK} did not return ok:"
    cat "${WORK}/verify1.json"
    exit 1
}
echo "served gate: smoke OK (ping + verify ${BENCHMARK})"

echo "== served gate: live stats/health probe =="
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" --stats \
    > "${WORK}/stats.json"
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" --health \
    > "${WORK}/health.json"
python3 - "${WORK}/stats.json" "${WORK}/health.json" <<'PY'
import json, sys

stats = json.load(open(sys.argv[1]))
assert stats["connections"]["accepted"] >= 1, "no connections counted"
assert stats["scheduler"]["completed"] >= 2, "ping+verify not counted"
journal = stats["journal"]
assert journal["events"]["recorded"] >= 4, \
    "ping+verify should journal an admit and a done each: " + str(journal)
assert journal["spans"]["recorded"] >= 4, \
    "ping+verify should journal queue-wait and execute spans: " \
    + str(journal)
verbs = stats["verbs"]
for verb in ("ping", "verify"):
    assert verbs[verb]["ok"] >= 1, verb + " verb not accounted"
    assert "queue_wait" in verbs[verb] and "execute" in verbs[verb], \
        verb + " verb missing its split latency windows"
# Jobs run in sandboxed children; their timers reach the service
# scope only by riding the children's frames.
compiles = sum(verbs.get(verb, {}).get("ok", 0)
               for verb in ("compile", "verify"))
timer = stats["metrics"]["timers"].get("compile.seconds", {})
assert timer.get("count", 0) >= compiles, \
    "compile.seconds counted %s of %d compile/verify jobs" \
    % (timer.get("count", 0), compiles)
assert stats["metrics"]["counters"].get("refine.states", 0) > 0, \
    "the verify's explored states never reached the service registry"

health = json.load(open(sys.argv[2]))
assert health["status"] == "ok", "daemon not healthy: " + str(health)
sched = health["scheduler"]
assert sched["workers_alive"] == sched["workers_configured"] == 2, \
    "worker lanes not all alive: " + str(sched)
assert health["store"]["persistent"], "store should be persistent"
print("served gate: live stats/health answers are well-formed")
PY

echo "== served gate: SIGUSR1 journal dump =="
kill -USR1 "${DAEMON_PID}"
for _ in $(seq 1 50); do
    [ -s "${JOURNAL_DUMP}" ] && break
    sleep 0.1
done
[ -s "${JOURNAL_DUMP}" ] || {
    echo "served gate: FAIL: no journal dump after SIGUSR1"
    cat "${DAEMON_LOG}"
    exit 1
}
python3 - "${JOURNAL_DUMP}" "${JOURNAL_LOG}" <<'PY'
import json, sys

dump = json.load(open(sys.argv[1]))
records = dump["records"]
assert isinstance(records, list) and records, "empty journal dump"
jobs = [r for r in records if r["event"] == "job.done"]
assert jobs, "no job.done events in the journal dump"
assert all("job_id" in r and "status" in r.get("fields", {})
           for r in jobs), "job.done events missing job_id or status"
# The dump and the --log mirror come from the same records.
mirror = [json.loads(line) for line in open(sys.argv[2]) if line.strip()]
missing = [r for r in jobs if r not in mirror]
assert not missing, "job.done events missing from the --log mirror: " \
    + str(missing)
print("served gate: journal dump has %d records (%d job.done, all "
      "in the --log mirror)" % (len(records), len(jobs)))
PY

echo "== served gate: kill -9 / restart cache recovery =="
kill -9 "${DAEMON_PID}"
wait "${DAEMON_PID}" 2> /dev/null || true
DAEMON_PID=""
rm -f "${SOCKET}"

"${BUILD}/tools/graphiti-served" --socket "${SOCKET}" --workers 2 \
    --store "${STORE}" > "${DAEMON_LOG}" 2>&1 &
DAEMON_PID=$!
wait_for_listen "${DAEMON_PID}"

"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" verify \
    --benchmark "${BENCHMARK}" ${TIGHT} > "${WORK}/verify2.json"
grep -q '"status": "ok"' "${WORK}/verify2.json" || {
    echo "served gate: post-restart verify did not return ok:"
    cat "${WORK}/verify2.json"
    exit 1
}
grep -q '"verify_cache_hit": true' "${WORK}/verify2.json" || {
    echo "served gate: FAIL: pre-kill verdict was not served from the"
    echo "store after kill -9 + restart — persistence is not"
    echo "crash-safe:"
    cat "${WORK}/verify2.json"
    exit 1
}
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" --stats \
    > "${WORK}/stats2.json"
python3 - "${WORK}/verify1.json" "${WORK}/verify2.json" \
    "${WORK}/stats2.json" <<'PY'
import json, sys

before = json.load(open(sys.argv[1]))["result"]
after = json.load(open(sys.argv[2]))["result"]
if before["verdict"] != after["verdict"]:
    sys.exit("served gate: FAIL: recovered verdict differs from the "
             "one committed before the kill")
if after.get("compile_cache_hit") is not True:
    sys.exit("served gate: FAIL: the compile entry committed before "
             "the kill was not served after the restart")
if before["output_dot"] != after["output_dot"]:
    sys.exit("served gate: FAIL: recovered output circuit differs from "
             "the one compiled before the kill")
# A compile validates its input and output, so guard.validations
# reads 0 only when no compile ran in the restarted daemon.
counters = json.load(open(sys.argv[3]))["metrics"]["counters"]
for counter in ("rewrite.applied", "guard.validations"):
    if counters.get(counter, 0) != 0:
        sys.exit("served gate: FAIL: the restarted daemon compiled on "
                 "a compile hit (%s = %s)" % (counter, counters[counter]))
print("served gate: recovered verdict and output circuit byte-identical "
      "to the pre-kill ones, with no rewrite applied and no compile run")
PY
kill "${DAEMON_PID}" 2> /dev/null || true
wait "${DAEMON_PID}" 2> /dev/null || true
DAEMON_PID=""

echo "== served gate: misbehaving-client soak =="
"${BUILD}/bench/bench_served" --clients "${SOAK_CLIENTS}" \
    --requests "${SOAK_REQUESTS}" --workers 2 --queue 4 --misbehave \
    --json "${WORK}/soak.json"

echo "== served gate: crash-containment smoke =="
# Boot the default daemon with a targeted crash plan: only the job
# whose id starts with "doom" is killed (SIGSEGV mid-compile); every
# other job must be untouched by the plan.
GRAPHITI_CRASH_PLAN="seed=1,kill=doom:segv" \
    "${BUILD}/tools/graphiti-served" --socket "${SOCKET}" \
    --workers 2 > "${DAEMON_LOG}" 2>&1 &
DAEMON_PID=$!
wait_for_listen "${DAEMON_PID}"

# The doomed job: the worker dies, the daemon must answer with a
# structured error carrying the post-mortem artifact (client exits 1
# on an error response — that is the expected outcome here).
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" verify \
    --job-id doom-1 --benchmark "${BENCHMARK}" ${TIGHT} \
    > "${WORK}/doom.json" || true
python3 - "${WORK}/doom.json" <<'PY'
import json, sys

doom = json.load(open(sys.argv[1]))
assert doom["status"] == "error", \
    "doomed job should error, got: " + str(doom)
assert "crash" in doom.get("error", "").lower() or \
       "signal" in doom.get("error", ""), \
    "error should name the crash: " + doom.get("error", "")
artifact = json.loads(doom["artifact"])
assert artifact["exit"]["class"] == "crash", \
    "artifact should classify the death: " + str(artifact["exit"])
assert "rlimits" in artifact, "artifact should record the jail"
print("served gate: crashed worker produced a structured error "
      "with a post-mortem artifact")
PY

# The daemon must shrug the death off: an untargeted follow-up job on
# the same daemon answers ok, and health shows the respawned worker.
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" verify \
    --benchmark "${BENCHMARK}" ${TIGHT} > "${WORK}/after-doom.json"
grep -q '"status": "ok"' "${WORK}/after-doom.json" || {
    echo "served gate: FAIL: daemon did not answer ok after a worker"
    echo "crash:"
    cat "${WORK}/after-doom.json"
    exit 1
}
"${BUILD}/tools/graphiti-client" --socket "${SOCKET}" --health \
    > "${WORK}/health-crash.json"
python3 - "${WORK}/health-crash.json" <<'PY'
import json, sys

health = json.load(open(sys.argv[1]))
pool = health["scheduler"]["worker_pool"]
assert pool["live"] == pool["configured"] == 2, \
    "pool not back to full strength: " + str(pool)
assert pool["respawned"] >= 1, "no respawn recorded: " + str(pool)
assert pool["crashes_by_class"].get("crash", 0) >= 1, \
    "crash not classified: " + str(pool)
assert health["status"] == "ok", \
    "daemon should be healthy after the respawn: " + str(health)
print("served gate: post-crash health OK (respawned=%d, crashes=%s)"
      % (pool["respawned"], pool["crashes_by_class"]))
PY
kill "${DAEMON_PID}" 2> /dev/null || true
wait "${DAEMON_PID}" 2> /dev/null || true
DAEMON_PID=""
rm -f "${SOCKET}"

echo "== served gate: crash-storm soak (--crash-rate) =="
"${BUILD}/bench/bench_served" --clients "${SOAK_CLIENTS}" \
    --requests "${SOAK_REQUESTS}" --workers 2 --crash-rate 0.25 \
    --json "${WORK}/storm.json"

if [ "${SERVED_GATE_ASAN:-1}" = "1" ]; then
    echo "== served gate: sanitizer leg (ASan + UBSan) =="
    cmake -B "${BUILD}-asan" -S . \
        -DGRAPHITI_SANITIZE=address,undefined,float-cast-overflow
    cmake --build "${BUILD}-asan" -j "${JOBS}" \
        --target test_served test_sandbox
    (cd "${BUILD}-asan" && ctest -L served --output-on-failure)
else
    echo "== served gate: sanitizer leg skipped (SERVED_GATE_ASAN=0) =="
fi

echo "served gate: OK"

/**
 * @file
 * Tests of the process-isolation tier (label: served).
 *
 * The contracts under test (docs/service.md, "Process isolation"):
 *   - exit classification: every way a child can die — clean exit,
 *     nonzero exit, fatal signal, resource-jail death, parent-sent
 *     kill — reads as the right ExitClass, driven by REAL forked
 *     children, not synthetic statuses;
 *   - crash containment: a worker killed by SIGSEGV/SIGABRT/exit(7)
 *     mid-job yields a structured error with a post-mortem artifact
 *     for that job only, never a daemon death or a hang;
 *   - resource jails: an allocation-bombing child dies on the
 *     RLIMIT_AS jail and is classified "resource" (disarmed under
 *     ASan, whose shadow space cannot live inside any honest jail);
 *   - wedge detection: a heartbeat-silent child, or one ignoring a
 *     forwarded stop, is SIGKILLed and reported wedged at the grace;
 *   - cooperative stops: a stopped job unwinds the governed ladder in
 *     the child and answers, never counted as a worker death, and its
 *     verdict is never committed;
 *   - metrics crossing: one job's service-scope counters and timers
 *     equal an in-process run's;
 *   - crash-loop breaker: repeated worker deaths trip the breaker
 *     (shed with retry_after_ms), and a healthy job after the
 *     cooldown closes it;
 *   - byte identity: verdicts are byte-identical sandboxed vs.
 *     in-process one-shot on every benchmark;
 *   - CrashPlan: deterministic per-(job, site) draws, parse/render
 *     round-trip;
 *   - disconnect reap: a vanished client's job is stopped, and a child
 *     that ignores the stop is killed at the grace, freeing the lane;
 *   - queued expiry: a queued job whose deadline fires is answered
 *     "cancelled" while every lane is busy, and never reaches a worker;
 *   - store proxy: a child's store frame key is read only in the exact
 *     decimal spelling the child writes.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <map>
#include <thread>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "core/job.hpp"
#include "dot/dot.hpp"
#include "faults/crash_plan.hpp"
#include "served/sandbox.hpp"
#include "served/scheduler.hpp"
#include "served/worker_pool.hpp"

namespace graphiti {
namespace {

using served::ExitClass;
using served::ExitStatus;
using served::KillContext;
using served::SandboxConfig;
using served::SandboxOutcome;
using served::StoreHooks;
using served::WorkerLimits;
using served::WorkerPool;
using served::WorkerPoolConfig;
using served::WorkerProcess;

double
msSince(std::chrono::steady_clock::time_point from)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - from)
        .count();
}

CompileOptions
tightOptions()
{
    CompileOptions options;
    options.governed_verify = true;
    options.verify_budget.max_states = 800;
    options.verify_budget.partial_max_states = 300;
    options.verify_budget.input_budget = 1;
    options.verify_budget.trace_walks = 2;
    options.verify_budget.trace.max_steps = 60;
    options.verify_budget.trace.max_inputs = 2;
    return options;
}

JobSpec
verifySpec(const std::string& dot, int num_tags = 4)
{
    JobSpec spec;
    spec.kind = "verify";
    spec.circuit_dot = dot;
    spec.options = tightOptions();
    spec.options.num_tags = num_tags;
    return spec;
}

JobSpec
pingSpec()
{
    JobSpec spec;
    spec.kind = "ping";
    return spec;
}

std::string
gcdDot()
{
    return printDot(circuits::buildGcdInOrder());
}

/** A gcd check whose budget outlasts any test: it ends only on a
 * stop. */
JobSpec
endlessVerifySpec()
{
    JobSpec spec = verifySpec(gcdDot());
    spec.options.verify_budget.max_states = 100'000'000;
    spec.options.verify_budget.partial_max_states = 100'000'000;
    spec.options.verify_budget.input_budget = 4;
    return spec;
}

/** Fork a child that runs @p body, wait for it, return the raw wait
 * status — real statuses for the classification table. */
int
waitStatusOf(void (*body)())
{
    pid_t pid = ::fork();
    if (pid == 0) {
        body();
        ::_exit(0);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

// ---------------------------------------------------------------------
// Exit classification (pure function, real wait statuses).
// ---------------------------------------------------------------------

TEST(SandboxExitClass, ClassifiesRealChildExits)
{
    WorkerLimits limits;  // no jail armed

    ExitStatus clean = served::classifyExit(
        waitStatusOf([] { ::_exit(0); }), KillContext::None, limits);
    EXPECT_EQ(clean.cls, ExitClass::Clean);
    EXPECT_EQ(clean.code, 0);

    ExitStatus polite = served::classifyExit(
        waitStatusOf([] { ::_exit(7); }), KillContext::None, limits);
    EXPECT_EQ(polite.cls, ExitClass::Exit);
    EXPECT_EQ(polite.code, 7);

    ExitStatus crashed = served::classifyExit(
        waitStatusOf([] { ::abort(); }), KillContext::None, limits);
    EXPECT_EQ(crashed.cls, ExitClass::Crash);
    EXPECT_EQ(crashed.code, SIGABRT);
    EXPECT_NE(crashed.detail.find("SIGABRT"), std::string::npos);

    // Reset the disposition first: a sanitizer runtime intercepts
    // SIGSEGV and would turn the death into a reported exit(1).
    ExitStatus segv = served::classifyExit(
        waitStatusOf([] {
            ::signal(SIGSEGV, SIG_DFL);
            ::raise(SIGSEGV);
        }),
        KillContext::None, limits);
    EXPECT_EQ(segv.cls, ExitClass::Crash);
    EXPECT_EQ(segv.code, SIGSEGV);

    // The deterministic OOM sentinel the child's new-handler emits.
    ExitStatus oom = served::classifyExit(
        waitStatusOf([] { ::_exit(served::kOomExitCode); }),
        KillContext::None, limits);
    EXPECT_EQ(oom.cls, ExitClass::Resource);

    ExitStatus cpu = served::classifyExit(
        waitStatusOf([] { ::raise(SIGXCPU); }), KillContext::None,
        limits);
    EXPECT_EQ(cpu.cls, ExitClass::Resource);

    // A SIGKILL the parent did NOT send reads as a resource death
    // (the kernel OOM killer's signature)...
    ExitStatus killed = served::classifyExit(
        waitStatusOf([] { ::raise(SIGKILL); }), KillContext::None,
        limits);
    EXPECT_EQ(killed.cls, ExitClass::Resource);

    // ...while the identical status after a parent-sent kill is a
    // wedge — the context always wins.
    ExitStatus wedged = served::classifyExit(
        waitStatusOf([] { ::raise(SIGKILL); }), KillContext::Wedge,
        limits);
    EXPECT_EQ(wedged.cls, ExitClass::Wedged);
}

TEST(SandboxStoreProxy, FrameKeysAreReadExactlyOrNotAtAll)
{
    auto frame = [](const obs::json::Value& key) {
        obs::json::Value out{obs::json::Object{}};
        out.set("op", "store_put");
        out.set("key", key);
        return out;
    };
    EXPECT_EQ(served::storeFrameKey(frame("12")), 12u);
    EXPECT_EQ(served::storeFrameKey(frame("0")), 0u);
    EXPECT_EQ(served::storeFrameKey(frame("18446744073709551615")),
              18446744073709551615ULL);
    // Anything but the child's own spelling is no key at all, never a
    // put under (or a get of) 0 or a numeric prefix.
    for (const char* bad : {"", "12abc", "-12", "+12", " 12", "012",
                            "1e3", "18446744073709551616"})
        EXPECT_FALSE(served::storeFrameKey(frame(bad)).has_value()) << bad;
    EXPECT_FALSE(served::storeFrameKey(frame(12)).has_value());
    obs::json::Value keyless{obs::json::Object{}};
    keyless.set("op", "store_get");
    EXPECT_FALSE(served::storeFrameKey(keyless).has_value());
}

TEST(SandboxLimits, DeriveFromVerificationBudget)
{
    guard::VerificationBudget budget;  // defaults: no deadline
    WorkerLimits limits = served::workerLimits(budget);
    // 1 GiB floor + 2 KiB per budgeted state + 128 MiB for the one
    // verifier lane, and no CPU jail without a wall-clock deadline to
    // anchor it.
    std::uint64_t states = budget.max_states + budget.partial_max_states;
    EXPECT_EQ(limits.address_space_bytes,
              (1024ull << 20) + states * 2048 + (128ull << 20));
    EXPECT_EQ(limits.cpu_seconds, 0u);

    budget.deadline_seconds = 3.0;
    WorkerLimits deadline = served::workerLimits(budget);
    EXPECT_EQ(deadline.cpu_seconds, 2 * 3 + 5);

    budget.max_states = 100000000;  // runaway budget hits the ceiling
    WorkerLimits capped = served::workerLimits(budget);
    EXPECT_EQ(capped.address_space_bytes, 4096ull << 20);
}

// ---------------------------------------------------------------------
// CrashPlan.
// ---------------------------------------------------------------------

TEST(CrashPlan, ParseRenderRoundTripsAndDrawsDeterministically)
{
    Result<faults::CrashPlan> parsed = faults::CrashPlan::parse(
        "seed=42,segv=0.2,abort=0.1,kill=boom:segv");
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    faults::CrashPlan plan = parsed.take();
    EXPECT_TRUE(plan.armed());

    // Render → parse is identity on behavior: identical draws.
    Result<faults::CrashPlan> reparsed =
        faults::CrashPlan::parse(plan.render());
    ASSERT_TRUE(reparsed.ok()) << plan.render() << ": "
                               << reparsed.error().message;
    for (int i = 0; i < 64; ++i) {
        std::string job = "job-" + std::to_string(i);
        EXPECT_EQ(plan.action(job, "run"),
                  reparsed.value().action(job, "run"))
            << job;
    }

    // Targeted matches beat the seeded rates.
    EXPECT_EQ(plan.action("boom-17", "run"),
              faults::CrashAction::Segv);

    // The benign plan never fires.
    faults::CrashPlan benign = faults::CrashPlan::benign();
    EXPECT_FALSE(benign.armed());
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(benign.action("job-" + std::to_string(i), "run"),
                  faults::CrashAction::None);

    // Malformed plans are structured errors, not surprises.
    EXPECT_FALSE(faults::CrashPlan::parse("segv=nope").ok());
    EXPECT_FALSE(faults::CrashPlan::parse("frobnicate=1").ok());
    EXPECT_FALSE(faults::CrashPlan::parse("kill=noclass").ok());
}

TEST(CrashPlan, StormSplitsRateAcrossClasses)
{
    faults::CrashPlan storm = faults::CrashPlan::storm(7, 1.0);
    EXPECT_TRUE(storm.armed());
    // rate=1.0 means every job dies somehow; the class varies.
    int fired = 0;
    for (int i = 0; i < 32; ++i)
        if (storm.action("j" + std::to_string(i), "run") !=
            faults::CrashAction::None)
            fired += 1;
    EXPECT_EQ(fired, 32);
}

// ---------------------------------------------------------------------
// WorkerProcess: crash containment, jails, wedges, cancellation.
// ---------------------------------------------------------------------

SandboxConfig
fastSandbox()
{
    SandboxConfig config;
    config.heartbeat_period_ms = 20.0;
    config.wedge_grace_seconds = 2.0;
    config.poll_slice_ms = 10.0;
    return config;
}

SandboxOutcome
runOne(WorkerProcess& worker, const std::string& job_id,
       const JobSpec& spec)
{
    StopToken stop = StopToken::manual();
    obs::Scope scope;
    return worker.execute(job_id, spec, stop, &scope, StoreHooks{});
}

TEST(SandboxWorker, HealthyJobRoundTripsAndWorkerStaysWarm)
{
    WorkerProcess worker(fastSandbox());
    ASSERT_TRUE(worker.spawn().ok());

    SandboxOutcome first = runOne(worker, "warm-1", pingSpec());
    EXPECT_EQ(first.status, "ok") << first.error;
    EXPECT_FALSE(first.worker_died);
    EXPECT_TRUE(worker.alive());

    // Same child serves the next job — warm, no respawn.
    int pid = worker.pid();
    SandboxOutcome second = runOne(worker, "warm-2", pingSpec());
    EXPECT_EQ(second.status, "ok") << second.error;
    EXPECT_EQ(worker.pid(), pid);
    worker.shutdown();
}

TEST(SandboxWorker, CrashClassesBecomeStructuredErrorsWithArtifacts)
{
    struct Case
    {
        const char* plan;
        ExitClass expect;
    };
    const Case cases[] = {
        {"kill=doom:segv", ExitClass::Crash},
        {"kill=doom:abort", ExitClass::Crash},
        {"kill=doom:exit", ExitClass::Exit},
    };
    for (const Case& c : cases) {
        SandboxConfig config = fastSandbox();
        config.crash_plan = std::string("seed=1,") + c.plan;
        WorkerProcess worker(config);
        ASSERT_TRUE(worker.spawn().ok()) << c.plan;

        SandboxOutcome out = runOne(worker, "doom-1", pingSpec());
        EXPECT_EQ(out.status, "error") << c.plan;
        EXPECT_TRUE(out.worker_died) << c.plan;
        EXPECT_EQ(out.exit_class, c.expect) << c.plan;
        EXPECT_FALSE(worker.alive()) << c.plan;
        ASSERT_FALSE(out.artifact.empty()) << c.plan;

        // The artifact is a parseable post-mortem carrying the
        // classification and the jail that was in force.
        Result<obs::json::Value> artifact =
            obs::json::parse(out.artifact);
        ASSERT_TRUE(artifact.ok()) << c.plan;
        const obs::json::Value* exit = artifact.value().find("exit");
        ASSERT_NE(exit, nullptr) << c.plan;
        EXPECT_EQ(exit->find("class")->asString(),
                  served::toString(c.expect));
        EXPECT_NE(artifact.value().find("rlimits"), nullptr);

        // The dead worker is honest about it: a respawn revives it.
        ASSERT_TRUE(worker.spawn().ok());
        SandboxOutcome healthy = runOne(worker, "ok-1", pingSpec());
        EXPECT_EQ(healthy.status, "ok") << healthy.error;
        worker.shutdown();
    }
}

TEST(SandboxWorker, OomAllocationDiesOnTheJailNotTheDaemon)
{
    if (!served::sandboxAddressJailSupported())
        GTEST_SKIP() << "RLIMIT_AS jail disarmed under ASan";
    SandboxConfig config = fastSandbox();
    config.crash_plan = "seed=1,kill=hog:oom";
    // A jail small enough that the allocation bomb dies in
    // milliseconds, large enough for the child runtime itself.
    config.limits.address_space_bytes = 512ull << 20;
    WorkerProcess worker(config);
    ASSERT_TRUE(worker.spawn().ok());

    SandboxOutcome out = runOne(worker, "hog-1", pingSpec());
    EXPECT_EQ(out.status, "error");
    EXPECT_EQ(out.exit_class, ExitClass::Resource) << out.error;
    EXPECT_NE(out.error.find("resource"), std::string::npos)
        << out.error;
    ASSERT_FALSE(out.artifact.empty());
    worker.shutdown();
}

TEST(SandboxWorker, HeartbeatSilentChildIsKilledAndReportedWedged)
{
    SandboxConfig config = fastSandbox();
    config.crash_plan = "seed=1,kill=spin:busy";
    config.wedge_grace_seconds = 0.5;
    WorkerProcess worker(config);
    ASSERT_TRUE(worker.spawn().ok());

    auto begun = std::chrono::steady_clock::now();
    SandboxOutcome out = runOne(worker, "spin-1", pingSpec());
    EXPECT_EQ(out.status, "error");
    EXPECT_EQ(out.exit_class, ExitClass::Wedged) << out.error;
    EXPECT_NE(out.error.find("wedged"), std::string::npos)
        << out.error;
    // Killed at the timeout, not after some multiple of it.
    EXPECT_LT(msSince(begun), 5000.0);
    EXPECT_FALSE(worker.alive());
    worker.shutdown();
}

TEST(SandboxWorker, ChildIgnoringStopIsKilledAfterTheGrace)
{
    WorkerPoolConfig config;
    config.sandbox = fastSandbox();
    // Only "gone" jobs spin, without a control loop: the forwarded
    // stop is never read.
    config.sandbox.crash_plan = "seed=1,kill=gone:busy";
    config.sandbox.wedge_grace_seconds = 0.5;
    WorkerPool pool(1, config, StoreHooks{});
    ASSERT_TRUE(pool.start().ok());

    StopToken stop = StopToken::manual();
    obs::Scope scope;
    std::chrono::steady_clock::time_point stopped_at;
    std::thread trigger([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        stopped_at = std::chrono::steady_clock::now();
        stop.requestStop("client disconnected");
    });
    SandboxOutcome out = pool.execute("gone-1", pingSpec(), stop, &scope);
    auto answered_at = std::chrono::steady_clock::now();
    trigger.join();
    double waited_ms = std::chrono::duration<double, std::milli>(
                           answered_at - stopped_at)
                           .count();
    EXPECT_EQ(out.status, "cancelled") << out.error;
    EXPECT_EQ(out.exit_class, ExitClass::Wedged);
    EXPECT_TRUE(out.worker_died);
    EXPECT_NE(out.error.find("disconnected"), std::string::npos)
        << out.error;
    EXPECT_FALSE(out.artifact.empty());
    // Not before the grace; then within one poll slice of the parent
    // noticing the stop and one of the grace running out, plus
    // kill/reap and scheduling slack on a loaded host.
    double grace_ms = config.sandbox.wedge_grace_seconds * 1000.0;
    EXPECT_GE(waited_ms, grace_ms);
    EXPECT_LT(waited_ms,
              grace_ms + 2 * config.sandbox.poll_slice_ms + 150.0);

    // The lane is free and the pool has respawned the child.
    served::WorkerPoolStats stats = pool.stats();
    EXPECT_EQ(stats.busy, 0u);
    EXPECT_EQ(stats.live, 1u);
    EXPECT_EQ(stats.respawned, 1u);
    EXPECT_EQ(stats.crashes_by_class.at("wedged"), 1u);
    StopToken calm = StopToken::manual();
    SandboxOutcome healthy =
        pool.execute("ok-1", pingSpec(), calm, &scope);
    EXPECT_EQ(healthy.status, "ok") << healthy.error;
    pool.stop();
}

// ---------------------------------------------------------------------
// WorkerPool: respawn, breaker.
// ---------------------------------------------------------------------

TEST(SandboxPool, RespawnsCrashedWorkersAndCountsByClass)
{
    WorkerPoolConfig config;
    config.sandbox = fastSandbox();
    config.sandbox.crash_plan = "seed=1,kill=doom:segv";
    config.breaker_deaths = 100;  // never trips in this test
    WorkerPool pool(1, config, StoreHooks{});
    ASSERT_TRUE(pool.start().ok());

    StopToken stop = StopToken::manual();
    obs::Scope scope;
    SandboxOutcome crashed =
        pool.execute("doom-1", pingSpec(), stop, &scope);
    EXPECT_EQ(crashed.status, "error");
    EXPECT_EQ(crashed.exit_class, ExitClass::Crash);

    SandboxOutcome healthy =
        pool.execute("ok-1", pingSpec(), stop, &scope);
    EXPECT_EQ(healthy.status, "ok") << healthy.error;

    served::WorkerPoolStats stats = pool.stats();
    EXPECT_EQ(stats.live, 1u);
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.respawned, 1u);
    EXPECT_EQ(stats.crashes_by_class.at("crash"), 1u);
    EXPECT_FALSE(stats.breaker_open);
    pool.stop();
}

TEST(SandboxPool, BreakerTripsOnCrashLoopAndRecovers)
{
    WorkerPoolConfig config;
    config.sandbox = fastSandbox();
    config.sandbox.crash_plan = "seed=1,kill=doom:segv";
    config.breaker_deaths = 2;
    config.breaker_window_seconds = 30.0;
    config.breaker_backoff = {8, 100.0, 400.0};  // fast cooldown
    WorkerPool pool(1, config, StoreHooks{});
    ASSERT_TRUE(pool.start().ok());

    StopToken stop = StopToken::manual();
    obs::Scope scope;
    for (int i = 0; i < 2; ++i) {
        SandboxOutcome out = pool.execute(
            "doom-" + std::to_string(i), pingSpec(), stop, &scope);
        EXPECT_EQ(out.status, "error") << out.error;
    }
    EXPECT_TRUE(pool.breakerOpen());

    // Open breaker: shed with a cooldown hint, don't fork futilely.
    SandboxOutcome shed =
        pool.execute("doom-9", pingSpec(), stop, &scope);
    EXPECT_EQ(shed.status, "rejected");
    EXPECT_GT(shed.retry_after_ms, 0.0);
    served::WorkerPoolStats stats = pool.stats();
    EXPECT_EQ(stats.breaker_trips, 1u);

    // The storm ends; after the cooldown a healthy job closes the
    // breaker again.
    pool.setCrashPlan("");
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    SandboxOutcome healthy =
        pool.execute("calm-1", pingSpec(), stop, &scope);
    EXPECT_EQ(healthy.status, "ok") << healthy.error;
    EXPECT_FALSE(pool.breakerOpen());
    pool.stop();
}

TEST(SandboxPool, StoppedJobsNeverTripTheBreaker)
{
    WorkerPoolConfig config;
    config.sandbox = fastSandbox();
    config.breaker_deaths = 5;
    config.breaker_window_seconds = 30.0;
    WorkerPool pool(1, config, StoreHooks{});
    ASSERT_TRUE(pool.start().ok());

    obs::Scope scope;
    for (int i = 0; i < 6; ++i) {
        // Each deadline fires mid-exploration; the child unwinds and
        // answers, which is not a death.
        StopToken deadline = StopToken::withDeadline(0.2);
        SandboxOutcome out = pool.execute("stopped-" + std::to_string(i),
                                          endlessVerifySpec(), deadline,
                                          &scope);
        EXPECT_TRUE(out.status == "ok" || out.status == "cancelled")
            << out.status << ": " << out.error;
        EXPECT_FALSE(out.worker_died) << out.error;
        EXPECT_EQ(out.exit_class, ExitClass::Clean);
    }
    served::WorkerPoolStats stats = pool.stats();
    EXPECT_FALSE(stats.breaker_open);
    EXPECT_EQ(stats.breaker_trips, 0u);
    EXPECT_EQ(stats.crashes, 0u);
    EXPECT_EQ(stats.respawned, 0u);
    pool.stop();
}

// ---------------------------------------------------------------------
// Scheduler integration.
// ---------------------------------------------------------------------

served::SchedulerConfig
laneConfig(std::size_t workers)
{
    served::SchedulerConfig config;
    config.workers = workers;
    config.queue_capacity = 8;
    config.pool.sandbox.heartbeat_period_ms = 20.0;
    config.pool.sandbox.poll_slice_ms = 10.0;
    return config;
}

TEST(SandboxScheduler, CrashedJobFailsAloneAndDaemonKeepsServing)
{
    served::SchedulerConfig config = laneConfig(2);
    config.pool.sandbox.crash_plan = "seed=1,kill=doom:segv";
    served::Scheduler scheduler(config);
    ASSERT_TRUE(scheduler.start().ok());

    served::JobOutcome crashed =
        scheduler.submitAndWait("t", pingSpec(), 0.0, {}, "doom-1");
    EXPECT_EQ(crashed.status, "error");
    EXPECT_NE(crashed.error.find("crashed"), std::string::npos)
        << crashed.error;
    EXPECT_FALSE(crashed.artifact.empty());

    // The crash cost one worker, not the service.
    served::JobOutcome healthy =
        scheduler.submitAndWait("t", verifySpec(gcdDot()));
    EXPECT_EQ(healthy.status, "ok") << healthy.error;

    obs::json::Value health = scheduler.healthJson();
    const obs::json::Value* pool = health.find("worker_pool");
    ASSERT_NE(pool, nullptr);
    EXPECT_GE(pool->find("respawned")->asNumber(), 1.0);
    EXPECT_GE(pool->find("live")->asNumber(), 1.0);
    scheduler.stop();
}

TEST(SandboxScheduler, DisconnectReapsTheWorkerAndFreesTheLane)
{
    served::SchedulerConfig config = laneConfig(1);
    // The job would spin forever, deaf to the forwarded stop; only the
    // grace kill after the disconnect can free the lane within the
    // assert window.
    config.pool.sandbox.crash_plan = "seed=1,kill=gone:busy";
    config.pool.sandbox.wedge_grace_seconds = 0.5;
    served::Scheduler scheduler(config);
    ASSERT_TRUE(scheduler.start().ok());

    auto begun = std::chrono::steady_clock::now();
    served::JobOutcome out = scheduler.submitAndWait(
        "t", pingSpec(), 0.0, [] { return true; }, "gone-1");
    EXPECT_EQ(out.status, "cancelled") << out.error;
    EXPECT_LT(msSince(begun), 3000.0);
    EXPECT_EQ(scheduler.stats().disconnect_cancelled, 1u);

    // The lane is free and a fresh worker serves the next job.
    served::JobOutcome healthy =
        scheduler.submitAndWait("t", pingSpec());
    EXPECT_EQ(healthy.status, "ok") << healthy.error;
    scheduler.stop();
}

TEST(SandboxScheduler, QueuedJobExpiresWhileItsLaneIsBusy)
{
    served::SchedulerConfig config = laneConfig(1);
    // "busy" jobs spin deaf and heartbeat-silent: only the wedge grace
    // ends one, long after the queued job below has been answered.
    config.pool.sandbox.crash_plan = "seed=1,kill=busy:busy";
    config.pool.sandbox.wedge_grace_seconds = 2.0;
    served::Scheduler scheduler(config);
    ASSERT_TRUE(scheduler.start().ok());

    std::thread occupant([&] {
        scheduler.submitAndWait("t", pingSpec(), 0.0, {}, "busy-1");
    });
    auto begun = std::chrono::steady_clock::now();
    while (scheduler.workerPool().stats().busy == 0 &&
           msSince(begun) < 5000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(scheduler.workerPool().stats().busy, 1u);
    std::size_t spawned = scheduler.workerPool().stats().spawned;
    std::size_t cancelled = scheduler.stats().cancelled;

    // The lane is taken, so the job waits in the queue; its deadline
    // has passed before anyone looks, and its own waiter answers it.
    auto submitted = std::chrono::steady_clock::now();
    served::JobOutcome expired =
        scheduler.submitAndWait("t", pingSpec(), 1e-9);
    EXPECT_LT(msSince(submitted), 100.0);
    EXPECT_EQ(expired.status, "cancelled") << expired.error;
    EXPECT_EQ(scheduler.stats().cancelled, cancelled + 1);
    served::WorkerPoolStats pool = scheduler.workerPool().stats();
    EXPECT_EQ(pool.busy, 1u) << "the busy job should still hold the lane";
    EXPECT_EQ(pool.spawned, spawned);
    scheduler.stop();
    occupant.join();
}

TEST(SandboxScheduler, ChildProgressMirrorsIntoTheServiceScope)
{
    served::SchedulerConfig config = laneConfig(1);
    config.observer = std::make_shared<served::ServiceObserver>();
    served::Scheduler scheduler(config);
    ASSERT_TRUE(scheduler.start().ok());
    JobSpec spec = verifySpec(gcdDot());
    served::JobOutcome out = scheduler.submitAndWait("t", spec);
    ASSERT_EQ(out.status, "ok") << out.error;
    scheduler.stop();

    // The same job on an in-process Compiler, into a scope of its own.
    obs::Scope reference;
    {
        obs::ScopedInstall install(&reference);
        Compiler compiler;
        ASSERT_TRUE(runJob(compiler, spec).ok());
    }
    // The child's frames carried its whole registry across the
    // process boundary, and completion folded it into the service
    // scope: every figure the job recorded reads as in-process. The
    // scheduler's own served.* figures are the only extras.
    auto jobFigures = [](const obs::Scope& scope, const char* family,
                         const char* field) {
        std::map<std::string, double> out;
        obs::json::Value all = scope.metrics().toJson();
        for (const auto& [name, value] : all.find(family)->asObject())
            if (name.rfind("served.", 0) != 0)
                out[name] = (field ? *value.find(field) : value).asNumber();
        return out;
    };
    const obs::Scope& service = config.observer->scope();
    std::map<std::string, double> counters =
        jobFigures(reference, "counters", nullptr);
    EXPECT_GT(counters["refine.states"], 0);
    EXPECT_EQ(jobFigures(service, "counters", nullptr), counters);
    std::map<std::string, double> timers =
        jobFigures(reference, "timers", "count");
    EXPECT_EQ(timers.count("compile.seconds"), 1u);
    EXPECT_EQ(jobFigures(service, "timers", "count"), timers);
}

TEST(SandboxScheduler, StopUnwindsTheLadderInTheChild)
{
    served::Scheduler scheduler(laneConfig(1));
    ASSERT_TRUE(scheduler.start().ok());
    JobSpec spec = endlessVerifySpec();

    // A manual stop — the disconnect path — fired once the job table
    // shows the child exploring.
    auto exploring = [&] {
        obs::json::Value table = scheduler.jobsJson();
        for (const obs::json::Value& job : table.find("jobs")->asArray()) {
            const obs::json::Value* progress = job.find("progress");
            if (progress != nullptr &&
                progress->find("states")->asNumber() > 0)
                return true;
        }
        return false;
    };
    served::JobOutcome out =
        scheduler.submitAndWait("t", spec, 0.0, exploring, "stop-1");
    ASSERT_EQ(out.status, "ok") << out.error;
    EXPECT_TRUE(out.artifact.empty());
    const obs::json::Value* level = out.result.find("verification_level");
    ASSERT_NE(level, nullptr);
    EXPECT_NE(level->asString(), "full");
    const obs::json::Value* verdict = out.result.find("verdict");
    ASSERT_NE(verdict, nullptr);
    const obs::json::Value* reason = verdict->find("degradation_reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_NE(reason->asString().find("client disconnected"),
              std::string::npos)
        << reason->asString();
    EXPECT_EQ(scheduler.workerPool().stats().crashes, 0u);

    // The stopped verdict was never committed: the same request again
    // misses the store (and is itself cut short by a deadline).
    served::JobOutcome again =
        scheduler.submitAndWait("t", spec, 0.3, {}, "stop-2");
    ASSERT_EQ(again.status, "ok") << again.error;
    const obs::json::Value* hit = again.result.find("verify_cache_hit");
    ASSERT_NE(hit, nullptr);
    EXPECT_FALSE(hit->asBool());
    guard::VerdictStoreStats store = scheduler.store()->stats();
    EXPECT_EQ(store.hits, 0u);
    EXPECT_EQ(store.misses, 2u);
    EXPECT_EQ(store.entries, 0u);
    scheduler.stop();
}

TEST(SandboxScheduler, VerdictsByteIdenticalIsolatedVsOneShot)
{
    served::Scheduler scheduler(laneConfig(2));
    ASSERT_TRUE(scheduler.start().ok());

    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec bench =
            circuits::buildBenchmark(name).take();
        const ExprHigh& graph =
            bench.df_ooo_input ? *bench.df_ooo_input : bench.df_io;
        JobSpec spec = verifySpec(printDot(graph), bench.num_tags);
        // Recompute every time: byte identity must come from the
        // verification core crossing the process boundary, not from
        // one request warming the store.
        spec.options.verify_cache = false;

        Compiler compiler;
        CompileOptions options = spec.options;
        Result<CompileReport> oneshot =
            compiler.compileDot(spec.circuit_dot, options);
        ASSERT_TRUE(oneshot.ok())
            << name << ": " << oneshot.error().message;
        std::string baseline_verdict =
            oneshot.value().verdict.toJson().dump(2);
        std::string baseline_dot = oneshot.value().output_dot;

        served::JobOutcome out = scheduler.submitAndWait("t", spec);
        ASSERT_EQ(out.status, "ok") << name << ": " << out.error;
        const obs::json::Value* verdict = out.result.find("verdict");
        const obs::json::Value* output_dot = out.result.find("output_dot");
        ASSERT_NE(verdict, nullptr) << name;
        ASSERT_NE(output_dot, nullptr) << name;
        EXPECT_EQ(verdict->dump(2), baseline_verdict) << name;
        EXPECT_EQ(output_dot->asString(), baseline_dot) << name;
    }
    scheduler.stop();
}

TEST(SandboxScheduler, SoakAnswersEveryHealthyRequestThroughAStorm)
{
    served::SchedulerConfig config = laneConfig(2);
    // Every fifth job (by id prefix) dies; the rest must all answer.
    config.pool.sandbox.crash_plan = "seed=9,kill=storm:segv";
    config.pool.breaker_deaths = 100;  // the soak outlives any window
    served::Scheduler scheduler(config);
    ASSERT_TRUE(scheduler.start().ok());

    constexpr int kJobs = 25;
    int healthy_ok = 0, storm_errors = 0;
    for (int i = 0; i < kJobs; ++i) {
        bool doomed = i % 5 == 0;
        std::string id = (doomed ? "storm-" : "calm-") +
                         std::to_string(i);
        served::JobOutcome out =
            scheduler.submitAndWait("t", pingSpec(), 0.0, {}, id);
        if (doomed) {
            EXPECT_EQ(out.status, "error") << id << ": " << out.error;
            storm_errors += 1;
        } else {
            EXPECT_EQ(out.status, "ok") << id << ": " << out.error;
            healthy_ok += 1;
        }
    }
    // 100% of healthy requests answered while workers died around
    // them.
    EXPECT_EQ(healthy_ok, kJobs - kJobs / 5);
    EXPECT_EQ(storm_errors, kJobs / 5);
    obs::json::Value health = scheduler.healthJson();
    const obs::json::Value* pool = health.find("worker_pool");
    ASSERT_NE(pool, nullptr);
    EXPECT_GE(pool->find("respawned")->asNumber(),
              static_cast<double>(kJobs / 5));
    scheduler.stop();
}

}  // namespace
}  // namespace graphiti

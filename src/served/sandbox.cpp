#include "served/sandbox.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/compiler.hpp"
#include "faults/crash_plan.hpp"
#include "served/protocol.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRAPHITI_SANDBOX_ASAN 1
#endif
#endif
#if !defined(GRAPHITI_SANDBOX_ASAN) && defined(__SANITIZE_ADDRESS__)
#define GRAPHITI_SANDBOX_ASAN 1
#endif
#ifndef GRAPHITI_SANDBOX_ASAN
#define GRAPHITI_SANDBOX_ASAN 0
#endif

namespace graphiti::served {

namespace json = obs::json;

namespace {

constexpr std::uint64_t kMiB = std::uint64_t{1} << 20;
constexpr std::uint64_t kAsFloorBytes = 1024 * kMiB;
constexpr std::uint64_t kAsCeilingBytes = 4096 * kMiB;
constexpr std::uint64_t kBytesPerState = 2048;
/** Virtual-address-space cost of the verifier's lane: 8 MiB stack +
 * a 64 MiB glibc malloc arena reservation, with headroom. */
constexpr std::uint64_t kLaneBytes = 128 * kMiB;

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

const char*
signalName(int sig)
{
    switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    default: return nullptr;
    }
}

std::string
describeSignal(int sig)
{
    if (const char* name = signalName(sig))
        return std::string("signal ") + name;
    return "signal " + std::to_string(sig);
}

std::uint64_t
parseU64Field(const json::Value& frame, const char* key)
{
    const json::Value* field = frame.find(key);
    if (field == nullptr)
        return 0;
    if (field->isString())
        return std::strtoull(field->asString().c_str(), nullptr, 10);
    if (field->isNumber())
        return static_cast<std::uint64_t>(field->asNumber());
    return 0;
}

/** Apply one job's soft rlimit jail in the child. Soft limits are
 * enough: exceeding RLIMIT_AS fails allocations (the OOM new-handler
 * turns that into the exit sentinel) and RLIMIT_CPU delivers SIGXCPU.
 * CPU allowances are per-job: a warm worker adds the CPU it already
 * burned, so earlier jobs never eat a later job's budget. */
void
applyJobLimits(const WorkerLimits& limits)
{
    if (limits.address_space_bytes > 0 && sandboxAddressJailSupported()) {
        struct rlimit rl;
        if (::getrlimit(RLIMIT_AS, &rl) == 0) {
            rlim_t want =
                static_cast<rlim_t>(limits.address_space_bytes);
            rl.rlim_cur = rl.rlim_max == RLIM_INFINITY
                              ? want
                              : std::min(want, rl.rlim_max);
            (void)::setrlimit(RLIMIT_AS, &rl);
        }
    }
    if (limits.cpu_seconds > 0) {
        struct rusage usage;
        std::uint64_t used = 0;
        if (::getrusage(RUSAGE_SELF, &usage) == 0)
            used = static_cast<std::uint64_t>(usage.ru_utime.tv_sec) +
                   static_cast<std::uint64_t>(usage.ru_stime.tv_sec) +
                   1;
        struct rlimit rl;
        if (::getrlimit(RLIMIT_CPU, &rl) == 0) {
            rlim_t want = static_cast<rlim_t>(used + limits.cpu_seconds);
            rl.rlim_cur = rl.rlim_max == RLIM_INFINITY
                              ? want
                              : std::min(want, rl.rlim_max);
            (void)::setrlimit(RLIMIT_CPU, &rl);
        }
    }
}

/**
 * Child-side verdict store: forwards lookups and commits to the
 * parent over the worker socketpair, so the shared store's memory and
 * files are only ever touched by the daemon process. The job thread
 * is the socket's only reader during a job (the heartbeat thread only
 * writes, under the shared write mutex), so a lookup can synchronously
 * await its reply frame.
 */
class ProxyVerdictStore final : public guard::VerdictStore
{
  public:
    ProxyVerdictStore(const net::Socket& socket,
                      std::mutex& write_mutex, int timeout_ms)
        : socket_(socket), write_mutex_(write_mutex),
          timeout_ms_(timeout_ms)
    {
    }

    std::optional<guard::VerificationVerdict>
    lookup(std::uint64_t key) override
    {
        json::Value msg{json::Object{}};
        msg.set("op", "store_get");
        msg.set("key", std::to_string(key));
        {
            std::lock_guard<std::mutex> lock(write_mutex_);
            if (!writeFrame(socket_, msg.dump(), timeout_ms_).ok())
                return std::nullopt;
        }
        std::string payload;
        Result<bool> got = readFrame(socket_, payload, timeout_ms_);
        if (!got.ok() || !got.take())
            return std::nullopt;  // parent gone: behave as a miss
        Result<json::Value> doc = json::parse(payload);
        if (!doc.ok())
            return std::nullopt;
        json::Value reply = doc.take();
        const json::Value* hit = reply.find("hit");
        if (hit == nullptr || !hit->isBool() || !hit->asBool())
            return std::nullopt;
        const json::Value* verdict = reply.find("verdict");
        if (verdict == nullptr)
            return std::nullopt;
        Result<guard::VerificationVerdict> parsed =
            guard::verdictFromJson(*verdict);
        if (!parsed.ok())
            return std::nullopt;
        return parsed.take();
    }

    void
    store(std::uint64_t key,
          const guard::VerificationVerdict& verdict) override
    {
        json::Value msg{json::Object{}};
        msg.set("op", "store_put");
        msg.set("key", std::to_string(key));
        msg.set("verdict", verdict.toJson());
        std::lock_guard<std::mutex> lock(write_mutex_);
        (void)writeFrame(socket_, msg.dump(), timeout_ms_);
    }

    std::size_t approxBytes() const override { return 0; }

  private:
    const net::Socket& socket_;
    std::mutex& write_mutex_;
    int timeout_ms_;
};

/** Run one job frame inside the child. */
void
runChildJob(const net::Socket& socket, const SandboxConfig& config,
            const faults::CrashPlan& plan, const json::Value& frame)
{
    std::uint64_t serial = parseU64Field(frame, "serial");
    const json::Value* id_field = frame.find("job_id");
    std::string job_id = id_field != nullptr && id_field->isString()
                             ? id_field->asString()
                             : "";

    WorkerLimits limits;
    if (const json::Value* jail = frame.find("limits")) {
        limits.address_space_bytes =
            parseU64Field(*jail, "address_space_bytes");
        limits.cpu_seconds = parseU64Field(*jail, "cpu_seconds");
    }
    applyJobLimits(limits);

    json::Value done_frame{json::Object{}};
    done_frame.set("op", "result");
    done_frame.set("serial", std::to_string(serial));

    const json::Value* spec_field = frame.find("spec");
    JobSpec spec;
    {
        std::string parse_error;
        if (spec_field == nullptr) {
            parse_error = "job frame carries no spec";
        } else {
            Result<JobSpec> parsed = jobSpecFromJson(*spec_field);
            if (parsed.ok())
                spec = parsed.take();
            else
                parse_error = parsed.error().message;
        }
        if (!parse_error.empty()) {
            done_frame.set("status", "error");
            done_frame.set("error", parse_error);
            (void)writeFrame(socket, done_frame.dump(),
                             config.io_timeout_ms);
            return;
        }
    }

    // The fault seam: a planned death executes exactly here — after
    // the job frame is accepted (the parent has a serial in flight to
    // classify against), before any work. BusyLoop spins without ever
    // starting the heartbeat thread, so it exercises the parent's
    // wedge detection rather than its crash classification.
    faults::CrashAction fate = plan.action(job_id, "run");
    if (fate != faults::CrashAction::None)
        faults::executeCrashAction(fate);  // fatal classes never return

    auto scope = std::make_shared<obs::Scope>();
    scope->attachVerifyProbe(std::make_shared<obs::VerifyProbe>());

    std::mutex write_mutex;
    std::atomic<bool> finished{false};
    std::thread heartbeat([&] {
        auto last_beat = std::chrono::steady_clock::now() -
                         std::chrono::hours(1);
        while (!finished.load(std::memory_order_acquire)) {
            auto now = std::chrono::steady_clock::now();
            if (elapsedMs(last_beat, now) >=
                config.heartbeat_period_ms) {
                last_beat = now;
                json::Value beat{json::Object{}};
                beat.set("op", "heartbeat");
                beat.set("serial", std::to_string(serial));
                beat.set("states",
                         scope->metrics().counter("refine.states"));
                if (const obs::VerifyProbe* probe =
                        scope->verifyProbe())
                    beat.set("progress",
                             probe->snapshot().toJson());
                std::lock_guard<std::mutex> lock(write_mutex);
                if (!writeFrame(socket, beat.dump(),
                                config.io_timeout_ms)
                         .ok())
                    return;  // parent gone; the job will find out too
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    });

    {
        obs::ScopedInstall install(scope.get());
        Compiler compiler;
        compiler.setVerdictStore(std::make_shared<ProxyVerdictStore>(
            socket, write_mutex, config.io_timeout_ms));
        // Cancellation/deadline policy lives in the parent: it kills
        // the process group instead of firing a token, so the child
        // runs under a token that never fires.
        StopToken stop = StopToken::manual();
        Result<json::Value> run = runJob(compiler, spec, stop);
        if (run.ok()) {
            done_frame.set("status", "ok");
            done_frame.set("result", run.take());
        } else {
            done_frame.set("status", "error");
            done_frame.set("error", run.error().message);
        }
    }
    finished.store(true, std::memory_order_release);
    heartbeat.join();
    // Final totals ride the result frame: a job faster than one
    // heartbeat period still reports exact accounting.
    done_frame.set("states", scope->metrics().counter("refine.states"));
    if (const obs::VerifyProbe* probe = scope->verifyProbe())
        done_frame.set("progress", probe->snapshot().toJson());
    (void)writeFrame(socket, done_frame.dump(), config.io_timeout_ms);
}

/** The child process: ready handshake, then a job loop until
 * shutdown (or parent death). Never returns. */
[[noreturn]] void
childMain(net::Socket socket, const SandboxConfig& config)
{
    // A failed allocation inside the RLIMIT_AS jail exits through a
    // deterministic sentinel the parent classifies as a resource
    // death — not through an uncaught bad_alloc that would read as a
    // generic SIGABRT.
    std::set_new_handler([] { _exit(kOomExitCode); });

    faults::CrashPlan plan;
    if (const char* text = std::getenv("GRAPHITI_CRASH_PLAN")) {
        Result<faults::CrashPlan> parsed =
            faults::CrashPlan::parse(text);
        if (parsed.ok())
            plan = parsed.take();
    }

    json::Value ready{json::Object{}};
    ready.set("op", "ready");
    ready.set("pid", static_cast<std::int64_t>(::getpid()));
    if (!writeFrame(socket, ready.dump(), config.io_timeout_ms).ok())
        _exit(1);

    std::string payload;
    for (;;) {
        Result<bool> got = readFrame(socket, payload, -1);
        if (!got.ok() || !got.take())
            _exit(0);  // parent closed: retire quietly
        Result<json::Value> doc = json::parse(payload);
        if (!doc.ok())
            _exit(1);
        json::Value frame = doc.take();
        const json::Value* op = frame.find("op");
        std::string verb =
            op != nullptr && op->isString() ? op->asString() : "";
        if (verb == "shutdown")
            _exit(0);
        if (verb == "job")
            runChildJob(socket, config, plan, frame);
    }
}

}  // namespace

bool
sandboxAddressJailSupported()
{
    // AddressSanitizer reserves terabytes of shadow address space, so
    // any meaningful RLIMIT_AS ceiling would kill instrumented
    // children at startup; the jail (and its tests) disarm under it.
    return !GRAPHITI_SANDBOX_ASAN;
}

obs::json::Value
WorkerLimits::toJson() const
{
    json::Value out{json::Object{}};
    out.set("address_space_bytes",
            static_cast<double>(address_space_bytes));
    out.set("cpu_seconds", static_cast<double>(cpu_seconds));
    return out;
}

WorkerLimits
workerLimits(const guard::VerificationBudget& budget)
{
    WorkerLimits limits;
    std::uint64_t states =
        static_cast<std::uint64_t>(budget.max_states) +
        static_cast<std::uint64_t>(budget.partial_max_states);
    // Address space (not RSS): the verifier's lane costs real virtual
    // reservations — an 8 MiB stack plus a glibc malloc arena that
    // maps 64 MiB up front.
    limits.address_space_bytes =
        std::min(kAsCeilingBytes,
                 kAsFloorBytes + states * kBytesPerState + kLaneBytes);
    if (budget.deadline_seconds > 0)
        limits.cpu_seconds =
            static_cast<std::uint64_t>(budget.deadline_seconds * 2.0) +
            5;
    return limits;
}

const char*
toString(ExitClass cls)
{
    switch (cls) {
    case ExitClass::Clean: return "clean";
    case ExitClass::Exit: return "exit";
    case ExitClass::Crash: return "crash";
    case ExitClass::Resource: return "resource";
    case ExitClass::Cancelled: return "cancelled";
    case ExitClass::Wedged: return "wedged";
    }
    return "clean";
}

ExitStatus
classifyExit(int wait_status, KillContext context,
             const WorkerLimits& limits)
{
    ExitStatus out;
    if (context == KillContext::Stop) {
        out.cls = ExitClass::Cancelled;
        out.code = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
        out.detail = "killed on stop request";
        return out;
    }
    if (context == KillContext::Wedge) {
        out.cls = ExitClass::Wedged;
        out.code = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
        out.detail = "killed after heartbeat silence";
        return out;
    }
    if (WIFEXITED(wait_status)) {
        int code = WEXITSTATUS(wait_status);
        out.code = code;
        if (code == kOomExitCode) {
            out.cls = ExitClass::Resource;
            out.detail = "address-space rlimit (allocation failed)";
        } else if (code == 0) {
            out.cls = ExitClass::Clean;
            out.detail = "exit 0";
        } else {
            out.cls = ExitClass::Exit;
            out.detail = "exit " + std::to_string(code);
        }
        return out;
    }
    if (WIFSIGNALED(wait_status)) {
        int sig = WTERMSIG(wait_status);
        out.code = sig;
        if (sig == SIGXCPU) {
            out.cls = ExitClass::Resource;
            out.detail = "cpu rlimit (SIGXCPU)";
        } else if (sig == SIGKILL) {
            // The parent records its own kills in the context, so a
            // SIGKILL here came from outside: the kernel enforcing a
            // hard ceiling, the OOM killer, or an operator.
            out.cls = ExitClass::Resource;
            out.detail = "SIGKILL (not sent by the daemon: rlimit "
                         "hard ceiling, OOM killer, or external)";
            (void)limits;
        } else {
            out.cls = ExitClass::Crash;
            out.detail = describeSignal(sig);
        }
        return out;
    }
    out.cls = ExitClass::Crash;
    out.code = wait_status;
    out.detail = "unrecognized wait status " +
                 std::to_string(wait_status);
    return out;
}

std::string
crashArtifact(const std::string& job_id,
              const ExitStatus& exit_status,
              const HeartbeatSnapshot& last_heartbeat,
              const WorkerLimits& limits, int pid)
{
    json::Value doc{json::Object{}};
    doc.set("error", "worker process died: " + exit_status.detail);
    doc.set("job_id", job_id);
    json::Value exit{json::Object{}};
    exit.set("class", toString(exit_status.cls));
    exit.set("code", exit_status.code);
    exit.set("detail", exit_status.detail);
    doc.set("exit", std::move(exit));
    if (last_heartbeat.seen) {
        json::Value beat{json::Object{}};
        beat.set("age_ms",
                 elapsedMs(last_heartbeat.at,
                           std::chrono::steady_clock::now()));
        beat.set("states", last_heartbeat.states);
        if (!last_heartbeat.progress.isNull())
            beat.set("progress", last_heartbeat.progress);
        doc.set("last_heartbeat", std::move(beat));
    } else {
        doc.set("last_heartbeat", nullptr);
    }
    doc.set("rlimits", limits.toJson());
    json::Value worker{json::Object{}};
    worker.set("pid", pid);
    doc.set("worker", std::move(worker));
    return doc.dump(2);
}

WorkerProcess::WorkerProcess(SandboxConfig config)
    : config_(std::move(config))
{
}

WorkerProcess::~WorkerProcess()
{
    if (alive())
        kill(KillContext::None);
}

Result<bool>
WorkerProcess::spawn(const std::vector<int>& close_fds)
{
    if (alive())
        return err("worker already running");
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        return err(std::string("socketpair: ") + std::strerror(errno));
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return err(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
        // Child. Close the parent-side end and every sibling's
        // parent-side end (an inherited dup would keep a dead
        // sibling's socket open and mask its EOF from the daemon).
        ::close(fds[0]);
        for (int fd : close_fds)
            if (fd >= 0)
                ::close(fd);
        (void)::setpgid(0, 0);
        if (!config_.crash_plan.empty())
            ::setenv("GRAPHITI_CRASH_PLAN", config_.crash_plan.c_str(),
                     1);
        childMain(net::Socket(fds[1]), config_);  // never returns
    }
    // Parent. The double setpgid closes the fork/exec race window:
    // whoever runs first makes the child its own group leader, so
    // kill(-pid) can never hit the daemon's group.
    (void)::setpgid(pid, pid);
    ::close(fds[1]);
    socket_ = net::Socket(fds[0]);
    pid_ = pid;
    last_exit_ = ExitStatus{};
    last_heartbeat_ = HeartbeatSnapshot{};
    std::string payload;
    Result<bool> got =
        readFrame(socket_, payload, config_.io_timeout_ms);
    if (!got.ok() || !got.take()) {
        kill(KillContext::None);
        return err("worker child failed its ready handshake" +
                   (got.ok() ? std::string(" (closed)")
                             : ": " + got.error().message));
    }
    return true;
}

void
WorkerProcess::kill(KillContext context)
{
    if (!alive())
        return;
    // The child is its own group leader, so the negative pid reaches
    // it and anything it spawned.
    (void)::kill(-pid_, SIGKILL);
    (void)::kill(pid_, SIGKILL);
    reap(context, config_.limits);
}

ExitStatus
WorkerProcess::reap(KillContext context, const WorkerLimits& limits)
{
    int status = 0;
    if (pid_ > 0)
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    last_exit_ = classifyExit(status, context, limits);
    pid_ = -1;
    socket_.close();
    return last_exit_;
}

void
WorkerProcess::shutdown()
{
    if (!alive())
        return;
    json::Value msg{json::Object{}};
    msg.set("op", "shutdown");
    (void)writeFrame(socket_, msg.dump(), 1000);
    for (int i = 0; i < 100; ++i) {
        int status = 0;
        pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
        if (reaped == pid_) {
            last_exit_ =
                classifyExit(status, KillContext::None, config_.limits);
            pid_ = -1;
            socket_.close();
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(KillContext::None);
}

void
WorkerProcess::mirrorHeartbeat(const json::Value& beat,
                               obs::Scope* job_scope)
{
    auto now = std::chrono::steady_clock::now();
    last_heartbeat_.seen = true;
    last_heartbeat_.at = now;
    const json::Value* states = beat.find("states");
    if (states != nullptr && states->isNumber())
        last_heartbeat_.states =
            static_cast<std::int64_t>(states->asNumber());
    if (const json::Value* progress = beat.find("progress"))
        last_heartbeat_.progress = *progress;
    if (job_scope == nullptr)
        return;
    // Heartbeats carry totals; the job scope accumulates deltas so
    // the jobs verb and liveVerifyTotals read isolated jobs exactly
    // like in-thread ones.
    std::int64_t delta = last_heartbeat_.states - mirrored_states_;
    if (delta > 0) {
        job_scope->metrics().add("refine.states", delta);
        mirrored_states_ = last_heartbeat_.states;
    }
    obs::VerifyProbe* probe = job_scope->verifyProbe();
    if (probe == nullptr || !last_heartbeat_.progress.isObject())
        return;
    const json::Value& p = last_heartbeat_.progress;
    auto num = [&](const char* key) -> std::uint64_t {
        const json::Value* field = p.find(key);
        return field != nullptr && field->isNumber()
                   ? static_cast<std::uint64_t>(field->asNumber())
                   : 0;
    };
    auto dbl = [&](const char* key) -> double {
        const json::Value* field = p.find(key);
        return field != nullptr && field->isNumber()
                   ? field->asNumber()
                   : 0.0;
    };
    probe->publishExplore(num("states"), num("frontier"),
                          dbl("states_per_second"),
                          dbl("states_cap_pct"));
    probe->publishGame(num("pairs"), num("round"), num("alive"));
    probe->notePeakBytes(num("peak_bytes"));
}

SandboxOutcome
WorkerProcess::execute(const std::string& job_id, const JobSpec& spec,
                       const StopToken& stop, obs::Scope* job_scope,
                       const StoreHooks& hooks)
{
    SandboxOutcome outcome;
    if (!alive()) {
        outcome.status = "error";
        outcome.error = "isolated worker not running";
        return outcome;
    }

    // The job's jail: explicit config overrides win field by field,
    // the rest derives from the job's own verification budget.
    WorkerLimits limits = workerLimits(spec.options.verify_budget);
    if (config_.limits.address_space_bytes > 0)
        limits.address_space_bytes = config_.limits.address_space_bytes;
    if (config_.limits.cpu_seconds > 0)
        limits.cpu_seconds = config_.limits.cpu_seconds;

    std::uint64_t serial = next_serial_++;
    last_heartbeat_ = HeartbeatSnapshot{};
    mirrored_states_ = 0;
    // For the post-mortem artifact: reap() clears pid_ before fail()
    // builds it.
    const int child_pid = pid_;

    json::Value frame{json::Object{}};
    frame.set("op", "job");
    frame.set("serial", std::to_string(serial));
    frame.set("job_id", job_id);
    frame.set("spec", spec.toJson());
    frame.set("limits", limits.toJson());

    double timeout_s = config_.heartbeat_timeout_seconds > 0
                           ? config_.heartbeat_timeout_seconds
                           : 5.0;

    auto fail = [&](const ExitStatus& exit_status) {
        outcome.exit_class = exit_status.cls;
        outcome.worker_died = true;
        if (exit_status.cls == ExitClass::Cancelled) {
            outcome.status = "cancelled";
            outcome.error = stop.reason().empty()
                                ? std::string("stop requested")
                                : stop.reason();
            return;
        }
        outcome.status = "error";
        switch (exit_status.cls) {
        case ExitClass::Wedged:
            outcome.error = "worker wedged: no heartbeat for " +
                            std::to_string(timeout_s) + "s (" +
                            exit_status.detail + ")";
            break;
        case ExitClass::Resource:
            outcome.error = "worker exceeded its resource jail: " +
                            exit_status.detail;
            break;
        case ExitClass::Crash:
            outcome.error = "worker crashed: " + exit_status.detail;
            break;
        case ExitClass::Exit:
            outcome.error =
                "worker exited unexpectedly: " + exit_status.detail;
            break;
        default:
            outcome.error =
                "worker exited before returning a result";
            break;
        }
        outcome.artifact = crashArtifact(job_id, exit_status,
                                         last_heartbeat_, limits,
                                         child_pid);
    };

    if (!writeFrame(socket_, frame.dump(), config_.io_timeout_ms)
             .ok()) {
        // Dead before it could accept the job (crashed between jobs).
        ExitStatus exit_status = reap(KillContext::None, limits);
        fail(exit_status);
        return outcome;
    }

    auto last_seen = std::chrono::steady_clock::now();
    std::string payload;
    for (;;) {
        if (stop.stopRequested()) {
            // Deadline, disconnect or preemption: isolation trades
            // the cooperative ladder unwind for containment — the
            // process group dies now and the lane frees immediately.
            (void)::kill(-pid_, SIGKILL);
            (void)::kill(pid_, SIGKILL);
            ExitStatus exit_status = reap(KillContext::Stop, limits);
            fail(exit_status);
            return outcome;
        }
        Result<bool> readable = net::waitReadable(
            socket_, static_cast<int>(config_.poll_slice_ms));
        if (readable.ok() && !readable.value()) {
            // Poll slice elapsed with no traffic: wedge check.
            if (elapsedMs(last_seen, std::chrono::steady_clock::now())
                > timeout_s * 1000.0) {
                (void)::kill(-pid_, SIGKILL);
                (void)::kill(pid_, SIGKILL);
                ExitStatus exit_status =
                    reap(KillContext::Wedge, limits);
                fail(exit_status);
                return outcome;
            }
            continue;
        }
        if (!readable.ok()) {
            ExitStatus exit_status = reap(KillContext::None, limits);
            fail(exit_status);
            return outcome;
        }
        Result<bool> got =
            readFrame(socket_, payload, config_.io_timeout_ms);
        if (!got.ok() || !got.take()) {
            // EOF or torn frame: the child died mid-job. waitpid
            // tells the honest story.
            ExitStatus exit_status = reap(KillContext::None, limits);
            fail(exit_status);
            return outcome;
        }
        Result<json::Value> doc = json::parse(payload);
        if (!doc.ok())
            continue;  // unparseable chatter; the exit will classify
        json::Value msg = doc.take();
        const json::Value* op = msg.find("op");
        std::string verb =
            op != nullptr && op->isString() ? op->asString() : "";
        last_seen = std::chrono::steady_clock::now();
        if (verb == "heartbeat") {
            mirrorHeartbeat(msg, job_scope);
        } else if (verb == "store_get") {
            std::uint64_t key = parseU64Field(msg, "key");
            json::Value reply{json::Object{}};
            reply.set("op", "store");
            std::optional<guard::VerificationVerdict> verdict;
            if (hooks.lookup)
                verdict = hooks.lookup(key);
            reply.set("hit", verdict.has_value());
            if (verdict.has_value())
                reply.set("verdict", verdict->toJson());
            if (!writeFrame(socket_, reply.dump(),
                            config_.io_timeout_ms)
                     .ok()) {
                ExitStatus exit_status =
                    reap(KillContext::None, limits);
                fail(exit_status);
                return outcome;
            }
        } else if (verb == "store_put") {
            std::uint64_t key = parseU64Field(msg, "key");
            const json::Value* verdict = msg.find("verdict");
            if (verdict != nullptr && hooks.store) {
                Result<guard::VerificationVerdict> parsed =
                    guard::verdictFromJson(*verdict);
                if (parsed.ok())
                    hooks.store(key, parsed.take());
            }
        } else if (verb == "result") {
            // The result frame carries the job's final totals (states,
            // probe snapshot) — mirror them like a last heartbeat so
            // accounting is exact even for sub-heartbeat-period jobs.
            mirrorHeartbeat(msg, job_scope);
            const json::Value* status = msg.find("status");
            outcome.status =
                status != nullptr && status->isString()
                    ? status->asString()
                    : "error";
            if (const json::Value* result = msg.find("result"))
                outcome.result = *result;
            if (const json::Value* error = msg.find("error"))
                if (error->isString())
                    outcome.error = error->asString();
            return outcome;
        }
    }
}

}  // namespace graphiti::served

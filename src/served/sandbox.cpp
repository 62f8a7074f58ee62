#include "served/sandbox.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/compiler.hpp"
#include "faults/crash_plan.hpp"
#include "served/protocol.hpp"
#include "support/strings.hpp"

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
 * The child's side of one job's socket, and the job's verdict store.
 * Lookups and commits are forwarded to the parent, so the shared
 * store's memory and files are only ever touched by the daemon
 * process. The control loop is the socket's only reader: a lookup
 * waits for the reply frame the loop hands over. One mutex orders
 * every write.
 */
class ChildLink final : public guard::VerdictStore
{
  public:
    ChildLink(const net::Socket& socket, int timeout_ms)
        : socket_(socket), timeout_ms_(timeout_ms)
    {
    }

    Result<bool>
    send(const json::Value& frame)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return writeFrame(socket_, frame.dump(), timeout_ms_);
    }

    /** Control loop: hand one store reply to the waiting lookup. */
    void
    deliver(json::Value reply)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reply_ = std::move(reply);
        replied_.notify_all();
    }

    std::optional<guard::StoreEntry>
    get(std::uint64_t key, guard::EntryKind kind) override
    {
        json::Value msg{json::Object{}};
        msg.set("op", "store_get");
        msg.set("key", std::to_string(key));
        msg.set("kind", guard::toString(kind));
        std::optional<json::Value> reply;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            reply_.reset();
            if (!writeFrame(socket_, msg.dump(), timeout_ms_).ok())
                return std::nullopt;
            replied_.wait_for(lock, std::chrono::milliseconds(timeout_ms_),
                              [this] { return reply_.has_value(); });
            reply.swap(reply_);
        }
        if (!reply)
            return std::nullopt;  // parent gone: behave as a miss
        const json::Value* hit = reply->find("hit");
        if (hit == nullptr || !hit->isBool() || !hit->asBool())
            return std::nullopt;
        Result<guard::StoreEntry> parsed = guard::entryFromJson(*reply);
        if (!parsed.ok() || guard::kindOf(parsed.value()) != kind)
            return std::nullopt;
        return parsed.take();
    }

    void
    put(std::uint64_t key, const guard::StoreEntry& entry) override
    {
        json::Value msg{json::Object{}};
        msg.set("op", "store_put");
        msg.set("key", std::to_string(key));
        guard::setEntryJson(msg, entry);
        (void)send(msg);
    }

    std::size_t approxBytes() const override { return 0; }

  private:
    const net::Socket& socket_;
    int timeout_ms_;
    std::mutex mutex_;
    std::condition_variable replied_;
    std::optional<json::Value> reply_;
};

/** Attach the job scope's whole registry and probe snapshot. */
void
addProgress(json::Value& frame, const obs::Scope& scope)
{
    frame.set("metrics", scope.metrics().toJson());
    if (const obs::VerifyProbe* probe = scope.verifyProbe())
        frame.set("progress", probe->snapshot().toJson());
}

/** Run one job frame inside the child. @p wake is the read and write
 * end of the pipe the job signals its end on. */
void
runChildJob(const net::Socket& socket, const SandboxConfig& config,
            const faults::CrashPlan& plan, const json::Value& frame,
            const int wake[2])
{
    std::string serial = std::to_string(parseU64Field(frame, "serial"));
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
    done_frame.set("serial", serial);

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
    // classify against), before any work. BusyLoop spins before the
    // control loop starts, so it neither heartbeats nor takes a stop:
    // it exercises the parent's wedge clock rather than its crash
    // classification.
    faults::CrashAction fate = plan.action(job_id, "run");
    if (fate != faults::CrashAction::None)
        faults::executeCrashAction(fate);  // fatal classes never return

    auto scope = std::make_shared<obs::Scope>();
    scope->attachVerifyProbe(std::make_shared<obs::VerifyProbe>());
    auto link = std::make_shared<ChildLink>(socket, config.io_timeout_ms);
    // Fired by the parent's stop frame: the ladder unwinds exactly as
    // it would in-process, and a verdict made after it fired is never
    // committed to the store.
    StopToken stop = StopToken::manual();

    // The control loop: heartbeats on their period, stop frames and
    // store replies as they arrive, and out the moment the job ends.
    // The job itself stays on this (warm) thread.
    std::thread control([&] {
        auto period = std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                config.heartbeat_period_ms));
        auto next_beat = std::chrono::steady_clock::now() + period;
        std::string payload;
        for (;;) {
            auto now = std::chrono::steady_clock::now();
            if (now >= next_beat) {
                next_beat = now + period;
                json::Value beat{json::Object{}};
                beat.set("op", "heartbeat");
                beat.set("serial", serial);
                addProgress(beat, *scope);
                // A failed write means the parent is gone; the read
                // below sees the EOF.
                (void)link->send(beat);
            }
            int wait_ms = static_cast<int>(
                std::chrono::ceil<std::chrono::milliseconds>(next_beat -
                                                             now)
                    .count());
            struct pollfd fds[2] = {{socket.fd(), POLLIN, 0},
                                    {wake[0], POLLIN, 0}};
            if (::poll(fds, 2, std::max(wait_ms, 0)) < 0) {
                if (errno == EINTR)
                    continue;
                _exit(1);
            }
            if (fds[1].revents != 0)
                return;
            if (fds[0].revents == 0)
                continue;
            Result<bool> got =
                readFrame(socket, payload, config.io_timeout_ms);
            if (!got.ok() || !got.take())
                _exit(0);  // parent gone: nobody waits for the result
            Result<json::Value> doc = json::parse(payload);
            if (!doc.ok())
                continue;
            json::Value msg = doc.take();
            const json::Value* op = msg.find("op");
            std::string verb =
                op != nullptr && op->isString() ? op->asString() : "";
            if (verb == "store") {
                link->deliver(std::move(msg));
            } else if (verb == "stop" &&
                       std::to_string(parseU64Field(msg, "serial")) ==
                           serial) {
                const json::Value* reason = msg.find("reason");
                stop.requestStop(reason != nullptr && reason->isString()
                                     ? reason->asString()
                                     : "stop requested");
            }
        }
    });

    {
        obs::ScopedInstall install(scope.get());
        Compiler compiler;
        compiler.setVerdictStore(link);
        Result<json::Value> run = runJob(compiler, spec, stop);
        if (run.ok()) {
            done_frame.set("status", "ok");
            done_frame.set("result", run.take());
        } else if (stop.stopRequested()) {
            done_frame.set("status", "cancelled");
            done_frame.set("error",
                           stop.reason() + ": " + run.error().message);
        } else {
            done_frame.set("status", "error");
            done_frame.set("error", run.error().message);
        }
    }
    char byte = 1;
    while (::write(wake[1], &byte, 1) < 0 && errno == EINTR) {
    }
    control.join();
    while (::read(wake[0], &byte, 1) < 0 && errno == EINTR) {
    }
    // Final metrics ride the result frame: a job faster than one
    // heartbeat period still reports exact accounting.
    addProgress(done_frame, *scope);
    (void)link->send(done_frame);
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

    int wake[2];
    if (::pipe(wake) != 0)
        _exit(1);

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
        // Anything else (a stop that crossed its job's result) is
        // stale: ignored.
        if (verb == "job")
            runChildJob(socket, config, plan, frame, wake);
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

std::optional<std::uint64_t>
storeFrameKey(const obs::json::Value& frame)
{
    const json::Value* field = frame.find("key");
    if (field == nullptr || !field->isString())
        return std::nullopt;
    const std::string& text = field->asString();
    std::optional<std::uint64_t> key = parseNumber<std::uint64_t>(text);
    if (!key.has_value() || std::to_string(*key) != text)
        return std::nullopt;  // leading zeros are not ChildLink's spelling
    return key;
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
    case ExitClass::Wedged: return "wedged";
    }
    return "clean";
}

ExitStatus
classifyExit(int wait_status, KillContext context,
             const WorkerLimits& limits)
{
    ExitStatus out;
    if (context == KillContext::Wedge) {
        out.cls = ExitClass::Wedged;
        out.code = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
        out.detail = "killed past the wedge grace";
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
    pid_ = -1;
    socket_.close();
    return classifyExit(status, context, limits);
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
            pid_ = -1;
            socket_.close();
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(KillContext::None);
}

void
WorkerProcess::mirrorFrame(const json::Value& frame,
                           obs::Scope* job_scope)
{
    last_heartbeat_.seen = true;
    last_heartbeat_.at = std::chrono::steady_clock::now();
    const json::Value* metrics = frame.find("metrics");
    if (metrics != nullptr) {
        const json::Value* counters = metrics->find("counters");
        const json::Value* states =
            counters != nullptr ? counters->find("refine.states")
                                : nullptr;
        if (states != nullptr && states->isNumber())
            last_heartbeat_.states =
                static_cast<std::int64_t>(states->asNumber());
    }
    if (const json::Value* progress = frame.find("progress"))
        last_heartbeat_.progress = *progress;
    if (job_scope == nullptr)
        return;
    // Every frame carries the child's whole job-scope registry, and
    // the child's counters only grow: replacing keeps the parent's
    // view monotonic and, after the result frame, exact.
    if (metrics != nullptr)
        job_scope->metrics().replaceWith(*metrics);
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
        outcome.error = "sandboxed worker not running";
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
    // For the post-mortem artifact: reap() clears pid_ before died()
    // builds it.
    const int child_pid = pid_;

    json::Value frame{json::Object{}};
    frame.set("op", "job");
    frame.set("serial", std::to_string(serial));
    frame.set("job_id", job_id);
    frame.set("spec", spec.toJson());
    frame.set("limits", limits.toJson());

    const double grace_ms = config_.wedge_grace_seconds * 1000.0;
    // When the stop was forwarded; unset while the job runs unstopped.
    std::optional<std::chrono::steady_clock::time_point> stop_sent;

    // Reap the dead (or just killed) child and answer with its
    // classified exit and post-mortem.
    auto died = [&](KillContext context) {
        ExitStatus exit_status = reap(context, limits);
        outcome.exit_class = exit_status.cls;
        outcome.worker_died = true;
        outcome.status = "error";
        switch (exit_status.cls) {
        case ExitClass::Wedged:
            if (stop_sent) {
                // The child ignored the forwarded stop: the job ends
                // as a cancellation, with the wedge post-mortem.
                outcome.status = "cancelled";
                outcome.error = "job wedged: ignored stop request (" +
                                stop.reason() + ") for " +
                                std::to_string(config_.wedge_grace_seconds) +
                                "s";
            } else {
                outcome.error = "worker wedged: no heartbeat for " +
                                std::to_string(config_.wedge_grace_seconds) +
                                "s (" + exit_status.detail + ")";
            }
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
        return outcome;
    };

    if (!writeFrame(socket_, frame.dump(), config_.io_timeout_ms)
             .ok())
        return died(KillContext::None);  // crashed between jobs

    auto last_seen = std::chrono::steady_clock::now();
    std::string payload;
    for (;;) {
        auto now = std::chrono::steady_clock::now();
        if (!stop_sent && stop.stopRequested()) {
            // Deadline, disconnect, preemption or shutdown: the child
            // fires its job's token and the ladder unwinds there.
            json::Value msg{json::Object{}};
            msg.set("op", "stop");
            msg.set("serial", std::to_string(serial));
            msg.set("reason", stop.reason());
            if (!writeFrame(socket_, msg.dump(), config_.io_timeout_ms)
                     .ok())
                return died(KillContext::None);
            stop_sent = now;
        }
        // One wedge clock: the wait since the stop once one was sent,
        // heartbeat silence before that.
        if (elapsedMs(stop_sent ? *stop_sent : last_seen, now) >
            grace_ms) {
            (void)::kill(-pid_, SIGKILL);
            (void)::kill(pid_, SIGKILL);
            return died(KillContext::Wedge);
        }
        Result<bool> readable = net::waitReadable(
            socket_, static_cast<int>(config_.poll_slice_ms));
        if (!readable.ok())
            return died(KillContext::None);
        if (!readable.value())
            continue;
        Result<bool> got =
            readFrame(socket_, payload, config_.io_timeout_ms);
        if (!got.ok() || !got.take()) {
            // EOF or torn frame: the child died mid-job. waitpid
            // tells the honest story.
            return died(KillContext::None);
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
            mirrorFrame(msg, job_scope);
        } else if (verb == "store_get") {
            std::optional<std::uint64_t> key = storeFrameKey(msg);
            const json::Value* kind = msg.find("kind");
            guard::EntryKind wanted =
                kind != nullptr && kind->isString() &&
                        kind->asString() ==
                            guard::toString(guard::EntryKind::Compile)
                    ? guard::EntryKind::Compile
                    : guard::EntryKind::Verdict;
            json::Value reply{json::Object{}};
            reply.set("op", "store");
            std::optional<guard::StoreEntry> entry;
            if (key.has_value() && hooks.lookup)
                entry = hooks.lookup(*key, wanted);
            reply.set("hit", entry.has_value());
            if (entry.has_value())
                guard::setEntryJson(reply, *entry);
            if (!writeFrame(socket_, reply.dump(),
                            config_.io_timeout_ms)
                     .ok())
                return died(KillContext::None);
        } else if (verb == "store_put") {
            std::optional<std::uint64_t> key = storeFrameKey(msg);
            Result<guard::StoreEntry> parsed = guard::entryFromJson(msg);
            if (key.has_value() && parsed.ok() && hooks.store)
                hooks.store(*key, parsed.take());
        } else if (verb == "result") {
            mirrorFrame(msg, job_scope);
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

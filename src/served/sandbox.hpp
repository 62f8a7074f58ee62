#ifndef GRAPHITI_SERVED_SANDBOX_HPP
#define GRAPHITI_SERVED_SANDBOX_HPP

/**
 * @file
 * Process isolation for served compile jobs: the daemon runs every
 * job here (docs/service.md, "Process isolation").
 *
 * A WorkerProcess forks one sandboxed child and speaks the existing
 * length-prefixed JSON frames (served/protocol.hpp) over a
 * socketpair. The child applies resource jails derived from the
 * job's VerificationBudget (soft RLIMIT_AS / RLIMIT_CPU), runs
 * core::runJob on a fresh Compiler, and proxies verdict cache
 * traffic to the parent — every real store write stays in the
 * daemon, so a dying child can never tear the store or leave a
 * half-committed verdict.
 *
 * While the job runs, one control loop in the child owns its socket:
 * it sends heartbeats carrying the job scope's whole MetricsRegistry
 * and VerifyProbe progress, takes the parent's stop frames (firing
 * the job's StopToken, so the governed ladder unwinds and reports the
 * rung it still reached), hands store replies to the job, and sends
 * the result the moment the job ends. The result frame carries the
 * final metrics, so the parent's job scope reads exactly what an
 * in-process run would have recorded.
 *
 * The parent classifies every child exit via waitpid into an honest
 * structured outcome: a clean result, a deterministic error, a crash
 * (SIGSEGV/SIGABRT/SIGBUS/...), a resource-jail death (SIGXCPU, the
 * OOM exit sentinel, an unexplained SIGKILL), or a wedge (heartbeat
 * silence, or a stop left unanswered, past the wedge grace →
 * SIGKILL). Crash-class outcomes carry a post-mortem artifact in the
 * faults::failureArtifact mold: exit classification, the last
 * heartbeat snapshot, and the rlimit jail that was in force. Never a
 * hang, never a daemon death.
 *
 * Verdicts are byte-identical sandboxed vs. one-shot: the child runs
 * the identical compile path, and the verdict-store proxy preserves
 * in-process cache semantics (tests/test_sandbox.cpp pins this
 * benchmark by benchmark).
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "guard/governor.hpp"
#include "obs/scope.hpp"
#include "support/cancel.hpp"
#include "support/socket.hpp"

namespace graphiti::served {

/** Exit code the child's new-handler uses when the RLIMIT_AS jail
 * makes an allocation fail: a deterministic OOM sentinel the parent
 * can classify without guessing at SIGABRT causes. */
constexpr int kOomExitCode = 77;

/** False under AddressSanitizer, whose terabytes of shadow address
 * space make any meaningful RLIMIT_AS ceiling fatal at startup; the
 * jail (and the tests driving it) disarm there. */
bool sandboxAddressJailSupported();

/** The resource jail of one job (soft limits set in the child). */
struct WorkerLimits
{
    /** Soft RLIMIT_AS ceiling; 0 = leave inherited. */
    std::uint64_t address_space_bytes = 0;
    /** Soft RLIMIT_CPU allowance *for this job* (the child adds its
     * already-consumed CPU time); 0 = leave inherited. */
    std::uint64_t cpu_seconds = 0;

    obs::json::Value toJson() const;
};

/**
 * Derive a job's jail from its verification budget: address space is
 * a 1 GiB floor plus 2 KiB per budgeted state (full + partial
 * caps) plus 128 MiB for the verifier's one lane (its stack and
 * malloc-arena address reservations), clamped to 4 GiB — generous
 * against honest peak virtual-address use (RLIMIT_AS counts mmap
 * reservations, not RSS, and allocation failures outside operator
 * new surface as SIGSEGV rather than the OOM sentinel), tight
 * against a runaway allocator. CPU time is only jailed when the budget carries a
 * wall-clock deadline: twice the deadline plus 5 s of slack (a
 * deadline-free budget is governed by state caps, which bound work
 * but not wall-clock-to-CPU ratio).
 */
WorkerLimits workerLimits(const guard::VerificationBudget& budget);

/** How one child exit reads after classification. */
enum class ExitClass : std::uint8_t
{
    Clean,      ///< exited 0 (shutdown or protocol-complete)
    Exit,       ///< exited nonzero (tool died politely)
    Crash,      ///< fatal signal: SIGSEGV/SIGABRT/SIGBUS/SIGILL/...
    Resource,   ///< the jail: SIGXCPU, OOM sentinel, stray SIGKILL
    Wedged,     ///< parent killed the group past the wedge grace
};

const char* toString(ExitClass cls);

/** What the parent did to the child before reaping it. */
enum class KillContext : std::uint8_t
{
    None,  ///< the child died on its own
    Wedge, ///< SIGKILLed past the wedge grace
};

/** One classified child exit. */
struct ExitStatus
{
    ExitClass cls = ExitClass::Clean;
    /** Exit code (Exit/Clean) or signal number (Crash/Resource). */
    int code = 0;
    /** Human-readable: "signal SIGSEGV", "exit 7", "cpu rlimit". */
    std::string detail;
};

/**
 * Classify one waitpid status. Pure function — the exit-
 * classification table in tests/test_sandbox.cpp drives it directly.
 * @p context records a kill the parent itself sent (it always wins:
 * a SIGKILL the parent sent is a wedge, not a resource death);
 * @p limits disambiguates jail deaths.
 */
ExitStatus classifyExit(int wait_status, KillContext context,
                        const WorkerLimits& limits);

/** Last heartbeat the parent saw from a child (artifact material). */
struct HeartbeatSnapshot
{
    bool seen = false;
    std::chrono::steady_clock::time_point at{};
    std::int64_t states = 0;
    obs::json::Value progress;
};

/**
 * Build the post-mortem artifact (JSON text, failureArtifact-style)
 * of one dead worker: the classified exit, the last heartbeat and its
 * age, and the rlimit jail that was in force.
 */
std::string crashArtifact(const std::string& job_id,
                          const ExitStatus& exit_status,
                          const HeartbeatSnapshot& last_heartbeat,
                          const WorkerLimits& limits, int pid);

/**
 * Outcome of one isolated job, scheduler-independent (the Scheduler
 * maps it onto its JobOutcome verbatim). Status follows
 * protocol.hpp: "ok" | "error" | "cancelled" | "rejected".
 */
struct SandboxOutcome
{
    std::string status = "error";
    obs::json::Value result;
    std::string error;
    /** Crash post-mortem (JSON text); empty for clean outcomes. */
    std::string artifact;
    /** Breaker shed hint ("rejected" only). */
    double retry_after_ms = 0.0;
    /** Classification of a worker death behind this outcome; Clean
     * when the worker answered normally and is still alive. */
    ExitClass exit_class = ExitClass::Clean;
    /** True when the worker process died producing this outcome —
     * always the child's doing (crash, exit, jail or wedge). A job
     * that unwound on a stop answered normally: not a death. */
    bool worker_died = false;
};

/** Parent-side verdict-store callbacks the child's proxy traffic is
 * answered from (bound to the scheduler's shared store). Both entry
 * kinds, verdicts and compile entries, travel through this one pair. */
struct StoreHooks
{
    std::function<std::optional<guard::StoreEntry>(std::uint64_t,
                                                   guard::EntryKind)>
        lookup;
    std::function<void(std::uint64_t, const guard::StoreEntry&)> store;
};

/**
 * The key of a child's `store_get`/`store_put` frame, accepted only in
 * the exact decimal spelling the child writes (std::to_string of the
 * key). A missing or non-string key, a sign, leading zeros, trailing
 * bytes or an overflow give nullopt: the parent drops such a put and
 * answers such a get with a miss, never a lookup under a guessed key.
 */
std::optional<std::uint64_t> storeFrameKey(const obs::json::Value& frame);

/** Sandbox tuning (shared by every worker of a pool). */
struct SandboxConfig
{
    /** Child heartbeat cadence while a job runs. */
    double heartbeat_period_ms = 50.0;
    /** The one wedge clock: heartbeat silence from a running child,
     * or the wait for its result after a stop was forwarded, before
     * the parent SIGKILLs its group (`graphiti-served
     * --wedge-grace`). */
    double wedge_grace_seconds = 5.0;
    /** Parent poll slice: stop tokens and the wedge clock are checked
     * at this cadence, so a stop reaches the child within it. */
    double poll_slice_ms = 20.0;
    /** Frame IO timeout (handshake, store replies, result frames). */
    int io_timeout_ms = 30000;
    /** Jail override applied to every job; zero fields fall back to
     * the per-job workerLimits() derivation (tests force tiny jails
     * through this). */
    WorkerLimits limits;
    /** CrashPlan text placed in the child's GRAPHITI_CRASH_PLAN;
     * empty = leave the inherited environment alone. */
    std::string crash_plan;
};

/**
 * One sandboxed worker: a forked child in its own process group,
 * warm across jobs, killed and classified on any misbehavior.
 * Thread-compatible, not thread-safe — a pool lane owns one at a
 * time (the WorkerPool serializes checkout).
 */
class WorkerProcess
{
  public:
    explicit WorkerProcess(SandboxConfig config);
    ~WorkerProcess();

    WorkerProcess(const WorkerProcess&) = delete;
    WorkerProcess& operator=(const WorkerProcess&) = delete;

    /**
     * Fork the child and wait for its ready handshake. @p close_fds
     * are parent-side descriptors of *other* workers the child must
     * close, so a sibling holding a duped socketpair end can never
     * mask another child's EOF.
     */
    Result<bool> spawn(const std::vector<int>& close_fds = {});

    /** True while the child process is believed alive. */
    bool alive() const { return pid_ > 0; }
    int pid() const { return pid_; }
    /** Parent-side socket fd (for sibling close lists); -1 if dead. */
    int socketFd() const { return socket_.fd(); }

    /**
     * Run one job in the child and wait for its outcome. Polls
     * @p stop every poll slice; once it fires, the stop and its reason
     * are forwarded to the child, whose job unwinds cooperatively and
     * answers as usual. A child that has not answered a wedge grace
     * after the stop is SIGKILLed: "cancelled" with the wedge
     * artifact. Store traffic is answered through @p hooks; each
     * heartbeat and the result replace @p job_scope's metrics with the
     * child's, so the jobs verb stays live and completion folds the
     * same figures an in-process run records. Any child death is
     * classified into a structured outcome with artifact; after one,
     * alive() is false and the pool respawns.
     */
    SandboxOutcome execute(const std::string& job_id,
                           const JobSpec& spec, const StopToken& stop,
                           obs::Scope* job_scope,
                           const StoreHooks& hooks);

    /** Polite shutdown: a shutdown frame, a bounded wait, then the
     * kill escalation. */
    void shutdown();

    /** SIGKILL the child's process group and reap it. */
    void kill(KillContext context);

  private:
    /** Reap the dead/killed child and classify (waitpid). */
    ExitStatus reap(KillContext context, const WorkerLimits& limits);
    /** Mirror one heartbeat or result frame into the job's scope and
     * probe. */
    void mirrorFrame(const obs::json::Value& frame,
                     obs::Scope* job_scope);

    SandboxConfig config_;
    net::Socket socket_;
    int pid_ = -1;
    std::uint64_t next_serial_ = 1;
    HeartbeatSnapshot last_heartbeat_;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_SANDBOX_HPP

#ifndef GRAPHITI_SERVED_SCHEDULER_HPP
#define GRAPHITI_SERVED_SCHEDULER_HPP

/**
 * @file
 * Job scheduling for the served daemon: admission control with a
 * bounded queue and honest load-shedding, per-client fair-share
 * accounting with StopToken preemption, and per-job deadlines.
 *
 * The policy itself — admit/shed, victim selection — is pure
 * functions over plain counts, unit-tested without any threads; the
 * Scheduler wires them to lanes. Each lane owns one sandboxed child
 * of the WorkerPool and runs every job there, on a fresh Compiler
 * whose verdict traffic is proxied to one shared guard::VerdictStore
 * in this process, so verdicts committed by any worker survive both
 * concurrency and daemon restarts.
 *
 * Degradation is never silent: a shed job gets status "rejected" with
 * a retry_after hint; a deadline, disconnect or preemption is
 * forwarded to the child, whose governed ladder unwinds and reports
 * the rung it still reached; a child that ignores the stop past the
 * wedge grace is SIGKILLed and respawned, and its job is answered
 * "cancelled" with the wedge artifact. A supervisor thread expires
 * queued jobs whose tokens fired before a lane took them.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/job.hpp"
#include "guard/verdict_store.hpp"
#include "obs/scope.hpp"
#include "served/observe.hpp"
#include "served/protocol.hpp"
#include "served/worker_pool.hpp"
#include "support/cancel.hpp"

namespace graphiti::served {

/** Scheduler tuning. */
struct SchedulerConfig
{
    /** Sandboxed worker processes, one dispatch lane each. */
    std::size_t workers = 2;
    /** Jobs waiting beyond the running ones before shedding starts. */
    std::size_t queue_capacity = 8;
    /** Ceiling clamped onto any client-requested deadline; 0 = no
     * ceiling. */
    double max_deadline_seconds = 0.0;
    /** Seconds a child may take to answer a stopped job — and may
     * stay heartbeat-silent while running one — before it is
     * SIGKILLed as wedged (overrides pool.sandbox's value). */
    double wedge_grace_seconds = 5.0;
    /** Supervisor scan period. */
    double supervisor_period_ms = 25.0;
    /** Per-job cost estimate behind retry_after hints. */
    double estimated_job_ms = 50.0;
    /** Worker-pool tuning (sandbox jails, breaker thresholds);
     * workers, observer and the wedge grace are filled from this
     * config. See docs/service.md, "Process isolation". */
    WorkerPoolConfig pool;
    /** Verdict-store shape; dir empty = in-memory only. */
    guard::VerdictStoreConfig store;
    /** The service observability plane: scheduler counters land in
     * its scope, every job gets journal events and spans correlated
     * by job_id, and each finished job's private scope is folded into
     * the service-wide one. Null = the scheduler makes its own (the
     * byte-identical-verdict contract holds either way). */
    std::shared_ptr<ServiceObserver> observer;
};

/** Inputs of one admission decision (plain counts — pure policy). */
struct AdmissionState
{
    std::size_t queued = 0;          ///< jobs waiting (not running)
    std::size_t queue_capacity = 0;  ///< shedding threshold
    std::size_t running = 0;         ///< jobs currently on workers
    std::size_t workers = 0;
    /** Estimated per-job service time, for the retry_after hint. */
    double estimated_job_ms = 50.0;
};

/** Outcome of one admission decision. */
struct AdmissionDecision
{
    bool admit = true;
    std::string reason;
    double retry_after_ms = 0.0;
};

/**
 * Admit or shed one job. Sheds exactly when the queue is full; the
 * retry_after hint scales with how much queued work each worker lane
 * must drain first, so clients under a burst spread their retries
 * instead of stampeding the moment one slot frees.
 */
AdmissionDecision admitJob(const AdmissionState& state);

/**
 * Fair-share victim selection: with @p workers lanes and the given
 * per-client running counts, a client exceeding ceil(workers /
 * distinct_clients) lanes while another client's work waits is over
 * its share; the largest over-share client is the victim (ties break
 * to the lexicographically smallest name, keeping the choice
 * deterministic). Empty string = nobody to preempt.
 */
std::string pickPreemptionVictim(
    const std::map<std::string, std::size_t>& running_per_client,
    const std::vector<std::string>& waiting_clients,
    std::size_t workers);

/** Final state of one scheduled job. */
struct JobOutcome
{
    /** Correlation id (caller-supplied or minted at admission). */
    std::string job_id;
    /** "ok", "error", "rejected" or "cancelled" (protocol.hpp). */
    std::string status = "error";
    obs::json::Value result;
    std::string error;
    double retry_after_ms = 0.0;
    /** Wedged-job post-mortem (JSON text); empty otherwise. */
    std::string artifact;
};

/** Aggregate scheduler counters (also mirrored to obs metrics). */
struct SchedulerStats
{
    std::size_t accepted = 0;
    std::size_t shed = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t preempted = 0;
    std::size_t wedged = 0;
    /** Cancels caused by the client vanishing mid-request. */
    std::size_t disconnect_cancelled = 0;

    obs::json::Value toJson() const;
};

/** The job scheduler. */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerConfig config);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /** Fork the worker pool, boot lanes and supervisor; loads the
     * verdict store when a persistence dir is configured (corrupt
     * shards are skipped and counted, never fatal). */
    Result<bool> start();

    /**
     * Graceful shutdown: shed new submissions, stop running jobs (each
     * child unwinds or is killed past the wedge grace), join lanes and
     * supervisor, shut the pool down. Safe to call twice.
     */
    void stop();

    /**
     * Abrupt shutdown for crash drills: like stop() but never
     * persists anything beyond what store() already committed
     * write-through. What this loses is exactly what SIGKILL loses —
     * nothing (the crash-recovery tests pin that down).
     */
    void kill();

    /**
     * Submit one job and wait for its outcome. @p client is the
     * fair-share identity; @p deadline_seconds arms a per-job
     * deadline (clamped to max_deadline_seconds); @p abandoned is
     * polled while waiting — when it returns true (client
     * disconnected) the job's token is stopped and the wait continues
     * until the child answers (or is killed past the wedge grace).
     * @p job_id is the correlation id; empty mints
     * "job-<serial>" at admission. The outcome echoes it either way.
     */
    JobOutcome submitAndWait(const std::string& client, JobSpec spec,
                             double deadline_seconds = 0.0,
                             const std::function<bool()>& abandoned = {},
                             const std::string& job_id = {});

    /**
     * The live job table (the `jobs` verb): one entry per queued or
     * running job — job_id, client, kind, phase, age, queue wait,
     * deadline remaining, stop state, and the cooperative progress
     * counters (states explored, verification rungs) read off the
     * job's private scope. Functional with or without an observer.
     */
    obs::json::Value jobsJson() const;

    /**
     * Liveness summary (the `health` verb): configured vs alive
     * worker lanes, queue depth/capacity, supervisor heartbeat age,
     * whether submissions are accepted, and the worker pool.
     */
    obs::json::Value healthJson() const;

    /** The shared crash-safe verdict store. */
    const std::shared_ptr<guard::VerdictStore>& store() const
    {
        return store_;
    }

    /** The sandboxed worker pool every job runs in. */
    const WorkerPool& workerPool() const { return *pool_; }

    SchedulerStats stats() const;
    const SchedulerConfig& config() const { return config_; }

  private:
    struct Job
    {
        std::uint64_t serial = 0;
        std::string job_id;  // correlation id (client's or minted)
        std::string client;
        JobSpec spec;
        StopToken stop;  // always armed (manual or deadline)
        bool running = false;
        bool done = false;
        /** Admission / dequeue timestamps for queue-wait vs execute
         * attribution. */
        std::chrono::steady_clock::time_point enqueued_at{};
        std::chrono::steady_clock::time_point started_at{};
        bool started = false;
        /** Armed deadline, for the jobs verb's remaining-time column. */
        bool has_deadline = false;
        std::chrono::steady_clock::time_point deadline_at{};
        /** Private scope, set at admission and mirrored from the
         * child's frames: the jobs verb reads live progress counters
         * off it; on completion it folds into the observer's
         * service-wide scope. */
        std::shared_ptr<obs::Scope> job_scope;
        JobOutcome outcome;
    };
    using JobPtr = std::shared_ptr<Job>;

    void workerLoop();
    void supervisorLoop();
    /** Complete @p job exactly once (lane, supervisor or shutdown —
     * first wins); returns whether this call won. Takes the scheduler
     * lock. */
    bool completeJob(const JobPtr& job, JobOutcome outcome);
    /** completeJob with the scheduler lock already held. */
    bool completeJobLocked(const JobPtr& job, JobOutcome outcome);
    void enforceFairShareLocked();

    SchedulerConfig config_;
    std::shared_ptr<guard::VerdictStore> store_;
    std::unique_ptr<WorkerPool> pool_;

    mutable std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable job_done_;
    std::deque<JobPtr> queue_;
    std::vector<JobPtr> running_;
    std::vector<std::thread> workers_;
    std::thread supervisor_;
    std::uint64_t next_serial_ = 1;
    bool started_ = false;
    bool stopping_ = false;
    SchedulerStats stats_;
    /** Worker lanes currently inside workerLoop (health verb). */
    std::size_t workers_alive_ = 0;
    std::chrono::steady_clock::time_point supervisor_heartbeat_{};
    bool supervisor_seen_ = false;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_SCHEDULER_HPP

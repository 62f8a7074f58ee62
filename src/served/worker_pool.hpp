#ifndef GRAPHITI_SERVED_WORKER_POOL_HPP
#define GRAPHITI_SERVED_WORKER_POOL_HPP

/**
 * @file
 * Warm prefork pool of sandboxed workers (docs/service.md, "Process
 * isolation").
 *
 * Every Scheduler lane dispatches its jobs here. The pool preforks N
 * warm WorkerProcess children (`--workers N`), checks one out per
 * job, and respawns any that die — a crashing compile costs one
 * respawn, never a daemon.
 *
 * Crash-loop circuit breaker: >= K worker deaths inside a sliding
 * T-second window trip the breaker. While open, execute() sheds with
 * "rejected" and a retry_after_ms equal to the remaining cooldown
 * instead of forking futilely into whatever is killing workers
 * (a poisoned store, a kernel limit, a bad deploy); health reports
 * the pool degraded. Only deaths the child caused count (crash, exit,
 * jail, wedge): a job that unwound on a stop answered, so a burst of
 * deadlines or disconnects never opens the breaker. The cooldown
 * doubles per consecutive trip
 * (support/backoff.hpp shape, un-jittered so tests can pin it) and a
 * job a child answers closes the loop and clears the death window.
 */

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "served/observe.hpp"
#include "served/sandbox.hpp"
#include "support/backoff.hpp"

namespace graphiti::served {

/** Pool shape. */
struct WorkerPoolConfig
{
    /** Warm sandboxed children (and dispatch concurrency). */
    std::size_t workers = 2;
    /** Shared sandbox tuning (jails, heartbeats, crash plan seam). */
    SandboxConfig sandbox;
    /** Worker deaths inside the window that trip the breaker. */
    std::size_t breaker_deaths = 5;
    /** Sliding death-counting window. */
    double breaker_window_seconds = 10.0;
    /** Cooldown shape: base doubles per consecutive trip up to cap
     * (max_attempts is unused here — the breaker never gives up). */
    BackoffPolicy breaker_backoff{8, 250.0, 10000.0};
    /** Journal events (worker spawn/respawn/crash/breaker) and pool
     * counters; null = the pool makes its own. */
    std::shared_ptr<ServiceObserver> observer;
};

/** Pool counters (stats/health). */
struct WorkerPoolStats
{
    std::size_t configured = 0;
    std::size_t live = 0;
    std::size_t busy = 0;
    std::size_t spawned = 0;
    /** Spawns replacing a dead worker (spawned - initial prefork). */
    std::size_t respawned = 0;
    /** Worker deaths while executing (crash, exit, jail, wedge). */
    std::size_t crashes = 0;
    std::map<std::string, std::size_t> crashes_by_class;
    std::size_t breaker_trips = 0;
    bool breaker_open = false;
    double breaker_remaining_ms = 0.0;

    obs::json::Value toJson() const;
};

/** The warm prefork pool. */
class WorkerPool
{
  public:
    WorkerPool(WorkerPoolConfig config, StoreHooks hooks);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Prefork the warm children. Fails if any initial spawn fails. */
    Result<bool> start();

    /** Shut every worker down (polite frame, then the kill
     * escalation). Safe to call twice. */
    void stop();

    /**
     * Run one job on a checked-out worker. Sheds with "rejected" +
     * retry_after_ms while the breaker is open; otherwise respawns a
     * dead slot if needed, dispatches, and records any death (class
     * counters, breaker window, journal events). The child's metrics
     * are mirrored into @p job_scope.
     */
    SandboxOutcome execute(const std::string& job_id,
                           const JobSpec& spec, const StopToken& stop,
                           obs::Scope* job_scope);

    /** Replace the crash-plan seam for future (re)spawns — the test
     * hook that ends a crash storm without touching the environment
     * of a live daemon. */
    void setCrashPlan(const std::string& plan);

    WorkerPoolStats stats() const;
    /** stats() as the `health`/`stats` verbs embed it. */
    obs::json::Value healthJson() const;
    /** True while the breaker holds submissions off. */
    bool breakerOpen() const;

  private:
    struct Slot
    {
        std::unique_ptr<WorkerProcess> worker;
        bool busy = false;
    };

    /** Spawn (or respawn) @p slot's worker; counts and records.
     * Caller holds mutex_. */
    Result<bool> spawnSlotLocked(Slot& slot, bool is_respawn);
    /** Record one worker death; trips the breaker past the
     * threshold. Caller holds mutex_. */
    void recordDeathLocked(const std::string& cls,
                           const std::string& job_id);
    /** Remaining cooldown; <= 0 when closed. Caller holds mutex_. */
    double breakerRemainingMsLocked(
        std::chrono::steady_clock::time_point now) const;

    WorkerPoolConfig config_;
    StoreHooks hooks_;

    mutable std::mutex mutex_;
    std::condition_variable slot_free_;
    std::vector<Slot> slots_;
    bool started_ = false;
    bool stopping_ = false;

    std::size_t spawned_ = 0;
    std::size_t respawned_ = 0;
    std::size_t crashes_ = 0;
    std::map<std::string, std::size_t> crashes_by_class_;
    /** Death timestamps inside the breaker window. */
    std::deque<std::chrono::steady_clock::time_point> deaths_;
    std::size_t breaker_trips_ = 0;
    /** Trips since a child last answered (cooldown doubling). */
    std::size_t consecutive_trips_ = 0;
    std::chrono::steady_clock::time_point breaker_until_{};
    bool breaker_armed_ = false;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_WORKER_POOL_HPP

#ifndef GRAPHITI_SERVED_DAEMON_HPP
#define GRAPHITI_SERVED_DAEMON_HPP

/**
 * @file
 * The compile-service daemon (docs/service.md): a unix-domain
 * listener speaking the served frame protocol, one connection thread
 * per client, all jobs funneled through one Scheduler and one
 * crash-safe VerdictStore.
 *
 * A connection is a loop of request frames; malformed frames and
 * malformed requests get structured error responses where a request
 * id is recoverable, and drop the connection where it is not —
 * never the daemon. Disconnects cancel the in-flight job's StopToken,
 * so a vanished client cannot pin a worker.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "served/scheduler.hpp"
#include "support/socket.hpp"

namespace graphiti::served {

/** Daemon configuration. */
struct DaemonConfig
{
    /** Unix-domain socket path (required). */
    std::string socket_path;
    /** Per-read/write socket timeout. */
    int io_timeout_ms = 30000;
    SchedulerConfig scheduler;
};

/** The daemon. */
class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Bind the listener, boot the scheduler, start serving. */
    Result<bool> start();

    /** Shutdown: close the listener, cancel in-flight jobs, join every
     * connection. There is no final persistence pass — the verdict
     * store commits write-through. Safe to call twice. */
    void stop();

    const std::string& socketPath() const
    {
        return config_.socket_path;
    }

    Scheduler& scheduler() { return *scheduler_; }
    const Scheduler& scheduler() const { return *scheduler_; }

    /** The observability plane. Always non-null: the scheduler
     * creates one when the config carries none, so the introspection
     * verbs answer even for callers that never thought about
     * observation. */
    const std::shared_ptr<ServiceObserver>& observer() const
    {
        return scheduler_->config().observer;
    }

    /** Connections accepted since start. */
    std::size_t connectionsAccepted() const
    {
        return connections_accepted_.load();
    }

    /**
     * The `stats` verb payload: uptime, connection counters
     * (malformed / oversize frames, clean EOFs, bad requests),
     * scheduler and store counters, per-verb latency split, and the
     * service-wide metrics snapshot.
     */
    obs::json::Value statsJson() const;

    /** The `jobs` verb payload: the scheduler's live job table. */
    obs::json::Value jobsJson() const;

    /** The `health` verb payload: lane liveness, store shard status,
     * listener address, uptime. */
    obs::json::Value healthJson() const;

    /** Dump the journal to its configured path (SIGUSR1 handler in
     * the daemon tool; tests call it directly). */
    Result<bool> dumpJournal() const;

  private:
    void acceptLoop(net::Socket listener);
    void serveConnection(net::Socket socket, std::uint64_t conn_id);
    /** Answer a read-only introspection verb without touching the
     * scheduler queue (so `stats` works under full load or wedge). */
    obs::json::Value introspect(const std::string& kind) const;

    DaemonConfig config_;
    std::unique_ptr<Scheduler> scheduler_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> next_conn_id_{1};
    std::atomic<std::size_t> connections_accepted_{0};
    /** Dropped-on-the-floor-no-more connection counters. */
    std::atomic<std::size_t> malformed_frames_{0};
    std::atomic<std::size_t> oversize_frames_{0};
    std::atomic<std::size_t> clean_eofs_{0};
    std::atomic<std::size_t> malformed_requests_{0};
    std::mutex conn_mutex_;
    std::vector<std::thread> conn_threads_;
    std::thread accept_thread_;
    bool started_ = false;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_DAEMON_HPP

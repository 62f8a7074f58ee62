#ifndef GRAPHITI_SERVED_DAEMON_HPP
#define GRAPHITI_SERVED_DAEMON_HPP

/**
 * @file
 * The compile-service daemon (docs/service.md): a unix-domain
 * listener (plus an optional loopback TCP listener) speaking the
 * served frame protocol, one connection thread per client, all jobs
 * funneled through one Scheduler and one crash-safe VerdictStore.
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
    /** Loopback TCP port: -1 = no TCP listener, 0 = ephemeral. */
    int tcp_port = -1;
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

    /** Bind listeners, boot the scheduler, start serving. */
    Result<bool> start();

    /** Graceful shutdown: close listeners, cancel in-flight jobs,
     * join every connection. Safe to call twice. */
    void stop();

    /**
     * Crash drill: shut down without any final persistence pass, as
     * SIGKILL would. Everything the verdict store committed
     * write-through survives; nothing else is supposed to.
     */
    void kill();

    /** The TCP port actually bound (after start, when enabled). */
    std::uint16_t tcpPort() const { return tcp_port_; }
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
     * listener addresses, uptime. */
    obs::json::Value healthJson() const;

    /** Dump the journal to its configured path (SIGUSR1 handler in
     * the daemon tool; tests call it directly). */
    Result<bool> dumpJournal() const;

  private:
    void acceptLoop(net::Socket listener);
    void serveConnection(net::Socket socket, std::uint64_t conn_id);
    void shutdown(bool graceful);
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
    std::uint16_t tcp_port_ = 0;
    std::vector<std::thread> accept_threads_;
    std::mutex conn_mutex_;
    std::vector<std::thread> conn_threads_;
    bool started_ = false;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_DAEMON_HPP

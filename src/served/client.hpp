#ifndef GRAPHITI_SERVED_CLIENT_HPP
#define GRAPHITI_SERVED_CLIENT_HPP

/**
 * @file
 * The served client: connects to the daemon (unix socket or loopback
 * TCP), sends one framed request at a time, and retries transport
 * failures and shed ("rejected") responses with full-jitter
 * exponential backoff, honoring the daemon's retry_after hints.
 *
 * Deterministic "error" responses are never retried — the daemon
 * guarantees the identical request would fail identically. Retry
 * draws come from a seeded splitmix Rng, so a seeded client replays
 * the identical schedule (the served tests pin that down).
 */

#include <cstdint>
#include <string>

#include "core/job.hpp"
#include "served/protocol.hpp"
#include "support/backoff.hpp"

namespace graphiti::served {

/** Client configuration. */
struct ClientConfig
{
    /** Unix-domain socket path; empty = use tcp_port. */
    std::string socket_path;
    /** Loopback TCP port (used when socket_path is empty). */
    int tcp_port = -1;
    /** Per-read/write socket timeout. */
    int io_timeout_ms = 30000;
    /** Retry shape for transport failures and shed responses. */
    BackoffPolicy backoff;
    /** Seed of the jitter Rng. */
    std::uint64_t seed = 0x73657276656421ULL;
    /** Sleep between retries (tests disable to stay fast). */
    bool sleep_between_retries = true;
};

/** Aggregate client-side retry accounting. */
struct ClientStats
{
    std::size_t requests = 0;
    std::size_t retries = 0;
    std::size_t sheds_seen = 0;
    std::size_t transport_failures = 0;
};

/** The served client (one request in flight at a time). */
class Client
{
  public:
    explicit Client(ClientConfig config);

    /**
     * Run @p spec on the daemon: connect (reusing the connection
     * across calls when the daemon kept it open), frame, send, await
     * the response. Shed responses and transport failures are retried
     * up to the backoff policy's attempt cap; the final failure is
     * returned as an error. An "error"/"cancelled" response is
     * returned as a JobResponse, not an error — the transport worked.
     *
     * @p job_id is the correlation id; empty mints one from the
     * client's seeded Rng. Either way the SAME id rides every retry
     * attempt of this logical request, so the daemon's journal
     * stitches a shed-then-resubmit sequence into one story.
     */
    Result<JobResponse> request(const JobSpec& spec,
                                double deadline_seconds = 0.0,
                                const std::string& job_id = {});

    /** request() + unwrap: the "result" payload of an ok response,
     * an error otherwise. */
    Result<obs::json::Value> call(const JobSpec& spec,
                                  double deadline_seconds = 0.0);

    /** Liveness probe. */
    Result<bool> ping();

    /** Introspection verbs (docs/service_observability.md): the
     * daemon's stats / live job table / health payloads. */
    Result<obs::json::Value> serviceStats();
    Result<obs::json::Value> serviceJobs();
    Result<obs::json::Value> serviceHealth();

    /** The correlation id the last request() carried. */
    const std::string& lastJobId() const { return last_job_id_; }

    const ClientStats& stats() const { return stats_; }

    /** Drop the cached connection (next request reconnects). */
    void disconnect();

  private:
    Result<net::Socket> connect();
    Result<JobResponse> requestOnce(const std::string& payload);

    /** Mint a correlation id from the seeded Rng. */
    std::string mintJobId();
    Result<obs::json::Value> introspect(const char* kind);

    ClientConfig config_;
    Rng rng_;
    net::Socket socket_;
    std::uint64_t next_id_ = 1;
    ClientStats stats_;
    std::string last_job_id_;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_CLIENT_HPP

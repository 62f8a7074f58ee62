#ifndef GRAPHITI_SERVED_OBSERVE_HPP
#define GRAPHITI_SERVED_OBSERVE_HPP

/**
 * @file
 * The service observability plane (docs/service_observability.md):
 * one ServiceObserver bundles everything the daemon can be asked
 * about at runtime —
 *
 *   - a service-wide obs::Scope (metrics registry; each finished
 *     job's private scope is folded into it),
 *   - an obs::Journal: structured events correlated by job id
 *     (mirrored to a JSON-lines file, dumped as the post-mortem) and
 *     per-job queue-wait / execute spans on the same timeline, one
 *     track per correlation id, optionally forwarded to a trace sink
 *     for one service-level trace across concurrent jobs,
 *   - per-verb latency reservoirs split into queue-wait vs execute,
 *     keyed by JobSpec kind so ping traffic cannot mask compile p99.
 *
 * The scheduler and worker pool always hold an observer (they make
 * their own when none is configured), so every emission site is one
 * unconditional call.
 */

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/journal.hpp"
#include "obs/latency.hpp"
#include "obs/scope.hpp"

namespace graphiti::served {

/** Per-verb accounting: outcome counts + split latency windows. */
struct VerbStats
{
    std::size_t requests = 0;
    std::size_t ok = 0;
    std::size_t errors = 0;
    std::size_t shed = 0;
    std::size_t cancelled = 0;
    obs::LatencyReservoir queue_wait{1024};
    obs::LatencyReservoir execute{1024};

    /** {requests, ok, errors, shed, cancelled, queue_wait: {...},
     * execute: {...}}. */
    obs::json::Value toJson() const;
};

/** Everything observable about one running service. */
class ServiceObserver
{
  public:
    /** Journal sizes: the newest events a dump writes, then the
     * event and span lanes' capacities. */
    explicit ServiceObserver(std::size_t dump_events = 256,
                             std::size_t event_capacity = 1024,
                             std::size_t span_capacity = 2048);

    obs::Scope& scope() { return scope_; }
    const obs::Scope& scope() const { return scope_; }

    obs::Journal& journal() { return journal_; }
    obs::SpanTracker& spans() { return journal_.spans(); }

    /** Journal one event; @p fields are key/value pairs. */
    template <typename... Fields>
    void event(obs::LogLevel level, const std::string& job_id,
               const char* name, Fields&&... fields)
    {
        journal_.event(level, job_id, name,
                       obs::eventFields(std::forward<Fields>(fields)...));
    }

    /** Account one finished request under its verb. @p status is the
     * wire status ("ok" / "error" / "rejected" / "cancelled"). */
    void recordVerb(const std::string& kind, const std::string& status,
                    double queue_wait_ms, double execute_ms);

    /** {kind: VerbStats...} for every verb seen so far. */
    obs::json::Value verbsJson() const;

    double uptimeSeconds() const;

  private:
    obs::Scope scope_;
    obs::Journal journal_;
    mutable std::mutex verbs_mutex_;
    std::map<std::string, VerbStats> verbs_;
};

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_OBSERVE_HPP

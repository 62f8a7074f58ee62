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
 *   - a structured obs::Logger (JSON-lines, correlation ids),
 *   - an obs::SpanTracker (per-job queue-wait / execute spans on a
 *     shared timeline, one track per correlation id, optionally
 *     forwarded to a PerfettoTraceSink for one service-level trace
 *     across concurrent jobs),
 *   - an obs::FlightRecorder (bounded post-mortem ring),
 *   - per-verb latency reservoirs split into queue-wait vs execute,
 *     keyed by JobSpec kind so ping traffic cannot mask compile p99.
 *
 * Emission call sites in the scheduler and daemon go through the
 * GRAPHITI_SVC_* macros, which skip the record when no observer is
 * attached.
 */

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "obs/log.hpp"
#include "obs/scope.hpp"
#include "obs/span.hpp"

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
    explicit ServiceObserver(std::size_t flight_capacity = 256,
                             std::size_t log_capacity = 1024,
                             std::size_t span_capacity = 2048);

    obs::Scope& scope() { return *scope_; }
    const obs::Scope& scope() const { return *scope_; }
    const std::shared_ptr<obs::Scope>& scopePtr() const
    {
        return scope_;
    }

    obs::Logger& log() { return log_; }
    obs::SpanTracker& spans() { return spans_; }
    obs::FlightRecorder& flight() { return flight_; }
    const obs::FlightRecorder& flight() const { return flight_; }

    /** Forward spans to @p sink (the tracker serializes access) and
     * keep a handle so the daemon tool can write the trace file. */
    void attachTrace(std::shared_ptr<obs::PerfettoTraceSink> sink);
    obs::PerfettoTraceSink* trace() const { return trace_.get(); }

    /** Account one finished request under its verb. @p status is the
     * wire status ("ok" / "error" / "rejected" / "cancelled"). */
    void recordVerb(const std::string& kind, const std::string& status,
                    double queue_wait_ms, double execute_ms);

    /** {kind: VerbStats...} for every verb seen so far. */
    obs::json::Value verbsJson() const;

    double uptimeSeconds() const;

  private:
    std::shared_ptr<obs::Scope> scope_;
    obs::Logger log_;
    obs::SpanTracker spans_;
    obs::FlightRecorder flight_;
    std::shared_ptr<obs::PerfettoTraceSink> trace_;
    mutable std::mutex verbs_mutex_;
    std::map<std::string, VerbStats> verbs_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace graphiti::served

/** Log one structured service event (fields via obs::logFields). */
#define GRAPHITI_SVC_LOG(observer, level, job_id, event, ...)          \
    do {                                                               \
        ::graphiti::served::ServiceObserver* svc_obs_ = (observer);    \
        if (svc_obs_ != nullptr)                                       \
            svc_obs_->log().log((level), (job_id), (event),            \
                                ::graphiti::obs::logFields(            \
                                    __VA_ARGS__));                     \
    } while (0)

/** Append one flight-recorder entry. */
#define GRAPHITI_SVC_FLIGHT(observer, kind, ...)                       \
    do {                                                               \
        ::graphiti::served::ServiceObserver* svc_obs_ = (observer);    \
        if (svc_obs_ != nullptr)                                       \
            svc_obs_->flight().record(                                 \
                (kind),                                                \
                ::graphiti::obs::logFields(__VA_ARGS__));              \
    } while (0)

#endif  // GRAPHITI_SERVED_OBSERVE_HPP

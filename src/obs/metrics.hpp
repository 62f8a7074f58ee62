#ifndef GRAPHITI_OBS_METRICS_HPP
#define GRAPHITI_OBS_METRICS_HPP

/**
 * @file
 * A registry of named metrics: monotonically increasing counters,
 * last-value gauges, and duration histograms fed by RAII scoped
 * timers. Thread-safe (one mutex; the hot simulator loop batches its
 * updates, so registry calls stay off per-cycle paths), snapshottable
 * as JSON.
 *
 * Naming convention: dotted lowercase paths, `<layer>.<metric>` —
 * e.g. `sim.fires`, `egraph.applications`, `refine.states`,
 * `stress.plans`, `rewrite.rule.<rule-name>`. See
 * docs/observability.md for the full vocabulary.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "obs/json.hpp"

namespace graphiti::obs {

class MetricsRegistry;

/**
 * RAII timer: records one histogram observation on destruction (or on
 * an early stop()). A default-constructed timer is inert — the
 * disabled-instrumentation macros expand to one.
 */
class ScopedTimer
{
  public:
    ScopedTimer() = default;
    ScopedTimer(MetricsRegistry* registry, std::string name);
    ~ScopedTimer();

    ScopedTimer(ScopedTimer&& other) noexcept { *this = std::move(other); }
    ScopedTimer& operator=(ScopedTimer&& other) noexcept;
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /** Record now instead of at scope exit; returns elapsed seconds. */
    double stop();

  private:
    MetricsRegistry* registry_ = nullptr;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

/** Aggregate of one duration histogram. */
struct TimerStats
{
    std::uint64_t count = 0;
    double total_seconds = 0.0;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
};

/** The registry. */
class MetricsRegistry
{
  public:
    /** Increment counter @p name by @p delta (creates at zero). */
    void add(const std::string& name, std::int64_t delta = 1);

    /** Set gauge @p name to @p value. */
    void set(const std::string& name, double value);

    /** Raise gauge @p name to @p value if larger (high-water marks). */
    void setMax(const std::string& name, double value);

    /** Record one duration observation under @p name. */
    void observe(const std::string& name, double seconds);

    /** Start a scoped timer feeding observe(@p name). */
    ScopedTimer timer(std::string name);

    /** Current counter value; 0 when never touched. */
    std::int64_t counter(const std::string& name) const;

    /** Current gauge value; nullopt when never set. */
    std::optional<double> gauge(const std::string& name) const;

    /** Histogram aggregate; nullopt when never observed. */
    std::optional<TimerStats> timerStats(const std::string& name) const;

    /**
     * Fold @p other into this registry: counters add, timer
     * histograms merge, gauges take @p other's value when set. The
     * served scheduler folds each finished job's private scope into
     * the service-wide one this way.
     */
    void mergeFrom(const MetricsRegistry& other);

    /**
     * Replace every metric with the contents of a toJson() snapshot
     * (fields that are not numbers are skipped). The served scheduler
     * mirrors a sandboxed job's scope this way: each frame from the
     * child carries the whole registry, so a later snapshot never
     * reads lower than an earlier one.
     */
    void replaceWith(const json::Value& snapshot);

    /** Drop every metric. */
    void clear();

    /**
     * Snapshot as {"counters": {...}, "gauges": {...},
     * "timers": {name: {count, total_seconds, min_seconds,
     * max_seconds}}}.
     */
    json::Value toJson() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::int64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, TimerStats> timers_;
};

}  // namespace graphiti::obs

#endif  // GRAPHITI_OBS_METRICS_HPP

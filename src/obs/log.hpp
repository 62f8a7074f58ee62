#ifndef GRAPHITI_OBS_LOG_HPP
#define GRAPHITI_OBS_LOG_HPP

/**
 * @file
 * Structured service logging: one JSON-lines record per event, with a
 * level, a monotonic timestamp (milliseconds since the logger was
 * built — wall clocks jump, service timelines must not), a correlation
 * id (`job_id`, minted at admission and threaded through every layer a
 * job touches), an event name and free-form fields.
 *
 * The logger keeps a bounded in-memory ring (the `stats` verb and the
 * flight recorder read it back) and optionally appends each record to
 * a JSON-lines file as it happens. Thread-safe: the served daemon logs
 * from worker lanes, the supervisor and connection threads at once.
 *
 * Call sites in the service hot path go through the
 * GRAPHITI_SVC_* macros (served/observe.hpp), which skip the record
 * when no observer is attached.
 */

#include <chrono>
#include <cstddef>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support/result.hpp"

namespace graphiti::obs {

/** Record severity, least to most urgent. */
enum class LogLevel
{
    Debug,
    Info,
    Warn,
    Error,
};

const char* toString(LogLevel level);

/** One structured log record. */
struct LogRecord
{
    LogLevel level = LogLevel::Info;
    /** Milliseconds since the logger's epoch (monotonic clock). */
    double t_ms = 0.0;
    /** Correlation id; empty for service-level (non-job) events. */
    std::string job_id;
    /** Dotted event name, e.g. "job.admit", "job.shed". */
    std::string event;
    /** Free-form structured context (a JSON object or null). */
    json::Value fields;

    /** {t_ms, level, event, job_id?, fields?}. */
    json::Value toJson() const;
};

/** Build a fields object inline: logFields("key", v, "key2", v2). */
inline void addLogFields(json::Value&) {}

template <typename V, typename... Rest>
void
addLogFields(json::Value& out, const char* key, V&& value,
             Rest&&... rest)
{
    out.set(key, json::Value(std::forward<V>(value)));
    addLogFields(out, std::forward<Rest>(rest)...);
}

template <typename... Args>
json::Value
logFields(Args&&... args)
{
    json::Value out{json::Object{}};
    addLogFields(out, std::forward<Args>(args)...);
    return out;
}

/** Bounded, thread-safe structured logger. */
class Logger
{
  public:
    explicit Logger(std::size_t capacity = 1024);

    /** Append one record (stamped with the monotonic clock now). */
    void log(LogLevel level, const std::string& job_id,
             const std::string& event, json::Value fields = {});

    /** Drop records below @p level (default keeps everything). */
    void setMinLevel(LogLevel level);

    /**
     * Mirror every accepted record to @p path as JSON lines (append;
     * the file is created now so a crash leaves at least an empty
     * log). Thread-safe with log().
     */
    Result<bool> openFile(const std::string& path);

    /** Records ever accepted (including those the ring evicted). */
    std::size_t recorded() const;
    /** Records evicted from the ring (still in the file, if any). */
    std::size_t dropped() const;

    /** The newest @p n records, oldest first. */
    std::vector<LogRecord> tail(std::size_t n) const;

    /** {capacity, recorded, dropped, records: [...]}. */
    json::Value toJson() const;

    /** Milliseconds since this logger's epoch (monotonic). */
    double nowMs() const;

  private:
    mutable std::mutex mutex_;
    std::deque<LogRecord> ring_;
    std::size_t capacity_;
    std::size_t recorded_ = 0;
    std::size_t dropped_ = 0;
    LogLevel min_level_ = LogLevel::Debug;
    std::ofstream file_;
    bool file_open_ = false;
    std::chrono::steady_clock::time_point epoch_;
};

}  // namespace graphiti::obs

#endif  // GRAPHITI_OBS_LOG_HPP

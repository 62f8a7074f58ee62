#ifndef GRAPHITI_OBS_JOURNAL_HPP
#define GRAPHITI_OBS_JOURNAL_HPP

/**
 * @file
 * The service journal: one bounded, thread-safe record of what a
 * long-running service did (docs/service_observability.md).
 *
 * One lock and one monotonic epoch (milliseconds since the journal
 * was built — wall clocks jump, service timelines must not) guard two
 * lanes, each with its own capacity and recorded/dropped counters, so
 * a burst on one lane never evicts the other's records:
 *
 *   - events {t_ms, level, job_id, event, fields}, stamped under the
 *     lock so the ring, the JSON-lines mirror and the dump are in time
 *     order; `job_id` is the correlation id minted at admission;
 *   - spans {track, name, start_ms, duration_ms}, forwarded under the
 *     same lock to an attached TraceSink. PerfettoTraceSink is
 *     single-threaded by design; the journal serializes the daemon's
 *     threads onto it, so one trace stitches every concurrent job,
 *     each on a track keyed by its correlation id (milliseconds as
 *     the sink's "cycle" unit).
 *
 * A dump writes the newest events atomically, on demand (SIGUSR1, a
 * wedge) or best-effort from the crash hooks of installCrashDump().
 */

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "support/result.hpp"

namespace graphiti::obs {

/** Event severity, least to most urgent. */
enum class LogLevel
{
    Debug,
    Info,
    Warn,
    Error,
};

const char* toString(LogLevel level);

/** One journal event. */
struct EventRecord
{
    /** Milliseconds since the journal's epoch (monotonic). */
    double t_ms = 0.0;
    LogLevel level = LogLevel::Info;
    /** Correlation id; empty for service-level (non-job) events. */
    std::string job_id;
    /** Dotted event name, e.g. "job.admit", "worker.crash". */
    std::string event;
    /** Free-form structured context (a JSON object or null). */
    json::Value fields;

    /** {t_ms, level, event, job_id?, fields?}. */
    json::Value toJson() const;
};

/** One completed span. */
struct SpanRecord
{
    /** Track name; the served scheduler uses the job's correlation
     * id, so every phase of one job shares a row. */
    std::string track;
    std::string name;
    double start_ms = 0.0;
    double duration_ms = 0.0;
};

/** Build a fields object inline: eventFields("key", v, "key2", v2). */
inline void addEventFields(json::Value&) {}

template <typename V, typename... Rest>
void
addEventFields(json::Value& out, const char* key, V&& value,
               Rest&&... rest)
{
    out.set(key, json::Value(std::forward<V>(value)));
    addEventFields(out, std::forward<Rest>(rest)...);
}

template <typename... Args>
json::Value
eventFields(Args&&... args)
{
    json::Value out{json::Object{}};
    addEventFields(out, std::forward<Args>(args)...);
    return out;
}

/** The journal's mutex. It remembers its holder, so the crash path
 * can tell a lock the crashing thread would deadlock on. */
class JournalLock
{
  public:
    class Held
    {
      public:
        explicit Held(const JournalLock& lock) : lock_(lock)
        {
            lock_.mutex_.lock();
            lock_.holder_ = std::this_thread::get_id();
        }
        ~Held()
        {
            lock_.holder_ = std::thread::id();
            lock_.mutex_.unlock();
        }
        Held(const Held&) = delete;
        Held& operator=(const Held&) = delete;

      private:
        const JournalLock& lock_;
    };

    bool heldByThisThread() const
    {
        return holder_ == std::this_thread::get_id();
    }

  private:
    mutable std::mutex mutex_;
    mutable std::atomic<std::thread::id> holder_{};
};

/** One bounded lane of a Journal: written by its journal, read from
 * any thread under the journal's lock. */
template <typename Record>
class JournalLane
{
  public:
    JournalLane(const JournalLock& lock, std::size_t capacity)
        : lock_(lock), capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    /** Records ever accepted (including those the ring evicted). */
    std::size_t recorded() const
    {
        JournalLock::Held held(lock_);
        return recorded_;
    }

    /** Records evicted from the ring. */
    std::size_t dropped() const
    {
        JournalLock::Held held(lock_);
        return dropped_;
    }

    /** The newest @p n records, oldest first. */
    std::vector<Record> tail(std::size_t n) const
    {
        JournalLock::Held held(lock_);
        return tailLocked(n);
    }

    /** {capacity, recorded, dropped}. */
    json::Value occupancyJson() const
    {
        JournalLock::Held held(lock_);
        json::Value out{json::Object{}};
        out.set("capacity", capacity_);
        out.set("recorded", recorded_);
        out.set("dropped", dropped_);
        return out;
    }

  private:
    friend class Journal;

    void pushLocked(Record record)
    {
        recorded_ += 1;
        ring_.push_back(std::move(record));
        while (ring_.size() > capacity_) {
            ring_.pop_front();
            dropped_ += 1;
        }
    }

    std::vector<Record> tailLocked(std::size_t n) const
    {
        std::size_t take = n < ring_.size() ? n : ring_.size();
        return std::vector<Record>(
            ring_.end() - static_cast<std::ptrdiff_t>(take), ring_.end());
    }

    const JournalLock& lock_;
    std::deque<Record> ring_;
    std::size_t capacity_;
    std::size_t recorded_ = 0;
    std::size_t dropped_ = 0;
};

/** The span lane: what ServiceObserver::spans() hands out. */
using SpanTracker = JournalLane<SpanRecord>;

/** Bounded, thread-safe journal of service events and spans. */
class Journal
{
  public:
    /** @p dump_events: the newest events a dump writes;
     * @p event_capacity / @p span_capacity: the lanes' ring sizes. */
    explicit Journal(std::size_t dump_events = 256,
                     std::size_t event_capacity = 1024,
                     std::size_t span_capacity = 2048);

    /** Disarms the crash-dump hooks if this journal is the one
     * installed, so they can never touch a destroyed journal. */
    ~Journal();

    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    /** Milliseconds since this journal's epoch (monotonic). */
    double nowMs() const;

    /** Append one event, stamped under the lock. */
    void event(LogLevel level, const std::string& job_id,
               const std::string& event, json::Value fields = {});

    /** Append the span [@p start_ms, @p end_ms) and forward it to the
     * attached sink. */
    void span(const std::string& track, const std::string& name,
              double start_ms, double end_ms);

    /** Forward every span to @p sink (serialized by the journal's
     * lock; the sink itself may stay single-threaded). */
    void attachSink(std::shared_ptr<TraceSink> sink);

    /** Mirror every event to @p path as JSON lines (append; the file
     * is created now so a crash leaves at least an empty log). */
    Result<bool> openFile(const std::string& path);

    const JournalLane<EventRecord>& events() const { return events_; }
    SpanTracker& spans() { return spans_; }

    /** {events: {capacity, recorded, dropped}, spans: {...}}. */
    json::Value occupancyJson() const;

    /** Default target of dump(); also the crash-dump target. */
    void setDumpPath(const std::string& path);

    /** Atomic JSON dump to the configured path; an error when none
     * is configured. */
    Result<bool> dump() const;
    /** Atomic JSON dump to @p path: {capacity, recorded, dropped,
     * records: [...]}, the newest `dump_events` events, where
     * `dropped` counts the events recorded but not in `records`. */
    Result<bool> dumpTo(const std::string& path) const;

    /**
     * The entry point of the crash hooks: dump() unless the calling
     * thread already holds the journal lock (a fatal signal raised
     * inside a record would otherwise deadlock on it). Returns
     * whether a dump was written.
     */
    bool crashDump() const;

  private:
    JournalLock lock_;
    std::chrono::steady_clock::time_point epoch_;
    std::size_t dump_events_;
    JournalLane<EventRecord> events_;
    SpanTracker spans_;
    std::shared_ptr<TraceSink> sink_;
    std::ofstream file_;
    std::string dump_path_;
};

/**
 * Register @p journal for best-effort dumps on process exit and on
 * fatal signals (SIGSEGV, SIGABRT, SIGBUS); each handler then re-raises
 * with the default disposition. The handlers allocate and lock, which
 * is not async-signal-safe — a corrupt heap can lose the dump, but
 * the alternative is losing it always; kill -9 leaves only what an
 * earlier dump wrote. One journal per process; a second call replaces
 * the first, nullptr disarms.
 */
void installCrashDump(Journal* journal);

}  // namespace graphiti::obs

#endif  // GRAPHITI_OBS_JOURNAL_HPP

#include "obs/journal.hpp"

#include <csignal>
#include <cstdlib>

namespace graphiti::obs {

const char*
toString(LogLevel level)
{
    switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    }
    return "info";
}

json::Value
EventRecord::toJson() const
{
    json::Value out{json::Object{}};
    out.set("t_ms", t_ms);
    out.set("level", toString(level));
    out.set("event", event);
    if (!job_id.empty())
        out.set("job_id", job_id);
    if (!fields.isNull())
        out.set("fields", fields);
    return out;
}

namespace {

std::atomic<Journal*> g_crash_journal{nullptr};
std::atomic<bool> g_crash_hooks_installed{false};

void
crashDumpAtExit()
{
    if (Journal* journal = g_crash_journal.load())
        (void)journal->crashDump();
}

void
fatalSignalHandler(int signum)
{
    // Dump once (exchange so a handler re-entered mid-dump cannot
    // loop), then re-raise with the default disposition so the
    // process still dies with the original signal (and core dump).
    if (Journal* journal = g_crash_journal.exchange(nullptr))
        (void)journal->crashDump();
    std::signal(signum, SIG_DFL);
    std::raise(signum);
}

}  // namespace

Journal::Journal(std::size_t dump_events, std::size_t event_capacity,
                 std::size_t span_capacity)
    : epoch_(std::chrono::steady_clock::now()),
      dump_events_(dump_events == 0 ? 1 : dump_events),
      events_(lock_, event_capacity), spans_(lock_, span_capacity)
{
}

Journal::~Journal()
{
    Journal* self = this;
    g_crash_journal.compare_exchange_strong(self, nullptr);
}

double
Journal::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Journal::event(LogLevel level, const std::string& job_id,
               const std::string& event, json::Value fields)
{
    EventRecord record{0.0, level, job_id, event, std::move(fields)};
    JournalLock::Held held(lock_);
    // Stamped under the lock: records land in time order.
    record.t_ms = nowMs();
    if (file_.is_open()) {
        file_ << record.toJson().dump() << "\n";
        file_.flush();
    }
    events_.pushLocked(std::move(record));
}

void
Journal::span(const std::string& track, const std::string& name,
              double start_ms, double end_ms)
{
    SpanRecord span{track, name, start_ms,
                    end_ms > start_ms ? end_ms - start_ms : 0.0};
    JournalLock::Held held(lock_);
    if (sink_ != nullptr)
        sink_->span(span.track, span.name, span.start_ms,
                    span.duration_ms);
    spans_.pushLocked(std::move(span));
}

void
Journal::attachSink(std::shared_ptr<TraceSink> sink)
{
    JournalLock::Held held(lock_);
    sink_ = std::move(sink);
}

Result<bool>
Journal::openFile(const std::string& path)
{
    JournalLock::Held held(lock_);
    file_.open(path, std::ios::app);
    if (!file_)
        return err("Journal: cannot open " + path + " for appending");
    return true;
}

json::Value
Journal::occupancyJson() const
{
    json::Value out{json::Object{}};
    out.set("events", events_.occupancyJson());
    out.set("spans", spans_.occupancyJson());
    return out;
}

void
Journal::setDumpPath(const std::string& path)
{
    JournalLock::Held held(lock_);
    dump_path_ = path;
}

Result<bool>
Journal::dump() const
{
    std::string path;
    {
        JournalLock::Held held(lock_);
        path = dump_path_;
    }
    if (path.empty())
        return err("Journal: no dump path configured");
    return dumpTo(path);
}

Result<bool>
Journal::dumpTo(const std::string& path) const
{
    json::Value out{json::Object{}};
    {
        JournalLock::Held held(lock_);
        json::Value records{json::Array{}};
        for (const EventRecord& record :
             events_.tailLocked(dump_events_))
            records.push(record.toJson());
        out.set("capacity", dump_events_);
        out.set("recorded", events_.recorded_);
        out.set("dropped",
                events_.recorded_ - records.asArray().size());
        out.set("records", std::move(records));
    }
    return json::writeFileAtomic(path, out);
}

bool
Journal::crashDump() const
{
    if (lock_.heldByThisThread())
        return false;
    return dump().ok();
}

void
installCrashDump(Journal* journal)
{
    g_crash_journal.store(journal);
    if (journal == nullptr || g_crash_hooks_installed.exchange(true))
        return;
    std::atexit(crashDumpAtExit);
    for (int signum : {SIGSEGV, SIGABRT, SIGBUS})
        std::signal(signum, fatalSignalHandler);
}

}  // namespace graphiti::obs

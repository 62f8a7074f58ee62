#include "served/observe.hpp"

namespace graphiti::served {

namespace json = obs::json;

json::Value
VerbStats::toJson() const
{
    json::Value out{json::Object{}};
    out.set("requests", requests);
    out.set("ok", ok);
    out.set("errors", errors);
    out.set("shed", shed);
    out.set("cancelled", cancelled);
    out.set("queue_wait", queue_wait.toJson());
    out.set("execute", execute.toJson());
    return out;
}

ServiceObserver::ServiceObserver(std::size_t dump_events,
                                 std::size_t event_capacity,
                                 std::size_t span_capacity)
    : journal_(dump_events, event_capacity, span_capacity)
{
}

void
ServiceObserver::recordVerb(const std::string& kind,
                            const std::string& status,
                            double queue_wait_ms, double execute_ms)
{
    std::lock_guard<std::mutex> lock(verbs_mutex_);
    VerbStats& verb = verbs_[kind];
    verb.requests += 1;
    if (status == "ok")
        verb.ok += 1;
    else if (status == "rejected")
        verb.shed += 1;
    else if (status == "cancelled")
        verb.cancelled += 1;
    else
        verb.errors += 1;
    // A shed job never queued or ran; keep its zeros out of the
    // windows so the percentiles describe work actually done.
    if (status != "rejected") {
        verb.queue_wait.record(queue_wait_ms);
        verb.execute.record(execute_ms);
    }
}

json::Value
ServiceObserver::verbsJson() const
{
    std::lock_guard<std::mutex> lock(verbs_mutex_);
    json::Value out{json::Object{}};
    for (const auto& [kind, verb] : verbs_)
        out.set(kind, verb.toJson());
    return out;
}

double
ServiceObserver::uptimeSeconds() const
{
    return journal_.nowMs() / 1000.0;
}

}  // namespace graphiti::served

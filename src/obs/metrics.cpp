#include "obs/metrics.hpp"

#include <algorithm>

namespace graphiti::obs {

ScopedTimer::ScopedTimer(MetricsRegistry* registry, std::string name)
    : registry_(registry), name_(std::move(name))
{
    if (registry_ != nullptr)
        start_ = std::chrono::steady_clock::now();
}

ScopedTimer&
ScopedTimer::operator=(ScopedTimer&& other) noexcept
{
    if (this != &other) {
        stop();
        registry_ = other.registry_;
        name_ = std::move(other.name_);
        start_ = other.start_;
        other.registry_ = nullptr;
    }
    return *this;
}

ScopedTimer::~ScopedTimer() { stop(); }

double
ScopedTimer::stop()
{
    if (registry_ == nullptr)
        return 0.0;
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
    registry_->observe(name_, seconds);
    registry_ = nullptr;
    return seconds;
}

void
MetricsRegistry::add(const std::string& name, std::int64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
MetricsRegistry::set(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::setMax(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = gauges_.emplace(name, value);
    if (!inserted)
        it->second = std::max(it->second, value);
}

void
MetricsRegistry::observe(const std::string& name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TimerStats& stats = timers_[name];
    if (stats.count == 0) {
        stats.min_seconds = seconds;
        stats.max_seconds = seconds;
    } else {
        stats.min_seconds = std::min(stats.min_seconds, seconds);
        stats.max_seconds = std::max(stats.max_seconds, seconds);
    }
    ++stats.count;
    stats.total_seconds += seconds;
}

ScopedTimer
MetricsRegistry::timer(std::string name)
{
    return ScopedTimer(this, std::move(name));
}

std::int64_t
MetricsRegistry::counter(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::optional<double>
MetricsRegistry::gauge(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        return std::nullopt;
    return it->second;
}

std::optional<TimerStats>
MetricsRegistry::timerStats(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = timers_.find(name);
    if (it == timers_.end())
        return std::nullopt;
    return it->second;
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry& other)
{
    // Snapshot under the source lock, fold under ours: never hold
    // both at once (no lock-order edge between registries).
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerStats> timers;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        counters = other.counters_;
        gauges = other.gauges_;
        timers = other.timers_;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, value] : counters)
        counters_[name] += value;
    for (const auto& [name, value] : gauges)
        gauges_[name] = value;
    for (const auto& [name, stats] : timers) {
        TimerStats& mine = timers_[name];
        if (mine.count == 0) {
            mine = stats;
        } else if (stats.count > 0) {
            mine.min_seconds =
                std::min(mine.min_seconds, stats.min_seconds);
            mine.max_seconds =
                std::max(mine.max_seconds, stats.max_seconds);
            mine.count += stats.count;
            mine.total_seconds += stats.total_seconds;
        }
    }
}

void
MetricsRegistry::replaceWith(const json::Value& snapshot)
{
    auto entries = [&](const char* key) -> const json::Object* {
        const json::Value* field = snapshot.find(key);
        return field != nullptr && field->isObject() ? &field->asObject()
                                                     : nullptr;
    };
    auto number = [](const json::Value& object, const char* key) {
        const json::Value* field = object.find(key);
        return field != nullptr && field->isNumber() ? field->asNumber()
                                                     : 0.0;
    };
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerStats> timers;
    if (const json::Object* object = entries("counters"))
        for (const auto& [name, value] : *object)
            if (value.isNumber())
                counters[name] =
                    static_cast<std::int64_t>(value.asNumber());
    if (const json::Object* object = entries("gauges"))
        for (const auto& [name, value] : *object)
            if (value.isNumber())
                gauges[name] = value.asNumber();
    if (const json::Object* object = entries("timers"))
        for (const auto& [name, value] : *object)
            timers[name] = TimerStats{
                static_cast<std::uint64_t>(number(value, "count")),
                number(value, "total_seconds"),
                number(value, "min_seconds"),
                number(value, "max_seconds")};
    std::lock_guard<std::mutex> lock(mutex_);
    counters_ = std::move(counters);
    gauges_ = std::move(gauges);
    timers_ = std::move(timers);
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    timers_.clear();
}

json::Value
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value counters{json::Object{}};
    for (const auto& [name, value] : counters_)
        counters.set(name, value);
    json::Value gauges{json::Object{}};
    for (const auto& [name, value] : gauges_)
        gauges.set(name, value);
    json::Value timers{json::Object{}};
    for (const auto& [name, stats] : timers_) {
        json::Value entry{json::Object{}};
        entry.set("count", stats.count);
        entry.set("total_seconds", stats.total_seconds);
        entry.set("min_seconds", stats.min_seconds);
        entry.set("max_seconds", stats.max_seconds);
        timers.set(name, std::move(entry));
    }
    json::Value out{json::Object{}};
    out.set("counters", std::move(counters));
    out.set("gauges", std::move(gauges));
    out.set("timers", std::move(timers));
    return out;
}

}  // namespace graphiti::obs

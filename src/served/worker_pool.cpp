#include "served/worker_pool.hpp"

#include <algorithm>

namespace graphiti::served {

namespace json = obs::json;

obs::json::Value
WorkerPoolStats::toJson() const
{
    json::Value out{json::Object{}};
    out.set("configured", configured);
    out.set("live", live);
    out.set("busy", busy);
    out.set("spawned", spawned);
    out.set("respawned", respawned);
    out.set("crashes", crashes);
    json::Value classes{json::Object{}};
    for (const auto& [cls, count] : crashes_by_class)
        classes.set(cls, count);
    out.set("crashes_by_class", std::move(classes));
    json::Value breaker{json::Object{}};
    breaker.set("open", breaker_open);
    breaker.set("trips", breaker_trips);
    breaker.set("remaining_ms", breaker_remaining_ms);
    out.set("breaker", std::move(breaker));
    return out;
}

WorkerPool::WorkerPool(std::size_t workers, WorkerPoolConfig config,
                       StoreHooks hooks,
                       std::shared_ptr<ServiceObserver> observer)
    : workers_(std::max<std::size_t>(workers, 1)),
      config_(std::move(config)),
      hooks_(std::move(hooks)),
      observer_(observer ? std::move(observer)
                         : std::make_shared<ServiceObserver>())
{
}

WorkerPool::~WorkerPool() { stop(); }

Result<bool>
WorkerPool::spawnSlotLocked(Slot& slot, bool is_respawn)
{
    slot.worker = std::make_unique<WorkerProcess>(config_.sandbox);
    // Children must not inherit a sibling's parent-side socket end:
    // a held dup would mask that sibling's EOF when it dies.
    std::vector<int> sibling_fds;
    for (const Slot& other : slots_)
        if (other.worker != nullptr && &other != &slot &&
            other.worker->socketFd() >= 0)
            sibling_fds.push_back(other.worker->socketFd());
    Result<bool> ok = slot.worker->spawn(sibling_fds);
    if (!ok.ok())
        return ok.error().context("WorkerPool::spawn");
    spawned_ += 1;
    if (is_respawn)
        respawned_ += 1;
    observer_->event(obs::LogLevel::Info, "",
                     is_respawn ? "worker.respawn" : "worker.spawn",
                     "pid", slot.worker->pid());
    return true;
}

void
WorkerPool::recordDeathLocked(const std::string& cls,
                              const std::string& job_id)
{
    auto now = std::chrono::steady_clock::now();
    crashes_ += 1;
    crashes_by_class_[cls] += 1;
    deaths_.push_back(now);
    auto horizon =
        now - std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      config_.breaker_window_seconds));
    while (!deaths_.empty() && deaths_.front() < horizon)
        deaths_.pop_front();
    observer_->event(obs::LogLevel::Warn, job_id, "worker.crash", "class",
                     cls, "window_deaths", deaths_.size());

    if (deaths_.size() < config_.breaker_deaths)
        return;
    // Trip: cooldown doubles per consecutive trip (the backoff
    // shape, un-jittered — the breaker is one daemon pacing itself,
    // not a herd to decorrelate).
    consecutive_trips_ += 1;
    breaker_trips_ += 1;
    double cooldown_ms = config_.breaker_backoff.base_ms;
    for (std::size_t i = 1; i < consecutive_trips_ &&
                            cooldown_ms < config_.breaker_backoff.cap_ms;
         ++i)
        cooldown_ms *= 2.0;
    cooldown_ms = std::min(cooldown_ms, config_.breaker_backoff.cap_ms);
    breaker_until_ =
        now + std::chrono::duration_cast<
                  std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      cooldown_ms));
    breaker_armed_ = true;
    deaths_.clear();
    observer_->event(obs::LogLevel::Error, "", "worker.breaker",
                     "cooldown_ms", cooldown_ms, "trip", breaker_trips_);
}

double
WorkerPool::breakerRemainingMsLocked(
    std::chrono::steady_clock::time_point now) const
{
    if (!breaker_armed_)
        return 0.0;
    return std::chrono::duration<double, std::milli>(breaker_until_ -
                                                     now)
        .count();
}

Result<bool>
WorkerPool::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return err("worker pool already started");
    slots_.resize(workers_);
    for (Slot& slot : slots_) {
        Result<bool> ok = spawnSlotLocked(slot, false);
        if (!ok.ok())
            return ok;
    }
    started_ = true;
    stopping_ = false;
    return true;
}

void
WorkerPool::stop()
{
    std::vector<WorkerProcess*> workers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_ || stopping_)
            return;
        stopping_ = true;
        for (Slot& slot : slots_)
            if (slot.worker != nullptr && !slot.busy &&
                slot.worker->alive())
                workers.push_back(slot.worker.get());
        slot_free_.notify_all();
    }
    // Polite shutdowns outside the lock (each may wait up to a
    // second); busy workers finish their lanes' stopped jobs first,
    // and any stragglers die with the WorkerProcess destructor.
    for (WorkerProcess* worker : workers)
        worker->shutdown();
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
}

SandboxOutcome
WorkerPool::execute(const std::string& job_id, const JobSpec& spec,
                    const StopToken& stop, obs::Scope* job_scope)
{
    Slot* slot = nullptr;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            SandboxOutcome shed;
            if (!started_ || stopping_) {
                shed.status = "rejected";
                shed.error = "worker pool not accepting jobs";
                return shed;
            }
            if (stop.stopRequested()) {
                shed.status = "cancelled";
                shed.error = stop.reason();
                return shed;
            }
            auto now = std::chrono::steady_clock::now();
            double remaining = breakerRemainingMsLocked(now);
            if (remaining > 0.0) {
                shed.status = "rejected";
                shed.error =
                    "worker crash-loop breaker open (" +
                    std::to_string(crashes_) + " crashes; cooling "
                    "down)";
                shed.retry_after_ms = remaining;
                return shed;
            }
            for (Slot& candidate : slots_) {
                if (candidate.busy)
                    continue;
                if (slot == nullptr ||
                    (!slot->worker->alive() &&
                     candidate.worker->alive()))
                    slot = &candidate;
                if (slot->worker->alive())
                    break;
            }
            if (slot != nullptr) {
                if (!slot->worker->alive()) {
                    Result<bool> ok = spawnSlotLocked(*slot, true);
                    if (!ok.ok()) {
                        recordDeathLocked("spawn-failed", job_id);
                        slot = nullptr;
                        SandboxOutcome out;
                        out.status = "error";
                        out.error = ok.error().message;
                        return out;
                    }
                }
                slot->busy = true;
                break;
            }
            slot_free_.wait_for(lock,
                                std::chrono::milliseconds(20));
        }
    }

    SandboxOutcome out =
        slot->worker->execute(job_id, spec, stop, job_scope, hooks_);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot->busy = false;
        if (out.worker_died) {
            recordDeathLocked(toString(out.exit_class), job_id);
            // Keep the pool warm: replace the casualty now (unless
            // the breaker just opened — then respawning waits for
            // the cooldown, which is the breaker's whole point).
            if (!stopping_ &&
                breakerRemainingMsLocked(
                    std::chrono::steady_clock::now()) <= 0.0)
                (void)spawnSlotLocked(*slot, true);
        } else {
            // A worker answered (ok, error, or a stopped job's
            // unwind): the crash loop (if any) ended. Close the loop's
            // memory so stale deaths never trip the breaker later.
            consecutive_trips_ = 0;
            breaker_armed_ = false;
            deaths_.clear();
        }
        slot_free_.notify_one();
    }
    return out;
}

void
WorkerPool::setCrashPlan(const std::string& plan)
{
    std::lock_guard<std::mutex> lock(mutex_);
    config_.sandbox.crash_plan = plan;
}

WorkerPoolStats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    WorkerPoolStats out;
    out.configured = workers_;
    for (const Slot& slot : slots_) {
        if (slot.worker != nullptr && slot.worker->alive())
            out.live += 1;
        if (slot.busy)
            out.busy += 1;
    }
    out.spawned = spawned_;
    out.respawned = respawned_;
    out.crashes = crashes_;
    out.crashes_by_class = crashes_by_class_;
    out.breaker_trips = breaker_trips_;
    auto now = std::chrono::steady_clock::now();
    double remaining = breakerRemainingMsLocked(now);
    out.breaker_open = remaining > 0.0;
    out.breaker_remaining_ms = std::max(remaining, 0.0);
    return out;
}

obs::json::Value
WorkerPool::healthJson() const
{
    return stats().toJson();
}

bool
WorkerPool::breakerOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return breakerRemainingMsLocked(std::chrono::steady_clock::now()) >
           0.0;
}

}  // namespace graphiti::served

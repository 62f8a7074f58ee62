#include "served/scheduler.hpp"

#include <algorithm>
#include <set>

#include "obs/scope.hpp"

namespace graphiti::served {

namespace json = obs::json;

AdmissionDecision
admitJob(const AdmissionState& state)
{
    AdmissionDecision decision;
    if (state.queue_capacity == 0 ||
        state.queued < state.queue_capacity)
        return decision;
    decision.admit = false;
    decision.reason = "queue full (" + std::to_string(state.queued) +
                      " waiting, capacity " +
                      std::to_string(state.queue_capacity) + ")";
    double lanes =
        static_cast<double>(std::max<std::size_t>(state.workers, 1));
    decision.retry_after_ms = state.estimated_job_ms *
                              static_cast<double>(state.queued + 1) /
                              lanes;
    return decision;
}

std::string
pickPreemptionVictim(
    const std::map<std::string, std::size_t>& running_per_client,
    const std::vector<std::string>& waiting_clients,
    std::size_t workers)
{
    if (waiting_clients.empty() || running_per_client.empty() ||
        workers == 0)
        return "";
    std::set<std::string> clients(waiting_clients.begin(),
                                  waiting_clients.end());
    for (const auto& [name, count] : running_per_client)
        if (count > 0)
            clients.insert(name);
    if (clients.size() < 2)
        return "";  // one client cannot be unfair to itself
    std::size_t share =
        (workers + clients.size() - 1) / clients.size();  // ceil

    auto runningOf = [&](const std::string& name) {
        auto it = running_per_client.find(name);
        return it == running_per_client.end() ? std::size_t{0}
                                              : it->second;
    };
    bool starved = false;
    for (const std::string& waiter : waiting_clients)
        if (runningOf(waiter) < share) {
            starved = true;
            break;
        }
    if (!starved)
        return "";

    std::string victim;
    std::size_t victim_count = share;  // must be strictly above share
    for (const auto& [name, count] : running_per_client) {
        if (count > victim_count ||
            (count == victim_count && count > share &&
             (victim.empty() || name < victim))) {
            victim = name;
            victim_count = count;
        }
    }
    return victim;
}

obs::json::Value
SchedulerStats::toJson() const
{
    json::Value out{json::Object{}};
    out.set("accepted", accepted);
    out.set("shed", shed);
    out.set("completed", completed);
    out.set("failed", failed);
    out.set("cancelled", cancelled);
    out.set("preempted", preempted);
    out.set("wedged", wedged);
    out.set("disconnect_cancelled", disconnect_cancelled);
    return out;
}

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig config) : config_(std::move(config))
{
    if (!config_.observer)
        config_.observer = std::make_shared<ServiceObserver>();
    if (config_.workers == 0)
        config_.workers = 1;
    // One dispatch lane per sandboxed child, so a lane never waits on
    // a worker another lane owns.
    config_.pool.workers = config_.workers;
    config_.pool.sandbox.wedge_grace_seconds = config_.wedge_grace_seconds;
    config_.pool.observer = config_.observer;
    store_ = std::make_shared<guard::VerdictStore>(config_.store);
    // Children proxy their verdict traffic here: every real store
    // write stays in this (parent) process, so a dying child can
    // never tear the store.
    StoreHooks hooks;
    hooks.lookup = [this](std::uint64_t key, guard::EntryKind kind) {
        return store_->get(key, kind);
    };
    hooks.store = [this](std::uint64_t key,
                         const guard::StoreEntry& entry) {
        store_->put(key, entry);
    };
    pool_ = std::make_unique<WorkerPool>(config_.pool, std::move(hooks));
}

Scheduler::~Scheduler() { stop(); }

Result<bool>
Scheduler::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return err("scheduler already started");
    if (!config_.store.dir.empty()) {
        // Corrupt shards are skipped and counted by the store loader;
        // a missing directory is a fresh start, not a failure.
        Result<std::size_t> loaded = store_->load();
        if (!loaded.ok())
            return loaded.error().context("Scheduler::start");
    }
    Result<bool> forked = pool_->start();
    if (!forked.ok())
        return forked.error().context("Scheduler::start");
    started_ = true;
    stopping_ = false;
    for (std::size_t i = 0; i < config_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    supervisor_ = std::thread([this] { supervisorLoop(); });
    return true;
}

void
Scheduler::stop()
{
    std::vector<std::thread> joinable;
    std::thread supervisor;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_ || stopping_)
            return;
        stopping_ = true;
        for (const JobPtr& job : queue_) {
            JobOutcome outcome;
            outcome.status = "rejected";
            outcome.error = "daemon shutting down";
            outcome.retry_after_ms = config_.estimated_job_ms;
            completeJobLocked(job, std::move(outcome));
        }
        queue_.clear();
        for (const JobPtr& job : running_)
            job->stop.requestStop("daemon shutting down");
        work_available_.notify_all();
        job_done_.notify_all();
        for (std::thread& worker : workers_)
            if (worker.joinable())
                joinable.push_back(std::move(worker));
        workers_.clear();
        supervisor = std::move(supervisor_);
    }
    for (std::thread& worker : joinable)
        worker.join();
    if (supervisor.joinable())
        supervisor.join();
    // Lanes are drained (running children answered their forwarded
    // stops or were killed past the grace); shut the idle sandbox
    // workers down politely.
    pool_->stop();
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
}

void
Scheduler::kill()
{
    // The store commits write-through on every store(), so there is
    // no buffered state to drop: kill() and stop() differ only in
    // intent (the crash drills call kill() to prove that).
    stop();
}

bool
Scheduler::completeJob(const JobPtr& job, JobOutcome outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completeJobLocked(job, std::move(outcome));
}

bool
Scheduler::completeJobLocked(const JobPtr& job, JobOutcome outcome)
{
    if (job->done)
        return false;
    auto now = std::chrono::steady_clock::now();
    job->done = true;
    job->outcome = std::move(outcome);
    job->outcome.job_id = job->job_id;
    if (job->outcome.status == "ok")
        stats_.completed += 1;
    else if (job->outcome.status == "cancelled")
        stats_.cancelled += 1;
    else if (job->outcome.status == "rejected")
        stats_.shed += 1;
    else
        stats_.failed += 1;

    double queue_wait_ms =
        elapsedMs(job->enqueued_at,
                  job->started ? job->started_at : now);
    double execute_ms =
        job->started ? elapsedMs(job->started_at, now) : 0.0;

    ServiceObserver& observer = *config_.observer;
    observer.recordVerb(job->spec.kind, job->outcome.status,
                        queue_wait_ms, execute_ms);
    // Fold the job's private counters into the service-wide scope so
    // stats aggregates across jobs keep accumulating.
    observer.scope().metrics().mergeFrom(job->job_scope->metrics());

    // The span tree of one job: its correlation id is the track,
    // queue-wait and execute are the phases (forwarded to the
    // Perfetto sink when one is attached — one service-level trace
    // across concurrent jobs).
    obs::Journal& journal = observer.journal();
    double now_ms = journal.nowMs();
    journal.span(job->job_id, "queue-wait",
                 now_ms - queue_wait_ms - execute_ms, now_ms - execute_ms);
    if (job->started)
        journal.span(job->job_id, "execute", now_ms - execute_ms, now_ms);

    json::Value fields = obs::eventFields(
        "client", job->client, "verb", job->spec.kind, "status",
        job->outcome.status);
    if (!job->outcome.error.empty())
        fields.set("reason", job->outcome.error);
    fields.set("queue_wait_ms", queue_wait_ms);
    fields.set("execute_ms", execute_ms);
    fields.set("states",
               job->job_scope->metrics().counter("refine.states"));
    if (job->outcome.result.isObject())
        for (const char* key : {"verification_level", "verify_cache_hit"})
            if (const json::Value* value = job->outcome.result.find(key))
                fields.set(key, *value);
    journal.event(job->outcome.status == "ok" ? obs::LogLevel::Info
                                              : obs::LogLevel::Warn,
                  job->job_id, "job.done", std::move(fields));
    job_done_.notify_all();
    return true;
}

void
Scheduler::enforceFairShareLocked()
{
    if (queue_.empty() || running_.empty())
        return;
    std::map<std::string, std::size_t> running_per_client;
    for (const JobPtr& job : running_)
        if (!job->done && !job->stop.stopRequested())
            running_per_client[job->client] += 1;
    std::vector<std::string> waiting;
    waiting.reserve(queue_.size());
    for (const JobPtr& job : queue_)
        waiting.push_back(job->client);
    std::string victim = pickPreemptionVictim(
        running_per_client, waiting, config_.workers);
    if (victim.empty())
        return;
    // Preempt the victim's oldest running job: it has had the most
    // service already, and the ladder it unwinds through reports
    // whatever assurance that bought honestly.
    JobPtr oldest;
    for (const JobPtr& job : running_)
        if (job->client == victim && !job->done &&
            !job->stop.stopRequested() &&
            (oldest == nullptr || job->serial < oldest->serial))
            oldest = job;
    if (oldest == nullptr)
        return;
    std::string reason = "fair-share preemption (client \"" + victim +
                         "\" over share)";
    oldest->stop.requestStop(reason);
    stats_.preempted += 1;
    config_.observer->scope().metrics().add("served.jobs.preempted", 1);
    config_.observer->event(obs::LogLevel::Warn, oldest->job_id,
                            "job.preempt", "client", victim, "reason",
                            reason);
}

JobOutcome
Scheduler::submitAndWait(const std::string& client, JobSpec spec,
                         double deadline_seconds,
                         const std::function<bool()>& abandoned,
                         const std::string& job_id)
{
    JobPtr job = std::make_shared<Job>();
    ServiceObserver& observer = *config_.observer;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string id = job_id.empty()
                             ? "job-" + std::to_string(next_serial_)
                             : job_id;
        if (!started_ || stopping_) {
            JobOutcome outcome;
            outcome.job_id = id;
            outcome.status = "rejected";
            outcome.error = "daemon not accepting jobs";
            outcome.retry_after_ms = config_.estimated_job_ms;
            return outcome;
        }
        AdmissionState state;
        state.queued = queue_.size();
        state.queue_capacity = config_.queue_capacity;
        state.running = running_.size();
        state.workers = config_.workers;
        state.estimated_job_ms = config_.estimated_job_ms;
        AdmissionDecision decision = admitJob(state);
        if (!decision.admit) {
            stats_.shed += 1;
            observer.scope().metrics().add("served.jobs.shed", 1);
            observer.event(obs::LogLevel::Warn, id, "job.shed", "client",
                           client, "verb", spec.kind, "reason",
                           decision.reason, "retry_after_ms",
                           decision.retry_after_ms);
            JobOutcome outcome;
            outcome.job_id = id;
            outcome.status = "rejected";
            outcome.error = decision.reason;
            outcome.retry_after_ms = decision.retry_after_ms;
            return outcome;
        }
        stats_.accepted += 1;
        observer.scope().metrics().add("served.jobs.accepted", 1);
        observer.scope().metrics().set(
            "served.queue.depth", static_cast<double>(queue_.size() + 1));
        double deadline = deadline_seconds;
        if (config_.max_deadline_seconds > 0 &&
            (deadline == 0 || deadline > config_.max_deadline_seconds))
            deadline = config_.max_deadline_seconds;
        job->stop = deadline > 0 ? StopToken::withDeadline(deadline)
                                 : StopToken::manual();
        job->client = client;
        job->spec = std::move(spec);
        job->serial = next_serial_++;
        job->job_id = id;
        job->enqueued_at = std::chrono::steady_clock::now();
        if (deadline > 0) {
            job->has_deadline = true;
            job->deadline_at =
                job->enqueued_at +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(deadline));
        }
        job->job_scope = std::make_shared<obs::Scope>();
        // Every job carries a live verification probe: the worker's
        // thread publishes into it lock-free and the jobs verb
        // snapshots it from the connection threads.
        job->job_scope->attachVerifyProbe(
            std::make_shared<obs::VerifyProbe>());
        observer.event(obs::LogLevel::Debug, job->job_id, "job.admit",
                       "client", client, "verb", job->spec.kind,
                       "queued", queue_.size());
        queue_.push_back(job);
        enforceFairShareLocked();
        work_available_.notify_one();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    bool abandon_latched = false;
    while (!job->done) {
        job_done_.wait_for(lock, std::chrono::milliseconds(20));
        if (job->done || abandon_latched || !abandoned)
            continue;
        lock.unlock();
        bool gone = abandoned();
        lock.lock();
        if (gone) {
            job->stop.requestStop("client disconnected");
            abandon_latched = true;
        }
    }
    if (abandon_latched && job->outcome.status == "cancelled")
        stats_.disconnect_cancelled += 1;
    return job->outcome;
}

void
Scheduler::workerLoop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        workers_alive_ += 1;
    }
    for (;;) {
        JobPtr job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_) {
                workers_alive_ -= 1;
                return;
            }
            job = queue_.front();
            queue_.pop_front();
            job->running = true;
            job->started = true;
            job->started_at = std::chrono::steady_clock::now();
            running_.push_back(job);
        }

        // The job runs in a sandboxed child; this lane only
        // dispatches, forwards a stop, mirrors the child's metrics and
        // maps the outcome. Whatever the child does — crash, OOM,
        // wedge — lands here as a structured SandboxOutcome.
        SandboxOutcome run = pool_->execute(job->job_id, job->spec,
                                            job->stop,
                                            job->job_scope.get());
        JobOutcome outcome;
        outcome.status = run.status;
        outcome.result = std::move(run.result);
        outcome.error = std::move(run.error);
        outcome.artifact = std::move(run.artifact);
        outcome.retry_after_ms = run.retry_after_ms;
        bool wedged = run.exit_class == ExitClass::Wedged;
        if (wedged) {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.wedged += 1;
            config_.observer->scope().metrics().add("served.jobs.wedged",
                                                    1);
        }
        completeJob(job, std::move(outcome));

        {
            std::lock_guard<std::mutex> lock(mutex_);
            running_.erase(
                std::remove(running_.begin(), running_.end(), job),
                running_.end());
            config_.observer->scope().metrics().set(
                "served.queue.depth", static_cast<double>(queue_.size()));
        }
        // A wedge is exactly what the journal dump exists for: dump
        // outside the scheduler lock (file IO under a lock would stall
        // admission). No dump path configured is no dump.
        if (wedged)
            (void)config_.observer->journal().dump();
    }
}

void
Scheduler::supervisorLoop()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            supervisor_heartbeat_ = std::chrono::steady_clock::now();
            supervisor_seen_ = true;

            // Queued jobs whose tokens already fired (deadline-zero
            // floods, disconnects) never reach a worker.
            for (auto it = queue_.begin(); it != queue_.end();) {
                const JobPtr& job = *it;
                if (job->stop.stopRequested()) {
                    JobOutcome outcome;
                    outcome.status = "cancelled";
                    outcome.error = job->stop.reason();
                    config_.observer->event(
                        obs::LogLevel::Warn, job->job_id, "job.deadline",
                        "client", job->client, "reason", outcome.error);
                    completeJobLocked(job, std::move(outcome));
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            config_.supervisor_period_ms / 1000.0));
    }
}

obs::json::Value
Scheduler::jobsJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto now = std::chrono::steady_clock::now();
    auto entry = [&](const JobPtr& job, const char* phase) {
        json::Value out{json::Object{}};
        out.set("job_id", job->job_id);
        out.set("client", job->client);
        out.set("verb", job->spec.kind);
        out.set("phase", phase);
        out.set("age_ms", elapsedMs(job->enqueued_at, now));
        if (job->started)
            out.set("queue_wait_ms",
                    elapsedMs(job->enqueued_at, job->started_at));
        if (job->has_deadline)
            out.set("deadline_remaining_ms",
                    elapsedMs(now, job->deadline_at));
        out.set("stop_requested", job->stop.stopRequested());
        if (job->stop.stopRequested())
            out.set("stop_reason", job->stop.reason());
        const obs::MetricsRegistry& metrics = job->job_scope->metrics();
        out.set("states_explored", metrics.counter("refine.states"));
        json::Value rungs{json::Object{}};
        rungs.set("full", metrics.counter("guard.verify.full"));
        rungs.set("bounded_partial",
                  metrics.counter("guard.verify.bounded_partial"));
        rungs.set("trace_inclusion",
                  metrics.counter("guard.verify.trace_inclusion"));
        rungs.set("none", metrics.counter("guard.verify.none"));
        out.set("verify_rungs", std::move(rungs));
        // Live verification progress: a tearing-tolerant snapshot of
        // the worker's probe (samples == 0 until the first publish —
        // the job has not reached the verify core yet).
        if (const obs::VerifyProbe* probe = job->job_scope->verifyProbe())
            out.set("progress", probe->snapshot().toJson());
        return out;
    };
    json::Value jobs{json::Array{}};
    for (const JobPtr& job : queue_)
        jobs.push(entry(job, "queued"));
    for (const JobPtr& job : running_)
        if (!job->done)
            jobs.push(entry(job, "running"));
    json::Value out{json::Object{}};
    out.set("queued", queue_.size());
    out.set("running", running_.size());
    out.set("jobs", std::move(jobs));
    return out;
}

obs::json::Value
Scheduler::healthJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    json::Value out{json::Object{}};
    out.set("accepting", started_ && !stopping_);
    out.set("workers_configured", config_.workers);
    out.set("workers_alive", workers_alive_);
    out.set("queue_depth", queue_.size());
    out.set("queue_capacity", config_.queue_capacity);
    out.set("running", running_.size());
    if (supervisor_seen_)
        out.set("supervisor_heartbeat_age_ms",
                elapsedMs(supervisor_heartbeat_,
                          std::chrono::steady_clock::now()));
    out.set("worker_pool", pool_->healthJson());
    return out;
}

SchedulerStats
Scheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace graphiti::served

#include "served/daemon.hpp"

#include <cstdio>

namespace graphiti::served {

namespace json = obs::json;

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      scheduler_(std::make_unique<Scheduler>(config_.scheduler))
{
}

Daemon::~Daemon() { stop(); }

Result<bool>
Daemon::start()
{
    if (started_)
        return err("daemon already started");
    if (config_.socket_path.empty())
        return err("daemon requires a socket path");
    Result<net::Socket> listener = net::listenUnix(config_.socket_path);
    if (!listener.ok())
        return listener.error().context("Daemon::start");
    Result<bool> booted = scheduler_->start();
    if (!booted.ok()) {
        std::remove(config_.socket_path.c_str());
        return booted.error().context("Daemon::start");
    }
    accept_thread_ =
        std::thread([this, socket = listener.take()]() mutable {
            acceptLoop(std::move(socket));
        });
    started_ = true;
    return true;
}

void
Daemon::stop()
{
    if (!started_ || stopping_.exchange(true))
        return;
    scheduler_->stop();
    if (accept_thread_.joinable())
        accept_thread_.join();
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conns.swap(conn_threads_);
    }
    for (std::thread& thread : conns)
        if (thread.joinable())
            thread.join();
    std::remove(config_.socket_path.c_str());
    started_ = false;
}

obs::json::Value
Daemon::statsJson() const
{
    json::Value out{json::Object{}};
    out.set("uptime_seconds", observer()->uptimeSeconds());
    json::Value conns{json::Object{}};
    conns.set("accepted", connections_accepted_.load());
    conns.set("malformed_frames", malformed_frames_.load());
    conns.set("oversize_frames", oversize_frames_.load());
    conns.set("clean_eofs", clean_eofs_.load());
    conns.set("malformed_requests", malformed_requests_.load());
    out.set("connections", std::move(conns));
    out.set("scheduler", scheduler_->stats().toJson());
    out.set("workers", scheduler_->workerPool().healthJson());
    out.set("store", scheduler_->store()->stats().toJson());
    out.set("verbs", observer()->verbsJson());
    out.set("metrics", observer()->scope().metrics().toJson());
    out.set("journal", observer()->journal().occupancyJson());
    return out;
}

obs::json::Value
Daemon::jobsJson() const
{
    return scheduler_->jobsJson();
}

obs::json::Value
Daemon::healthJson() const
{
    json::Value scheduler_health = scheduler_->healthJson();
    bool accepting = false;
    bool lanes_ok = false;
    if (const json::Value* a = scheduler_health.find("accepting"))
        accepting = a->isBool() && a->asBool();
    const json::Value* alive = scheduler_health.find("workers_alive");
    const json::Value* configured =
        scheduler_health.find("workers_configured");
    if (alive != nullptr && configured != nullptr &&
        alive->isNumber() && configured->isNumber())
        lanes_ok = alive->asNumber() >= configured->asNumber();
    // An open crash-loop breaker is exactly the degradation health
    // exists to report: the daemon answers, but sheds compiles.
    bool breaker_ok = !scheduler_->workerPool().breakerOpen();

    json::Value out{json::Object{}};
    out.set("status",
            accepting && lanes_ok && breaker_ok ? "ok" : "degraded");
    out.set("uptime_seconds", observer()->uptimeSeconds());
    out.set("scheduler", std::move(scheduler_health));
    guard::VerdictStoreStats store = scheduler_->store()->stats();
    json::Value store_health = store.toJson();
    store_health.set("persistent",
                     !config_.scheduler.store.dir.empty());
    store_health.set("shards", config_.scheduler.store.shards);
    out.set("store", std::move(store_health));
    json::Value listeners{json::Object{}};
    listeners.set("socket_path", config_.socket_path);
    out.set("listeners", std::move(listeners));
    out.set("connections_accepted", connections_accepted_.load());
    return out;
}

Result<bool>
Daemon::dumpJournal() const
{
    return observer()->journal().dump();
}

obs::json::Value
Daemon::introspect(const std::string& kind) const
{
    json::Value out{json::Object{}};
    out.set("kind", kind);
    if (kind == "stats")
        out.set("stats", statsJson());
    else if (kind == "jobs")
        out.set("jobs", jobsJson());
    else
        out.set("health", healthJson());
    return out;
}

void
Daemon::acceptLoop(net::Socket listener)
{
    while (!stopping_.load()) {
        // Short accept timeout so shutdown is never blocked on a
        // quiet listener.
        Result<net::Socket> accepted =
            net::acceptConnection(listener, 100);
        if (!accepted.ok())
            return;  // listener broke; open connections keep serving
        if (!accepted.value().valid())
            continue;  // timeout — re-check the stop flag
        if (stopping_.load())
            return;
        connections_accepted_.fetch_add(1);
        std::uint64_t conn_id = next_conn_id_.fetch_add(1);
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conn_threads_.emplace_back(
            [this, socket = std::move(accepted.value()),
             conn_id]() mutable {
                serveConnection(std::move(socket), conn_id);
            });
    }
}

void
Daemon::serveConnection(net::Socket socket, std::uint64_t conn_id)
{
    std::string default_client = "conn-" + std::to_string(conn_id);
    std::uint64_t frames_seen = 0;
    while (!stopping_.load()) {
        // Poll for the next frame in short slices so a shutdown never
        // waits out io_timeout_ms on an idle-but-connected client.
        Result<bool> readable = net::waitReadable(socket, 100);
        if (!readable.ok())
            return;
        if (!readable.value())
            continue;  // idle — re-check the stop flag

        std::string payload;
        Result<bool> frame =
            readFrame(socket, payload, config_.io_timeout_ms);
        if (!frame.ok()) {
            // Truncation, junk length or timeout: classify so the
            // stats verb can tell a flooder from a flaky link.
            if (frame.error().message.find("exceeds limit") !=
                std::string::npos)
                oversize_frames_.fetch_add(1);
            else
                malformed_frames_.fetch_add(1);
            return;
        }
        if (!frame.value()) {
            clean_eofs_.fetch_add(1);
            return;  // peer done
        }
        frames_seen += 1;
        // A correlation id exists for every response, even one
        // answering an unparseable request.
        std::string fallback_job_id = default_client + "-r" +
                                      std::to_string(frames_seen);

        JobResponse response;
        response.job_id = fallback_job_id;
        Result<json::Value> parsed = json::parse(payload);
        if (!parsed.ok()) {
            malformed_frames_.fetch_add(1);
            // No recoverable request id: answer id 0 so the client
            // can at least log the rejection, then drop the
            // connection (framing with junk inside is not worth
            // resynchronizing).
            response.id = 0;
            response.status = "error";
            response.error =
                "malformed request JSON: " + parsed.error().message;
            writeFrame(socket, response.toJson().dump(),
                       config_.io_timeout_ms);
            return;
        }
        Result<JobRequest> request = jobRequestFromJson(parsed.value());
        if (!request.ok()) {
            malformed_requests_.fetch_add(1);
            response.id = 0;
            response.status = "error";
            response.error = request.error().message;
            writeFrame(socket, response.toJson().dump(),
                       config_.io_timeout_ms);
            continue;
        }
        response.id = request.value().id;
        if (!request.value().job_id.empty())
            response.job_id = request.value().job_id;

        Result<JobSpec> spec = jobSpecFromJson(request.value().job);
        if (!spec.ok()) {
            malformed_requests_.fetch_add(1);
            response.status = "error";
            response.error = spec.error().message;
            writeFrame(socket, response.toJson().dump(),
                       config_.io_timeout_ms);
            continue;
        }

        const std::string& kind = spec.value().kind;
        if (isIntrospectionKind(kind)) {
            // Read-only introspection bypasses the scheduler queue on
            // purpose: the whole point is answering while the queue
            // is full or a job is wedged.
            response.status = "ok";
            response.result = introspect(kind);
            Result<bool> answered = writeFrame(
                socket, response.toJson().dump(),
                config_.io_timeout_ms);
            if (!answered.ok())
                return;
            continue;
        }

        std::string client = request.value().client.empty()
                                 ? default_client
                                 : request.value().client;
        JobOutcome outcome = scheduler_->submitAndWait(
            client, spec.take(), request.value().deadline_seconds,
            [&socket] { return net::peerClosed(socket); },
            request.value().job_id);
        response.job_id = outcome.job_id;
        response.status = outcome.status;
        response.result = std::move(outcome.result);
        response.error = outcome.error;
        response.retry_after_ms = outcome.retry_after_ms;
        response.artifact = outcome.artifact;
        Result<bool> sent = writeFrame(
            socket, response.toJson().dump(), config_.io_timeout_ms);
        if (!sent.ok())
            return;  // peer vanished mid-response
    }
}

}  // namespace graphiti::served

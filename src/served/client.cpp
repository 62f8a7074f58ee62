#include "served/client.hpp"

#include <chrono>
#include <thread>

namespace graphiti::served {

namespace json = obs::json;

Client::Client(ClientConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
}

void Client::disconnect() { socket_.close(); }

Result<net::Socket>
Client::connect()
{
    if (!config_.socket_path.empty())
        return net::connectUnix(config_.socket_path);
    if (config_.tcp_port >= 0)
        return net::connectTcp(
            static_cast<std::uint16_t>(config_.tcp_port));
    return err("client has neither a socket path nor a TCP port");
}

Result<JobResponse>
Client::requestOnce(const std::string& payload)
{
    if (!socket_.valid()) {
        Result<net::Socket> connected = connect();
        if (!connected.ok())
            return connected.error().context("Client::request");
        socket_ = connected.take();
    }
    Result<bool> sent =
        writeFrame(socket_, payload, config_.io_timeout_ms);
    if (!sent.ok()) {
        socket_.close();
        return sent.error().context("Client::request send");
    }
    std::string frame;
    Result<bool> received =
        readFrame(socket_, frame, config_.io_timeout_ms);
    if (!received.ok()) {
        socket_.close();
        return received.error().context("Client::request receive");
    }
    if (!received.value()) {
        socket_.close();
        return err("Client::request: daemon closed the connection "
                   "before responding");
    }
    Result<json::Value> parsed = json::parse(frame);
    if (!parsed.ok())
        return parsed.error().context("Client::request response");
    Result<JobResponse> response = jobResponseFromJson(parsed.value());
    if (!response.ok())
        return response.error().context("Client::request response");
    return response;
}

std::string
Client::mintJobId()
{
    // Hex of one Rng draw: unique across clients with distinct seeds,
    // deterministic for a seeded replay.
    static const char* digits = "0123456789abcdef";
    std::uint64_t draw = rng_.next();
    std::string id = "c-";
    for (int shift = 60; shift >= 0; shift -= 4)
        id.push_back(digits[(draw >> shift) & 0xf]);
    return id;
}

Result<JobResponse>
Client::request(const JobSpec& spec, double deadline_seconds,
                const std::string& job_id)
{
    JobRequest request;
    request.id = next_id_++;
    request.job = spec.toJson();
    request.deadline_seconds = deadline_seconds;
    // One id per LOGICAL request: the payload is built once, so every
    // retry attempt below carries the same correlation id.
    request.job_id = job_id.empty() ? mintJobId() : job_id;
    last_job_id_ = request.job_id;
    std::string payload = request.toJson().dump();
    stats_.requests += 1;

    std::string last_failure;
    for (std::size_t attempt = 0;
         attempt < config_.backoff.max_attempts; ++attempt) {
        if (attempt > 0)
            stats_.retries += 1;
        double retry_after_ms = 0.0;
        Result<JobResponse> sent = requestOnce(payload);
        if (sent.ok()) {
            if (sent.value().status != "rejected")
                return sent;
            stats_.sheds_seen += 1;
            retry_after_ms = sent.value().retry_after_ms;
            last_failure = "shed: " + sent.value().error;
        } else {
            stats_.transport_failures += 1;
            last_failure = sent.error().message;
        }
        if (attempt + 1 >= config_.backoff.max_attempts)
            break;
        double delay_ms = backoffDelayMs(config_.backoff, attempt,
                                         rng_, retry_after_ms);
        if (config_.sleep_between_retries && delay_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
    }
    return err("Client::request: gave up after " +
               std::to_string(config_.backoff.max_attempts) +
               " attempts (" + last_failure + ")");
}

Result<obs::json::Value>
Client::call(const JobSpec& spec, double deadline_seconds)
{
    Result<JobResponse> response = request(spec, deadline_seconds);
    if (!response.ok())
        return response.error();
    if (!response.value().ok())
        return err("job " + response.value().status + ": " +
                   response.value().error);
    return response.value().result;
}

Result<bool>
Client::ping()
{
    JobSpec spec;
    spec.kind = "ping";
    Result<json::Value> result = call(spec);
    if (!result.ok())
        return result.error();
    const json::Value* pong = result.value().find("pong");
    if (pong == nullptr || !pong->isBool() || !pong->asBool())
        return err("ping: daemon answered without a pong");
    return true;
}

Result<obs::json::Value>
Client::introspect(const char* kind)
{
    JobSpec spec;
    spec.kind = kind;
    Result<json::Value> result = call(spec);
    if (!result.ok())
        return result.error();
    const json::Value* payload = result.value().find(kind);
    if (payload == nullptr)
        return err(std::string(kind) +
                   ": daemon answered without a payload");
    return *payload;
}

Result<obs::json::Value> Client::serviceStats()
{
    return introspect("stats");
}

Result<obs::json::Value> Client::serviceJobs()
{
    return introspect("jobs");
}

Result<obs::json::Value> Client::serviceHealth()
{
    return introspect("health");
}

}  // namespace graphiti::served

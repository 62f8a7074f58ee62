#include "served/protocol.hpp"

namespace graphiti::served {

namespace json = obs::json;

std::string
encodeFrame(const std::string& payload)
{
    std::string frame;
    frame.reserve(payload.size() + 4);
    std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    frame.push_back(static_cast<char>((length >> 24) & 0xff));
    frame.push_back(static_cast<char>((length >> 16) & 0xff));
    frame.push_back(static_cast<char>((length >> 8) & 0xff));
    frame.push_back(static_cast<char>(length & 0xff));
    frame += payload;
    return frame;
}

Result<bool>
writeFrame(const net::Socket& socket, const std::string& payload,
           int timeout_ms)
{
    if (payload.size() > kMaxFrameBytes)
        return err("writeFrame: payload exceeds frame limit");
    return net::writeAll(socket, encodeFrame(payload), timeout_ms);
}

namespace {

/** Read exactly @p want bytes, treating EOF as a truncation error. */
Result<bool>
readExact(const net::Socket& socket, std::string& out, std::size_t want,
          int timeout_ms)
{
    while (out.size() < want) {
        Result<std::size_t> got =
            net::readSome(socket, out, want - out.size(), timeout_ms);
        if (!got.ok())
            return got.error();
        if (got.value() == 0)
            return err("readFrame: connection closed mid-frame (got " +
                       std::to_string(out.size()) + " of " +
                       std::to_string(want) + " bytes)");
    }
    return true;
}

}  // namespace

Result<bool>
readFrame(const net::Socket& socket, std::string& payload,
          int timeout_ms)
{
    std::string header;
    // The first byte distinguishes clean EOF from truncation.
    Result<std::size_t> first =
        net::readSome(socket, header, 4, timeout_ms);
    if (!first.ok())
        return first.error().context("readFrame header");
    if (first.value() == 0)
        return false;  // peer closed between frames
    Result<bool> rest = readExact(socket, header, 4, timeout_ms);
    if (!rest.ok())
        return rest.error().context("readFrame header");

    std::size_t length =
        (static_cast<std::size_t>(static_cast<unsigned char>(header[0]))
         << 24) |
        (static_cast<std::size_t>(static_cast<unsigned char>(header[1]))
         << 16) |
        (static_cast<std::size_t>(static_cast<unsigned char>(header[2]))
         << 8) |
        static_cast<std::size_t>(static_cast<unsigned char>(header[3]));
    if (length > kMaxFrameBytes)
        return err("readFrame: frame length " + std::to_string(length) +
                   " exceeds limit " + std::to_string(kMaxFrameBytes));

    payload.clear();
    payload.reserve(length);
    Result<bool> body = readExact(socket, payload, length, timeout_ms);
    if (!body.ok())
        return body.error().context("readFrame body");
    return true;
}

obs::json::Value
JobRequest::toJson() const
{
    json::Value out{json::Object{}};
    out.set("id", id);
    out.set("job", job);
    if (deadline_seconds > 0)
        out.set("deadline_seconds", deadline_seconds);
    if (!client.empty())
        out.set("client", client);
    if (!job_id.empty())
        out.set("job_id", job_id);
    return out;
}

Result<JobRequest>
jobRequestFromJson(const obs::json::Value& v)
{
    if (!v.isObject())
        return err("request must be a JSON object");
    JobRequest request;
    const json::Value* id = v.find("id");
    if (id == nullptr)
        return err("request has no \"id\"");
    Result<std::uint64_t> request_id = json::exactCount(*id);
    if (!request_id.ok())
        return request_id.error().context("request \"id\"");
    request.id = request_id.value();
    const json::Value* job = v.find("job");
    if (job == nullptr)
        return err("request has no \"job\"");
    request.job = *job;
    const json::Value* deadline = v.find("deadline_seconds");
    if (deadline != nullptr) {
        if (!deadline->isNumber() || deadline->asNumber() < 0)
            return err("request \"deadline_seconds\" must be a "
                       "non-negative number");
        request.deadline_seconds = deadline->asNumber();
    }
    const json::Value* client = v.find("client");
    if (client != nullptr) {
        if (!client->isString())
            return err("request \"client\" must be a string");
        request.client = client->asString();
    }
    const json::Value* job_id = v.find("job_id");
    if (job_id != nullptr) {
        if (!job_id->isString())
            return err("request \"job_id\" must be a string");
        request.job_id = job_id->asString();
    }
    return request;
}

obs::json::Value
JobResponse::toJson() const
{
    json::Value out{json::Object{}};
    out.set("id", id);
    if (!job_id.empty())
        out.set("job_id", job_id);
    out.set("status", status);
    if (status == "ok")
        out.set("result", result);
    if (!error.empty())
        out.set("error", error);
    if (retry_after_ms > 0)
        out.set("retry_after_ms", retry_after_ms);
    if (!artifact.empty())
        out.set("artifact", artifact);
    return out;
}

Result<JobResponse>
jobResponseFromJson(const obs::json::Value& v)
{
    if (!v.isObject())
        return err("response must be a JSON object");
    JobResponse response;
    const json::Value* id = v.find("id");
    if (id == nullptr)
        return err("response has no \"id\"");
    Result<std::uint64_t> response_id = json::exactCount(*id);
    if (!response_id.ok())
        return response_id.error().context("response \"id\"");
    response.id = response_id.value();
    const json::Value* job_id = v.find("job_id");
    if (job_id != nullptr && job_id->isString())
        response.job_id = job_id->asString();
    const json::Value* status = v.find("status");
    if (status == nullptr || !status->isString())
        return err("response \"status\" must be a string");
    response.status = status->asString();
    if (response.status != "ok" && response.status != "error" &&
        response.status != "rejected" && response.status != "cancelled")
        return err("unknown response status \"" + response.status +
                   "\"");
    const json::Value* result = v.find("result");
    if (result != nullptr)
        response.result = *result;
    const json::Value* error = v.find("error");
    if (error != nullptr && error->isString())
        response.error = error->asString();
    const json::Value* retry = v.find("retry_after_ms");
    if (retry != nullptr && retry->isNumber())
        response.retry_after_ms = retry->asNumber();
    const json::Value* artifact = v.find("artifact");
    if (artifact != nullptr && artifact->isString())
        response.artifact = artifact->asString();
    return response;
}

}  // namespace graphiti::served

#ifndef GRAPHITI_SERVED_PROTOCOL_HPP
#define GRAPHITI_SERVED_PROTOCOL_HPP

/**
 * @file
 * The served wire protocol (docs/service.md).
 *
 * Transport framing: every message is a 4-byte big-endian payload
 * length followed by that many bytes of UTF-8 JSON. Frames above
 * kMaxFrameBytes are rejected before any allocation — a junk length
 * prefix must not let one client balloon the daemon's memory.
 *
 * Request:  { "id": n, "job": <JobSpec>, "deadline_seconds": s?,
 *             "client": "name"?, "job_id": "..."? }
 * Response: { "id": n, "job_id": "...", "status": "ok" | "error" |
 *             "rejected" | "cancelled", "result"?: ..., "error"?:
 *             "...", "retry_after_ms"?: ms, "artifact"?: "..." }
 *
 * `job_id` is the correlation id (docs/service_observability.md):
 * the client mints one per logical request and reuses it across
 * retry attempts (so a shed-then-resubmit sequence shares one id in
 * the daemon's journal); the daemon adopts it at
 * admission — or mints one if the request carries none — and echoes
 * it in every response.
 *
 * Status semantics:
 *   ok         the job ran; "result" holds runJob's output verbatim.
 *   error      the job ran and failed deterministically (malformed
 *              spec, validation failure, verification counterexample).
 *              Retrying the identical request returns the identical
 *              error — clients must not retry.
 *   rejected   admission control shed the job before it ran;
 *              "retry_after_ms" tells the client when the queue is
 *              likely to have drained. Retry with backoff.
 *   cancelled  the job was parked by its deadline, a disconnect, or
 *              fair-share preemption; "error" carries the stop
 *              reason, "artifact" a failure post-mortem when the
 *              supervisor declared the job wedged.
 */

#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "support/result.hpp"
#include "support/socket.hpp"

namespace graphiti::served {

/** Hard ceiling on one frame's payload (64 MiB). */
constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

/** Render @p payload as one wire frame (header + payload). */
std::string encodeFrame(const std::string& payload);

/** Send one frame. */
Result<bool> writeFrame(const net::Socket& socket,
                        const std::string& payload, int timeout_ms);

/**
 * Receive one frame into @p payload. Returns false on a clean EOF
 * before the first header byte (peer done, not an error); errors on
 * timeouts, truncated frames (EOF mid-message) and oversized lengths.
 */
Result<bool> readFrame(const net::Socket& socket, std::string& payload,
                       int timeout_ms);

/** One request as carried on the wire. */
struct JobRequest
{
    std::uint64_t id = 0;
    /** The JobSpec document (parsed lazily server-side so a malformed
     * spec yields a structured per-request error, not a dead
     * connection). */
    obs::json::Value job;
    /** Wall-clock deadline of this job; 0 = none. Lives here, not in
     * the spec: deadlines are scheduling policy, and verdicts under a
     * deadline are never cached. */
    double deadline_seconds = 0.0;
    /** Fair-share accounting identity; defaults to the connection. */
    std::string client;
    /** Correlation id; empty = let the daemon mint one. */
    std::string job_id;

    obs::json::Value toJson() const;
};

Result<JobRequest> jobRequestFromJson(const obs::json::Value& v);

/** One response as carried on the wire. */
struct JobResponse
{
    std::uint64_t id = 0;
    /** Correlation id the daemon attached to this request. */
    std::string job_id;
    std::string status = "error";
    obs::json::Value result;
    std::string error;
    /** Shed hint: suggested minimum delay before retrying. */
    double retry_after_ms = 0.0;
    /** Failure post-mortem of a wedged job (JSON text). */
    std::string artifact;

    bool ok() const { return status == "ok"; }
    obs::json::Value toJson() const;
};

Result<JobResponse> jobResponseFromJson(const obs::json::Value& v);

}  // namespace graphiti::served

#endif  // GRAPHITI_SERVED_PROTOCOL_HPP

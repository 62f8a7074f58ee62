#ifndef GRAPHITI_CORE_JOB_HPP
#define GRAPHITI_CORE_JOB_HPP

/**
 * @file
 * The job API: one compile/validate/verify/profile request as plain
 * data, and one function that executes it.
 *
 * This is the seam the served daemon shares with the one-shot CLI
 * flow: both paths build a JobSpec and call runJob on a fresh
 * Compiler, so a verdict served over a socket is byte-identical to
 * the verdict the same request produces in-process — the contract
 * tests/test_served.cpp pins down benchmark by benchmark
 * (docs/service.md).
 *
 * Job kinds:
 *   ping      liveness probe; returns {"pong": true};
 *   compile   run the verified OoO pipeline on `circuit_dot`;
 *   verify    compile with governed verification forced on;
 *   validate  structural validation only (no rewriting);
 *   profile   compile, then simulate the transformed circuit on the
 *             request's workload; returns cycle counts.
 *   stats / jobs / health
 *             read-only service introspection
 *             (docs/service_observability.md). Parsed here so specs
 *             round-trip, but answered by the served daemon before
 *             the scheduler; runJob refuses them deterministically.
 *
 * Determinism: every knob that reaches the verification ladder is
 * part of the spec (and of the verdict cache key); wall-clock fields
 * (`seconds`) appear only in the full report, never in the verdict.
 */

#include <string>

#include "core/compiler.hpp"
#include "obs/json.hpp"
#include "support/cancel.hpp"
#include "support/result.hpp"

namespace graphiti {

/** One job, as carried by the served protocol. */
struct JobSpec
{
    std::string kind = "compile";
    /** The input circuit (dot text); required except for ping and
     * the introspection kinds. */
    std::string circuit_dot;
    /** Compilation knobs (subset settable over the wire). */
    CompileOptions options;
    /** Workload of a profile job. */
    faults::Workload workload;

    obs::json::Value toJson() const;
};

/** Serialize the wire-settable subset of CompileOptions. */
obs::json::Value compileOptionsToJson(const CompileOptions& options);

/** Parse options as serialized by compileOptionsToJson; unknown
 * fields are ignored, absent fields keep their defaults. */
Result<CompileOptions> compileOptionsFromJson(const obs::json::Value& v);

/** Parse a JobSpec from its toJson form. */
Result<JobSpec> jobSpecFromJson(const obs::json::Value& v);

/** True for the read-only introspection kinds (stats, jobs, health),
 * which the daemon answers itself and runJob refuses. */
bool isIntrospectionKind(const std::string& kind);

/**
 * Execute @p spec on @p compiler. @p stop is the caller's
 * cancellation handle (deadline / disconnect / preemption); it is
 * installed as CompileOptions::stop and SimConfig::stop for the run.
 * The result object always carries "kind"; failures are Result
 * errors, not half-filled objects.
 */
Result<obs::json::Value> runJob(Compiler& compiler, const JobSpec& spec,
                                const StopToken& stop = {});

}  // namespace graphiti

#endif  // GRAPHITI_CORE_JOB_HPP

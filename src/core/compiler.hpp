#ifndef GRAPHITI_CORE_COMPILER_HPP
#define GRAPHITI_CORE_COMPILER_HPP

/**
 * @file
 * The public compiler API: the tool flow of figure 1.
 *
 * A Compiler accepts a dataflow circuit (dot text or ExprHigh), runs
 * the verified out-of-order rewriting pipeline, and returns the
 * optimized circuit together with a report: which loops were
 * transformed, which were refused (and why), how many rewrites were
 * applied and how long rewriting took (section 6.3's metrics).
 *
 * Usage:
 *
 *     graphiti::Compiler compiler;
 *     auto result = compiler.compileDot(dot_text, {.num_tags = 8});
 *     if (result.ok())
 *         std::cout << result.value().output_dot;
 *
 * For bounded formal validation of a specific compilation,
 * verifyCompilation checks transformed ⊑ original with the refinement
 * checker on a caller-provided token domain; stressCompilation
 * complements it dynamically, replaying a concrete workload under
 * adversarial fault plans and checking latency-insensitivity.
 */

#include <memory>
#include <string>

#include "faults/stress.hpp"
#include "guard/governor.hpp"
#include "guard/validator.hpp"
#include "guard/verdict_store.hpp"
#include "obs/critpath.hpp"
#include "obs/scope.hpp"
#include "refine/refinement.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "semantics/environment.hpp"
#include "support/result.hpp"

namespace graphiti {

/** Options of one compilation. */
struct CompileOptions
{
    /** Tag count for inserted Tagger/Untagger components. */
    int num_tags = 8;
    /** Re-expand Pure bodies into their original operators. */
    bool reexpand = true;
    /**
     * Paranoid mode: re-discharge the refinement obligation of every
     * verified catalog rewrite before rewriting (slower; the checks
     * are also run by the test suite).
     */
    bool verify_rewrites = false;
    /**
     * Observability scope installed (thread-locally) for the duration
     * of the compilation, so the rewrite engine, e-graph and
     * refinement checker record into its registry. Null = keep
     * whatever scope is already current.
     */
    std::shared_ptr<obs::Scope> obs;
    /**
     * Guarded mode (default on): structurally validate the input
     * circuit before rewriting (errors become structured diagnostics,
     * not crashes), run every rewrite as a validate-or-rollback
     * transaction, and re-validate the output. Rolled-back rewrites
     * are reported in CompileReport::rollbacks.
     */
    bool validate = true;
    /**
     * Run the resource-governed verification ladder after rewriting
     * (transformed ⊑ original) and report the achieved assurance in
     * CompileReport::verification_level. Off by default: bounded
     * verification costs real time even when governed.
     */
    bool governed_verify = false;
    /** Resource budget of the governed verification. */
    guard::VerificationBudget verify_budget;
    /** Token domain of the governed verification; empty = {0, 1}. */
    std::vector<Token> verify_tokens;
    /**
     * Memoize governed compiles in the compiler's guard::VerdictStore
     * (only read when governed_verify is on). Two entries per input:
     *   - a compile entry, keyed by a hash of the canonical input dot,
     *     num_tags, reexpand, validate and the rule-catalog
     *     fingerprint, holding the output circuit and the loop,
     *     rewrite, rollback and validation report. A hit skips
     *     typecheck, validation and the whole rewrite pipeline
     *     (CompileReport::compile_cache_hit; seconds reads 0). No
     *     entry is used or written for a circuit holding a `pure`
     *     node (an input that does, or any output with reexpand
     *     off): its function lives only in this compiler's registry.
     *     Nor with verify_rewrites on.
     *   - a verdict, keyed by a hash of (output and input circuits,
     *     budget, token domain), so recompiling an unchanged circuit
     *     skips exploration. Only deterministic verdicts
     *     (deadline_seconds == 0) are ever cached.
     * Nothing is committed once the stop token has fired.
     */
    bool verify_cache = true;
    /**
     * Caller-owned cancellation handle (must be armed — see
     * StopToken::manual / withDeadline — to have any effect). The
     * governed verification ladder polls it, so a served job's
     * deadline, a client disconnect, or a fair-share preemption
     * unwinds the compile with an honest degraded verdict instead of
     * hanging a worker. Verdicts produced after the token fired are
     * wall-clock artifacts and are never cached.
     */
    StopToken stop;
};

/** Outcome of one compilation. */
struct CompileReport
{
    ExprHigh graph;          ///< the optimized circuit
    std::string output_dot;  ///< the same circuit, printed
    std::vector<LoopTransformReport> loops;
    EngineStats rewrites;
    double seconds = 0.0;    ///< rewriting wall time
    /** Post-transform structural validation of the output circuit
     * (empty when CompileOptions::validate was off). */
    guard::ValidationReport validation;
    /** Rewrites vetoed and rolled back by the transaction post-check. */
    std::vector<RewriteRollback> rollbacks;
    /** Assurance achieved by governed verification: "full",
     * "bounded-partial", "trace-inclusion", "none", or "not-run". */
    std::string verification_level = "not-run";
    /** Why verification degraded below full; empty otherwise. */
    std::string degradation_reason;
    /** Full governed-verification verdict (level None when not run). */
    guard::VerificationVerdict verdict;
    /** The governed verdict came from the verdict store — no
     * exploration ran for it. */
    bool verify_cache_hit = false;
    /** The circuit and its rewrite report came from a compile entry
     * of the store — no rewriting ran (see
     * CompileOptions::verify_cache). */
    bool compile_cache_hit = false;
    /** Canonical cache key of the governed verification ("0x…");
     * empty when governed verification did not run. */
    std::string verify_cache_key;
    /**
     * High-water byte estimates of the governed verification's
     * exploration (both state spaces + dedup indexes) and simulation
     * game. Resource accounting only: deterministic per
     * (seed, budget), 0 on a cache hit (no exploration ran).
     */
    std::size_t verify_explore_peak_bytes = 0;
    std::size_t verify_game_peak_bytes = 0;

    /**
     * Machine-readable summary (loops, rewrite counts, timing); the
     * circuit itself is reported only by node count, not re-printed.
     */
    obs::json::Value toJson() const;
};

/** Options of one profiled run (see Compiler::profileRun). */
struct ProfileOptions
{
    /** Base simulator configuration (the obs slot is overwritten with
     * the profiling scope). */
    sim::SimConfig sim;
    /** Provenance capacity limits. */
    obs::ProvenanceConfig provenance;
    /** Critical-path analysis limits. */
    obs::CritPathOptions critpath;
};

/** Outcome of one profiled run: the raw hop log, its critical-path
 * analysis, and the simulation result itself. */
struct ProfileBundle
{
    obs::ProvenanceLog log;
    obs::CritPathReport report;
    sim::SimResult sim;
};

/** The GRAPHITI compiler. */
class Compiler
{
  public:
    Compiler() = default;

    /** The environment (component semantics + pure-fn registry). */
    Environment& environment() { return env_; }
    const Environment& environment() const { return env_; }

    /** Compile a dot document. */
    Result<CompileReport> compileDot(const std::string& dot_text,
                                     const CompileOptions& options = {});

    /** Compile an already-parsed graph. */
    Result<CompileReport> compileGraph(const ExprHigh& graph,
                                       const CompileOptions& options = {});

    /**
     * Bounded formal validation: check transformed ⊑ original on the
     * finite instantiation given by @p tokens and @p limits, using a
     * bounded-queue copy of this compiler's environment.
     */
    Result<RefinementReport> verifyCompilation(
        const ExprHigh& original, const ExprHigh& transformed,
        const std::vector<Token>& tokens, const ExplorationLimits& limits);

    /**
     * Dynamic validation of a specific compilation: stress both
     * circuits on @p workload under adversarial timing (seeded
     * random and structured fault plans) and check the
     * latency-insensitivity invariant plus original/transformed
     * agreement. Uses this compiler's pure-fn registry, so call it
     * after compileGraph registered the transformed circuit's
     * functions.
     */
    Result<faults::StressReport> stressCompilation(
        const ExprHigh& original, const ExprHigh& transformed,
        const faults::Workload& workload,
        const faults::StressOptions& options = {});

    /**
     * Profile one run of @p graph on @p workload with full token
     * provenance: attach a fresh obs scope + ProvenanceTracker,
     * simulate, and replay the hop log into per-token critical paths
     * and cycle attributions (compute / queue wait / backpressure).
     * Uses this compiler's pure-fn registry, so call it after
     * compileGraph when profiling a transformed circuit.
     */
    Result<ProfileBundle> profileRun(const ExprHigh& graph,
                                     const faults::Workload& workload,
                                     const ProfileOptions& options = {});

    /**
     * Every governed verdict lookup and commit goes through this
     * store: by default a memory-only store of this compiler's own.
     * Hand in a shared, non-null one (the served daemon's, or one
     * with a persistence `dir`) so every request — and every restart
     * — sees the same committed verdicts. The store is thread-safe;
     * the Compiler itself still is not (use one Compiler per job).
     */
    void
    setVerdictStore(std::shared_ptr<guard::VerdictStore> store)
    {
        verdict_store_ = std::move(store);
    }
    const std::shared_ptr<guard::VerdictStore>&
    verdictStore() const
    {
        return verdict_store_;
    }

  private:
    /** Typecheck, validate, rewrite and re-validate @p graph: the
     * compile a compile entry stands in for. */
    Result<CompileReport> rewriteGraph(const ExprHigh& graph,
                                       const CompileOptions& options);

    Environment env_;
    std::shared_ptr<guard::VerdictStore> verdict_store_ =
        std::make_shared<guard::VerdictStore>();
};

}  // namespace graphiti

#endif  // GRAPHITI_CORE_COMPILER_HPP

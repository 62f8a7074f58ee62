#ifndef GRAPHITI_GUARD_GOVERNOR_HPP
#define GRAPHITI_GUARD_GOVERNOR_HPP

/**
 * @file
 * Resource-governed verification: deadline + state-budget tokens and
 * an explicit degradation ladder.
 *
 * Bounded refinement checking is exact but can blow past any memory
 * or time budget on large instantiations. Instead of hanging or
 * aborting the whole compilation, the Governor walks a ladder and
 * reports the rung it reached *honestly*:
 *
 *   Full           exhaustive exploration + exact simulation game
 *   BoundedPartial memory-bounded explorePartial + optimistic game
 *                  ("no counterexample within the explored bound")
 *   TraceInclusion seeded randomized trace-inclusion testing
 *   None           nothing could run (the reason says why)
 *
 * Counterexamples found on any rung are genuine violations; a pass on
 * a degraded rung is weaker assurance, never silently presented as a
 * proof. With deadline_seconds == 0 the ladder is driven purely by
 * deterministic state budgets, so the verdict is byte-identical for a
 * fixed seed/budget — the property the guard tests pin down.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "refine/refinement.hpp"
#include "refine/trace.hpp"
#include "support/cancel.hpp"

namespace graphiti::guard {

/** The assurance actually achieved by a governed verification. */
enum class VerificationLevel
{
    None,            ///< no check could run
    TraceInclusion,  ///< randomized trace-inclusion testing only
    BoundedPartial,  ///< bounded check on a partial state space
    Full,            ///< exact check on the full bounded instantiation
};

const char* toString(VerificationLevel level);

/** Resource budget of one governed verification. */
struct VerificationBudget
{
    /**
     * Wall-clock deadline for the whole ladder; 0 disables the clock
     * (state budgets alone govern, keeping verdicts deterministic).
     */
    double deadline_seconds = 0.0;
    /** Full-exploration state cap (rung 1), per side; 0 skips the
     * full check entirely. Default raised with the compact state
     * encoding: bytes/state dropped, so the same memory now buys
     * more states. */
    std::size_t max_states = 500000;
    /** Partial-exploration state cap (rung 2), per side — the memory
     * budget of the degraded check; 0 skips the rung. */
    std::size_t partial_max_states = 50000;
    /** Input tokens consumed along any explored execution. */
    std::size_t input_budget = 3;
    /** Random walks of the trace-inclusion rung; 0 skips the rung. */
    std::size_t trace_walks = 32;
    /** Shape of each walk. */
    TraceGenOptions trace;
    /** Seed of the trace-inclusion rung (deterministic). */
    std::uint64_t seed = 0x677561726471ULL;
    /**
     * Worker lanes for exploration, the simulation game and the trace
     * walks (1 = sequential, 0 = hardware concurrency). Verdicts are
     * byte-identical at any thread count: exploration merges in
     * canonical order and each trace walk derives its own seed from
     * (seed, walk index).
     */
    std::size_t threads = 1;
    /**
     * Frontier spill cap per exploration (ExplorationLimits::
     * spill_bytes): a parked BoundedPartial frontier larger than this
     * parks its cold rows on disk instead of pinning them in RAM;
     * 0 disables spilling. Memory policy only — verdicts are
     * byte-identical with or without it, so (like threads) it is
     * excluded from the verify-cache key.
     */
    std::size_t spill_bytes = 0;
};

/** The honest outcome of a governed verification. */
struct VerificationVerdict
{
    VerificationLevel level = VerificationLevel::None;
    /** No violation found at `level` (false when a counterexample was
     * found, or when nothing could run). */
    bool ok = false;
    /** Exact refinement proven on the bounded instantiation — true
     * only at VerificationLevel::Full. */
    bool refines = false;
    /** Why the ladder descended below Full; empty at Full. */
    std::string degradation_reason;
    /** Genuine violation witness; empty when ok. */
    std::string counterexample;
    /** Game statistics (rungs Full/BoundedPartial). */
    RefinementReport report;
    /** Walks completed (rung TraceInclusion). */
    std::size_t trace_walks_run = 0;
    /**
     * High-water byte estimate of the winning rung's explorations
     * (both spaces plus their dedup indexes). Resource accounting
     * only: deliberately NOT part of toJson() — cached verdicts
     * round-trip through that JSON and golden tests compare it
     * byte-for-byte — so a cache hit honestly reports 0 (no
     * exploration ran).
     */
    std::size_t explore_peak_bytes = 0;

    /** Deterministic summary: no wall-clock content, so two runs with
     * the same seed/budget dump byte-identical JSON. */
    obs::json::Value toJson() const;
};

/** The resource governor. */
class Governor
{
  public:
    explicit Governor(VerificationBudget budget);

    /**
     * A governor whose phases additionally poll @p external — an
     * armed caller-owned token (job deadline, client disconnect,
     * fair-share preemption in the served daemon). When @p external
     * is armed it becomes the governor's token outright, so the
     * caller controls both deadline and explicit cancellation;
     * unarmed, this is the single-argument constructor.
     */
    Governor(VerificationBudget budget, StopToken external);

    /** The cancellation token phases poll; armed with the deadline
     * when one was configured. Share it with SimConfig::stop or
     * ExplorationLimits::stop to govern external phases too. */
    const StopToken& token() const { return stop_; }

    /** Request early cancellation of everything the token governs. */
    void cancel(const std::string& reason) { stop_.requestStop(reason); }

    /**
     * Run the ladder for impl ⊑ spec under @p domain. @p input_pool
     * feeds the trace-inclusion rung (tokens drawn at random inputs).
     */
    VerificationVerdict verify(const DenotedModule& impl,
                               const DenotedModule& spec,
                               const InputDomain& domain,
                               const std::vector<Token>& input_pool) const;

    /** Lower + denote two graphs in @p env, then verify with a
     * uniform domain over @p tokens. */
    VerificationVerdict verifyGraphs(const ExprHigh& impl,
                                     const ExprHigh& spec,
                                     const Environment& env,
                                     const std::vector<Token>& tokens) const;

  private:
    VerificationBudget budget_;
    StopToken stop_;
};

}  // namespace graphiti::guard

#endif  // GRAPHITI_GUARD_GOVERNOR_HPP

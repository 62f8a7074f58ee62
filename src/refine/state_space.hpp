#ifndef GRAPHITI_REFINE_STATE_SPACE_HPP
#define GRAPHITI_REFINE_STATE_SPACE_HPP

/**
 * @file
 * Finite-state exploration of denoted modules.
 *
 * The refinement checker needs the full transition system of a module
 * restricted to a finite instantiation: a finite token domain per
 * external input and a total budget of input tokens. Exploration
 * enumerates every reachable state and records internal, input and
 * output edges; the weak-simulation solver then works on these finite
 * graphs.
 *
 * The budget is part of the state, so both sides of a refinement
 * check consume inputs in lock-step (matched executions always agree
 * on the number of inputs consumed).
 *
 * Storage is compact (ROADMAP: billion-state engine, lever 1):
 * distinct component states are interned once into a StatePool and a
 * graph state is a fixed-width row of 32-bit pool ids; the dedup index
 * keys on (row, budget) instead of deep state copies; edges live in
 * CSR (offset + flat array) tables costing three integers per state;
 * and a parked frontier can spill its rows to an atomic temp file
 * (ExplorationLimits::spill_bytes) and page back on resume().
 *
 * Exploration parallelizes (ExplorationLimits::threads) without
 * changing the result: successor computation fans out over a
 * ThreadPool per frontier batch against a frozen pool + interning
 * table, and new states are then interned by one thread in the exact
 * order the sequential loop would have produced, so state ids, pool
 * ids — and every downstream verdict — are byte-identical at any
 * thread count (docs/parallelism.md).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "refine/state_pool.hpp"
#include "semantics/module.hpp"
#include "support/cancel.hpp"
#include "support/result.hpp"
#include "support/thread_pool.hpp"

namespace graphiti {

namespace detail {
class FrontierSpill;
}

/** Finite instantiation: tokens offered at each external input. */
struct InputDomain
{
    /** Per-port candidate tokens. */
    std::map<LowPortId, std::vector<Token>> tokens;

    /** Offer the same tokens at every input of @p mod. */
    static InputDomain uniform(const DenotedModule& mod,
                               std::vector<Token> tokens);
};

/** Exploration bounds. */
struct ExplorationLimits
{
    /** Abort when more states than this are reachable. */
    std::size_t max_states = 500000;
    /** Total number of input tokens consumed along any execution. */
    std::size_t input_budget = 3;
    /**
     * Worker lanes for frontier expansion (1 = the sequential loop,
     * 0 = hardware concurrency). Any value yields the same space.
     */
    std::size_t threads = 1;
    /**
     * Frontier spill cap in bytes (0 = never spill). When an
     * exploration parks (cap or stop) with more than this many bytes
     * of un-expanded state rows, the cold tail spills to an atomic
     * temp file and pages back on resume(). Pure memory policy: the
     * explored space, fingerprint and verdicts are unaffected.
     */
    std::size_t spill_bytes = 0;
    /**
     * Cooperative cancellation: exploration polls the token between
     * state expansions and parks the remaining frontier when it
     * fires. explore() then errors with the stop reason;
     * explorePartial() returns the partial space (stopped() true).
     */
    StopToken stop;
};

/** The explored transition system of one module instantiation. */
class StateSpace
{
  public:
    /** An input edge: consuming domain token @p token_idx at a port. */
    struct InputEdge
    {
        std::uint32_t port_idx;   ///< index into inputPorts()
        std::uint32_t token_idx;  ///< index into domain tokens
        std::uint32_t dst;
    };

    /** An output edge: emitting @p token at a port. */
    struct OutputEdge
    {
        std::uint32_t port_idx;  ///< index into outputPorts()
        Token token;
        std::uint32_t dst;
    };

    /** Read-only view of one state's edges inside a CSR table. */
    template <typename T>
    class EdgeSpan
    {
      public:
        EdgeSpan() = default;
        EdgeSpan(const T* first, const T* last)
            : first_(first), last_(last)
        {
        }

        const T* begin() const { return first_; }
        const T* end() const { return last_; }
        std::size_t size() const
        {
            return static_cast<std::size_t>(last_ - first_);
        }
        bool empty() const { return first_ == last_; }
        const T& operator[](std::size_t i) const { return first_[i]; }

      private:
        const T* first_ = nullptr;
        const T* last_ = nullptr;
    };

    /** Where the bytes of a space live (all size-based estimates). */
    struct MemoryBreakdown
    {
        std::size_t pool = 0;   ///< interned CompState arena + index
        std::size_t rows = 0;   ///< encoded id rows resident in RAM
        std::size_t edges = 0;  ///< CSR offset + flat edge arrays
        std::size_t spill = 0;  ///< frontier rows parked on disk
    };

    /** Spill-tier activity counters (docs/verification_observability.md). */
    struct SpillStats
    {
        std::size_t spills = 0;          ///< park-time spill events
        std::size_t pages_in = 0;        ///< resume-time page-backs
        std::size_t spilled_bytes = 0;   ///< total bytes written
        std::size_t paged_in_bytes = 0;  ///< total bytes read back
    };

    StateSpace();
    ~StateSpace();
    StateSpace(StateSpace&&) noexcept;
    StateSpace& operator=(StateSpace&&) noexcept;

    /**
     * Explore @p mod under @p domain and @p limits.
     * Fails when max_states is exceeded.
     */
    static Result<StateSpace> explore(const DenotedModule& mod,
                                      const InputDomain& domain,
                                      const ExplorationLimits& limits);

    /**
     * Memory-bounded exploration: like explore, but when max_states
     * is reached the partial space is returned (complete() == false)
     * with the unexpanded states saved as a resumable frontier
     * instead of aborting. Edges recorded so far are exact; states on
     * the frontier simply have none yet.
     */
    static Result<StateSpace> explorePartial(
        const DenotedModule& mod, const InputDomain& domain,
        const ExplorationLimits& limits);

    /** True when every reachable state has been expanded. */
    bool complete() const { return expanded_ == budget_.size(); }

    /** True when the last expansion stopped on the limits' StopToken
     * (as opposed to filling max_states). */
    bool stopped() const { return stopped_; }

    /** Why the exploration stopped; empty unless stopped(). */
    const std::string& stopReason() const { return stop_reason_; }

    /** State ids still awaiting expansion (empty when complete).
     * States are expanded FIFO in interning order, so this is always
     * the contiguous id range [firstPending(), numStates()). */
    const std::vector<std::uint32_t>& pendingFrontier() const
    {
        return frontier_;
    }

    /**
     * Continue a partial exploration of @p mod with room for
     * @p additional_states more states. Rebuilds the dedup index from
     * the states already interned (and pages back any spilled frontier
     * rows first), so a parked space costs no index memory while
     * parked. Resuming to completion yields exactly the state space a
     * one-shot explore would have built — same pool ids included.
     */
    Result<bool> resume(const DenotedModule& mod,
                        std::size_t additional_states);

    /** Replace the stop token consulted by resume() — e.g. to resume
     * a space whose exploration was parked by a fired token. */
    void setStopToken(StopToken stop) { stop_ = std::move(stop); }

    std::size_t numStates() const { return budget_.size(); }
    std::uint32_t initialState() const { return 0; }

    EdgeSpan<std::uint32_t> internalEdges(std::uint32_t s) const
    {
        return edgeSpan(int_off_, int_flat_, s);
    }
    EdgeSpan<InputEdge> inputEdges(std::uint32_t s) const
    {
        return edgeSpan(in_off_, in_flat_, s);
    }
    EdgeSpan<OutputEdge> outputEdges(std::uint32_t s) const
    {
        return edgeSpan(out_off_, out_flat_, s);
    }

    /** Remaining input budget in state @p s. */
    std::uint32_t budget(std::uint32_t s) const { return budget_[s]; }

    /** Port tables shared with the sibling space in a check. */
    const std::vector<LowPortId>& inputPorts() const { return in_ports_; }
    const std::vector<LowPortId>& outputPorts() const
    {
        return out_ports_;
    }
    /** Domain tokens offered at input port @p port_idx. */
    const std::vector<Token>& domainTokens(std::uint32_t port_idx) const
    {
        return domain_tokens_[port_idx];
    }

    /**
     * States reachable from @p s by zero or more internal transitions
     * (the weak closure int*), memoized.
     */
    const std::vector<std::uint32_t>& internalClosure(std::uint32_t s) const;

    /**
     * Fill the closure memo for every state, fanning the per-state
     * BFS out over @p pool. Must be called before any multi-threaded
     * consumer of internalClosure(): the lazy memo write is not
     * thread-safe, but pre-filled entries are immutable thereafter.
     */
    void precomputeClosures(ThreadPool& pool) const;

    /**
     * Deterministic structural digest of the explored space (states,
     * budgets, all three edge kinds, frontier). Two explorations that
     * built the same space — e.g. at different thread counts, with or
     * without spilling, or park+resume vs one-shot — agree on this
     * value, and it is unchanged from the pre-encoding digest.
     */
    std::uint64_t fingerprint() const;

    /** Pretty-printed concrete state, for counterexamples. Decodes
     * the id row on demand (reading the spill file if the state is
     * parked on disk). */
    std::string describeState(std::uint32_t s) const;

    /** Tokens held anywhere inside the concrete state @p s. */
    std::size_t tokensInFlight(std::uint32_t s) const;

    /** The per-exploration component-state intern pool. */
    const StatePool& pool() const { return pool_; }

    /** Pool-id row encoding state @p s (spill-reading like
     * describeState); row length is the module's component count. */
    std::vector<std::uint32_t> encodedRow(std::uint32_t s) const;

    /**
     * Size-based RAM estimate of the explored space: the interned
     * component pool, encoded id rows, CSR edge tables, budgets and
     * the parked frontier. Deliberately counts sizes rather than
     * capacities, so the figure is a pure function of the space —
     * equal at any thread count and stable per seed
     * (docs/verification_observability.md). Spilled rows are excluded
     * (they are not in RAM); see spillBytes() and breakdown(). The
     * dedup index lives only inside expand(), so a parked partial
     * space costs exactly this.
     */
    std::size_t approxBytes() const;

    /** Per-tier decomposition of the space's footprint. */
    MemoryBreakdown breakdown() const;

    /** Bytes of frontier rows currently parked in the spill file. */
    std::size_t spillBytes() const;

    /** Cumulative spill-tier activity for this space. */
    const SpillStats& spillStats() const { return spill_stats_; }

    /** High-water approxBytes() + dedup-index + spill-file estimate
     * seen by any expansion of this space (0 until the first
     * expansion). */
    std::size_t peakBytes() const { return peak_bytes_; }

  private:
    /** The shared worklist loop behind explore/explorePartial/resume:
     * expand frontier states until done or @p max_states interned. */
    Result<bool> expand(const DenotedModule& mod,
                        std::size_t max_states);

    template <typename T>
    EdgeSpan<T>
    edgeSpan(const std::vector<std::uint32_t>& off,
             const std::vector<T>& flat, std::uint32_t s) const
    {
        if (s >= expanded_)
            return {};
        return {flat.data() + off[s], flat.data() + off[s + 1]};
    }

    /** First state id with no stamped edges yet (== numStates() when
     * complete). The pending frontier is [expanded_, numStates()). */
    std::uint32_t firstPending() const { return expanded_; }

    /** Decode state @p s into its id row (RAM or spill file). */
    void readRow(std::uint32_t s, std::uint32_t* out) const;
    /** Materialize the concrete GraphState of @p s. */
    GraphState decodeState(std::uint32_t s) const;
    /** Rebuild frontier_ as [expanded_, numStates()). */
    void refreshFrontier();
    /** Park-time spill of cold frontier rows past the byte cap. */
    void maybeSpill();
    /** Resume-time page-back of every spilled row. */
    Result<bool> pageBackSpill();

    StopToken stop_;
    bool stopped_ = false;
    std::string stop_reason_;
    std::size_t threads_ = 1;
    std::size_t spill_cap_bytes_ = 0;
    std::size_t peak_bytes_ = 0;

    StatePool pool_;
    /** Components per state; every row is exactly this wide. */
    std::uint32_t width_ = 0;
    /** Encoded rows, one per resident state, in one flat array
     * (rows_[s * width_ .. (s+1) * width_)). States >= spillStart()
     * live in the spill file instead. */
    std::vector<std::uint32_t> rows_;
    std::vector<std::uint32_t> budget_;

    /** CSR edge tables: state s < expanded_ owns the flat range
     * [off[s], off[s+1]); frontier states have no edges yet. */
    std::uint32_t expanded_ = 0;
    std::vector<std::uint32_t> int_off_;
    std::vector<std::uint32_t> int_flat_;
    std::vector<std::uint32_t> in_off_;
    std::vector<InputEdge> in_flat_;
    std::vector<std::uint32_t> out_off_;
    std::vector<OutputEdge> out_flat_;

    /** Materialized [expanded_, numStates()) for pendingFrontier(). */
    std::vector<std::uint32_t> frontier_;

    std::unique_ptr<detail::FrontierSpill> spill_;
    /** First state id whose row lives in the spill file (meaningful
     * only while spill_ is non-null; always >= expanded_). */
    std::uint32_t spill_start_ = 0;
    SpillStats spill_stats_;

    std::vector<LowPortId> in_ports_;
    std::vector<LowPortId> out_ports_;
    std::vector<std::vector<Token>> domain_tokens_;
    mutable std::vector<std::optional<std::vector<std::uint32_t>>>
        closure_;
};

}  // namespace graphiti

#endif  // GRAPHITI_REFINE_STATE_SPACE_HPP

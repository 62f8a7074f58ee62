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
 * CSR (offset + flat array) tables costing three integers per state.
 *
 * Exploration is one FIFO worklist pass: states are interned in the
 * order their successors are enumerated, so state ids and pool ids are
 * a pure function of the module, the domain and the budget — equal
 * across runs, and a space parked at a cap or a stop is exactly the
 * first numStates() states of the one-shot space (docs/parallelism.md).
 */

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "refine/state_pool.hpp"
#include "semantics/module.hpp"
#include "support/cancel.hpp"
#include "support/result.hpp"

namespace graphiti {

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
        std::size_t rows = 0;   ///< encoded id rows
        std::size_t edges = 0;  ///< CSR offset + flat edge arrays
    };

    /**
     * Explore @p mod under @p domain and @p limits: explorePartial
     * that fails unless the space came out complete.
     */
    static Result<StateSpace> explore(const DenotedModule& mod,
                                      const InputDomain& domain,
                                      const ExplorationLimits& limits);

    /**
     * The one worklist pass behind explore: when max_states is
     * reached (or the stop token fires) the partial space is returned
     * (complete() == false) with the unexpanded states as its pending
     * frontier instead of aborting. Edges recorded so far are exact;
     * states on the frontier simply have none yet.
     */
    static Result<StateSpace> explorePartial(
        const DenotedModule& mod, const InputDomain& domain,
        const ExplorationLimits& limits);

    /** True when every reachable state has been expanded. */
    bool complete() const { return expanded_ == budget_.size(); }

    /** True when exploration stopped on the limits' StopToken (as
     * opposed to filling max_states). */
    bool stopped() const { return stopped_; }

    /** Why the exploration stopped; empty unless stopped(). */
    const std::string& stopReason() const { return stop_reason_; }

    /** State ids still awaiting expansion (empty when complete).
     * States are expanded FIFO in interning order, so this is always
     * a contiguous id range ending at numStates(). */
    const std::vector<std::uint32_t>& pendingFrontier() const
    {
        return frontier_;
    }

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
     * Deterministic structural digest of the explored space (states,
     * budgets, all three edge kinds, frontier). Two explorations that
     * built the same space agree on this value, and it is unchanged
     * from the pre-encoding digest.
     */
    std::uint64_t fingerprint() const;

    /** Pretty-printed concrete state, for counterexamples. Decodes
     * the id row on demand. */
    std::string describeState(std::uint32_t s) const;

    /** Tokens held anywhere inside the concrete state @p s. */
    std::size_t tokensInFlight(std::uint32_t s) const;

    /** The per-exploration component-state intern pool. */
    const StatePool& pool() const { return pool_; }

    /** Pool-id row encoding state @p s; row length is the module's
     * component count. */
    std::vector<std::uint32_t> encodedRow(std::uint32_t s) const;

    /**
     * Size-based RAM estimate of the explored space: the interned
     * component pool, encoded id rows, CSR edge tables, budgets and
     * the parked frontier. Deliberately counts sizes rather than
     * capacities, so the figure is a pure function of the space —
     * stable per seed
     * (docs/verification_observability.md). The dedup index lives
     * only inside exploration, so a parked partial space costs
     * exactly this.
     */
    std::size_t approxBytes() const;

    /** Per-tier decomposition of the space's footprint. */
    MemoryBreakdown breakdown() const;

    /** High-water approxBytes() + dedup-index estimate seen while
     * exploring this space. */
    std::size_t peakBytes() const { return peak_bytes_; }

  private:
    /** The worklist loop: expand frontier states until done, the
     * stop token fires or max_states are interned. */
    void expand(const DenotedModule& mod, const ExplorationLimits& limits);

    template <typename T>
    EdgeSpan<T>
    edgeSpan(const std::vector<std::uint32_t>& off,
             const std::vector<T>& flat, std::uint32_t s) const
    {
        if (s >= expanded_)
            return {};
        return {flat.data() + off[s], flat.data() + off[s + 1]};
    }

    /** The id row of state @p s, in place in rows_. */
    std::span<const std::uint32_t> row(std::uint32_t s) const
    {
        return {rows_.data() + std::size_t{s} * width_, width_};
    }
    /** Materialize the concrete GraphState of @p s. */
    GraphState decodeState(std::uint32_t s) const;

    bool stopped_ = false;
    std::string stop_reason_;
    std::size_t peak_bytes_ = 0;

    StatePool pool_;
    /** Components per state; every row is exactly this wide. */
    std::uint32_t width_ = 0;
    /** Encoded rows, one per state, in one flat array
     * (rows_[s * width_ .. (s+1) * width_)). */
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

    std::vector<LowPortId> in_ports_;
    std::vector<LowPortId> out_ports_;
    std::vector<std::vector<Token>> domain_tokens_;
    mutable std::vector<std::optional<std::vector<std::uint32_t>>>
        closure_;
};

}  // namespace graphiti

#endif  // GRAPHITI_REFINE_STATE_SPACE_HPP

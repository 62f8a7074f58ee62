#ifndef GRAPHITI_REFINE_TRACE_HPP
#define GRAPHITI_REFINE_TRACE_HPP

/**
 * @file
 * Randomized trace-inclusion testing.
 *
 * Section 4.4 proves that refinement implies trace-based behavior
 * inclusion. The trace tester exercises that implication directly on
 * instances too large for the exhaustive simulation solver: run the
 * implementation with randomized scheduling, record the I/O trace, and
 * search the specification for an execution with the same trace
 * (internal steps allowed anywhere). A trace the spec cannot replay is
 * a refinement counterexample.
 */

#include <vector>

#include "semantics/module.hpp"
#include "support/cancel.hpp"
#include "support/result.hpp"
#include "support/rng.hpp"

namespace graphiti {

/** One externally visible event. */
struct IoEvent
{
    bool is_input = false;
    LowPortId port;
    Token token;

    std::string toString() const;
};

/** A finite I/O trace. */
using IoTrace = std::vector<IoEvent>;

/** Options for random trace generation. */
struct TraceGenOptions
{
    /** Maximum scheduling decisions taken. */
    std::size_t max_steps = 2000;
    /** Probability of attempting an input when one is possible. */
    double input_bias = 0.3;
    /** Maximum number of input events generated. */
    std::size_t max_inputs = 6;
};

/**
 * Run @p mod with random scheduling, feeding tokens drawn from
 * @p input_pool at random enabled inputs, and recording all I/O.
 */
IoTrace randomTrace(const DenotedModule& mod,
                    const std::vector<Token>& input_pool, Rng& rng,
                    const TraceGenOptions& options = {});

/**
 * Search @p spec for an execution exhibiting @p trace, interleaving
 * internal steps freely (on-the-fly subset construction).
 *
 * @param state_cap abort (returning an error) when the candidate
 *        state set exceeds this size.
 * @param stop polled every 64 candidate states; a stop aborts the
 *        search with an error carrying the stop reason.
 * @return true when the spec admits the trace.
 */
Result<bool> admitsTrace(const DenotedModule& spec, const IoTrace& trace,
                         std::size_t state_cap = 100000,
                         const StopToken& stop = {});

}  // namespace graphiti

#endif  // GRAPHITI_REFINE_TRACE_HPP

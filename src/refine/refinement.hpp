#ifndef GRAPHITI_REFINE_REFINEMENT_HPP
#define GRAPHITI_REFINE_REFINEMENT_HPP

/**
 * @file
 * Executable refinement checking (definitions 4.1-4.5 of the paper).
 *
 * checkRefinement(impl, spec) decides whether impl ⊑ spec holds on a
 * finite instantiation: it explores both transition systems under a
 * common input domain and token budget, then computes the *largest*
 * weak simulation relation φ over reachable pairs as a greatest
 * fixpoint of the three simulation diagrams:
 *
 *  - input    (4.1): impl input step matched by spec input step
 *                    followed by internal steps;
 *  - output   (4.2): impl output step matched by spec internal steps
 *                    followed by the same output (internal steps
 *                    strictly *before* the output — the asymmetry
 *                    induced by connection fusion, section 4.5);
 *  - internal (4.3): impl internal step matched by spec internal
 *                    steps.
 *
 * impl ⊑ spec holds iff the initial pair survives. On failure a
 * counterexample names the first unmatched move.
 *
 * This is the paper's refinement made algorithmic: the Lean proofs
 * establish the diagrams for all instantiations; the checker decides
 * them exactly on the given finite one.
 */

#include <string>

#include "refine/state_space.hpp"

namespace graphiti {

/** Outcome of a refinement check. */
struct RefinementReport
{
    bool refines = false;
    /** Human-readable failing move; empty when refines. */
    std::string counterexample;
    std::size_t impl_states = 0;
    std::size_t spec_states = 0;
    std::size_t reachable_pairs = 0;
    std::size_t fixpoint_iterations = 0;
    /**
     * High-water size-based byte estimate of the game's pair tables
     * (alive/dead sets, reasons, descent map). Resource accounting
     * only: never serialized with the verdict and never compared by
     * golden tests; 0 when the build compiles observability out.
     */
    std::size_t peak_bytes = 0;
    /**
     * High-water byte estimate of the two explorations feeding the
     * game (state vectors + dedup indexes), when this report came
     * from checkRefinement/checkGraphRefinement (the on-spaces entry
     * point leaves it 0 — the caller owns the spaces). Same
     * accounting-only contract as peak_bytes.
     */
    std::size_t explore_peak_bytes = 0;
};

/**
 * Decide impl ⊑ spec on the finite instantiation given by @p domain
 * and @p limits. The two modules must expose identical external port
 * names. Fails (as opposed to reporting non-refinement) when the
 * port interfaces differ or exploration exceeds its limits.
 */
Result<RefinementReport> checkRefinement(const DenotedModule& impl,
                                         const DenotedModule& spec,
                                         const InputDomain& domain,
                                         const ExplorationLimits& limits);

/**
 * Run the simulation game on already-explored spaces.
 *
 * With @p optimistic_frontier set, the game is sound on *partial*
 * spaces in the bounded-verdict sense: a pair is never killed when
 * the spec's weak closure touches an unexpanded frontier state (the
 * missing edges could contain the matching response), and impl
 * frontier states have no attacker moves. refines == true then means
 * "no counterexample within the explored bound", not full refinement
 * — the guard::Governor reports it at the BoundedPartial level.
 * A counterexample found in optimistic mode is a genuine unmatched
 * move: every spec response set it ranges over was fully expanded.
 *
 * @p stop cancels the game between fixpoint sweeps (an error).
 */
Result<RefinementReport> checkRefinementOnSpaces(
    const StateSpace& impl, const StateSpace& spec,
    bool optimistic_frontier = false, const StopToken& stop = {});

/**
 * Convenience overload: lower and denote two ExprHigh graphs in
 * @p env, then check refinement with a uniform domain.
 */
Result<RefinementReport> checkGraphRefinement(
    const ExprHigh& impl, const ExprHigh& spec, const Environment& env,
    const std::vector<Token>& uniform_tokens,
    const ExplorationLimits& limits);

}  // namespace graphiti

#endif  // GRAPHITI_REFINE_REFINEMENT_HPP

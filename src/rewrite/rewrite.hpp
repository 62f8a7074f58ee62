#ifndef GRAPHITI_REWRITE_REWRITE_HPP
#define GRAPHITI_REWRITE_REWRITE_HPP

/**
 * @file
 * Dataflow graph rewrites (section 3) and the verified rewriting
 * function that applies them (section 4.2 / theorem 4.6).
 *
 * A rewrite is a pair of graphs: a left-hand side *pattern* and a
 * right-hand side *template*. Both are ExprHigh fragments whose
 * numbered I/O bindings mark the boundary ports; lhs and rhs must
 * expose the same boundary indices so the replacement reconnects
 * seamlessly. Pattern node attributes constrain the match; an
 * attribute value "$x" captures the concrete value, and "$x" in an rhs
 * attribute substitutes it.
 *
 * Application means the paper's mechanism:
 *  1. the matcher finds an embedding of the lhs in the target graph;
 *  2. the target is lowered to ExprLow with the matched nodes first,
 *     isolating them as a literal sub-expression (section 4.2's
 *     base-motion step);
 *  3. a concrete rhs sub-expression is built reusing the boundary's
 *     graph-level port names;
 *  4. ExprLow::substitute replaces lhs by rhs and the result is
 *     lifted back to ExprHigh.
 * applyRewrite performs the same edit as a splice of the ExprHigh: it
 * yields the graph steps 2-4 yield, in the same node, edge and io
 * order, and fails where they fail (tests/test_splice.cpp checks the
 * splice against the substitution).
 *
 * Theorem 4.6 then reduces the correctness of the whole application
 * to the refinement obligation rhs ⊑ lhs, which verifyRewrite()
 * discharges with the refinement checker on a finite instantiation.
 */

#include <optional>
#include <string>
#include <vector>

#include "graph/expr_high.hpp"
#include "graph/expr_low.hpp"
#include "refine/refinement.hpp"
#include "support/result.hpp"

namespace graphiti {

/** A rewrite definition: lhs pattern, rhs template, metadata. */
struct RewriteDef
{
    std::string name;
    ExprHigh lhs;
    ExprHigh rhs;
    /**
     * Whether the rewrite's refinement obligation is discharged by the
     * checker (mirrors the paper's verified/unverified split of the
     * catalog).
     */
    bool verified = false;

    /**
     * Wire rewrites: when the rhs has no nodes, each (input io,
     * output io) pair here fuses the boundary driver directly onto
     * the boundary consumers. These bypass the ExprLow substitution
     * (a bare wire has no component denotation) and stay unverified,
     * like the paper's minor rewrites.
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> passthrough;

    /** Structural sanity checks (port coverage, boundary parity). */
    Result<bool> validate() const;
};

/** One embedding of a pattern into a concrete graph. */
struct RewriteMatch
{
    /** pattern instance name -> concrete instance name. */
    std::map<std::string, std::string> binding;
    /** capture variable ("$x") -> concrete attribute value. */
    std::map<std::string, std::string> captures;

    /** Concrete node names in lhs pattern order. */
    std::vector<std::string> matchedNodes(const RewriteDef& def) const;
};

/**
 * Find all embeddings of @p def.lhs in @p graph (in deterministic
 * order). Boundary ports may attach to anything outside the match;
 * internal pattern edges must match exactly and matched nodes must
 * have no unaccounted internal connections.
 */
std::vector<RewriteMatch> matchRewrite(const ExprHigh& graph,
                                       const RewriteDef& def);

/** First match, if any. */
std::optional<RewriteMatch> matchRewriteOnce(const ExprHigh& graph,
                                             const RewriteDef& def);

/**
 * Check that @p match is a genuine embedding of @p def.lhs in
 * @p graph (types, attributes, edges, no unaccounted internal
 * wiring). applyRewrite re-checks this, so oracle-supplied matches
 * cannot silently corrupt a graph. Fills in any captures the match
 * did not carry.
 */
Result<bool> validateMatch(const ExprHigh& graph, const RewriteDef& def,
                           RewriteMatch& match);

/**
 * Apply @p def at @p match: the graph ExprLow substitution yields,
 * built by splicing the rhs into a copy. Returns the rewritten graph;
 * fails on malformed definitions (never mutates the input).
 */
Result<ExprHigh> applyRewrite(const ExprHigh& graph,
                              const RewriteDef& def,
                              const RewriteMatch& match);

/**
 * Discharge the refinement obligation of @p def on a finite
 * instantiation: check rhs ⊑ lhs with the given boundary tokens.
 * (The captures of a representative match can be substituted first
 * with instantiateCaptures.)
 */
Result<RefinementReport> verifyRewrite(const RewriteDef& def,
                                       const Environment& env,
                                       const std::vector<Token>& tokens,
                                       const ExplorationLimits& limits);

/** Substitute capture values into a definition's attribute slots. */
RewriteDef instantiateCaptures(
    const RewriteDef& def,
    const std::map<std::string, std::string>& captures);

}  // namespace graphiti

#endif  // GRAPHITI_REWRITE_REWRITE_HPP

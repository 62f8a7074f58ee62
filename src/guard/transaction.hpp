#ifndef GRAPHITI_GUARD_TRANSACTION_HPP
#define GRAPHITI_GUARD_TRANSACTION_HPP

/**
 * @file
 * Transactional rewriting: the glue between the structural validator
 * and the rewrite engine's snapshot/rollback hook.
 *
 * Rewrite application never mutates its input graph, so a transaction
 * is naturally copy-validate-commit: the engine builds a candidate,
 * the validator lints it, and a veto discards the candidate while the
 * pre-rewrite graph lives on untouched. validatorPostCheck() packages
 * the validator as a RewriteEngine post-check; runOooPipeline and the
 * Compiler install it so a buggy or hostile rule can never corrupt
 * pipeline state.
 *
 * verifyCatalogValidity() is the property test behind that promise:
 * for every catalog rule it builds a randomized well-formed host
 * around the rule's own lhs, applies the rule, and checks validity is
 * preserved.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "guard/validator.hpp"
#include "rewrite/engine.hpp"

namespace graphiti::guard {

/**
 * A post-check that vetoes any application whose result fails the
 * structural validator. Only error-severity findings veto; the veto
 * reason is the first error's rendering. The type check is included;
 * reachability rules are skipped by default because rewrites operate
 * on fragments of larger graphs in tests.
 */
PostCheck validatorPostCheck(ValidatorOptions options = {});

/** Per-rule outcome of the catalog validity sweep. */
struct RuleValidityOutcome
{
    std::string rule;
    /** Randomized hosts the rule was applied on. */
    std::size_t applications = 0;
    /** Hosts skipped because the instantiated lhs makes no
     * self-contained valid circuit (wire rewrites etc.). */
    bool skipped = false;
    /** Validator findings introduced by the rule (empty = preserved). */
    std::vector<std::string> violations;
};

/** Outcome of the whole sweep. */
struct CatalogValidityReport
{
    std::vector<RuleValidityOutcome> rules;
    bool all_ok = true;
    std::string first_failure;
    std::size_t rules_checked = 0;
};

/** One catalog rule with its captures bound to default values, and
 * the randomized hosts the validity sweep applies it on. */
struct CatalogRuleHosts
{
    RewriteDef rule;
    std::vector<ExprHigh> hosts;
};

/**
 * The hosts verifyCatalogValidity(@p seed, @p rounds_per_rule) builds:
 * per catalog rule, @p rounds_per_rule well-formed or unhostable
 * circuits around the rule's own instantiated lhs.
 */
std::vector<CatalogRuleHosts> catalogValidityHosts(
    std::uint64_t seed, std::size_t rounds_per_rule);

/**
 * Property test: every catalog rule preserves structural validity on
 * randomized host graphs. Deterministic for a fixed @p seed: each
 * rule derives its own rng from (seed, rule index).
 */
CatalogValidityReport verifyCatalogValidity(std::uint64_t seed,
                                            std::size_t rounds_per_rule = 4);

}  // namespace graphiti::guard

#endif  // GRAPHITI_GUARD_TRANSACTION_HPP

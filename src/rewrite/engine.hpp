#ifndef GRAPHITI_REWRITE_ENGINE_HPP
#define GRAPHITI_REWRITE_ENGINE_HPP

/**
 * @file
 * The rewriting engine: a registry of rewrite definitions plus
 * application strategies.
 *
 * Following section 3, the *strategy* (which rewrite to apply where)
 * is untrusted oracle territory; only the application mechanism and
 * each rewrite's refinement obligation carry correctness weight. The
 * engine therefore exposes both oracle-directed application
 * (applyAt) and exhaustive application of confluent rule sets
 * (applyExhaustively), and keeps statistics for the rewriting-cost
 * evaluation of section 6.3.
 */

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/scope.hpp"
#include "rewrite/rewrite.hpp"

namespace graphiti {

/**
 * Post-application well-formedness check. Invoked on the candidate
 * graph after every successful rewrite application; returning a
 * reason string vetoes the application (the engine discards the
 * candidate and keeps the pre-rewrite graph — a rollback). Returning
 * nullopt commits it. guard::validatorPostCheck() builds one from the
 * structural validator; the hook is kept generic so rewrite/ does not
 * depend on guard/.
 */
using PostCheck =
    std::function<std::optional<std::string>(const ExprHigh&)>;

/** One vetoed rewrite application. */
struct RewriteRollback
{
    std::string rule;    ///< rule whose application was rolled back
    std::string reason;  ///< post-check diagnostic
};

/** Counters reported by the engine (section 6.3's evaluation). */
struct EngineStats
{
    std::size_t rewrites_applied = 0;
    std::map<std::string, std::size_t> per_rule;

    void
    record(const std::string& rule)
    {
        ++rewrites_applied;
        ++per_rule[rule];
        GRAPHITI_OBS_COUNT("rewrite.applied", 1);
        GRAPHITI_OBS_COUNT("rewrite.rule." + rule, 1);
    }

    /** Per-rule application counts as a JSON object. */
    obs::json::Value
    toJson() const
    {
        obs::json::Value out{obs::json::Object{}};
        out.set("rewrites_applied", rewrites_applied);
        obs::json::Value rules{obs::json::Object{}};
        for (const auto& [rule, count] : per_rule)
            rules.set(rule, count);
        out.set("per_rule", std::move(rules));
        return out;
    }

    void
    merge(const EngineStats& other)
    {
        rewrites_applied += other.rewrites_applied;
        for (const auto& [rule, count] : other.per_rule)
            per_rule[rule] += count;
    }
};

/** The rewrite engine. */
class RewriteEngine
{
  public:
    /** Register @p def; fails when the definition is malformed. */
    Result<bool> addRule(RewriteDef def);

    /**
     * Register a copy of every rule of catalog::validatedRewrites()
     * without validating it again. Fails when a rule name is already
     * registered.
     */
    Result<bool> addCatalog();

    /** Look up a registered rule; nullptr when absent. */
    const RewriteDef* findRule(const std::string& name) const;

    /**
     * Apply @p rule at its first match. Returns the rewritten graph,
     * or an error mentioning "no match" when the rule does not apply.
     */
    Result<ExprHigh> applyOnce(const ExprHigh& graph,
                               const std::string& rule);

    /** Apply a (possibly unregistered) definition at a given match. */
    Result<ExprHigh> applyAt(const ExprHigh& graph, const RewriteDef& def,
                             const RewriteMatch& match);

    /**
     * Repeatedly apply the rules named in @p rules (first match, first
     * rule wins) until none applies or @p max_applications is hit.
     */
    Result<ExprHigh> applyExhaustively(
        const ExprHigh& graph, const std::vector<std::string>& rules,
        std::size_t max_applications = 10000);

    const EngineStats& stats() const { return stats_; }
    void resetStats() { stats_ = EngineStats{}; }

    /**
     * Install a transactional post-check: every application is
     * validated before it is committed, and vetoed applications are
     * recorded in rollbacks() instead of corrupting the graph.
     * Applications always build a candidate copy (the input graph is
     * never mutated), so rollback is simply discarding the candidate.
     */
    void setPostCheck(PostCheck check) { post_check_ = std::move(check); }

    /** Applications vetoed by the post-check, in order. */
    const std::vector<RewriteRollback>& rollbacks() const
    {
        return rollbacks_;
    }
    void clearRollbacks() { rollbacks_.clear(); }

  private:
    /** Commit or veto a freshly rewritten candidate. */
    Result<ExprHigh> commit(Result<ExprHigh> candidate,
                            const std::string& rule);

    std::map<std::string, RewriteDef> rules_;
    EngineStats stats_;
    PostCheck post_check_;
    std::vector<RewriteRollback> rollbacks_;
};

}  // namespace graphiti

#endif  // GRAPHITI_REWRITE_ENGINE_HPP

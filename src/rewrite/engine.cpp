#include "rewrite/engine.hpp"

#include "rewrite/catalog.hpp"

namespace graphiti {

Result<bool>
RewriteEngine::addRule(RewriteDef def)
{
    Result<bool> valid = def.validate();
    if (!valid.ok())
        return valid;
    if (rules_.count(def.name) > 0)
        return err("duplicate rule name: " + def.name);
    rules_.emplace(def.name, std::move(def));
    return true;
}

Result<bool>
RewriteEngine::addCatalog()
{
    for (const RewriteDef& def : catalog::validatedRewrites())
        if (rules_.count(def.name) > 0)
            return err("duplicate rule name: " + def.name);
    for (const RewriteDef& def : catalog::validatedRewrites())
        rules_.emplace(def.name, def);
    return true;
}

const RewriteDef*
RewriteEngine::findRule(const std::string& name) const
{
    auto it = rules_.find(name);
    return it == rules_.end() ? nullptr : &it->second;
}

Result<ExprHigh>
RewriteEngine::commit(Result<ExprHigh> candidate, const std::string& rule)
{
    if (!candidate.ok())
        return candidate;
    if (post_check_) {
        std::optional<std::string> veto = post_check_(candidate.value());
        if (veto) {
            rollbacks_.push_back(RewriteRollback{rule, *veto});
            GRAPHITI_OBS_COUNT("rewrite.rollbacks", 1);
            return err(rule + ": rolled back (post-check): " + *veto);
        }
    }
    stats_.record(rule);
    return candidate;
}

Result<ExprHigh>
RewriteEngine::applyOnce(const ExprHigh& graph, const std::string& rule)
{
    const RewriteDef* def = findRule(rule);
    if (def == nullptr)
        return err("unknown rule: " + rule);
    GRAPHITI_OBS_COUNT("rewrite.match_attempts", 1);
    std::optional<RewriteMatch> match = matchRewriteOnce(graph, *def);
    if (!match)
        return err(rule + ": no match");
    return commit(applyRewrite(graph, *def, *match), rule);
}

Result<ExprHigh>
RewriteEngine::applyAt(const ExprHigh& graph, const RewriteDef& def,
                       const RewriteMatch& match)
{
    return commit(applyRewrite(graph, def, match), def.name);
}

Result<ExprHigh>
RewriteEngine::applyExhaustively(const ExprHigh& graph,
                                 const std::vector<std::string>& rules,
                                 std::size_t max_applications)
{
    GRAPHITI_OBS_TIMER(obs_timer, "rewrite.exhaustive_seconds");
    ExprHigh current = graph;
    for (std::size_t applied = 0; applied < max_applications;) {
        bool progressed = false;
        for (const std::string& rule : rules) {
            const RewriteDef* def = findRule(rule);
            if (def == nullptr)
                return err("unknown rule: " + rule);
            GRAPHITI_OBS_COUNT("rewrite.match_attempts", 1);
            // A match can be inapplicable (e.g. a wire rewrite whose
            // fused wire would connect io to io) or vetoed by the
            // post-check; try the next one.
            for (const RewriteMatch& match : matchRewrite(current, *def)) {
                Result<ExprHigh> next = commit(
                    applyRewrite(current, *def, match), rule);
                if (!next.ok())
                    continue;
                current = next.take();
                ++applied;
                progressed = true;
                break;
            }
            if (progressed)
                break;
        }
        if (!progressed)
            return current;
    }
    return err("applyExhaustively: exceeded max applications");
}

}  // namespace graphiti

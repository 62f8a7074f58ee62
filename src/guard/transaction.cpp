#include "guard/transaction.hpp"

#include <map>

#include "rewrite/catalog.hpp"
#include "support/rng.hpp"

namespace graphiti::guard {

PostCheck
validatorPostCheck(ValidatorOptions options)
{
    // Reachability/cycle rules assume a whole circuit; the engine also
    // rewrites fragments (rule lhs graphs, test scaffolds), so the
    // post-check keeps to the rules that are fragment-safe. Callers
    // validating complete circuits pass their own options.
    options.check_token_flow = false;
    return [options](const ExprHigh& graph)
               -> std::optional<std::string> {
        ValidationReport report = validateCircuit(graph, options);
        if (report.ok())
            return std::nullopt;
        return report.firstError()->toString();
    };
}

namespace {

/** Default capture values, keyed by the attribute that captures. */
std::string
captureDefault(const std::string& attr_key)
{
    if (attr_key == "tags")
        return "4";
    if (attr_key == "out" || attr_key == "in")
        return "2";
    if (attr_key == "op")
        return "add";
    if (attr_key == "value")
        return "0";
    return "1";
}

/** Bind every "$x" capture in @p def to a plausible concrete value. */
std::map<std::string, std::string>
defaultCaptures(const RewriteDef& def)
{
    std::map<std::string, std::string> captures;
    auto scan = [&](const ExprHigh& side) {
        for (const NodeDecl& node : side.nodes())
            for (const auto& [key, value] : node.attrs)
                if (!value.empty() && value[0] == '$')
                    captures.emplace(value, captureDefault(key));
    };
    scan(def.lhs);
    scan(def.rhs);
    return captures;
}

/**
 * Build a well-formed host circuit around @p lhs: the fragment itself
 * plus a randomized buffer chain between each boundary port and a
 * dedicated graph input/output.
 */
ExprHigh
buildHost(const ExprHigh& lhs, Rng& rng)
{
    ExprHigh host;
    for (const NodeDecl& node : lhs.nodes())
        host.addNode(node.name, node.type, node.attrs);
    for (const Edge& e : lhs.edges())
        host.connect(e.src, e.dst);

    int counter = 0;
    auto chain_in = [&](std::size_t io, const PortRef& dst) {
        PortRef at = dst;
        std::size_t depth = rng.below(3);
        for (std::size_t i = 0; i < depth; ++i) {
            std::string name = "hostb" + std::to_string(counter++);
            host.addNode(name, "buffer");
            host.connect(PortRef{name, "out0"}, at);
            at = PortRef{name, "in0"};
        }
        host.bindInput(io, at);
    };
    auto chain_out = [&](std::size_t io, const PortRef& src) {
        PortRef at = src;
        std::size_t depth = rng.below(3);
        for (std::size_t i = 0; i < depth; ++i) {
            std::string name = "hostb" + std::to_string(counter++);
            host.addNode(name, "buffer");
            host.connect(at, PortRef{name, "in0"});
            at = PortRef{name, "out0"};
        }
        host.bindOutput(io, at);
    };
    for (std::size_t i = 0; i < lhs.inputs().size(); ++i)
        if (lhs.inputs()[i])
            chain_in(i, *lhs.inputs()[i]);
    for (std::size_t i = 0; i < lhs.outputs().size(); ++i)
        if (lhs.outputs()[i])
            chain_out(i, *lhs.outputs()[i]);
    return host;
}

}  // namespace

std::vector<CatalogRuleHosts>
catalogValidityHosts(std::uint64_t seed, std::size_t rounds_per_rule)
{
    // Each rule gets its own rng derived from (seed, rule index).
    std::vector<CatalogRuleHosts> out;
    const std::vector<RewriteDef>& defs = catalog::validatedRewrites();
    for (std::size_t i = 0; i < defs.size(); ++i) {
        Rng rng(seed ^ ((i + 1) * 0x9e3779b97f4a7c15ULL));
        CatalogRuleHosts entry;
        entry.rule = instantiateCaptures(defs[i], defaultCaptures(defs[i]));
        for (std::size_t round = 0; round < rounds_per_rule; ++round)
            entry.hosts.push_back(buildHost(entry.rule.lhs, rng));
        out.push_back(std::move(entry));
    }
    return out;
}

CatalogValidityReport
verifyCatalogValidity(std::uint64_t seed, std::size_t rounds_per_rule)
{
    // Fragment-safe rule set, matching the pipeline's post-check.
    ValidatorOptions options;
    options.check_token_flow = false;
    CatalogValidityReport report;
    for (const CatalogRuleHosts& entry :
         catalogValidityHosts(seed, rounds_per_rule)) {
        const RewriteDef& concrete = entry.rule;
        RuleValidityOutcome outcome;
        outcome.rule = concrete.name;
        RewriteEngine engine;
        for (const ExprHigh& host : entry.hosts) {
            if (!validateCircuit(host, options).ok())
                continue;  // unhostable fragment shape
            std::optional<RewriteMatch> match =
                matchRewriteOnce(host, concrete);
            if (!match)
                continue;
            Result<ExprHigh> applied =
                engine.applyAt(host, concrete, *match);
            if (!applied.ok())
                continue;  // inapplicable here (e.g. io-to-io wire)
            ++outcome.applications;
            ValidationReport after =
                validateCircuit(applied.value(), options);
            for (const Diagnostic& d : after.diagnostics())
                if (d.severity == Severity::Error)
                    outcome.violations.push_back(d.toString());
        }
        outcome.skipped = outcome.applications == 0;
        if (!outcome.skipped)
            ++report.rules_checked;
        if (!outcome.violations.empty()) {
            report.all_ok = false;
            if (report.first_failure.empty())
                report.first_failure =
                    outcome.rule + ": " + outcome.violations.front();
        }
        report.rules.push_back(std::move(outcome));
    }
    return report;
}

}  // namespace graphiti::guard

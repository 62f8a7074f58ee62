#include "rewrite/catalog_verify.hpp"

#include "rewrite/catalog.hpp"

namespace graphiti {

namespace {

/** Canonical boundary tokens per rule (types per the lhs ports). */
std::vector<Token>
tokensFor(const RewriteDef& def)
{
    if (def.name == "split-sink0" || def.name == "split-sink1")
        return {Token(Value::tuple(Value(1), Value(2))),
                Token(Value::tuple(Value(3), Value(4)))};
    if (def.name == "combine-mux" || def.name == "combine-branch" ||
        def.name == "combine-init")
        return {Token(Value(true)), Token(Value(1))};
    return {Token(Value(1)), Token(Value(2))};
}

/** Default values for capture variables left open by the template. */
std::map<std::string, std::string>
defaultCaptures(const RewriteDef& def)
{
    std::map<std::string, std::string> captures;
    auto scan = [&](const ExprHigh& g) {
        for (const NodeDecl& node : g.nodes())
            for (const auto& [key, value] : node.attrs)
                if (!value.empty() && value[0] == '$')
                    captures.emplace(value, key == "value" ? "false"
                                                           : "2");
    };
    scan(def.lhs);
    scan(def.rhs);
    return captures;
}

}  // namespace

Result<CatalogVerification>
verifyCatalog(const ExplorationLimits& limits)
{
    CatalogVerification out;
    for (const RewriteDef& def : catalog::validatedRewrites()) {
        if (!def.verified || def.rhs.numNodes() == 0)
            continue;
        RewriteDef concrete =
            instantiateCaptures(def, defaultCaptures(def));
        Environment env(3);
        Result<RefinementReport> report =
            verifyRewrite(concrete, env, tokensFor(def), limits);
        if (!report.ok())
            return report.error().context("verifyCatalog: " + def.name);
        out.results[def.name] = report.value().refines;
        if (!report.value().refines && out.all_ok) {
            out.all_ok = false;
            out.first_failure =
                def.name + ": " + report.value().counterexample;
        }
    }
    return out;
}

}  // namespace graphiti

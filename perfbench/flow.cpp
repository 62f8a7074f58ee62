#include "bench.hpp"

#include <algorithm>

#include "dot/dot.hpp"
#include "graph/typecheck.hpp"
#include "guard/transaction.hpp"
#include "guard/validator.hpp"

namespace perfbench {

using namespace graphiti;

Result<Compiled>
compile(Compiler& compiler, const std::string& dot, int num_tags,
        Ledger& ledger)
{
    Compiled out;
    if (!ledger.enabled()) {
        CompileOptions options;
        options.num_tags = num_tags;
        Result<CompileReport> report = compiler.compileDot(dot, options);
        if (!report.ok())
            return report.error();
        out.graph = std::move(report.value().graph);
        out.output_dot = std::move(report.value().output_dot);
        out.applied = report.value().rewrites.rewrites_applied;
        out.rollbacks = report.value().rollbacks.size();
        return out;
    }

    Result<ExprHigh> parsed =
        ledger.time("dot.parse", [&] { return parseDot(dot); });
    if (!parsed.ok())
        return parsed.error();
    const ExprHigh& input = parsed.value();
    Result<TypeReport> typed = ledger.time(
        "graph.typecheck", [&] { return checkWellTyped(input); });
    if (!typed.ok())
        return typed.error();
    guard::ValidationReport pre = ledger.time(
        "guard.validate", [&] { return guard::validateCircuit(input); });
    if (!pre.ok())
        return err("input circuit failed validation\n" + pre.render());

    PipelineOptions options;
    options.num_tags = num_tags;
    options.reexpand = true;
    PostCheck check = guard::validatorPostCheck();
    options.post_check = [&](const ExprHigh& graph) {
        out.postcheck_calls += 1;
        return ledger.time("guard.postcheck", [&] { return check(graph); });
    };
    Result<PipelineResult> pipeline = ledger.time("rewrite.pipeline", [&] {
        return runOooPipeline(input, compiler.environment(), options);
    });
    if (!pipeline.ok())
        return pipeline.error();
    out.graph = std::move(pipeline.value().graph);
    out.applied = pipeline.value().stats.rewrites_applied;
    out.rollbacks = pipeline.value().rollbacks.size();
    out.output_dot =
        ledger.time("dot.print", [&] { return printDot(out.graph); });
    guard::ValidationReport post = ledger.time(
        "guard.validate", [&] { return guard::validateCircuit(out.graph); });
    if (!post.ok())
        return err("transformed circuit failed validation\n" +
                   post.render());
    return out;
}

Result<sim::SimResult>
simulate(const ExprHigh& graph, std::shared_ptr<FnRegistry> registry,
         const faults::Workload& workload, Ledger& ledger,
         std::map<std::string, double>& layer)
{
    Result<sim::Simulator> built = ledger.time("sim.build", [&] {
        return sim::Simulator::build(graph, std::move(registry));
    });
    if (!built.ok())
        return built.error();
    sim::Simulator simulator = built.take();
    for (const auto& [name, data] : workload.memories)
        simulator.setMemory(name, data);
    Ns start = nowNs();
    Result<sim::SimResult> run = simulator.run(
        workload.inputs, workload.expected_outputs, workload.serial_io);
    Ns end = nowNs();
    ledger.record("sim.run", start, end);
    if (run.ok() && ledger.enabled()) {
        bool tagged = false;
        for (const NodeDecl& node : graph.nodes())
            tagged |= node.type == "tagger";
        std::string kind = tagged ? "tagged" : "untagged";
        layer["raw.sim_ns_" + kind] += static_cast<double>(end - start);
        layer["raw.sim_cycles_" + kind] +=
            static_cast<double>(run.value().cycles);
    }
    return run;
}

std::map<std::string, double>
layerCounts(const std::map<std::string, double>& totals,
            std::size_t traced_ops)
{
    auto total = [&](const std::string& key) {
        auto it = totals.find(key);
        return it == totals.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    double ops = static_cast<double>(std::max<std::size_t>(traced_ops, 1));
    std::map<std::string, double> out;
    for (const auto& [key, value] : totals)
        if (key.rfind("raw.", 0) != 0)
            out[key] = value / ops;
    double cycles_t = total("raw.sim_cycles_tagged");
    double cycles_u = total("raw.sim_cycles_untagged");
    double ns_t = total("raw.sim_ns_tagged");
    double ns_u = total("raw.sim_ns_untagged");
    if (cycles_t + cycles_u > 0.0) {
        out["sim.cycles"] = (cycles_t + cycles_u) / ops;
        out["sim.us_per_cycle_tagged"] = ratio(ns_t / 1e3, cycles_t);
        out["sim.us_per_cycle_untagged"] = ratio(ns_u / 1e3, cycles_u);
        out["sim.cycles_per_s"] =
            ratio(cycles_t + cycles_u, (ns_t + ns_u) / 1e9);
    }
    if (total("raw.stress_ns") > 0.0)
        out["faults.plans_per_s"] =
            ratio(total("faults.plans"), total("raw.stress_ns") / 1e9);
    return out;
}

}  // namespace perfbench

/**
 * @file
 * Regenerates figure 2d/2e: execution traces of the modulo unit in
 * the in-order and out-of-order GCD circuits over three loop
 * executions, showing that only the out-of-order circuit keeps the
 * pipelined modulo busy.
 */

#include <cstdio>
#include <map>

#include "bench_circuits/gcd.hpp"
#include "flows.hpp"
#include "obs/critpath.hpp"
#include "obs/scope.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "sim/sim.hpp"

namespace {

using namespace graphiti;

std::string
findModulo(const ExprHigh& g)
{
    for (const NodeDecl& n : g.nodes())
        if (n.type == "operator" && n.attrs.count("op") > 0 &&
            n.attrs.at("op") == "mod")
            return n.name;
    return "";
}

struct TraceResult
{
    std::size_t cycles = 0;
    std::vector<std::size_t> accepts;  // cycles the modulo accepted
    /** Token-provenance view of the same run (docs/profiling.md). */
    obs::CritPathReport profile;
};

TraceResult
run(const ExprHigh& g, std::shared_ptr<FnRegistry> registry)
{
    sim::SimConfig config;
    config.trace_nodes = {findModulo(g)};
    auto scope = std::make_shared<obs::Scope>();
    auto tracker = std::make_shared<obs::ProvenanceTracker>();
    scope->attachProvenance(tracker);
    config.obs = scope;
    sim::Simulator simulator =
        sim::Simulator::build(g, registry, config).take();
    const std::vector<std::pair<int, int>> pairs = {
        {1071, 462}, {987, 610}, {864, 528}};
    std::vector<Token> as, bs;
    for (auto [a, b] : pairs) {
        as.emplace_back(Value(a));
        bs.emplace_back(Value(b));
    }
    auto result = simulator.run({as, bs}, pairs.size());
    TraceResult out;
    if (!result.ok()) {
        std::fprintf(stderr, "trace run failed: %s\n",
                     result.error().message.c_str());
        return out;
    }
    out.cycles = result.value().cycles;
    for (const sim::TraceEvent& ev : result.value().trace)
        if (ev.detail == "accept")
            out.accepts.push_back(ev.cycle);
    out.profile = obs::analyzeCriticalPaths(tracker->log());
    return out;
}

void
printTimeline(const char* label, const TraceResult& trace)
{
    std::printf("%s: %zu cycles, %zu modulo operations\n", label,
                trace.cycles, trace.accepts.size());
    // A compressed busy-timeline: one character per 2 cycles.
    std::string line(trace.cycles / 2 + 1, '.');
    for (std::size_t cycle : trace.accepts)
        line[cycle / 2] = '#';
    for (std::size_t at = 0; at < line.size(); at += 76)
        std::printf("  %s\n", line.substr(at, 76).c_str());
    // Inter-accept gaps characterize pipelining (figure 2d vs 2e).
    std::map<std::size_t, int> gap_histogram;
    for (std::size_t i = 1; i < trace.accepts.size(); ++i)
        ++gap_histogram[trace.accepts[i] - trace.accepts[i - 1]];
    std::printf("  accept-to-accept gaps:");
    for (auto [gap, count] : gap_histogram)
        std::printf(" %zux%d", gap, count);
    std::printf("\n\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path = bench::jsonPathFromArgs(argc, argv);
    bench::JsonReport report("bench_traces");
    auto wall_start = std::chrono::steady_clock::now();

    std::printf("Figure 2d/2e: modulo-unit activity for three GCD "
                "streams ('#' = modulo accepts operands)\n\n");

    ExprHigh in_order = circuits::buildGcdInOrder();
    Environment env;
    auto transformed = runOooPipeline(in_order, env,
                                      {.num_tags = 8, .reexpand = true});
    if (!transformed.ok()) {
        std::fprintf(stderr, "pipeline failed: %s\n",
                     transformed.error().message.c_str());
        return 1;
    }

    TraceResult io = run(in_order, env.functionsPtr());
    TraceResult ooo = run(transformed.value().graph, env.functionsPtr());
    printTimeline("figure 2d (in-order: modulo idles between "
                  "iterations)",
                  io);
    printTimeline("figure 2e (out-of-order: modulo pipeline stays "
                  "busy)",
                  ooo);
    std::printf("speedup: %.2fx\n",
                static_cast<double>(io.cycles) /
                    static_cast<double>(ooo.cycles));

    auto variant = [](const TraceResult& t) {
        obs::json::Value v{obs::json::Object{}};
        v.set("cycles", t.cycles);
        v.set("modulo_accepts", t.accepts.size());
        // The figure-2 story, quantified: where each token's cycles
        // went, and whether loop iterations completed out of order.
        v.set("attribution", t.profile.totals.toJson());
        v.set("reorder", t.profile.reorder.toJson());
        v.set("reorder_degenerate", t.profile.reorder.degenerate());
        return v;
    };
    report.set("in_order", variant(io));
    report.set("out_of_order", variant(ooo));
    report.phase("total", std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              wall_start)
                              .count());
    return report.writeIfRequested(json_path) ? 0 : 1;
}

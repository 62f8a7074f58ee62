/**
 * @file
 * paper-suite: the paper's evaluation flow (section 6, table 2). One op
 * takes one of the six benchmarks through the compiler, simulates the
 * DF-IO input and the GRAPHITI output against the golden results,
 * computes area/timing and the Vericert schedule, and stresses the pair
 * with a small fixed fault battery (one seeded random plan on each
 * circuit). A round is the six benchmarks in a seeded order.
 */

#include <cmath>

#include "arch/area_timing.hpp"
#include "bench.hpp"
#include "bench_circuits/benchmarks.hpp"
#include "dot/dot.hpp"
#include "static_hls/static_hls.hpp"

namespace perfbench {
namespace {

using namespace graphiti;

struct PaperInput
{
    circuits::BenchmarkSpec spec;
    std::string dot;
    faults::Workload workload;
};

/** Execution times and area of one benchmark's flows. */
struct PaperResult
{
    double dfio_ns = 0.0;
    double graphiti_ns = 0.0;
    double vericert_ns = 0.0;
    double lut = 0.0;
    double ff = 0.0;
};

std::vector<PaperInput>
loadSuite()
{
    std::vector<PaperInput> suite;
    for (const std::string& name : circuits::benchmarkNames()) {
        PaperInput input;
        input.spec = circuits::buildBenchmark(name).take();
        input.dot = printDot(input.spec.df_io);
        input.workload.memories = input.spec.memories;
        input.workload.inputs = input.spec.inputs;
        input.workload.expected_outputs = input.spec.expected_outputs;
        input.workload.serial_io = input.spec.serial_io;
        suite.push_back(std::move(input));
    }
    return suite;
}

/** The oracle: the benchmark's golden outputs (and bicg's memory). */
std::string
checkGolden(const circuits::BenchmarkSpec& spec, const sim::SimResult& run,
            const char* flow)
{
    std::string where = spec.name + " " + flow + ": ";
    if (run.outputs.empty() || run.outputs[0].size() != spec.golden.size())
        return where + "wrong number of outputs";
    for (std::size_t i = 0; i < spec.golden.size(); ++i)
        if (std::abs(run.outputs[0][i].value.toDouble() - spec.golden[i]) >
            1e-9)
            return where + "output " + std::to_string(i) + " differs";
    if (spec.golden_memory.empty())
        return "";
    auto mem = run.memories.find(spec.golden_memory);
    if (mem == run.memories.end() ||
        mem->second.size() != spec.golden_memory_values.size())
        return where + "memory " + spec.golden_memory + " missing";
    for (std::size_t i = 0; i < mem->second.size(); ++i)
        if (std::abs(mem->second[i] - spec.golden_memory_values[i]) > 1e-9)
            return where + "memory word " + std::to_string(i) + " differs";
    return "";
}

/** One op. @p stress runs the fault battery (the quality probe skips
 * it). */
OpOutcome
runBenchmark(const PaperInput& input, bool stress, Ledger& ledger,
             std::map<std::string, double>& totals, PaperResult& result)
{
    const circuits::BenchmarkSpec& spec = input.spec;
    OpOutcome out;
    auto fail = [&](const std::string& why) {
        out.ok = false;
        out.failure = spec.name + ": " + why;
        return out;
    };

    Compiler compiler;
    Result<Compiled> compiled =
        compile(compiler, input.dot, spec.num_tags, ledger);
    if (!compiled.ok())
        return fail(compiled.error().message);
    const ExprHigh& graph = compiled.value().graph;

    Result<sim::SimResult> dfio =
        simulate(spec.df_io, std::make_shared<FnRegistry>(), input.workload,
                 ledger, totals);
    if (!dfio.ok())
        return fail("DF-IO simulation: " + dfio.error().message);
    Result<sim::SimResult> ooo =
        simulate(graph, compiler.environment().functionsPtr(),
                 input.workload, ledger, totals);
    if (!ooo.ok())
        return fail("GRAPHITI simulation: " + ooo.error().message);
    std::string wrong = checkGolden(spec, dfio.value(), "DF-IO");
    if (wrong.empty())
        wrong = checkGolden(spec, ooo.value(), "GRAPHITI");
    if (!wrong.empty())
        return fail(wrong);

    arch::AreaReport area;
    double dfio_clock = 0.0, ooo_clock = 0.0;
    ledger.time("arch", [&] {
        dfio_clock = arch::clockPeriodOf(spec.df_io);
        ooo_clock = arch::clockPeriodOf(graph);
        area = arch::areaOf(graph);
    });
    static_hls::StaticReport vericert = ledger.time("static_hls", [&] {
        return static_hls::scheduleAndEvaluate(spec.static_kernel);
    });
    result.dfio_ns = arch::executionTimeNs(dfio.value().cycles, dfio_clock);
    result.graphiti_ns = arch::executionTimeNs(ooo.value().cycles, ooo_clock);
    result.vericert_ns =
        arch::executionTimeNs(vericert.cycles, vericert.clock_period_ns);
    result.lut = area.lut;
    result.ff = area.ff;

    std::size_t plans = 0;
    if (stress) {
        faults::StressOptions options;
        options.random_plans = 1;
        options.structured = false;
        Ns start = nowNs();
        Result<faults::StressReport> report = compiler.stressCompilation(
            spec.df_io, graph, input.workload, options);
        Ns end = nowNs();
        ledger.record("faults.stress", start, end);
        if (!report.ok())
            return fail("stress: " + report.error().message);
        if (!report.value().invariant_holds)
            return fail("stress: " + report.value().first_violation);
        plans = report.value().plansRun();
        if (ledger.enabled()) {
            totals["faults.plans"] += static_cast<double>(plans);
            totals["raw.stress_ns"] += static_cast<double>(end - start);
        }
    }

    if (ledger.enabled()) {
        totals["rewrite.applied"] +=
            static_cast<double>(compiled.value().applied);
        totals["rewrite.output_nodes"] += static_cast<double>(graph.numNodes());
        totals["guard.postcheck_calls"] +=
            static_cast<double>(compiled.value().postcheck_calls);
        totals["guard.rollbacks"] +=
            static_cast<double>(compiled.value().rollbacks);
    }
    out.facts = spec.name + " applied=" +
                std::to_string(compiled.value().applied) +
                " nodes=" + std::to_string(graph.numNodes()) +
                " dot=" + digest(compiled.value().output_dot) +
                " cycles=" + std::to_string(dfio.value().cycles) + "/" +
                std::to_string(ooo.value().cycles) +
                " lut=" + std::to_string(area.lut) +
                " ff=" + std::to_string(area.ff) +
                " vericert=" + std::to_string(vericert.cycles) +
                " plans=" + std::to_string(plans);
    return out;
}

std::map<std::string, double>
qualityOf(const std::vector<PaperResult>& results)
{
    std::vector<double> vs_dfio, vs_vericert, lut, ff;
    for (const PaperResult& r : results) {
        vs_dfio.push_back(r.dfio_ns / r.graphiti_ns);
        vs_vericert.push_back(r.vericert_ns / r.graphiti_ns);
        lut.push_back(r.lut);
        ff.push_back(r.ff);
    }
    return {{"graphiti_speedup_vs_dfio", geomean(vs_dfio)},
            {"graphiti_speedup_vs_vericert", geomean(vs_vericert)},
            {"graphiti_lut_geomean", geomean(lut)},
            {"graphiti_ff_geomean", geomean(ff)}};
}

}  // namespace

std::map<std::string, double>
paperQualityProbe()
{
    Ledger off;
    std::map<std::string, double> unused;
    std::vector<PaperResult> results;
    for (const PaperInput& input : loadSuite()) {
        PaperResult result;
        OpOutcome op = runBenchmark(input, false, off, unused, result);
        if (!op.ok)
            return {};
        results.push_back(result);
    }
    return qualityOf(results);
}

Outcome
runPaperSuite(const RunConfig& config)
{
    std::vector<PaperInput> suite;
    std::vector<std::size_t> order;
    std::vector<PaperResult> first_round;
    std::map<std::string, double> totals;

    RoundWorkload workload;
    workload.setup = [&](std::uint64_t seed) {
        suite = loadSuite();
        order.clear();
        for (std::size_t i = 0; i < suite.size(); ++i)
            order.push_back(i);
        std::uint64_t state = seed;
        shuffle(order, state);
        return std::string();
    };
    workload.round_length = circuits::benchmarkNames().size();
    workload.op = [&](std::size_t index, Ledger& ledger) {
        PaperResult result;
        OpOutcome op = runBenchmark(suite[order[index]], true, ledger,
                                    totals, result);
        if (first_round.size() < suite.size())
            first_round.push_back(result);
        return op;
    };

    Outcome out = runRounds(config, workload);
    out.e2e = qualityOf(first_round);
    out.layer = layerCounts(totals, out.traced_op_ms.size());
    return out;
}

}  // namespace perfbench

/**
 * @file
 * Throughput of the cycle-accurate elastic simulator (the ModelSim
 * substitute): simulated cycles per second on the in-order and
 * transformed matvec circuits.
 */

#include <benchmark/benchmark.h>

#include "flows.hpp"

#include "bench_circuits/benchmarks.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "sim/sim.hpp"

namespace {

using namespace graphiti;

void
runSim(benchmark::State& state, const ExprHigh& g,
       const circuits::BenchmarkSpec& spec,
       std::shared_ptr<FnRegistry> registry)
{
    std::size_t cycles = 0;
    for (auto _ : state) {
        sim::Simulator simulator =
            sim::Simulator::build(g, registry).take();
        for (const auto& [name, data] : spec.memories)
            simulator.setMemory(name, data);
        auto result = simulator.run(spec.inputs, spec.expected_outputs,
                                    spec.serial_io);
        if (!result.ok())
            state.SkipWithError(result.error().message.c_str());
        else
            cycles = result.value().cycles;
    }
    state.counters["sim_cycles"] = static_cast<double>(cycles);
    // One run's cycles, repeated every iteration: scale by the
    // iteration count before dividing by the elapsed time.
    state.counters["cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(cycles),
        benchmark::Counter::kIsIterationInvariantRate);
}

void
BM_SimMatvecInOrder(benchmark::State& state)
{
    circuits::BenchmarkSpec spec =
        circuits::buildBenchmark("matvec").take();
    auto registry = std::make_shared<FnRegistry>();
    runSim(state, spec.df_io, spec, registry);
}
BENCHMARK(BM_SimMatvecInOrder)->Unit(benchmark::kMillisecond);

void
BM_SimMatvecTagged(benchmark::State& state)
{
    circuits::BenchmarkSpec spec =
        circuits::buildBenchmark("matvec").take();
    Environment env;
    auto transformed = runOooPipeline(
        spec.df_io, env, {.num_tags = spec.num_tags, .reexpand = true});
    if (!transformed.ok()) {
        state.SkipWithError("pipeline failed");
        return;
    }
    runSim(state, transformed.value().graph, spec, env.functionsPtr());
}
BENCHMARK(BM_SimMatvecTagged)->Unit(benchmark::kMillisecond);

}  // namespace

GRAPHITI_BENCHMARK_MAIN();

/**
 * @file
 * Performance of the refinement checker (the executable stand-in for
 * the paper's Lean proofs): state-space size and solving time as the
 * input budget grows, on the theorem 5.3 instance (out-of-order GCD
 * loop vs sequential loop) and on catalog rewrites.
 */

#include <benchmark/benchmark.h>

#include "flows.hpp"

#include "bench_circuits/gcd.hpp"
#include "refine/refinement.hpp"
#include "refine/trace.hpp"
#include "rewrite/catalog.hpp"

namespace {

using namespace graphiti;

std::vector<Token>
gcdPairs()
{
    return {Token(Value::tuple(Value(3), Value(2))),
            Token(Value::tuple(Value(4), Value(2)))};
}

/**
 * The theorem 5.3 instance (out-of-order GCD loop vs sequential loop)
 * as the input budget grows. The counters are deterministic:
 * ci/par_gate.sh ratchets them exactly at budget 3.
 */
void
BM_LoopRewriteRefinement(benchmark::State& state)
{
    std::size_t budget = static_cast<std::size_t>(state.range(0));
    RefinementReport last;
    for (auto _ : state) {
        Environment env(4);
        ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
        ExprHigh ooo = circuits::buildGcdOutOfOrder(env.functions(), 2);
        auto report = checkGraphRefinement(
            ooo, seq, env, gcdPairs(),
            {.max_states = 2000000, .input_budget = budget});
        if (!report.ok() || !report.value().refines)
            state.SkipWithError("refinement check failed");
        else
            last = report.take();
    }
    state.counters["impl_states"] = static_cast<double>(last.impl_states);
    state.counters["verify_states"] =
        static_cast<double>(last.impl_states + last.spec_states);
    state.counters["game_pairs"] =
        static_cast<double>(last.reachable_pairs);
    state.counters["fixpoint_iterations"] =
        static_cast<double>(last.fixpoint_iterations);
    // Memory footprint of the check (explore + game high-water).
    state.counters["peak_bytes"] =
        static_cast<double>(last.explore_peak_bytes + last.peak_bytes);
}
BENCHMARK(BM_LoopRewriteRefinement)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

/**
 * Bytes/state of the compact encoding vs the retired deep encoding.
 * The deep figure re-derives what the pre-pool StateSpace stored per
 * state: the full concrete GraphState (decoded here on demand), three
 * edge-vector headers, and the edge elements — the dedup index's
 * second deep copy is left out, so the ratio reported is conservative.
 */
void
BM_EncodingFootprint(benchmark::State& state)
{
    std::size_t budget = static_cast<std::size_t>(state.range(0));
    Environment env(4);
    ExprHigh ooo = circuits::buildGcdOutOfOrder(env.functions(), 2);
    DenotedModule impl =
        DenotedModule::denote(lowerToExprLow(ooo).value(), env).take();
    InputDomain domain = InputDomain::uniform(impl, gcdPairs());

    double encoded_per_state = 0, deep_per_state = 0;
    std::size_t states = 0, pool_states = 0;
    for (auto _ : state) {
        Result<StateSpace> space = StateSpace::explore(
            impl, domain,
            {.max_states = 2000000, .input_budget = budget});
        if (!space.ok()) {
            state.SkipWithError("exploration failed");
            continue;
        }
        const StateSpace& s = space.value();
        states = s.numStates();
        pool_states = s.pool().size();
        std::size_t deep = sizeof(StateSpace);
        for (std::uint32_t id = 0;
             id < static_cast<std::uint32_t>(states); ++id) {
            // What the old encoding kept resident per state.
            GraphState concrete;
            for (std::uint32_t pid : s.encodedRow(id))
                concrete.comps.push_back(s.pool().value(pid));
            deep += concrete.approxBytes() + sizeof(GraphState);
            deep += 3 * sizeof(std::vector<std::uint32_t>);
            deep += s.internalEdges(id).size() * sizeof(std::uint32_t);
            deep += s.inputEdges(id).size() *
                    sizeof(StateSpace::InputEdge);
            deep += s.outputEdges(id).size() *
                    sizeof(StateSpace::OutputEdge);
            deep += 2 * sizeof(std::uint32_t);  // budget + frontier slot
        }
        encoded_per_state = static_cast<double>(s.approxBytes()) /
                            static_cast<double>(states);
        deep_per_state = static_cast<double>(deep) /
                         static_cast<double>(states);
        benchmark::DoNotOptimize(space);
    }
    state.counters["verify_states"] = static_cast<double>(states);
    state.counters["pool_states"] = static_cast<double>(pool_states);
    state.counters["encoded_bytes_per_state"] = encoded_per_state;
    state.counters["deep_bytes_per_state"] = deep_per_state;
    state.counters["footprint_ratio"] =
        encoded_per_state > 0 ? deep_per_state / encoded_per_state : 0;
}
BENCHMARK(BM_EncodingFootprint)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

void
BM_CatalogRewriteRefinement(benchmark::State& state)
{
    RewriteDef def = catalog::combineMux();
    for (auto _ : state) {
        Environment env(3);
        auto report = verifyRewrite(
            def, env, {Token(Value(true)), Token(Value(1))},
            {.max_states = 300000, .input_budget = 2});
        if (!report.ok() || !report.value().refines)
            state.SkipWithError("catalog check failed");
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_CatalogRewriteRefinement)->Unit(benchmark::kMillisecond);

void
BM_TraceInclusion(benchmark::State& state)
{
    Environment env(6);
    ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
    ExprHigh ooo = circuits::buildGcdOutOfOrder(env.functions(), 3);
    DenotedModule impl =
        DenotedModule::denote(lowerToExprLow(ooo).value(), env).take();
    DenotedModule spec =
        DenotedModule::denote(lowerToExprLow(seq).value(), env).take();
    std::vector<Token> pool = {Token(Value::tuple(Value(6), Value(4))),
                               Token(Value::tuple(Value(9), Value(6)))};
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed++);
        IoTrace trace = randomTrace(impl, pool, rng,
                                    {.max_steps = 300,
                                     .input_bias = 0.4,
                                     .max_inputs = 3});
        Result<bool> admitted = admitsTrace(spec, trace);
        if (!admitted.ok() || !admitted.value())
            state.SkipWithError("trace not admitted");
        benchmark::DoNotOptimize(admitted);
    }
}
BENCHMARK(BM_TraceInclusion)->Unit(benchmark::kMillisecond);

}  // namespace

GRAPHITI_BENCHMARK_MAIN();

/**
 * @file
 * Determinism tests of the parallel verification core (label: par).
 *
 * The contract under test (docs/parallelism.md): every verdict the
 * verification stack produces — explored state spaces, simulation-game
 * reports including counterexample text, governed verdict JSON, stress
 * reports, catalog sweeps, simulator results — is byte-identical at
 * any thread count. Plus the verification cache: hit on an unchanged
 * circuit, miss after mutating one node, JSON file persistence, and
 * StopToken cancellation parking a resumable frontier.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "guard/governor.hpp"
#include "guard/transaction.hpp"
#include "guard/verdict_store.hpp"
#include "refine/refinement.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "sim/sim.hpp"
#include "support/thread_pool.hpp"

namespace graphiti {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

std::vector<Token>
gcdPairs()
{
    return {Token(Value::tuple(Value(6), Value(4))),
            Token(Value::tuple(Value(9), Value(6)))};
}

/** The gcd refinement instance used across the determinism tests. */
struct GcdInstance
{
    Environment env{4};
    ExprHigh seq;
    ExprHigh ooo;
    DenotedModule impl;
    DenotedModule spec;

    GcdInstance()
        : seq(circuits::buildGcdNormalizedLoop(env.functions())),
          ooo(circuits::buildGcdOutOfOrder(env.functions(), 2)),
          impl(DenotedModule::denote(lowerToExprLow(ooo).value(), env)
                   .take()),
          spec(DenotedModule::denote(lowerToExprLow(seq).value(), env)
                   .take())
    {
    }
};

// ---------------------------------------------------------------------
// The pool itself.
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ChunksCoverTheRangeDisjointly)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelForChunks(hits.size(),
                           [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i)
                                   hits[i].fetch_add(1);
                           });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        // A nested pool task must not deadlock waiting for lanes the
        // outer batch occupies; it runs inline on the calling lane.
        ThreadPool inner(4);
        inner.parallelFor(16, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(5), 5u);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(0),
              ThreadPool::hardwareThreads());
}

// ---------------------------------------------------------------------
// Exploration determinism.
// ---------------------------------------------------------------------

TEST(ParallelExplore, FingerprintIdenticalAcrossThreadCounts)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());

    std::uint64_t base_fp = 0;
    std::size_t base_states = 0;
    for (std::size_t threads : kThreadCounts) {
        ExplorationLimits limits;
        limits.max_states = 400000;
        limits.input_budget = 2;
        limits.threads = threads;
        Result<StateSpace> space =
            StateSpace::explore(gcd.impl, domain, limits);
        ASSERT_TRUE(space.ok()) << space.error().message;
        if (threads == 1) {
            base_fp = space.value().fingerprint();
            base_states = space.value().numStates();
        } else {
            EXPECT_EQ(space.value().fingerprint(), base_fp)
                << "threads=" << threads;
            EXPECT_EQ(space.value().numStates(), base_states)
                << "threads=" << threads;
        }
    }
}

TEST(ParallelExplore, PartialSpacesIdenticalAcrossThreadCounts)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());

    std::uint64_t base_fp = 0;
    for (std::size_t threads : kThreadCounts) {
        ExplorationLimits limits;
        limits.max_states = 120;  // parks mid-exploration
        limits.input_budget = 2;
        limits.threads = threads;
        Result<StateSpace> space =
            StateSpace::explorePartial(gcd.impl, domain, limits);
        ASSERT_TRUE(space.ok()) << space.error().message;
        EXPECT_FALSE(space.value().complete());
        if (threads == 1)
            base_fp = space.value().fingerprint();
        else
            EXPECT_EQ(space.value().fingerprint(), base_fp)
                << "threads=" << threads;
    }
}

TEST(ParallelExplore, ParkedFrontierResumesToTheOneShotSpace)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());

    ExplorationLimits one_shot;
    one_shot.max_states = 400000;
    one_shot.input_budget = 2;
    one_shot.threads = 8;
    Result<StateSpace> full =
        StateSpace::explore(gcd.impl, domain, one_shot);
    ASSERT_TRUE(full.ok()) << full.error().message;

    ExplorationLimits capped = one_shot;
    capped.max_states = 90;
    Result<StateSpace> partial =
        StateSpace::explorePartial(gcd.impl, domain, capped);
    ASSERT_TRUE(partial.ok()) << partial.error().message;
    ASSERT_FALSE(partial.value().complete());
    StateSpace space = partial.take();
    while (!space.complete()) {
        Result<bool> more = space.resume(gcd.impl, 200);
        ASSERT_TRUE(more.ok()) << more.error().message;
    }
    EXPECT_EQ(space.numStates(), full.value().numStates());
    EXPECT_EQ(space.fingerprint(), full.value().fingerprint());
}

TEST(ParallelExplore, StopTokenParksResumableFrontier)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());

    StopToken stop;
    stop.requestStop("test cancellation");
    ExplorationLimits limits;
    limits.max_states = 400000;
    limits.input_budget = 2;
    limits.threads = 8;
    limits.stop = stop;
    Result<StateSpace> parked =
        StateSpace::explorePartial(gcd.impl, domain, limits);
    ASSERT_TRUE(parked.ok()) << parked.error().message;
    ASSERT_TRUE(parked.value().stopped());
    EXPECT_EQ(parked.value().stopReason(), "test cancellation");
    ASSERT_FALSE(parked.value().pendingFrontier().empty());

    // Clear the token and resume to completion: the final space is
    // exactly the one-shot space.
    StateSpace space = parked.take();
    space.setStopToken({});
    while (!space.complete()) {
        Result<bool> more = space.resume(gcd.impl, 100000);
        ASSERT_TRUE(more.ok()) << more.error().message;
    }
    ExplorationLimits one_shot;
    one_shot.max_states = 400000;
    one_shot.input_budget = 2;
    Result<StateSpace> full =
        StateSpace::explore(gcd.impl, domain, one_shot);
    ASSERT_TRUE(full.ok()) << full.error().message;
    EXPECT_EQ(space.fingerprint(), full.value().fingerprint());
}

// ---------------------------------------------------------------------
// Simulation-game determinism (both verdict polarities).
// ---------------------------------------------------------------------

TEST(ParallelGame, PassingReportIdenticalAcrossThreadCounts)
{
    GcdInstance gcd;
    RefinementReport base;
    for (std::size_t threads : kThreadCounts) {
        ExplorationLimits limits;
        limits.max_states = 400000;
        limits.input_budget = 2;
        limits.threads = threads;
        Result<RefinementReport> report = checkGraphRefinement(
            gcd.ooo, gcd.seq, gcd.env, gcdPairs(), limits);
        ASSERT_TRUE(report.ok()) << report.error().message;
        EXPECT_TRUE(report.value().refines);
        if (threads == 1) {
            base = report.value();
        } else {
            EXPECT_EQ(report.value().refines, base.refines);
            EXPECT_EQ(report.value().counterexample, base.counterexample);
            EXPECT_EQ(report.value().impl_states, base.impl_states);
            EXPECT_EQ(report.value().spec_states, base.spec_states);
            EXPECT_EQ(report.value().reachable_pairs,
                      base.reachable_pairs);
            EXPECT_EQ(report.value().fixpoint_iterations,
                      base.fixpoint_iterations);
        }
    }
}

TEST(ParallelGame, CounterexampleTextIdenticalAcrossThreadCounts)
{
    // constant(7) does not refine a buffer on tokens {0, 1}: the
    // failing output move must be reported identically at any count.
    Environment env(4);
    ExprHigh spec;
    spec.addNode("b", "buffer");
    spec.bindInput(0, PortRef{"b", "in0"});
    spec.bindOutput(0, PortRef{"b", "out0"});
    ExprHigh impl;
    impl.addNode("c", "constant", {{"value", "7"}});
    impl.bindInput(0, PortRef{"c", "in0"});
    impl.bindOutput(0, PortRef{"c", "out0"});

    std::vector<Token> tokens = {Token(Value(0)), Token(Value(1))};
    std::string base;
    for (std::size_t threads : kThreadCounts) {
        ExplorationLimits limits;
        limits.max_states = 10000;
        limits.input_budget = 2;
        limits.threads = threads;
        Result<RefinementReport> report =
            checkGraphRefinement(impl, spec, env, tokens, limits);
        ASSERT_TRUE(report.ok()) << report.error().message;
        EXPECT_FALSE(report.value().refines);
        ASSERT_FALSE(report.value().counterexample.empty());
        if (threads == 1)
            base = report.value().counterexample;
        else
            EXPECT_EQ(report.value().counterexample, base)
                << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------
// Governed verdict JSON, byte-identical on every benchmark.
// ---------------------------------------------------------------------

TEST(ParallelGovernor, VerdictJsonByteIdenticalOnEveryBenchmark)
{
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        Environment env;
        PipelineOptions popts;
        popts.num_tags = spec.num_tags;
        Result<PipelineResult> transformed =
            runOooPipeline(spec.df_io, env, popts);
        ASSERT_TRUE(transformed.ok()) << name;

        std::string base;
        for (std::size_t threads : kThreadCounts) {
            // Tight budgets: the benchmark circuits are large, so the
            // full rung is expected to degrade — the point here is
            // byte-identical degradation at every thread count, not
            // assurance depth (test_guard covers the ladder itself).
            guard::VerificationBudget budget;
            budget.max_states = 800;
            budget.partial_max_states = 300;
            budget.input_budget = 1;
            budget.trace_walks = 2;
            budget.trace.max_steps = 60;
            budget.trace.max_inputs = 2;
            budget.threads = threads;
            guard::Governor governor(budget);
            Environment bounded(budget.input_budget + 2,
                                env.functionsPtr());
            guard::VerificationVerdict verdict = governor.verifyGraphs(
                transformed.value().graph, spec.df_io, bounded,
                {Token(Value(0)), Token(Value(1))});
            std::string json = verdict.toJson().dump(2);
            if (threads == 1)
                base = json;
            else
                EXPECT_EQ(json, base)
                    << name << " diverges at threads=" << threads;
        }
    }
}

// ---------------------------------------------------------------------
// Verification cache.
// ---------------------------------------------------------------------

CompileOptions
governedOptions()
{
    CompileOptions options;
    options.governed_verify = true;
    options.threads = 2;
    options.verify_budget.max_states = 800;
    options.verify_budget.partial_max_states = 300;
    options.verify_budget.input_budget = 1;
    options.verify_budget.trace_walks = 2;
    options.verify_budget.trace.max_steps = 60;
    options.verify_budget.trace.max_inputs = 2;
    return options;
}

TEST(VerifyCache, SecondCompileOfUnchangedCircuitHits)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    Compiler compiler;
    CompileOptions options = governedOptions();

    Result<CompileReport> first =
        compiler.compileGraph(gcd, options);
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_FALSE(first.value().verify_cache_hit);
    EXPECT_EQ(compiler.verdictStore()->stats().hits, 0u);
    EXPECT_EQ(compiler.verdictStore()->stats().misses, 1u);

    Result<CompileReport> second =
        compiler.compileGraph(gcd, options);
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_TRUE(second.value().verify_cache_hit);
    EXPECT_EQ(compiler.verdictStore()->stats().hits, 1u);
    EXPECT_EQ(second.value().verify_cache_key,
              first.value().verify_cache_key);
    // The cached verdict is the stored verdict, byte for byte.
    EXPECT_EQ(second.value().verdict.toJson().dump(2),
              first.value().verdict.toJson().dump(2));
}

TEST(VerifyCache, MutatingOneNodeMisses)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    Compiler compiler;
    CompileOptions options = governedOptions();

    Result<CompileReport> first =
        compiler.compileGraph(gcd, options);
    ASSERT_TRUE(first.ok()) << first.error().message;

    // Mutate one node: re-parse the printed circuit with one buffer's
    // worth of difference — append a buffer in front of output 0.
    ExprHigh mutated = gcd;
    auto out0 = mutated.outputs()[0];
    ASSERT_TRUE(out0.has_value());
    mutated.addNode("par_test_tap", "buffer");
    mutated.connect(*out0, PortRef{"par_test_tap", "in0"});
    mutated.bindOutput(0, PortRef{"par_test_tap", "out0"});

    Result<CompileReport> second =
        compiler.compileGraph(mutated, options);
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_FALSE(second.value().verify_cache_hit);
    EXPECT_NE(second.value().verify_cache_key,
              first.value().verify_cache_key);
    EXPECT_EQ(compiler.verdictStore()->stats().misses, 2u);
}

TEST(VerifyCache, FilePersistenceRoundTrips)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    guard::VerdictStoreConfig config;
    config.dir = ::testing::TempDir() + "graphiti_verdict_store";
    std::filesystem::remove_all(config.dir);

    CompileOptions options = governedOptions();

    std::string first_json;
    {
        Compiler compiler;
        compiler.setVerdictStore(
            std::make_shared<guard::VerdictStore>(config));
        Result<CompileReport> first =
            compiler.compileGraph(gcd, options);
        ASSERT_TRUE(first.ok()) << first.error().message;
        EXPECT_FALSE(first.value().verify_cache_hit);
        first_json = first.value().verdict.toJson().dump(2);
    }
    {
        // A fresh compiler and store hit via the shard files.
        auto store = std::make_shared<guard::VerdictStore>(config);
        ASSERT_TRUE(store->load().ok());
        Compiler compiler;
        compiler.setVerdictStore(store);
        Result<CompileReport> second =
            compiler.compileGraph(gcd, options);
        ASSERT_TRUE(second.ok()) << second.error().message;
        EXPECT_TRUE(second.value().verify_cache_hit);
        EXPECT_EQ(second.value().verdict.toJson().dump(2), first_json);
    }
    std::filesystem::remove_all(config.dir);
}

TEST(VerifyCache, KeyIgnoresThreadsAndTracksBudget)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    std::vector<Token> tokens = {Token(Value(0)), Token(Value(1))};
    guard::VerificationBudget a;
    guard::VerificationBudget b = a;
    b.threads = 8;  // verdicts are thread-count independent
    EXPECT_EQ(
        guard::verificationCacheKey(gcd, gcd, a, tokens),
        guard::verificationCacheKey(gcd, gcd, b, tokens));

    guard::VerificationBudget c = a;
    c.max_states = a.max_states / 2;  // different assurance: new key
    EXPECT_NE(
        guard::verificationCacheKey(gcd, gcd, a, tokens),
        guard::verificationCacheKey(gcd, gcd, c, tokens));

    EXPECT_TRUE(guard::isCacheable(a));
    guard::VerificationBudget timed = a;
    timed.deadline_seconds = 1.0;  // nondeterministic: never cached
    EXPECT_FALSE(guard::isCacheable(timed));
}

// ---------------------------------------------------------------------
// Simulator ready-worklist: identical results on every benchmark.
// ---------------------------------------------------------------------

sim::SimResult
simulateBenchmark(const ExprHigh& g,
                  const circuits::BenchmarkSpec& spec,
                  std::shared_ptr<FnRegistry> registry, bool full_sweep)
{
    sim::SimConfig config;
    config.full_sweep = full_sweep;
    sim::Simulator simulator =
        sim::Simulator::build(g, registry, config).take();
    for (const auto& [name, data] : spec.memories)
        simulator.setMemory(name, data);
    Result<sim::SimResult> r = simulator.run(
        spec.inputs, spec.expected_outputs, spec.serial_io);
    EXPECT_TRUE(r.ok()) << spec.name << ": " << r.error().message;
    return r.ok() ? r.take() : sim::SimResult{};
}

TEST(SimWorklist, CycleCountsMatchFullSweepOnEveryBenchmark)
{
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        auto registry = std::make_shared<FnRegistry>();
        sim::SimResult fast =
            simulateBenchmark(spec.df_io, spec, registry, false);
        sim::SimResult slow =
            simulateBenchmark(spec.df_io, spec, registry, true);
        EXPECT_EQ(fast.cycles, slow.cycles) << name;
        ASSERT_EQ(fast.outputs.size(), slow.outputs.size()) << name;
        for (std::size_t p = 0; p < fast.outputs.size(); ++p) {
            ASSERT_EQ(fast.outputs[p].size(), slow.outputs[p].size())
                << name << " port " << p;
            for (std::size_t i = 0; i < fast.outputs[p].size(); ++i)
                EXPECT_TRUE(fast.outputs[p][i] == slow.outputs[p][i])
                    << name << " port " << p << " token " << i;
        }
        EXPECT_EQ(fast.memories, slow.memories) << name;
    }
}

TEST(SimWorklist, TransformedCircuitMatchesFullSweep)
{
    circuits::BenchmarkSpec spec =
        circuits::buildBenchmark("matvec").take();
    Environment env;
    PipelineOptions popts;
    popts.num_tags = spec.num_tags;
    Result<PipelineResult> transformed =
        runOooPipeline(spec.df_io, env, popts);
    ASSERT_TRUE(transformed.ok());
    sim::SimResult fast = simulateBenchmark(
        transformed.value().graph, spec, env.functionsPtr(), false);
    sim::SimResult slow = simulateBenchmark(
        transformed.value().graph, spec, env.functionsPtr(), true);
    EXPECT_EQ(fast.cycles, slow.cycles);
    EXPECT_EQ(fast.memories, slow.memories);
}

// ---------------------------------------------------------------------
// Stress harness and catalog sweep: thread-count independence.
// ---------------------------------------------------------------------

TEST(ParallelStress, ReportIdenticalAcrossThreadCounts)
{
    // The figure-2 GCD loop under a small plan battery (the full
    // battery is test_faults' stress profile).
    ExprHigh gcd = circuits::buildGcdInOrder();
    faults::Workload workload;
    std::vector<Token> as, bs;
    for (int i = 0; i < 6; ++i) {
        as.emplace_back(Value(1071 + 17 * i));
        bs.emplace_back(Value(462 + 3 * i));
    }
    workload.inputs = {std::move(as), std::move(bs)};
    workload.expected_outputs = 6;

    faults::StressReport base;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        faults::StressOptions options;
        options.random_plans = 3;
        options.max_starve_plans = 4;
        options.threads = threads;
        faults::StressHarness harness(options);
        auto registry = std::make_shared<FnRegistry>();
        Result<faults::StressReport> report =
            harness.run(gcd, registry, workload);
        ASSERT_TRUE(report.ok()) << report.error().message;
        if (threads == 1) {
            base = report.value();
            continue;
        }
        EXPECT_EQ(report.value().invariant_holds, base.invariant_holds);
        EXPECT_EQ(report.value().first_violation, base.first_violation);
        EXPECT_EQ(report.value().worst_inflation, base.worst_inflation);
        ASSERT_EQ(report.value().outcomes.size(), base.outcomes.size());
        for (std::size_t i = 0; i < base.outcomes.size(); ++i) {
            EXPECT_EQ(report.value().outcomes[i].plan,
                      base.outcomes[i].plan);
            EXPECT_EQ(report.value().outcomes[i].cycles,
                      base.outcomes[i].cycles);
            EXPECT_EQ(report.value().outcomes[i].matched,
                      base.outcomes[i].matched);
        }
    }
}

TEST(ParallelCatalog, ValiditySweepIdenticalAcrossThreadCounts)
{
    guard::CatalogValidityReport base =
        guard::verifyCatalogValidity(42, 4, 1);
    guard::CatalogValidityReport par =
        guard::verifyCatalogValidity(42, 4, 8);
    EXPECT_EQ(par.all_ok, base.all_ok);
    EXPECT_EQ(par.rules_checked, base.rules_checked);
    EXPECT_EQ(par.first_failure, base.first_failure);
    ASSERT_EQ(par.rules.size(), base.rules.size());
    for (std::size_t i = 0; i < base.rules.size(); ++i) {
        EXPECT_EQ(par.rules[i].rule, base.rules[i].rule);
        EXPECT_EQ(par.rules[i].applications,
                  base.rules[i].applications);
        EXPECT_EQ(par.rules[i].violations, base.rules[i].violations);
    }
}

// ---------------------------------------------------------------------
// Cancellation races: a second thread fires the token while the
// exploration / simulation is in flight. The staggered delays sweep
// the cancel point across the run; every landing spot must be clean —
// a parked-and-resumable frontier or a structured "cancelled" error,
// never a crash, a hang, or a corrupted verdict afterwards.
// ---------------------------------------------------------------------

TEST(ParallelCancel, RacingCancelMidExploreParksThenResumesToOneShot)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());

    ExplorationLimits one_shot;
    one_shot.max_states = 400000;
    one_shot.input_budget = 2;
    one_shot.threads = 2;
    Result<StateSpace> full =
        StateSpace::explore(gcd.impl, domain, one_shot);
    ASSERT_TRUE(full.ok()) << full.error().message;

    for (int lag_us : {0, 30, 60, 120, 250, 500}) {
        StopToken stop = StopToken::manual();
        std::thread canceller([&stop, lag_us] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(lag_us));
            stop.requestStop("racing cancel");
        });
        ExplorationLimits limits = one_shot;
        limits.stop = stop;
        Result<StateSpace> raced =
            StateSpace::explorePartial(gcd.impl, domain, limits);
        canceller.join();
        ASSERT_TRUE(raced.ok())
            << "lag " << lag_us << ": " << raced.error().message;
        StateSpace space = raced.take();
        if (space.stopped()) {
            EXPECT_EQ(space.stopReason(), "racing cancel");
            // The parked frontier resumes — with the token cleared —
            // to exactly the one-shot space.
            space.setStopToken({});
            while (!space.complete()) {
                Result<bool> more = space.resume(gcd.impl, 100000);
                ASSERT_TRUE(more.ok()) << more.error().message;
            }
        }
        // Whether the cancel landed mid-flight or after the finish
        // line, the final space is the one-shot space, byte for byte.
        ASSERT_TRUE(space.complete()) << "lag " << lag_us;
        EXPECT_EQ(space.numStates(), full.value().numStates())
            << "lag " << lag_us;
        EXPECT_EQ(space.fingerprint(), full.value().fingerprint())
            << "lag " << lag_us;
    }
}

TEST(ParallelCancel, RacingCancelMidSimulationStaysStructured)
{
    circuits::BenchmarkSpec spec =
        circuits::buildBenchmark(circuits::benchmarkNames().front())
            .take();
    auto registry = std::make_shared<FnRegistry>();
    sim::SimResult baseline =
        simulateBenchmark(spec.df_io, spec, registry, false);
    ASSERT_GT(baseline.cycles, 0u);

    for (int lag_us : {0, 30, 60, 120, 250, 500}) {
        StopToken stop = StopToken::manual();
        sim::SimConfig config;
        config.stop = stop;
        sim::Simulator simulator =
            sim::Simulator::build(spec.df_io, registry, config).take();
        for (const auto& [name, data] : spec.memories)
            simulator.setMemory(name, data);
        std::thread canceller([&stop, lag_us] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(lag_us));
            stop.requestStop("racing sim cancel");
        });
        Result<sim::SimResult> raced = simulator.run(
            spec.inputs, spec.expected_outputs, spec.serial_io);
        canceller.join();
        if (raced.ok()) {
            // Cancel landed after the finish line: the full result.
            EXPECT_EQ(raced.value().cycles, baseline.cycles)
                << "lag " << lag_us;
        } else {
            // Mid-flight: a structured cancellation, not a crash.
            EXPECT_NE(raced.error().message.find("cancel"),
                      std::string::npos)
                << "lag " << lag_us << ": " << raced.error().message;
        }
        // Nothing leaked across runs: a fresh run reproduces the
        // baseline exactly.
        sim::SimResult after =
            simulateBenchmark(spec.df_io, spec, registry, false);
        EXPECT_EQ(after.cycles, baseline.cycles) << "lag " << lag_us;
    }
}

}  // namespace
}  // namespace graphiti

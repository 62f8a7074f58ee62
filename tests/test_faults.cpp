/**
 * @file
 * Tests for the fault-injection & hazard-stress subsystem: seeded
 * plans are deterministic, the latency-insensitivity invariant holds
 * for the GCD circuits (in-order and tagged out-of-order) and for
 * every evaluation benchmark, the watchdog tells deadlock from
 * livelock and produces a usable stuck-state diagnosis, and capped
 * state-space exploration parks a frontier instead of failing.
 */

#include <gtest/gtest.h>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "faults/stress.hpp"
#include "refine/state_space.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "sim/sim.hpp"

namespace graphiti::faults {
namespace {

std::vector<Token>
intStream(std::initializer_list<std::int64_t> values)
{
    std::vector<Token> out;
    for (std::int64_t v : values)
        out.emplace_back(Value(v));
    return out;
}

/** The figure-2 GCD workload as a stress Workload. */
Workload
gcdWorkload(int pairs = 12)
{
    Workload w;
    std::vector<Token> as, bs;
    for (int i = 0; i < pairs; ++i) {
        as.emplace_back(Value(1071 + 17 * i));
        bs.emplace_back(Value(462 + 3 * i));
    }
    w.inputs = {std::move(as), std::move(bs)};
    w.expected_outputs = static_cast<std::size_t>(pairs);
    return w;
}

/** Small plan battery keeping the stress smoke profile under budget. */
StressOptions
smokeOptions()
{
    StressOptions options;
    options.random_plans = 3;
    options.max_starve_plans = 6;
    options.plan_config.horizon = 2048;
    return options;
}

Result<sim::SimResult>
runWithPlan(const ExprHigh& g, std::shared_ptr<FnRegistry> registry,
            const Workload& w, std::shared_ptr<sim::FaultInjector> plan)
{
    sim::SimConfig config;
    config.faults = std::move(plan);
    sim::Simulator sim = sim::Simulator::build(g, registry, config).take();
    for (const auto& [name, data] : w.memories)
        sim.setMemory(name, data);
    return sim.run(w.inputs, w.expected_outputs, w.serial_io);
}

TEST(FaultPlan, SameSeedReproducesTheRun)
{
    Environment env;
    ExprHigh gcd = circuits::buildGcdInOrder();
    Result<PipelineResult> ooo =
        runOooPipeline(gcd, env, {.num_tags = 8, .reexpand = true});
    ASSERT_TRUE(ooo.ok()) << ooo.error().message;

    Workload w = gcdWorkload();
    auto plan_a = std::make_shared<FaultPlan>(FaultPlan::random(42));
    auto plan_b = std::make_shared<FaultPlan>(FaultPlan::random(42));
    Result<sim::SimResult> a =
        runWithPlan(ooo.value().graph, env.functionsPtr(), w, plan_a);
    Result<sim::SimResult> b =
        runWithPlan(ooo.value().graph, env.functionsPtr(), w, plan_b);
    ASSERT_TRUE(a.ok()) << a.error().message;
    ASSERT_TRUE(b.ok()) << b.error().message;
    EXPECT_EQ(a.value().cycles, b.value().cycles);
    ASSERT_EQ(a.value().outputs.size(), b.value().outputs.size());
    for (std::size_t p = 0; p < a.value().outputs.size(); ++p)
        EXPECT_EQ(a.value().outputs[p], b.value().outputs[p]);
}

TEST(FaultPlan, DifferentSeedsChangeTimingButNotResults)
{
    Environment env;
    ExprHigh gcd = circuits::buildGcdInOrder();
    Workload w = gcdWorkload();

    Result<sim::SimResult> baseline =
        runWithPlan(gcd, env.functionsPtr(), w, nullptr);
    ASSERT_TRUE(baseline.ok()) << baseline.error().message;

    std::vector<std::size_t> cycle_counts;
    for (std::uint64_t seed : {7ULL, 1234ULL, 99999ULL}) {
        auto plan = std::make_shared<FaultPlan>(FaultPlan::random(seed));
        Result<sim::SimResult> r =
            runWithPlan(gcd, env.functionsPtr(), w, plan);
        ASSERT_TRUE(r.ok()) << "seed " << seed << ": "
                            << r.error().message;
        EXPECT_EQ(r.value().outputs[0], baseline.value().outputs[0])
            << "seed " << seed;
        cycle_counts.push_back(r.value().cycles);
    }
    // Faults must actually perturb the schedule.
    for (std::size_t c : cycle_counts)
        EXPECT_GT(c, baseline.value().cycles);
}

TEST(Stress, GcdInOrderIsLatencyInsensitive)
{
    Environment env;
    StressHarness harness(smokeOptions());
    Result<StressReport> report = harness.run(
        circuits::buildGcdInOrder(), env.functionsPtr(), gcdWorkload());
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_TRUE(report.value().invariant_holds)
        << report.value().first_violation;
    EXPECT_GT(report.value().plansRun(), 5u);
}

TEST(Stress, TaggedOooLoopIsLatencyInsensitive)
{
    Environment env;
    ExprHigh gcd = circuits::buildGcdInOrder();
    Result<PipelineResult> ooo =
        runOooPipeline(gcd, env, {.num_tags = 8, .reexpand = true});
    ASSERT_TRUE(ooo.ok()) << ooo.error().message;

    StressHarness harness(smokeOptions());
    Result<StressReport> report = harness.runPair(
        gcd, ooo.value().graph, env.functionsPtr(), gcdWorkload());
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_TRUE(report.value().invariant_holds)
        << report.value().first_violation;
}

/** input#0 -> constant(@p value) -> output#0. */
ExprHigh
constantCircuit(const std::string& value)
{
    ExprHigh g;
    g.addNode("c", "constant", {{"value", value}});
    g.bindInput(0, PortRef{"c", "in0"});
    g.bindOutput(0, PortRef{"c", "out0"});
    return g;
}

TEST(Stress, PairWithDivergentBaselinesIsReported)
{
    // Each circuit is latency-insensitive on its own; only the
    // cross-check of the two fault-free baselines can catch them.
    Workload w;
    w.inputs = {intStream({1, 2, 3})};
    w.expected_outputs = 3;
    StressHarness harness(smokeOptions());
    Result<StressReport> report =
        harness.runPair(constantCircuit("1"), constantCircuit("2"),
                        std::make_shared<FnRegistry>(), w);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_FALSE(report.value().invariant_holds);
    EXPECT_EQ(report.value().first_violation.rfind(
                  "transformed baseline diverges: output#0[0]", 0),
              0u)
        << report.value().first_violation;
    for (const PlanOutcome& o : report.value().outcomes)
        EXPECT_TRUE(o.matched) << o.plan << ": " << o.detail;
}

TEST(Stress, PairSimulatesEachBaselineOnce)
{
    obs::Scope scope;
    obs::ScopedInstall install(&scope);
    StressOptions options;
    options.random_plans = 1;
    options.structured = false;
    StressHarness harness(options);
    Environment env;
    Result<StressReport> report = harness.runPair(
        circuits::buildGcdInOrder(), circuits::buildGcdInOrder(),
        env.functionsPtr(), gcdWorkload(2));
    ASSERT_TRUE(report.ok()) << report.error().message;
    // Two baselines plus one plan on each circuit.
    EXPECT_EQ(scope.metrics().counter("sim.runs"), 4);
}

// ---------------------------------------------------------------------
// The acceptance matrix: every evaluation benchmark, original and
// rewritten, under the full plan battery.
// ---------------------------------------------------------------------

class BenchmarkStress : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchmarkStress, HoldsLatencyInsensitivityInvariant)
{
    circuits::BenchmarkSpec spec =
        circuits::buildBenchmark(GetParam()).take();
    Environment env;
    Result<PipelineResult> transformed = runOooPipeline(
        spec.df_io, env, {.num_tags = spec.num_tags, .reexpand = true});
    ASSERT_TRUE(transformed.ok()) << transformed.error().message;

    Workload w;
    w.memories = spec.memories;
    w.inputs = spec.inputs;
    w.expected_outputs = spec.expected_outputs;
    w.serial_io = spec.serial_io;

    StressOptions options = smokeOptions();
    options.random_plans = 2;
    options.max_starve_plans = 4;
    StressHarness harness(options);
    // For bicg the pipeline refuses the transform and hands back the
    // original, so the pair degenerates to stressing DF-IO twice.
    Result<StressReport> report = harness.runPair(
        spec.df_io, transformed.value().graph, env.functionsPtr(), w);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_TRUE(report.value().invariant_holds)
        << GetParam() << ": " << report.value().first_violation;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkStress,
                         ::testing::ValuesIn(circuits::benchmarkNames()),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (char& c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// ---------------------------------------------------------------------
// Watchdog classification.
// ---------------------------------------------------------------------

TEST(Watchdog, DeadlockIsClassifiedAndDiagnosed)
{
    // A join whose second operand never arrives: tokens wait, nothing
    // can move.
    ExprHigh g;
    g.addNode("j", "join", {{"in", "2"}});
    g.bindInput(0, PortRef{"j", "in0"});
    g.bindInput(1, PortRef{"j", "in1"});
    g.bindOutput(0, PortRef{"j", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator sim = sim::Simulator::build(g, registry).take();
    Result<sim::SimResult> r = sim.run({intStream({1}), {}}, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("deadlock"), std::string::npos);
    ASSERT_TRUE(sim.lastDiagnosis().has_value());
    const sim::StuckDiagnosis& d = *sim.lastDiagnosis();
    EXPECT_EQ(d.kind, sim::StuckKind::Deadlock);
    ASSERT_FALSE(d.blocked.empty());
    EXPECT_EQ(d.blocked[0].name, "j");
    // The wavefront names the missing operand.
    ASSERT_FALSE(d.blocked[0].waiting_on.empty());
    EXPECT_NE(d.blocked[0].waiting_on[0].find("in1 empty"),
              std::string::npos);
    EXPECT_FALSE(d.occupied_channels.empty());
}

TEST(Watchdog, LivelockIsDistinguishedFromDeadlock)
{
    // A source/sink pair churns tokens forever while the bound output
    // (a join with a forever-missing operand) never advances: internal
    // activity without output progress.
    ExprHigh g;
    g.addNode("src", "source");
    g.addNode("snk", "sink");
    g.addNode("j", "join", {{"in", "2"}});
    g.connect("src", "out0", "snk", "in0");
    g.bindInput(0, PortRef{"j", "in0"});
    g.bindInput(1, PortRef{"j", "in1"});
    g.bindOutput(0, PortRef{"j", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    sim::SimConfig config;
    config.livelock_window = 300;
    sim::Simulator sim =
        sim::Simulator::build(g, registry, config).take();
    Result<sim::SimResult> r = sim.run({intStream({1}), {}}, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("livelock"), std::string::npos);
    ASSERT_TRUE(sim.lastDiagnosis().has_value());
    EXPECT_EQ(sim.lastDiagnosis()->kind, sim::StuckKind::Livelock);
}

/**
 * A zero-slack token ring: four init components seed four tokens
 * into a four-channel cycle. With the default two slots per channel
 * the ring has bubbles and circulates forever; squeezed to a single
 * slot everywhere it has token count == slot count, so after the
 * initial pushes no component has output space and nothing can ever
 * move — the buffer-sizing hazard arch/buffers.hpp exists to
 * prevent, distilled to four nodes. The idle join gives the run an
 * output to wait for (it never arrives; the watchdog must explain
 * why).
 */
ExprHigh
tokenRing()
{
    ExprHigh g;
    g.addNode("i1", "init");
    g.addNode("i2", "init");
    g.addNode("i3", "init");
    g.addNode("i4", "init");
    g.connect("i1", "out0", "i2", "in0");
    g.connect("i2", "out0", "i3", "in0");
    g.connect("i3", "out0", "i4", "in0");
    g.connect("i4", "out0", "i1", "in0");
    g.addNode("probe", "join", {{"in", "2"}});
    g.bindInput(0, PortRef{"probe", "in0"});
    g.bindInput(1, PortRef{"probe", "in1"});
    g.bindOutput(0, PortRef{"probe", "out0"});
    return g;
}

TEST(Watchdog, UnderBufferedCircuitReportsDeadlockWithDiagnosis)
{
    auto registry = std::make_shared<FnRegistry>();
    sim::SimConfig config;
    config.livelock_window = 300;
    config.faults =
        std::make_shared<FaultPlan>(FaultPlan::singleSlot());
    sim::Simulator sim =
        sim::Simulator::build(tokenRing(), registry, config).take();
    Result<sim::SimResult> r = sim.run({{}, {}}, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("deadlock"), std::string::npos)
        << r.error().message;
    ASSERT_TRUE(sim.lastDiagnosis().has_value());
    const sim::StuckDiagnosis& d = *sim.lastDiagnosis();
    EXPECT_EQ(d.kind, sim::StuckKind::Deadlock);
    // All four ring channels are full and all four inits blocked.
    EXPECT_EQ(d.occupied_channels.size(), 4u);
    EXPECT_EQ(d.blocked.size(), 4u);
    EXPECT_FALSE(d.toString().empty());
}

TEST(Watchdog, SameRingWithSlackLivelocksInsteadOfDeadlocking)
{
    // Un-squeezed, the identical circuit circulates forever: the
    // watchdog must report livelock, not deadlock — the difference
    // between "needs more buffering" and "needs a different circuit".
    auto registry = std::make_shared<FnRegistry>();
    sim::SimConfig config;
    config.livelock_window = 300;
    sim::Simulator sim =
        sim::Simulator::build(tokenRing(), registry, config).take();
    Result<sim::SimResult> r = sim.run({{}, {}}, 1);
    ASSERT_FALSE(r.ok());
    ASSERT_TRUE(sim.lastDiagnosis().has_value());
    EXPECT_EQ(sim.lastDiagnosis()->kind, sim::StuckKind::Livelock);
}

// ---------------------------------------------------------------------
// Capped state-space exploration.
// ---------------------------------------------------------------------

TEST(StateSpacePartial, CapParksAFrontierInsteadOfFailing)
{
    Environment env(4);
    ExprHigh g;
    g.addNode("b", "buffer");
    g.bindInput(0, PortRef{"b", "in0"});
    g.bindOutput(0, PortRef{"b", "out0"});
    DenotedModule mod =
        DenotedModule::denote(lowerToExprLow(g).value(), env).take();
    InputDomain domain = InputDomain::uniform(
        mod, {Token(Value(1)), Token(Value(2))});

    ExplorationLimits full{.max_states = 10000, .input_budget = 3};
    StateSpace one_shot = StateSpace::explore(mod, domain, full).take();
    ASSERT_TRUE(one_shot.complete());

    // Tight cap: the partial space parks a frontier instead of dying.
    StateSpace partial =
        StateSpace::explorePartial(
            mod, domain, {.max_states = 4, .input_budget = 3})
            .take();
    EXPECT_FALSE(partial.complete());
    EXPECT_FALSE(partial.pendingFrontier().empty());
    EXPECT_LE(partial.numStates(), 4u);
    EXPECT_LT(partial.numStates(), one_shot.numStates());
    // The frontier is the un-expanded tail of the interned states.
    EXPECT_EQ(partial.pendingFrontier().back(),
              partial.numStates() - 1);
    EXPECT_TRUE(one_shot.pendingFrontier().empty());
}

TEST(StateSpacePartial, StrictExploreStillFailsAtTheCap)
{
    Environment env(8);
    ExprHigh g;
    g.addNode("b", "buffer");
    g.bindInput(0, PortRef{"b", "in0"});
    g.bindOutput(0, PortRef{"b", "out0"});
    DenotedModule mod =
        DenotedModule::denote(lowerToExprLow(g).value(), env).take();
    InputDomain domain = InputDomain::uniform(
        mod, {Token(Value(1)), Token(Value(2)), Token(Value(3))});
    EXPECT_FALSE(StateSpace::explore(mod, domain,
                                     {.max_states = 3,
                                      .input_budget = 3})
                     .ok());
}

// ---------------------------------------------------------------------
// Compiler surface.
// ---------------------------------------------------------------------

TEST(Compiler, StressCompilationValidatesGcd)
{
    Compiler compiler;
    ExprHigh gcd = circuits::buildGcdInOrder();
    Result<CompileReport> compiled =
        compiler.compileGraph(gcd, {.num_tags = 8});
    ASSERT_TRUE(compiled.ok()) << compiled.error().message;

    StressOptions options = smokeOptions();
    options.random_plans = 2;
    options.max_starve_plans = 4;
    Result<StressReport> report = compiler.stressCompilation(
        gcd, compiled.value().graph, gcdWorkload(8), options);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_TRUE(report.value().invariant_holds)
        << report.value().first_violation;
    EXPECT_GT(report.value().plansRun(), 0u);
}

}  // namespace
}  // namespace graphiti::faults

/**
 * @file
 * Edge cases across modules: parser robustness against garbage
 * input, simulator corner configurations, engine bounds, and stats
 * accounting.
 */

#include <gtest/gtest.h>

#include "bench_circuits/gcd.hpp"
#include "dot/dot.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/catalog.hpp"
#include "sim/sim.hpp"
#include "support/rng.hpp"

namespace graphiti {
namespace {

// ---------------------------------------------------------------------
// Dot parser robustness: random garbage and random mutations of valid
// input must fail cleanly (an Error), never crash or accept nonsense.
// ---------------------------------------------------------------------

class DotFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DotFuzz, GarbageNeverCrashes)
{
    Rng rng(GetParam());
    std::string garbage;
    std::size_t length = rng.below(300);
    for (std::size_t i = 0; i < length; ++i)
        garbage += static_cast<char>(32 + rng.below(95));
    Result<ExprHigh> result = parseDot(garbage);
    if (result.ok()) {
        EXPECT_TRUE(result.value().validate().ok());
    }
}

TEST_P(DotFuzz, MutatedValidInputNeverCrashes)
{
    Rng rng(GetParam());
    std::string text = printDot(circuits::buildGcdInOrder());
    // Flip a handful of characters.
    for (int i = 0; i < 8; ++i) {
        std::size_t at = rng.below(text.size());
        text[at] = static_cast<char>(32 + rng.below(95));
    }
    Result<ExprHigh> result = parseDot(text);
    if (result.ok()) {
        EXPECT_TRUE(result.value().validate().ok());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DotFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

// ---------------------------------------------------------------------
// Simulator corners.
// ---------------------------------------------------------------------

TEST(SimEdge, InitTrueEmitsTrueFirst)
{
    ExprHigh g;
    g.addNode("i", "init", {{"value", "true"}});
    g.bindInput(0, PortRef{"i", "in0"});
    g.bindOutput(0, PortRef{"i", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    auto r = s.run({{Token(Value(false))}}, 2);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_TRUE(r.value().outputs[0][0].value.asBool());
    EXPECT_FALSE(r.value().outputs[0][1].value.asBool());
}

TEST(SimEdge, SourceDrivenConstantStreams)
{
    ExprHigh g;
    g.addNode("src", "source");
    g.addNode("c", "constant", {{"value", "9"}});
    g.connect("src", "out0", "c", "in0");
    g.bindOutput(0, PortRef{"c", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    auto r = s.run({}, 5);
    ASSERT_TRUE(r.ok()) << r.error().message;
    for (const Token& t : r.value().outputs[0])
        EXPECT_EQ(t.value.asInt(), 9);
}

TEST(SimEdge, TraceFilterOnAbsentNodeIsSilent)
{
    ExprHigh g = circuits::buildGcdInOrder();
    auto registry = std::make_shared<FnRegistry>();
    sim::SimConfig config;
    config.trace_nodes = {"no_such_node"};
    sim::Simulator s = sim::Simulator::build(g, registry, config).take();
    auto r = s.run({{Token(Value(6))}, {Token(Value(4))}}, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().trace.empty());
}

TEST(SimEdge, UnknownComponentTypeFails)
{
    // The simulator (not the validator) must report unmodelled types.
    ExprHigh g;
    g.addNode("p", "pure", {{"fn", "ghost"}});
    g.bindInput(0, PortRef{"p", "in0"});
    g.bindOutput(0, PortRef{"p", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    EXPECT_FALSE(sim::Simulator::build(g, registry).take()
                     .run({{Token(Value(1))}}, 1)
                     .ok());
}

TEST(SimEdge, CycleLimitReported)
{
    // A source feeding a sink runs forever; with only impossible
    // output expectations the run must hit the cycle limit, not hang.
    ExprHigh g;
    g.addNode("src", "source");
    g.addNode("snk", "sink");
    g.connect("src", "out0", "snk", "in0");
    g.bindOutput(0, PortRef{"src", "out0"});
    // src.out0 is consumed by the edge, so rebind: use a fork.
    ExprHigh g2;
    g2.addNode("src", "source");
    g2.addNode("f", "fork", {{"out", "2"}});
    g2.addNode("snk", "sink");
    g2.connect("src", "out0", "f", "in0");
    g2.connect("f", "out0", "snk", "in0");
    g2.bindOutput(0, PortRef{"f", "out1"});
    auto registry = std::make_shared<FnRegistry>();
    sim::SimConfig config;
    config.max_cycles = 50;
    sim::Simulator s =
        sim::Simulator::build(g2, registry, config).take();
    // Expect more outputs than cycles allow: must error out.
    auto r = s.run({}, 10000);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("cycle limit"), std::string::npos);
}

/** input#0 -> fork(out=2) -> output#0 via f.out1, with f.out0 and
 * f.@p port each feeding a sink. */
Result<sim::SimResult>
runForkWithPort(const std::string& port)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "2"}});
    g.addNode("snk", "sink");
    g.addNode("snk2", "sink");
    g.bindInput(0, PortRef{"f", "in0"});
    g.connect("f", "out0", "snk", "in0");
    g.connect("f", port, "snk2", "in0");
    g.bindOutput(0, PortRef{"f", "out1"});
    auto registry = std::make_shared<FnRegistry>();
    Result<sim::Simulator> s = sim::Simulator::build(g, registry);
    if (!s.ok())
        return s.error();
    return s.take().run({{Token(Value(1))}}, 1);
}

TEST(SimEdge, UnknownMemoryFailsOnlyWhenFired)
{
    // The memory is resolved when the run is built, but a load that
    // never fires may name a memory nobody installed.
    ExprHigh g;
    g.addNode("ld", "load", {{"memory", "absent"}});
    g.bindInput(0, PortRef{"ld", "in0"});
    g.bindOutput(0, PortRef{"ld", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    EXPECT_TRUE(s.run({{}}, 0).ok());
    auto r = s.run({{Token(Value(0))}}, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("load from unknown memory absent"),
              std::string::npos)
        << r.error().message;
}

TEST(SimEdge, PortPastArityIsABuildError)
{
    // fork(out=2) has no out7: binding it used to write past the end
    // of the node's channel table and still report ok.
    Result<sim::SimResult> r = runForkWithPort("out7");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("sim build: edge f.out7 -> snk2.in0"),
              std::string::npos)
        << r.error().message;
}

TEST(SimEdge, PortWithoutNumberIsABuildError)
{
    Result<sim::SimResult> r = runForkWithPort("out");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("sim build: edge f.out -> snk2.in0"),
              std::string::npos)
        << r.error().message;
}

// ---------------------------------------------------------------------
// Engine bounds and stats.
// ---------------------------------------------------------------------

TEST(EngineEdge, MaxApplicationsEnforced)
{
    // buffer-deepen always re-applies (each buffer becomes two):
    // exhaustive application must hit the cap and error.
    ExprHigh g;
    g.addNode("b", "buffer");
    g.bindInput(0, PortRef{"b", "in0"});
    g.bindOutput(0, PortRef{"b", "out0"});
    RewriteEngine engine;
    ASSERT_TRUE(engine.addRule(catalog::bufferDeepen()).ok());
    Result<ExprHigh> out =
        engine.applyExhaustively(g, {"buffer-deepen"}, 16);
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.error().message.find("max applications"),
              std::string::npos);
}

TEST(EngineEdge, StatsMergeAccumulates)
{
    EngineStats a, b;
    a.record("x");
    a.record("x");
    b.record("y");
    a.merge(b);
    EXPECT_EQ(a.rewrites_applied, 3u);
    EXPECT_EQ(a.per_rule.at("x"), 2u);
    EXPECT_EQ(a.per_rule.at("y"), 1u);
}

TEST(EngineEdge, DuplicateRuleRejected)
{
    RewriteEngine engine;
    ASSERT_TRUE(engine.addRule(catalog::bufferElim()).ok());
    EXPECT_FALSE(engine.addRule(catalog::bufferElim()).ok());
}

}  // namespace
}  // namespace graphiti

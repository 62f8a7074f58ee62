/**
 * @file
 * Edge cases across modules: parser robustness against garbage
 * input, simulator corner configurations, engine bounds, and stats
 * accounting.
 */

#include <gtest/gtest.h>

#include <optional>

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

/** One @p type node whose every port is graph I/O: input i feeds
 * in<i>, out<j> is output j. */
ExprHigh
loneNode(const std::string& type, const AttrMap& attrs, int ins, int outs)
{
    ExprHigh g;
    g.addNode("n", type, attrs);
    for (int i = 0; i < ins; ++i)
        g.bindInput(i, PortRef{"n", "in" + std::to_string(i)});
    for (int j = 0; j < outs; ++j)
        g.bindOutput(j, PortRef{"n", "out" + std::to_string(j)});
    return g;
}

/**
 * Run @p g on @p inputs: the run must fail with an error containing
 * @p message — a hard error, not a watchdog verdict, and not an
 * exception.
 */
void
expectSimError(const ExprHigh& g,
               const std::vector<std::vector<Token>>& inputs,
               const std::string& message)
{
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    s.setMemory("mem", {0, 0, 0, 0});
    std::optional<Result<sim::SimResult>> r;
    EXPECT_NO_THROW(r.emplace(s.run(inputs, 1)));
    ASSERT_TRUE(r.has_value());
    ASSERT_FALSE(r->ok());
    EXPECT_NE(r->error().message.find(message), std::string::npos)
        << r->error().message;
    EXPECT_FALSE(s.lastDiagnosis().has_value());
}

TEST(SimEdge, JoinTagMismatchIsAnError)
{
    expectSimError(loneNode("join", {}, 2, 1),
                   {{Token(Value(1), 0)}, {Token(Value(2), 1)}},
                   "tag mismatch at join (tokens from different "
                   "iterations met)");
}

TEST(SimEdge, BranchTagMismatchIsAnError)
{
    expectSimError(loneNode("branch", {}, 2, 2),
                   {{Token(Value(1), 2)}, {Token(Value(true), 3)}},
                   "tag mismatch at branch");
}

TEST(SimEdge, StoreTagMismatchIsAnError)
{
    expectSimError(loneNode("store", {}, 2, 1),
                   {{Token(Value(1), 0)}, {Token(Value(5), 1)}},
                   "tag mismatch at store");
}

TEST(SimEdge, OperatorTagMismatchIsAnError)
{
    expectSimError(loneNode("operator", {{"op", "add"}}, 2, 1),
                   {{Token(Value(1), 0)}, {Token(Value(2), 1)}},
                   "tag mismatch at operator");
}

TEST(SimEdge, UntaggedTokenReturnedToTaggerIsAnError)
{
    expectSimError(loneNode("tagger", {{"tags", "4"}}, 2, 2),
                   {{}, {Token(Value(1))}},
                   "untagged token returned to tagger");
}

TEST(SimEdge, TagReturnedTwiceIsAnError)
{
    // Two fresh tokens take tags 0 and 1; tag 1 comes back twice
    // while tag 0 is still outstanding, so the first copy is parked
    // in the reorder buffer when the second arrives.
    expectSimError(loneNode("tagger", {{"tags", "4"}}, 2, 2),
                   {{Token(Value(10)), Token(Value(11))},
                    {Token(Value(11), 1), Token(Value(11), 1)}},
                   "tag 1 returned to tagger twice");
}

TEST(SimEdge, TagNeverAllocatedIsAnError)
{
    expectSimError(loneNode("tagger", {{"tags", "4"}}, 2, 2),
                   {{}, {Token(Value(1), 7)}},
                   "tag 7 was never allocated");
}

TEST(SimEdge, DrainGrowsAnUnboundedOutputRing)
{
    // A source drives a constant into output#0 and, three buffers
    // later, a store of mem[2] = 5. The run is done at the first
    // output, before the store's data arrives; the drain then steps
    // the never-quiet source for its full bound, pushing thousands of
    // tokens into the uncollected output channel.
    ExprHigh g;
    g.addNode("src", "source");
    g.addNode("f", "fork", {{"out", "3"}});
    g.addNode("out", "constant", {{"value", "7"}});
    g.addNode("addr", "constant", {{"value", "2"}});
    g.addNode("b0", "buffer");
    g.addNode("b1", "buffer");
    g.addNode("b2", "buffer");
    g.addNode("data", "constant", {{"value", "5"}});
    g.addNode("st", "store");
    g.addNode("snk", "sink");
    g.connect("src", "out0", "f", "in0");
    g.connect("f", "out0", "out", "in0");
    g.connect("f", "out1", "addr", "in0");
    g.connect("f", "out2", "b0", "in0");
    g.connect("b0", "out0", "b1", "in0");
    g.connect("b1", "out0", "b2", "in0");
    g.connect("b2", "out0", "data", "in0");
    g.connect("addr", "out0", "st", "in0");
    g.connect("data", "out0", "st", "in1");
    g.connect("st", "out0", "snk", "in0");
    g.bindOutput(0, PortRef{"out", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    s.setMemory("mem", {0, 0, 0, 0});
    Result<sim::SimResult> r = s.run({}, 1);
    ASSERT_TRUE(r.ok()) << r.error().message;
    ASSERT_EQ(r.value().outputs.size(), 1u);
    ASSERT_EQ(r.value().outputs[0].size(), 1u);
    EXPECT_EQ(r.value().outputs[0][0].value.asInt(), 7);
    EXPECT_EQ(r.value().memories.at("mem"),
              (std::vector<double>{0, 0, 5, 0}));
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

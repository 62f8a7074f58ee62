/**
 * @file
 * Edge cases across modules: parser robustness against garbage
 * input, simulator corner configurations, engine bounds, and stats
 * accounting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_circuits/gcd.hpp"
#include "dot/dot.hpp"
#include "obs/scope.hpp"
#include "rewrite/catalog.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/ooo_pipeline.hpp"
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

TEST(SimEdge, JoinWithoutInputsIsABuildError)
{
    // A join of zero (or fewer) inputs passes validation but has no
    // head token to nest the pair from.
    for (const char* in : {"0", "-1"}) {
        ExprHigh g;
        g.addNode("j", "join", {{"in", in}});
        g.bindOutput(0, PortRef{"j", "out0"});
        ASSERT_TRUE(g.validate().ok()) << in;
        auto registry = std::make_shared<FnRegistry>();
        Result<sim::Simulator> s = sim::Simulator::build(g, registry);
        ASSERT_TRUE(s.ok()) << s.error().message;
        Result<sim::SimResult> r = s.take().run({}, 1);
        ASSERT_FALSE(r.ok()) << in;
        EXPECT_NE(r.error().message.find("sim build: join j has no inputs"),
                  std::string::npos)
            << r.error().message;
    }
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

/** Stretches the latency of the first token node "n" accepts. */
class FirstTokenJitter : public sim::FaultInjector
{
  public:
    explicit FirstTokenJitter(int extra) : extra_(extra) {}

    int
    latencyJitter(const std::string& node, std::size_t cycle) override
    {
        return node == "n" && cycle == 1 ? extra_ : 0;
    }

    std::size_t horizon() const override { return 8; }

  private:
    int extra_;
};

TEST(SimEdge, JitteredPipelineCompletesInAcceptanceOrder)
{
    // input#0 -> id (latency 2) -> output#0. The first token, accepted
    // at cycle 1, gets 4 extra cycles (ready at 7); the next two are
    // accepted at cycles 2 and 3 and ready at 4 and 5, but wait behind
    // it and leave with it at cycle 7, in acceptance order.
    ExprHigh g = loneNode("operator", {{"op", "id"}, {"latency", "2"}}, 1,
                          1);
    sim::SimConfig config;
    config.trace_nodes = {"n"};
    config.faults = std::make_shared<FirstTokenJitter>(4);
    sim::Simulator s =
        sim::Simulator::build(g, std::make_shared<FnRegistry>(), config)
            .take();
    Result<sim::SimResult> r = s.run(
        {{Token(Value(10)), Token(Value(20)), Token(Value(30))}}, 3);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r.value().outputs[0],
              (std::vector<Token>{Token(Value(10)), Token(Value(20)),
                                  Token(Value(30))}));
    EXPECT_EQ(r.value().cycles, 9u);
    std::vector<std::pair<std::size_t, std::string>> events;
    for (const sim::TraceEvent& e : r.value().trace)
        events.emplace_back(e.cycle, e.detail);
    EXPECT_EQ(events, (std::vector<std::pair<std::size_t, std::string>>{
                          {1, "accept"},
                          {2, "accept"},
                          {3, "accept"},
                          {7, "emit"},
                          {7, "emit"},
                          {7, "emit"}}));
}

TEST(SimEdge, StuckDiagnosisCountsPipelineTokens)
{
    // input#0 -> id -> join.in0; join.in1 never gets a token. The id
    // unit accepts all five tokens; two fill its output channel and
    // three stay in its pipeline, which the diagnosis counts as held.
    ExprHigh g;
    g.addNode("n", "operator", {{"op", "id"}, {"latency", "3"}});
    g.addNode("j", "join");
    g.connect("n", "out0", "j", "in0");
    g.bindInput(0, PortRef{"n", "in0"});
    g.bindInput(1, PortRef{"j", "in1"});
    g.bindOutput(0, PortRef{"j", "out0"});
    sim::SimConfig config;
    config.faults = std::make_shared<FirstTokenJitter>(2);
    sim::Simulator s =
        sim::Simulator::build(g, std::make_shared<FnRegistry>(), config)
            .take();
    std::vector<Token> five;
    for (int i = 0; i < 5; ++i)
        five.emplace_back(Value(i));
    Result<sim::SimResult> r = s.run({five, {}}, 1);
    ASSERT_FALSE(r.ok());
    ASSERT_TRUE(s.lastDiagnosis().has_value());
    const sim::StuckDiagnosis& d = *s.lastDiagnosis();
    EXPECT_EQ(d.kind, sim::StuckKind::Deadlock);
    EXPECT_EQ(d.cycle, 13u);
    std::vector<std::pair<std::string, std::size_t>> held;
    for (const sim::BlockedNode& b : d.blocked)
        held.emplace_back(b.name, b.held_tokens);
    EXPECT_EQ(held, (std::vector<std::pair<std::string, std::size_t>>{
                        {"n", 3}, {"j", 2}}));
}

// ---------------------------------------------------------------------
// Token boundary: what a circuit's inputs, outputs, traces, waveforms
// and error texts show of a token, whatever the simulator moves
// internally.
// ---------------------------------------------------------------------

Value
pair(Value a, Value b)
{
    return Value::tuple(std::move(a), std::move(b));
}

/** Tuples of every shape: pairs, a 3-tuple, nested pairs, a pair
 * holding a 3-tuple, and a unit. */
std::vector<Token>
tupleTokens()
{
    Value triple(ValueTuple{Value(true), Value(4), Value()});
    return {
        Token(pair(Value(1), Value(2.5))),
        Token(triple),
        Token(pair(pair(Value(1), Value(2)),
                   pair(Value(3), pair(Value(false), Value(-7))))),
        Token(pair(triple, Value(8)), 3),
        Token(pair(Value(), Value(std::int64_t{-1})), 0),
        Token(Value()),
    };
}

/** Run @p g on @p inputs and return its outputs. */
std::vector<std::vector<Token>>
runOutputs(const ExprHigh& g, const std::vector<std::vector<Token>>& inputs,
           std::size_t expected)
{
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    Result<sim::SimResult> r = s.run(inputs, expected);
    EXPECT_TRUE(r.ok()) << r.error().message;
    return r.ok() ? r.value().outputs : std::vector<std::vector<Token>>{};
}

TEST(SimToken, TupleInputsComeOutEqual)
{
    // Through a buffer, and through a fork whose two copies leave by
    // two outputs: every token, tag included, comes out as it went in.
    const std::vector<Token> tokens = tupleTokens();
    auto through_buffer =
        runOutputs(loneNode("buffer", {}, 1, 1), {tokens}, tokens.size());
    ASSERT_EQ(through_buffer.size(), 1u);
    EXPECT_EQ(through_buffer[0], tokens);

    auto through_fork = runOutputs(loneNode("fork", {{"out", "2"}}, 1, 2),
                                   {tokens}, tokens.size());
    ASSERT_EQ(through_fork.size(), 2u);
    EXPECT_EQ(through_fork[0], tokens);
    EXPECT_EQ(through_fork[1], tokens);
}

TEST(SimToken, SplitThenJoinRebuildsEveryPair)
{
    // input#0 -> split; both halves -> join -> output#0. Elements that
    // are pairs, 3-tuples or scalars are carried untouched.
    std::vector<Token> pairs;
    for (const Token& t : tupleTokens())
        if (t.value.isTuple() && t.value.asTuple().size() == 2)
            pairs.push_back(t);
    ASSERT_EQ(pairs.size(), 4u);
    ExprHigh g;
    g.addNode("s", "split");
    g.addNode("j", "join");
    g.connect("s", "out0", "j", "in0");
    g.connect("s", "out1", "j", "in1");
    g.bindInput(0, PortRef{"s", "in0"});
    g.bindOutput(0, PortRef{"j", "out0"});
    auto out = runOutputs(g, {pairs}, pairs.size());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], pairs);
}

TEST(SimToken, ThreeWayJoinNestsToTheRight)
{
    auto out = runOutputs(
        loneNode("join", {{"in", "3"}}, 3, 1),
        {{Token(Value(1), 2)}, {Token(Value(2.5), 2)},
         {Token(pair(Value(true), Value()), 2)}},
        1);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].size(), 1u);
    EXPECT_EQ(out[0][0],
              Token(pair(Value(1), pair(Value(2.5),
                                        pair(Value(true), Value()))),
                    2));
    EXPECT_EQ(out[0][0].toString(), "(1, (2.5, (true, ())))#2");
}

TEST(SimToken, TracedTaggedPairRendersAsToday)
{
    ExprHigh g = loneNode("fork", {{"out", "2"}}, 1, 2);
    auto registry = std::make_shared<FnRegistry>();
    sim::SimConfig config;
    config.trace_nodes = {"n"};
    sim::Simulator s = sim::Simulator::build(g, registry, config).take();
    Result<sim::SimResult> r =
        s.run({{Token(pair(Value(1), pair(Value(2.5), Value(false))), 3),
                Token(Value(ValueTuple{Value(1), Value(2), Value(3)}))}},
              2);
    ASSERT_TRUE(r.ok()) << r.error().message;
    ASSERT_EQ(r.value().trace.size(), 2u);
    EXPECT_EQ(r.value().trace[0].detail, "fire (1, (2.5, false))#3");
    EXPECT_EQ(r.value().trace[1].detail, "fire (1, 2, 3)");
}

TEST(SimToken, SplitErrorTextIsUnchanged)
{
    expectSimError(loneNode("split", {}, 1, 2), {{Token(Value(5), 2)}},
                   "split received a non-pair token 5#2");
    expectSimError(loneNode("split", {}, 1, 2),
                   {{Token(Value(ValueTuple{Value(1), Value(2.5), Value()}))}},
                   "split received a non-pair token (1, 2.5, ())");
}

/** The message of the std::runtime_error that running @p g on
 * @p inputs throws ("" when it does not throw). */
std::string
thrownBy(const ExprHigh& g, const std::vector<std::vector<Token>>& inputs)
{
    auto registry = std::make_shared<FnRegistry>();
    sim::Simulator s = sim::Simulator::build(g, registry).take();
    s.setMemory("mem", {0, 0, 0, 0});
    try {
        (void)s.run(inputs, 1);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(SimToken, DoubleSelectOrConditionThrowsAsBoolsMessage)
{
    EXPECT_EQ(thrownBy(loneNode("mux", {}, 3, 1),
                       {{Token(Value(2.5))}, {Token(Value(1))},
                        {Token(Value(2))}}),
              "Value::asBool on non-boolean: 2.5");
    EXPECT_EQ(thrownBy(loneNode("branch", {}, 2, 2),
                       {{Token(Value(1))}, {Token(Value(0.5))}}),
              "Value::asBool on non-boolean: 0.5");
    EXPECT_EQ(thrownBy(loneNode("branch", {}, 2, 2),
                       {{Token(Value(1))},
                        {Token(pair(Value(true), Value(false)))}}),
              "Value::asBool on non-boolean: (true, false)");
}

TEST(SimToken, StoringAPairFailsAsToDouble)
{
    EXPECT_EQ(thrownBy(loneNode("store", {}, 2, 1),
                       {{Token(Value(1))},
                        {Token(pair(Value(1), Value(2)))}}),
              "Value::toDouble on non-numeric: (1, 2)");
    EXPECT_EQ(thrownBy(loneNode("store", {}, 2, 1),
                       {{Token(Value(2.5))}, {Token(Value(1))}}),
              "Value::asInt on non-integer: 2.5");
}

TEST(SimToken, PairChannelVcdDataIsZero)
{
    // input#0 -> buffer -> output#0: channel 0's signals are ids !"#,
    // channel 1's $%&. Every data sample of either is 0.
    ExprHigh g = loneNode("buffer", {}, 1, 1);
    auto registry = std::make_shared<FnRegistry>();
    auto scope = std::make_shared<obs::Scope>();
    auto vcd = std::make_shared<obs::VcdWriter>("pairs");
    scope->attachVcd(vcd);
    sim::SimConfig config;
    config.obs = scope;
    sim::Simulator s = sim::Simulator::build(g, registry, config).take();
    Result<sim::SimResult> r =
        s.run({{Token(pair(Value(7), Value(9))),
                Token(pair(Value(1.5), Value(3))),
                Token(pair(pair(Value(1), Value(2)), Value(3)))}},
              3);
    ASSERT_TRUE(r.ok()) << r.error().message;
    ASSERT_EQ(vcd->numSignals(), 6u);
    std::istringstream lines(vcd->str());
    std::size_t samples = 0;
    for (std::string line; std::getline(lines, line);) {
        if (line.size() < 2 || line[0] != 'b' || line[1] == 'x')
            continue;
        const std::string id = line.substr(line.find(' ') + 1);
        ASSERT_TRUE(id == "#" || id == "&") << line;
        EXPECT_EQ(line, "b0 " + id);
        ++samples;
    }
    EXPECT_EQ(samples, 2u);
}

TEST(SimToken, SignedZeroAndNaNPassBitExact)
{
    // Scalars through a buffer, and as the halves of a pair built by a
    // join and taken apart by a split.
    const std::uint64_t nan_bits = 0x7ff8'0000'0000'0123ULL;
    const double nan = std::bit_cast<double>(nan_bits);
    const double neg_zero = -0.0;
    const std::int64_t min_int = std::numeric_limits<std::int64_t>::min();
    auto bits = [](const Token& t) {
        return std::bit_cast<std::uint64_t>(t.value.asDouble());
    };

    auto buffered = runOutputs(
        loneNode("buffer", {}, 1, 1),
        {{Token(Value(neg_zero)), Token(Value(nan), 5),
          Token(Value(min_int))}},
        3);
    ASSERT_EQ(buffered.size(), 1u);
    ASSERT_EQ(buffered[0].size(), 3u);
    EXPECT_EQ(bits(buffered[0][0]), std::bit_cast<std::uint64_t>(neg_zero));
    EXPECT_EQ(bits(buffered[0][1]), nan_bits);
    EXPECT_EQ(buffered[0][1].tag, std::optional<Tag>(5));
    EXPECT_EQ(buffered[0][2].value.asInt(), min_int);

    ExprHigh g;
    g.addNode("j", "join");
    g.addNode("s", "split");
    g.connect("j", "out0", "s", "in0");
    g.bindInput(0, PortRef{"j", "in0"});
    g.bindInput(1, PortRef{"j", "in1"});
    g.bindOutput(0, PortRef{"s", "out0"});
    g.bindOutput(1, PortRef{"s", "out1"});
    auto split = runOutputs(g, {{Token(Value(neg_zero))}, {Token(Value(nan))}},
                            1);
    ASSERT_EQ(split.size(), 2u);
    ASSERT_EQ(split[0].size(), 1u);
    ASSERT_EQ(split[1].size(), 1u);
    EXPECT_EQ(bits(split[0][0]), std::bit_cast<std::uint64_t>(neg_zero));
    EXPECT_EQ(bits(split[1][0]), nan_bits);
}

/** The sim.pair_slots_max gauge of one run of the transformed gcd
 * farm on @p repeats copies of each copy's input stream. */
double
farmPairSlotsMax(const ExprHigh& farm, std::shared_ptr<FnRegistry> registry,
                 int copies, int repeats)
{
    const std::pair<int, int> problems[] = {
        {48, 18}, {1071, 462}, {7, 13}, {90, 35}};
    std::vector<std::vector<Token>> inputs(2 * copies);
    for (int r = 0; r < repeats; ++r) {
        for (int k = 0; k < copies; ++k) {
            for (auto [a, b] : problems) {
                inputs[2 * k].emplace_back(Value(a + k));
                inputs[2 * k + 1].emplace_back(Value(b));
            }
        }
    }
    auto scope = std::make_shared<obs::Scope>();
    sim::SimConfig config;
    config.obs = scope;
    sim::Simulator s = sim::Simulator::build(farm, registry, config).take();
    Result<sim::SimResult> r =
        s.run(inputs, std::size(problems) * repeats);
    EXPECT_TRUE(r.ok()) << r.error().message;
    return scope->metrics().gauge("sim.pair_slots_max").value_or(-1);
}

TEST(SimToken, PairArenaIsBoundedByLiveTokens)
{
    // Ten tagged gcd loops whose Pure nodes carry the loop state as
    // pairs. The arena holds at most the pairs live at once, which the
    // circuit's buffers bound, so a stream four times as long needs
    // barely more slots; a never-recycled arena grows with the stream.
    // (The peak is 81 slots at 1x, then 101 at every length from 2x
    // up: the short stream never fills the loops.)
    constexpr int kCopies = 10;
    Environment env;
    Result<PipelineResult> ooo = runOooPipeline(
        circuits::buildGcdFarm(kCopies), env,
        {.num_tags = 4, .reexpand = false});
    ASSERT_TRUE(ooo.ok()) << ooo.error().message;
    std::size_t pures = 0;
    for (const NodeDecl& n : ooo.value().graph.nodes())
        pures += n.type == "pure";
    ASSERT_GT(pures, 0u);
    const double once =
        farmPairSlotsMax(ooo.value().graph, env.functionsPtr(), kCopies, 1);
    const double four =
        farmPairSlotsMax(ooo.value().graph, env.functionsPtr(), kCopies, 4);
    ASSERT_GT(once, 0.0);
    EXPECT_LE(four, 1.25 * once) << "1x " << once << ", 4x " << four;
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

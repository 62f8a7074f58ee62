/**
 * @file
 * Tests for the cycle-accurate elastic simulator: functional
 * correctness of each component model, pipelining behavior, memory,
 * taggers — and the headline qualitative result of figure 2d/2e: the
 * out-of-order GCD circuit finishes a stream of inputs in fewer
 * cycles than the in-order one while producing identical results.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "bench_circuits/gcd.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "sim/sim.hpp"

namespace graphiti::sim {
namespace {

std::vector<Token>
intStream(std::initializer_list<std::int64_t> values)
{
    std::vector<Token> out;
    for (std::int64_t v : values)
        out.emplace_back(Value(v));
    return out;
}

TEST(Sim, OperatorPipelineLatency)
{
    // One multiply (latency 4): a single token takes latency plus the
    // handshake hops, and II = 1 lets a stream finish in ~N cycles.
    ExprHigh g;
    g.addNode("mul", "operator", {{"op", "mul"}});
    g.addNode("f", "fork", {{"out", "2"}});
    g.bindInput(0, PortRef{"f", "in0"});
    g.connect("f", "out0", "mul", "in0");
    g.connect("f", "out1", "mul", "in1");
    g.bindOutput(0, PortRef{"mul", "out0"});

    auto registry = std::make_shared<FnRegistry>();
    Simulator sim = Simulator::build(g, registry).take();
    Result<SimResult> one = sim.run({intStream({3})}, 1);
    ASSERT_TRUE(one.ok()) << one.error().message;
    EXPECT_EQ(one.value().outputs[0][0].value.asInt(), 9);
    std::size_t single_latency = one.value().cycles;

    Result<SimResult> many = sim.run(
        {intStream({1, 2, 3, 4, 5, 6, 7, 8})}, 8);
    ASSERT_TRUE(many.ok()) << many.error().message;
    // Pipelined: 8 tokens cost ~7 extra cycles, not 8x the latency.
    EXPECT_LT(many.value().cycles, single_latency + 10);
    EXPECT_EQ(many.value().outputs[0][7].value.asInt(), 64);
}

TEST(Sim, LoadReadsMemory)
{
    ExprHigh g;
    g.addNode("ld", "load", {{"memory", "arr"}});
    g.bindInput(0, PortRef{"ld", "in0"});
    g.bindOutput(0, PortRef{"ld", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    Simulator sim = Simulator::build(g, registry).take();
    sim.setMemory("arr", {1.5, 2.5, 3.5});
    Result<SimResult> r = sim.run({intStream({2, 0})}, 2);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_DOUBLE_EQ(r.value().outputs[0][0].value.asDouble(), 3.5);
    EXPECT_DOUBLE_EQ(r.value().outputs[0][1].value.asDouble(), 1.5);
}

TEST(Sim, LoadOutOfBoundsErrors)
{
    ExprHigh g;
    g.addNode("ld", "load", {{"memory", "arr"}});
    g.bindInput(0, PortRef{"ld", "in0"});
    g.bindOutput(0, PortRef{"ld", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    Simulator sim = Simulator::build(g, registry).take();
    sim.setMemory("arr", {1.0});
    EXPECT_FALSE(sim.run({intStream({5})}, 1).ok());
}

TEST(Sim, StoreWritesMemory)
{
    ExprHigh g;
    g.addNode("st", "store", {{"memory", "arr"}});
    g.bindInput(0, PortRef{"st", "in0"});  // address
    g.bindInput(1, PortRef{"st", "in1"});  // data
    g.bindOutput(0, PortRef{"st", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    Simulator sim = Simulator::build(g, registry).take();
    sim.setMemory("arr", {0, 0, 0});
    Result<SimResult> r =
        sim.run({intStream({1}), intStream({42})}, 1);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_DOUBLE_EQ(r.value().memories.at("arr")[1], 42.0);
}

TEST(Sim, DeadlockIsDetected)
{
    // A join whose second operand never arrives.
    ExprHigh g;
    g.addNode("j", "join", {{"in", "2"}});
    g.bindInput(0, PortRef{"j", "in0"});
    g.bindInput(1, PortRef{"j", "in1"});
    g.bindOutput(0, PortRef{"j", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    Simulator sim = Simulator::build(g, registry).take();
    Result<SimResult> r = sim.run({intStream({1}), {}}, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().message.find("deadlock"), std::string::npos);
}

TEST(Sim, BackpressureStallsProducer)
{
    // A slow consumer (high-latency op) behind a fast source: the
    // channel fills, the run still completes correctly.
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "2"}});
    g.addNode("slow", "operator", {{"op", "fadd"}});
    g.bindInput(0, PortRef{"f", "in0"});
    g.connect("f", "out0", "slow", "in0");
    g.connect("f", "out1", "slow", "in1");
    g.bindOutput(0, PortRef{"slow", "out0"});
    auto registry = std::make_shared<FnRegistry>();
    SimConfig tight;
    tight.channel_slots = 1;
    Simulator sim = Simulator::build(g, registry, tight).take();
    std::vector<Token> stream;
    for (int i = 0; i < 20; ++i)
        stream.emplace_back(Value(static_cast<double>(i)));
    Result<SimResult> r = sim.run({stream}, 20);
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_DOUBLE_EQ(r.value().outputs[0][3].value.asDouble(), 6.0);
}

// ---------------------------------------------------------------------
// Figure 2d/2e: in-order vs out-of-order GCD on a stream.
// ---------------------------------------------------------------------

struct GcdRun
{
    std::size_t cycles;
    std::vector<std::int64_t> results;
};

GcdRun
runGcdStream(const ExprHigh& g, std::shared_ptr<FnRegistry> registry,
             const std::vector<std::pair<int, int>>& pairs,
             bool paired_input, std::vector<TraceEvent>* trace = nullptr,
             const std::vector<std::string>& trace_nodes = {})
{
    SimConfig config;
    config.trace_nodes = trace_nodes;
    Simulator sim = Simulator::build(g, registry, config).take();
    std::vector<std::vector<Token>> inputs;
    if (paired_input) {
        std::vector<Token> stream;
        for (auto [a, b] : pairs)
            stream.emplace_back(Value::tuple(Value(a), Value(b)));
        inputs = {stream};
    } else {
        std::vector<Token> as, bs;
        for (auto [a, b] : pairs) {
            as.emplace_back(Value(a));
            bs.emplace_back(Value(b));
        }
        inputs = {as, bs};
    }
    Result<SimResult> r = sim.run(inputs, pairs.size());
    EXPECT_TRUE(r.ok()) << r.error().message;
    GcdRun run;
    run.cycles = r.value().cycles;
    for (const Token& t : r.value().outputs[0]) {
        run.results.push_back(t.value.isTuple()
                                  ? t.value.asTuple()[0].asInt()
                                  : t.value.asInt());
    }
    if (trace != nullptr)
        *trace = std::move(r.value().trace);
    return run;
}

TEST(Sim, GcdInOrderComputesStream)
{
    auto registry = std::make_shared<FnRegistry>();
    const std::vector<std::pair<int, int>> pairs = {
        {48, 18}, {7, 13}, {100, 75}, {9, 9}};
    GcdRun run = runGcdStream(circuits::buildGcdInOrder(), registry,
                              pairs, false);
    ASSERT_EQ(run.results.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i)
        EXPECT_EQ(run.results[i],
                  std::gcd(pairs[i].first, pairs[i].second));
}

TEST(Sim, OutOfOrderGcdFasterThanInOrder)
{
    // The figure 2 experiment: a stream of GCD problems with varying
    // iteration counts. The tagged circuit overlaps loop instances and
    // must finish the stream in fewer cycles, with identical results
    // in program order.
    Environment env;
    ExprHigh in_order = circuits::buildGcdInOrder();
    Result<PipelineResult> transformed =
        runOooPipeline(in_order, env, {.num_tags = 8, .reexpand = true});
    ASSERT_TRUE(transformed.ok()) << transformed.error().message;

    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < 24; ++i)
        pairs.push_back({1071 + 17 * i, 462 + 3 * i});

    auto registry = env.functionsPtr();
    GcdRun io = runGcdStream(in_order, registry, pairs, false);
    GcdRun ooo = runGcdStream(transformed.value().graph, registry, pairs,
                              false);

    ASSERT_EQ(io.results, ooo.results);
    EXPECT_LT(ooo.cycles, io.cycles)
        << "ooo " << ooo.cycles << " vs io " << io.cycles;
    // The speedup should be substantial (the modulo pipeline fills).
    EXPECT_GT(static_cast<double>(io.cycles) /
                  static_cast<double>(ooo.cycles),
              2.0);
}

TEST(Sim, TraceShowsPipelinedModulo)
{
    // Figure 2d/2e, qualitatively: in the in-order circuit the modulo
    // accepts a new token only after the previous loop iteration
    // finished; out-of-order, accepts cluster back to back.
    Environment env;
    ExprHigh in_order = circuits::buildGcdInOrder();
    Result<PipelineResult> transformed =
        runOooPipeline(in_order, env, {.num_tags = 8, .reexpand = true});
    ASSERT_TRUE(transformed.ok());

    // Find the modulo node in each circuit.
    auto find_mod = [](const ExprHigh& g) {
        for (const NodeDecl& n : g.nodes())
            if (n.type == "operator" &&
                n.attrs.count("op") > 0 && n.attrs.at("op") == "mod")
                return n.name;
        return std::string();
    };
    std::string mod_io = find_mod(in_order);
    std::string mod_ooo = find_mod(transformed.value().graph);
    ASSERT_FALSE(mod_io.empty());
    ASSERT_FALSE(mod_ooo.empty());

    std::vector<std::pair<int, int>> pairs = {
        {1071, 462}, {987, 610}, {864, 528}};
    auto registry = env.functionsPtr();

    std::vector<TraceEvent> io_trace, ooo_trace;
    runGcdStream(in_order, registry, pairs, false, &io_trace, {mod_io});
    runGcdStream(transformed.value().graph, registry, pairs, false,
                 &ooo_trace, {mod_ooo});

    auto min_accept_gap = [](const std::vector<TraceEvent>& trace) {
        std::size_t best = 1u << 30;
        std::optional<std::size_t> prev;
        for (const TraceEvent& ev : trace) {
            if (ev.detail != "accept")
                continue;
            if (prev)
                best = std::min(best, ev.cycle - *prev);
            prev = ev.cycle;
        }
        return best;
    };
    // Out-of-order lets the modulo accept in adjacent cycles; the
    // sequential loop forces a full iteration between accepts.
    EXPECT_LE(min_accept_gap(ooo_trace), 2u);
    EXPECT_GT(min_accept_gap(io_trace), 2u);
}

/** One trace event per line: "cycle node kind detail". */
std::string
renderTrace(const std::vector<TraceEvent>& trace)
{
    std::string out;
    for (const TraceEvent& ev : trace)
        out += std::to_string(ev.cycle) + " " + ev.node + " " +
               obs::toString(ev.kind) + " " + ev.detail + "\n";
    return out;
}

TEST(Sim, TaggedGcdTraceGolden)
{
    // Every node of the tagged gcd loop traced on two problems: the
    // exact event list, detail text included, is pinned.
    Environment env;
    Result<PipelineResult> tagged = runOooPipeline(
        circuits::buildGcdInOrder(), env, {.num_tags = 8, .reexpand = true});
    ASSERT_TRUE(tagged.ok()) << tagged.error().message;
    std::vector<std::string> all;
    for (const NodeDecl& n : tagged.value().graph.nodes())
        all.push_back(n.name);
    std::vector<TraceEvent> trace;
    runGcdStream(tagged.value().graph, env.functionsPtr(),
                 {{1071, 462}, {48, 18}}, false, &trace, all);
    EXPECT_EQ(renderTrace(trace), R"(1 joinF0 fire fire
2 tagger0 fire tag (1071, 462)#0
2 joinF0 fire fire
3 tagger0 fire tag (48, 18)#1
3 merge0 fire fire entry (1071, 462)#0
4 split00 fire fire
4 merge0 fire fire entry (48, 18)#1
5 forkB0 fire fire 462#0
5 split00 fire fire
6 forkB0 fire fire 18#1
6 mod0 fire accept
7 mod0 fire accept
10 mod0 emit emit
11 head00 fire fire 147#0
11 mod0 emit emit
12 head00 fire fire 12#1
12 tail00 fire fire 147#0
13 join00 fire fire
13 tail00 fire fire 12#1
14 join00 fire fire
14 ne0 fire accept
15 ne0 emit emit
15 ne0 fire accept
16 ne0 emit emit
16 branch1 fire loop
17 merge0 fire fire loop (462, 147)#0
17 branch1 fire loop
18 split00 fire fire
18 merge0 fire fire loop (18, 12)#1
19 forkB0 fire fire 147#0
19 split00 fire fire
20 forkB0 fire fire 12#1
20 mod0 fire accept
21 mod0 fire accept
24 mod0 emit emit
25 head00 fire fire 21#0
25 mod0 emit emit
26 head00 fire fire 6#1
26 tail00 fire fire 21#0
27 join00 fire fire
27 tail00 fire fire 6#1
28 join00 fire fire
28 ne0 fire accept
29 ne0 emit emit
29 ne0 fire accept
30 ne0 emit emit
30 branch1 fire loop
31 merge0 fire fire loop (147, 21)#0
31 branch1 fire loop
32 split00 fire fire
32 merge0 fire fire loop (12, 6)#1
33 forkB0 fire fire 21#0
33 split00 fire fire
34 forkB0 fire fire 6#1
34 mod0 fire accept
35 mod0 fire accept
38 mod0 emit emit
39 head00 fire fire 0#0
39 mod0 emit emit
40 head00 fire fire 0#1
40 tail00 fire fire 0#0
41 join00 fire fire
41 tail00 fire fire 0#1
42 join00 fire fire
42 ne0 fire accept
43 ne0 emit emit
43 ne0 fire accept
44 ne0 emit emit
44 branch1 fire exit
45 tagger0 fire untag (21, 0)
45 branch1 fire exit
46 tagger0 fire untag (6, 0)
46 splitF0 fire fire
47 splitF0 fire fire
)");
}

TEST(Sim, InOrderGcdTraceGolden)
{
    // The in-order loop's muxes and inits, which the tagged loop
    // replaces.
    auto registry = std::make_shared<FnRegistry>();
    std::vector<TraceEvent> trace;
    runGcdStream(circuits::buildGcdInOrder(), registry, {{1071, 462}},
                 false, &trace, {"muxA", "initA", "branchA", "forkCond"});
    EXPECT_EQ(renderTrace(trace), R"(0 initA fire initial
1 muxA fire fire entry
12 forkCond fire fire true
13 branchA fire loop
14 muxA fire fire loop
25 forkCond fire fire true
26 branchA fire loop
27 muxA fire fire loop
38 forkCond fire fire false
39 branchA fire exit
)");
}

TEST(Sim, SerialIoThrottlesOutOfOrder)
{
    // gsum-single's situation: each input depends on the previous
    // output, so the tagged circuit cannot overlap instances and only
    // pays the tagging overhead.
    Environment env;
    ExprHigh in_order = circuits::buildGcdInOrder();
    Result<PipelineResult> transformed =
        runOooPipeline(in_order, env, {.num_tags = 8, .reexpand = true});
    ASSERT_TRUE(transformed.ok());

    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < 10; ++i)
        pairs.push_back({231 + 7 * i, 84 + 5 * i});

    auto run_serial = [&](const ExprHigh& g) {
        Simulator sim = Simulator::build(g, env.functionsPtr()).take();
        std::vector<Token> as, bs;
        for (auto [a, b] : pairs) {
            as.emplace_back(Value(a));
            bs.emplace_back(Value(b));
        }
        Result<SimResult> r = sim.run({as, bs}, pairs.size(), true);
        EXPECT_TRUE(r.ok()) << r.error().message;
        return r.value().cycles;
    };
    std::size_t io_cycles = run_serial(in_order);
    std::size_t ooo_cycles = run_serial(transformed.value().graph);
    // No overlap is possible; tagging can only cost cycles.
    EXPECT_GE(ooo_cycles, io_cycles);
}

}  // namespace
}  // namespace graphiti::sim

/**
 * @file
 * The splice that applyRewrite performs against the section 4.2
 * substitution it stands for: lower the graph with the match as a
 * prefix, replace that sub-expression by the rhs, lift the result.
 * referenceApply() below keeps that substitution as the oracle. Both
 * must give the same graph (nodes, edges and io vectors in order) at
 * every match of every node-replacing catalog rule on every pipeline
 * snapshot and every catalog validity host, and fail alike, with the
 * same message, on malformed definitions and inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "dot/dot.hpp"
#include "graph/expr_low.hpp"
#include "graph/signatures.hpp"
#include "guard/transaction.hpp"
#include "rewrite/catalog.hpp"
#include "rewrite/loop_rewrite.hpp"
#include "rewrite/ooo_pipeline.hpp"

namespace graphiti {
namespace {

/** The graph-level name of a concrete port (io or local identity). */
LowPortId
boundaryName(const ExprHigh& graph, const PortRef& port, bool is_input)
{
    const auto& ios = is_input ? graph.inputs() : graph.outputs();
    for (std::size_t i = 0; i < ios.size(); ++i)
        if (ios[i] && *ios[i] == port)
            return LowPortId::ioPort(static_cast<std::uint32_t>(i));
    return LowPortId::localPort(port.inst, port.port);
}

/** Node-replacing application through ExprLow: lower, substitute,
 * lift. */
Result<ExprHigh>
referenceApply(const ExprHigh& graph, const RewriteDef& def,
               const RewriteMatch& match_in)
{
    RewriteMatch match = match_in;
    Result<bool> match_ok = validateMatch(graph, def, match);
    if (!match_ok.ok())
        return match_ok.error();

    RewriteDef concrete = instantiateCaptures(def, match.captures);

    // Lower the graph with the matched nodes isolated as a prefix.
    std::vector<std::string> matched = match.matchedNodes(concrete);
    std::vector<std::string> order = matched;
    std::set<std::string> matched_set(matched.begin(), matched.end());
    for (const NodeDecl& node : graph.nodes())
        if (matched_set.count(node.name) == 0)
            order.push_back(node.name);

    Result<std::pair<ExprLow, ExprLow>> lowered =
        lowerWithPrefix(graph, order, matched.size());
    if (!lowered.ok())
        return lowered.error().context(def.name);
    const ExprLow& full = lowered.value().first;
    const ExprLow& lhs_sub = lowered.value().second;

    // Boundary graph-level names, per lhs io index.
    std::map<std::size_t, LowPortId> in_names;
    std::map<std::size_t, LowPortId> out_names;
    for (std::size_t i = 0; i < concrete.lhs.inputs().size(); ++i) {
        if (!concrete.lhs.inputs()[i])
            continue;
        const PortRef& p = *concrete.lhs.inputs()[i];
        in_names[i] = boundaryName(
            graph, PortRef{match.binding.at(p.inst), p.port}, true);
    }
    for (std::size_t i = 0; i < concrete.lhs.outputs().size(); ++i) {
        if (!concrete.lhs.outputs()[i])
            continue;
        const PortRef& p = *concrete.lhs.outputs()[i];
        out_names[i] = boundaryName(
            graph, PortRef{match.binding.at(p.inst), p.port}, false);
    }

    // Fresh instance names for the rhs template nodes.
    std::set<std::string> used;
    for (const NodeDecl& node : graph.nodes())
        used.insert(node.name);
    std::map<std::string, std::string> fresh;
    for (const NodeDecl& node : concrete.rhs.nodes()) {
        for (std::size_t i = 0;; ++i) {
            std::string candidate = node.name + std::to_string(i);
            if (used.insert(candidate).second) {
                fresh[node.name] = candidate;
                break;
            }
        }
    }

    // Build the rhs sub-expression: identity names internally, the
    // lhs boundary names on the boundary.
    std::vector<LowBase> bases;
    for (const NodeDecl& node : concrete.rhs.nodes()) {
        Result<Signature> sig = signatureOf(node.type, node.attrs);
        if (!sig.ok())
            return sig.error().context(def.name + " rhs");
        LowBase base;
        base.inst = fresh[node.name];
        base.type = node.type;
        base.attrs = node.attrs;
        for (const std::string& port : sig.value().inputs) {
            LowPortId id = LowPortId::localPort(base.inst, port);
            for (std::size_t i = 0; i < concrete.rhs.inputs().size();
                 ++i) {
                if (concrete.rhs.inputs()[i] &&
                    *concrete.rhs.inputs()[i] ==
                        PortRef{node.name, port})
                    id = in_names.at(i);
            }
            base.inputs[port] = id;
        }
        for (const std::string& port : sig.value().outputs) {
            LowPortId id = LowPortId::localPort(base.inst, port);
            for (std::size_t i = 0; i < concrete.rhs.outputs().size();
                 ++i) {
                if (concrete.rhs.outputs()[i] &&
                    *concrete.rhs.outputs()[i] ==
                        PortRef{node.name, port})
                    id = out_names.at(i);
            }
            base.outputs[port] = id;
        }
        bases.push_back(std::move(base));
    }

    ExprLow rhs_sub = ExprLow::base(bases[0]);
    for (std::size_t i = 1; i < bases.size(); ++i)
        rhs_sub = ExprLow::product(std::move(rhs_sub),
                                   ExprLow::base(bases[i]));
    std::vector<Edge> rhs_edges = concrete.rhs.edges();
    std::sort(rhs_edges.begin(), rhs_edges.end());
    for (const Edge& e : rhs_edges) {
        rhs_sub = ExprLow::connect(
            LowPortId::localPort(fresh[e.src.inst], e.src.port),
            LowPortId::localPort(fresh[e.dst.inst], e.dst.port),
            std::move(rhs_sub));
    }

    auto [rewritten, count] = full.substitute(lhs_sub, rhs_sub);
    if (count != 1)
        return err(def.name + ": substitution found " +
                   std::to_string(count) + " occurrences (expected 1)");
    return liftToExprHigh(rewritten);
}

/** What one application produced: a graph, an error, or a throw. */
struct Outcome
{
    std::optional<ExprHigh> graph;
    std::string failure;
};

template <typename Apply>
Outcome
outcomeOf(Apply apply)
{
    try {
        Result<ExprHigh> result = apply();
        if (result.ok())
            return Outcome{result.take(), ""};
        return Outcome{std::nullopt, "error: " + result.error().message};
    } catch (const std::out_of_range&) {
        return Outcome{std::nullopt, "throws std::out_of_range"};
    }
}

/** Splice and reference agree on @p match; returns whether both
 * applied. */
bool
expectSameApplication(const ExprHigh& graph, const RewriteDef& def,
                      const RewriteMatch& match, const std::string& where)
{
    Outcome splice =
        outcomeOf([&] { return applyRewrite(graph, def, match); });
    Outcome reference =
        outcomeOf([&] { return referenceApply(graph, def, match); });
    EXPECT_EQ(splice.failure, reference.failure) << where;
    EXPECT_EQ(splice.graph.has_value(), reference.graph.has_value())
        << where;
    if (!splice.graph || !reference.graph)
        return false;
    const ExprHigh& a = *splice.graph;
    const ExprHigh& b = *reference.graph;
    EXPECT_EQ(printDot(a), printDot(b)) << where;
    EXPECT_EQ(a.nodes(), b.nodes()) << where;
    EXPECT_EQ(a.edges(), b.edges()) << where;
    EXPECT_EQ(a.inputs(), b.inputs()) << where;
    EXPECT_EQ(a.outputs(), b.outputs()) << where;
    return true;
}

/** Node-replacing catalog rules, plus the main out-of-order rule. */
std::vector<RewriteDef>
nodeRules()
{
    std::vector<RewriteDef> out;
    for (const RewriteDef& def : catalog::allRewrites())
        if (def.rhs.numNodes() > 0)
            out.push_back(def);
    out.push_back(oooLoopRewrite());
    return out;
}

struct PipelineInput
{
    std::string name;
    ExprHigh graph;
    int num_tags;
};

/** Compare at every match of every node rule on every snapshot (and
 * the output) of the pipeline run on each input; returns the number
 * of applications. */
std::size_t
expectSameOnEverySnapshot(const std::vector<PipelineInput>& inputs)
{
    std::vector<RewriteDef> rules = nodeRules();
    std::size_t applied = 0;
    for (const PipelineInput& input : inputs) {
        Environment env;
        PipelineOptions options;
        options.num_tags = input.num_tags;
        options.keep_snapshots = true;
        Result<PipelineResult> result =
            runOooPipeline(input.graph, env, options);
        EXPECT_TRUE(result.ok()) << input.name << ": "
                                 << result.error().message;
        if (!result.ok())
            continue;
        std::vector<PipelineSnapshot> snapshots = result.value().snapshots;
        snapshots.push_back({"final", result.value().graph});
        for (const PipelineSnapshot& snap : snapshots)
            for (const RewriteDef& def : rules)
                for (const RewriteMatch& match :
                     matchRewrite(snap.graph, def))
                    applied += expectSameApplication(
                        snap.graph, def, match,
                        input.name + " @" + snap.phase + " " + def.name);
    }
    return applied;
}

TEST(SpliceDifferential, EveryRuleMatchOnEveryBenchmarkSnapshot)
{
    std::vector<PipelineInput> inputs;
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec = circuits::buildBenchmark(name).take();
        inputs.push_back({name, spec.df_io, spec.num_tags});
        if (spec.df_ooo_input)
            inputs.push_back({name + "/ooo-input", *spec.df_ooo_input,
                              spec.num_tags});
    }
    inputs.push_back({"gcd", circuits::buildGcdInOrder(), 8});
    EXPECT_GT(expectSameOnEverySnapshot(inputs), 800u);
}

TEST(SpliceDifferential, EveryRuleMatchOnEveryFarmSnapshot)
{
    std::vector<PipelineInput> inputs;
    for (int copies : {2, 4, 8})
        inputs.push_back({"farm" + std::to_string(copies),
                          circuits::buildGcdFarm(copies), 4});
    EXPECT_GT(expectSameOnEverySnapshot(inputs), 3000u);
}

TEST(SpliceDifferential, EveryRuleMatchOnEveryCatalogValidityHost)
{
    std::size_t applied = 0;
    for (std::uint64_t seed : {0xC0FFEEULL, 42ULL, 7ULL})
        for (const guard::CatalogRuleHosts& entry :
             guard::catalogValidityHosts(seed, 4)) {
            if (entry.rule.rhs.numNodes() == 0)
                continue;
            for (const ExprHigh& host : entry.hosts)
                for (const RewriteMatch& match :
                     matchRewrite(host, entry.rule))
                    applied += expectSameApplication(
                        host, entry.rule, match,
                        entry.rule.name + " seed " + std::to_string(seed));
        }
    EXPECT_GT(applied, 100u);
}

/** fork(out=2) f fed by graph input 0, each output into a sink. */
ExprHigh
forkIntoSinks()
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "2"}});
    g.addNode("k0", "sink");
    g.addNode("k1", "sink");
    g.bindInput(0, PortRef{"f", "in0"});
    g.connect("f", "out0", "k0", "in0");
    g.connect("f", "out1", "k1", "in0");
    return g;
}

/** Buffer b fed by graph input 0, into a sink. */
ExprHigh
bufferIntoSink()
{
    ExprHigh g;
    g.addNode("b", "buffer");
    g.addNode("k", "sink");
    g.bindInput(0, PortRef{"b", "in0"});
    g.connect("b", "out0", "k", "in0");
    return g;
}

/** A buffer pattern x (input 0, output 0) and a two-buffer rhs. */
RewriteDef
bufferPairDef()
{
    RewriteDef def;
    def.name = "buffer-pair";
    def.lhs.addNode("x", "buffer");
    def.lhs.bindInput(0, PortRef{"x", "in0"});
    def.lhs.bindOutput(0, PortRef{"x", "out0"});
    def.rhs.addNode("b1", "buffer");
    def.rhs.addNode("b2", "buffer");
    def.rhs.connect("b1", "out0", "b2", "in0");
    def.rhs.bindInput(0, PortRef{"b1", "in0"});
    def.rhs.bindOutput(0, PortRef{"b2", "out0"});
    return def;
}

/** Splice and reference both fail on @p def at its first match. */
void
expectBothFail(const ExprHigh& graph, const RewriteDef& def,
               const RewriteMatch& match)
{
    EXPECT_FALSE(expectSameApplication(graph, def, match, def.name))
        << def.name << " applied";
}

RewriteMatch
bind(std::map<std::string, std::string> binding)
{
    RewriteMatch match;
    match.binding = std::move(binding);
    return match;
}

TEST(SpliceDifferential, RhsBindingOneOutputIndexTwiceFailsOnBothPaths)
{
    // One rhs port at both output indices: the wire of index 0 loses
    // its driver (a dangling connect).
    RewriteDef shared_port;
    shared_port.name = "shared-rhs-port";
    shared_port.lhs.addNode("x", "fork", {{"out", "2"}});
    shared_port.lhs.bindInput(0, PortRef{"x", "in0"});
    shared_port.lhs.bindOutput(0, PortRef{"x", "out0"});
    shared_port.lhs.bindOutput(1, PortRef{"x", "out1"});
    shared_port.rhs.addNode("b", "buffer");
    shared_port.rhs.bindInput(0, PortRef{"b", "in0"});
    shared_port.rhs.bindOutput(0, PortRef{"b", "out0"});
    shared_port.rhs.bindOutput(1, PortRef{"b", "out0"});
    expectBothFail(forkIntoSinks(), shared_port, bind({{"x", "f"}}));

    // One lhs port at both output indices: two rhs ports take the same
    // wire name (a duplicate port name).
    RewriteDef shared_wire;
    shared_wire.name = "shared-lhs-port";
    shared_wire.lhs.addNode("x", "buffer");
    shared_wire.lhs.bindInput(0, PortRef{"x", "in0"});
    shared_wire.lhs.bindOutput(0, PortRef{"x", "out0"});
    shared_wire.lhs.bindOutput(1, PortRef{"x", "out0"});
    shared_wire.rhs.addNode("y", "fork", {{"out", "2"}});
    shared_wire.rhs.bindInput(0, PortRef{"y", "in0"});
    shared_wire.rhs.bindOutput(0, PortRef{"y", "out0"});
    shared_wire.rhs.bindOutput(1, PortRef{"y", "out1"});
    expectBothFail(bufferIntoSink(), shared_wire, bind({{"x", "b"}}));

    // Where that wire is a graph output, both paths keep the last
    // binding and apply.
    ExprHigh io_bound;
    io_bound.addNode("b", "buffer");
    io_bound.bindInput(0, PortRef{"b", "in0"});
    io_bound.bindOutput(0, PortRef{"b", "out0"});
    EXPECT_TRUE(expectSameApplication(io_bound, shared_wire,
                                      bind({{"x", "b"}}), "io-bound"));
}

TEST(SpliceDifferential, DanglingRhsEdgeFailsOnBothPaths)
{
    // An rhs edge from a port the buffer does not have.
    RewriteDef bad_port = bufferPairDef();
    bad_port.name = "bad-rhs-port";
    bad_port.rhs = ExprHigh{};
    bad_port.rhs.addNode("b1", "buffer");
    bad_port.rhs.addNode("b2", "buffer");
    bad_port.rhs.connect("b1", "out3", "b2", "in0");
    bad_port.rhs.bindInput(0, PortRef{"b1", "in0"});
    bad_port.rhs.bindOutput(0, PortRef{"b2", "out0"});
    expectBothFail(bufferIntoSink(), bad_port, bind({{"x", "b"}}));

    // An rhs edge from an instance the rhs does not declare.
    RewriteDef ghost = bufferPairDef();
    ghost.name = "ghost-rhs-node";
    ghost.rhs = ExprHigh{};
    ghost.rhs.addNode("b1", "buffer");
    ghost.rhs.addNode("b2", "buffer");
    ghost.rhs.connect("ghost", "out0", "b2", "in0");
    ghost.rhs.bindInput(0, PortRef{"b1", "in0"});
    ghost.rhs.bindOutput(0, PortRef{"b2", "out0"});
    expectBothFail(bufferIntoSink(), ghost, bind({{"x", "b"}}));

    // An rhs type without a signature.
    RewriteDef unknown = bufferPairDef();
    unknown.name = "unknown-rhs-type";
    unknown.rhs.findNode("b2")->type = "wibble";
    expectBothFail(bufferIntoSink(), unknown, bind({{"x", "b"}}));
}

TEST(SpliceDifferential, MalformedInputsFailAlikeOnBothPaths)
{
    RewriteDef def = bufferPairDef();

    // rhs io index the lhs leaves unbound: both throw.
    RewriteDef extra = def;
    extra.rhs.bindInput(1, PortRef{"b2", "in0"});
    expectBothFail(bufferIntoSink(), extra, bind({{"x", "b"}}));

    // An unmatched node with no signature.
    ExprHigh unknown = bufferIntoSink();
    unknown.addNode("w", "wibble");
    expectBothFail(unknown, def, bind({{"x", "b"}}));

    // An edge into a port the unmatched sink does not have.
    ExprHigh bad_port;
    bad_port.addNode("b", "buffer");
    bad_port.addNode("k", "sink");
    bad_port.bindInput(0, PortRef{"b", "in0"});
    bad_port.connect("b", "out0", "k", "in4");
    expectBothFail(bad_port, def, bind({{"x", "b"}}));

    // An input driven twice (the graph fails ExprHigh::validate).
    ExprHigh twice = bufferIntoSink();
    twice.addNode("s", "source");
    twice.connect("s", "out0", "b", "in0");
    expectBothFail(twice, def, bind({{"x", "b"}}));

    // Two pattern nodes bound to one concrete node.
    RewriteDef chain;
    chain.name = "buffer-chain";
    chain.lhs.addNode("x", "buffer");
    chain.lhs.addNode("y", "buffer");
    chain.lhs.bindInput(0, PortRef{"x", "in0"});
    chain.lhs.bindOutput(0, PortRef{"x", "out0"});
    chain.lhs.bindInput(1, PortRef{"y", "in0"});
    chain.lhs.bindOutput(1, PortRef{"y", "out0"});
    chain.rhs.addNode("z", "buffer");
    chain.rhs.addNode("w", "buffer");
    chain.rhs.bindInput(0, PortRef{"z", "in0"});
    chain.rhs.bindOutput(0, PortRef{"z", "out0"});
    chain.rhs.bindInput(1, PortRef{"w", "in0"});
    chain.rhs.bindOutput(1, PortRef{"w", "out0"});
    expectBothFail(bufferIntoSink(), chain, bind({{"x", "b"}, {"y", "b"}}));

    // A graph input bound twice to one unmatched port: lowering keeps
    // the last index, on both paths.
    ExprHigh rebound = bufferIntoSink();
    rebound.addNode("s", "sink");
    rebound.bindInput(1, PortRef{"s", "in0"});
    rebound.bindInput(3, PortRef{"s", "in0"});
    EXPECT_TRUE(expectSameApplication(rebound, def, bind({{"x", "b"}}),
                                      "rebound"));
}

}  // namespace
}  // namespace graphiti

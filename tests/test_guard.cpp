/**
 * @file
 * Tests for the guarded compilation pipeline: the structural
 * validator's broken-circuit corpus, transactional rewriting (vetoes
 * and the catalog validity property), the resource-governed
 * verification ladder, and cooperative cancellation in exploration
 * and simulation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "dot/dot.hpp"
#include "graph/typecheck.hpp"
#include "guard/governor.hpp"
#include "guard/transaction.hpp"
#include "guard/validator.hpp"
#include "rewrite/catalog.hpp"
#include "sim/sim.hpp"
#include "support/rng.hpp"

namespace graphiti {
namespace {

using guard::Severity;
using guard::ValidationReport;

ValidationReport
validate(const ExprHigh& g)
{
    return guard::validateCircuit(g);
}

/** A minimal well-formed pass-through circuit. */
ExprHigh
bufferGraph()
{
    ExprHigh g;
    g.addNode("b", "buffer");
    g.bindInput(0, PortRef{"b", "in0"});
    g.bindOutput(0, PortRef{"b", "out0"});
    return g;
}

ExprHigh
operatorGraph(const std::string& op)
{
    ExprHigh g;
    g.addNode("n", "operator", {{"op", op}});
    g.bindInput(0, PortRef{"n", "in0"});
    g.bindInput(1, PortRef{"n", "in1"});
    g.bindOutput(0, PortRef{"n", "out0"});
    return g;
}

std::vector<Token>
intTokens(std::initializer_list<std::int64_t> values)
{
    std::vector<Token> out;
    for (std::int64_t v : values)
        out.emplace_back(Value(v));
    return out;
}

// ---------------------------------------------------------------------
// Broken-circuit corpus: every malformed shape gets a diagnostic with
// the right rule id, and the validator never throws.
// ---------------------------------------------------------------------

TEST(Validator, WellFormedCircuitIsClean)
{
    ValidationReport report = validate(circuits::buildGcdInOrder());
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_TRUE(report.diagnostics().empty()) << report.render();
}

TEST(Validator, DanglingInputIsError)
{
    ExprHigh g;
    g.addNode("j", "join");
    g.bindInput(0, PortRef{"j", "in0"});
    // in1 never driven.
    g.bindOutput(0, PortRef{"j", "out0"});
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.dangling-input"))
        << report.render();
}

TEST(Validator, DanglingOutputIsOnlyAWarning)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "2"}});
    g.bindInput(0, PortRef{"f", "in0"});
    g.bindOutput(0, PortRef{"f", "out0"});
    // out1 never consumed: suspicious but executable.
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_TRUE(report.hasRule("structure.dangling-output"))
        << report.render();
}

TEST(Validator, DoubleDrivenInputIsError)
{
    ExprHigh g;
    g.addNode("s1", "source");
    g.addNode("s2", "source");
    g.addNode("k", "sink");
    g.connect("s1", "out0", "k", "in0");
    g.connect("s2", "out0", "k", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.double-driven"))
        << report.render();
}

TEST(Validator, DoubleUsedOutputIsError)
{
    ExprHigh g;
    g.addNode("b", "buffer");
    g.addNode("k1", "sink");
    g.addNode("k2", "sink");
    g.bindInput(0, PortRef{"b", "in0"});
    g.connect("b", "out0", "k1", "in0");
    g.connect("b", "out0", "k2", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.double-used"))
        << report.render();
}

TEST(Validator, EdgeToMissingInstanceIsError)
{
    ExprHigh g = bufferGraph();
    g.connect("b", "out0", "ghost", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.missing-instance"))
        << report.render();
}

TEST(Validator, IoBindingToMissingInstanceIsError)
{
    ExprHigh g = bufferGraph();
    g.bindOutput(1, PortRef{"phantom", "out0"});
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.missing-instance"))
        << report.render();
}

TEST(Validator, UnknownPortIsError)
{
    ExprHigh g = bufferGraph();
    g.addNode("k", "sink");
    g.connect("b", "out7", "k", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.unknown-port"))
        << report.render();
}

TEST(Validator, UnknownInputPortIsError)
{
    ExprHigh g = bufferGraph();
    g.addNode("s", "source");
    g.connect("s", "out0", "b", "in9");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.unknown-port"))
        << report.render();
}

TEST(Validator, UnknownComponentTypeIsError)
{
    ExprHigh g;
    g.addNode("x", "frobnicator");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.unknown-type"))
        << report.render();
}

TEST(Validator, ForkArityZeroIsError)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "0"}});
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("structure.bad-arity")) << report.render();
}

TEST(Validator, ForkArityGarbageIsErrorNotCrash)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "banana"}});
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("structure.bad-arity")) << report.render();
}

TEST(Validator, JoinArityOverflowIsErrorNotCrash)
{
    ExprHigh g;
    g.addNode("j", "join",
              {{"in", "99999999999999999999999999999999"}});
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("structure.bad-arity")) << report.render();
}

TEST(Validator, NegativeForkArityIsError)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "-3"}});
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("structure.bad-arity")) << report.render();
}

TEST(Validator, IntegerBranchConditionIsTypeConflict)
{
    // constant 5 (integer) driving a branch condition (boolean).
    ExprHigh g;
    g.addNode("c", "constant", {{"value", "5"}});
    g.addNode("br", "branch");
    g.addNode("k0", "sink");
    g.addNode("k1", "sink");
    g.bindInput(0, PortRef{"c", "in0"});
    g.bindInput(1, PortRef{"br", "in0"});
    g.connect("c", "out0", "br", "in1");
    g.connect("br", "out0", "k0", "in0");
    g.connect("br", "out1", "k1", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("type.conflict")) << report.render();
}

TEST(Validator, TypeCheckCanBeDisabled)
{
    ExprHigh g;
    g.addNode("c", "constant", {{"value", "5"}});
    g.addNode("br", "branch");
    g.addNode("k0", "sink");
    g.addNode("k1", "sink");
    g.bindInput(0, PortRef{"c", "in0"});
    g.bindInput(1, PortRef{"br", "in0"});
    g.connect("c", "out0", "br", "in1");
    g.connect("br", "out0", "k0", "in0");
    g.connect("br", "out1", "k1", "in0");
    guard::ValidatorOptions options;
    options.check_types = false;
    ValidationReport report = guard::validateCircuit(g, options);
    EXPECT_FALSE(report.hasRule("type.conflict")) << report.render();
}

TEST(Validator, SelfLoopBufferIsUnreachableAndTokenless)
{
    // b.out0 -> b.in0: structurally complete, but no token can ever
    // enter the cycle and nothing reaches it from outside.
    ExprHigh g;
    g.addNode("b", "buffer");
    g.connect("b", "out0", "b", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("token.cycle-without-source"))
        << report.render();
    EXPECT_TRUE(report.hasRule("graph.unreachable")) << report.render();
}

TEST(Validator, TwoBufferCycleWithoutSourceIsError)
{
    ExprHigh g;
    g.addNode("b1", "buffer");
    g.addNode("b2", "buffer");
    g.connect("b1", "out0", "b2", "in0");
    g.connect("b2", "out0", "b1", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("token.cycle-without-source"))
        << report.render();
}

TEST(Validator, CycleThroughInitIsFine)
{
    // init can emit its initial value, so the cycle is startable.
    ExprHigh g;
    g.addNode("i", "init", {{"value", "false"}});
    g.addNode("b", "buffer");
    g.connect("i", "out0", "b", "in0");
    g.connect("b", "out0", "i", "in0");
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.hasRule("token.cycle-without-source"))
        << report.render();
    EXPECT_FALSE(report.hasRule("graph.unreachable")) << report.render();
}

TEST(Validator, StarvedOutputIsError)
{
    // A closed fork/buffer cycle feeding the graph output: the output
    // is wired but can never receive a token.
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "2"}});
    g.addNode("b", "buffer");
    g.connect("f", "out0", "b", "in0");
    g.connect("b", "out0", "f", "in0");
    g.bindOutput(0, PortRef{"f", "out1"});
    ValidationReport report = validate(g);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule("token.starved-output"))
        << report.render();
}

TEST(Validator, TagCountZeroIsError)
{
    ExprHigh g;
    g.addNode("t", "tagger", {{"tags", "0"}});
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("tag.count")) << report.render();
}

TEST(Validator, TagCountHugeIsError)
{
    ExprHigh g;
    g.addNode("t", "tagger", {{"tags", "1000000"}});
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("tag.count")) << report.render();
}

TEST(Validator, TaggedRegionThatNeverReturnsIsError)
{
    // out0 flows into a sink; no tagged token ever returns to in1.
    ExprHigh g;
    g.addNode("t", "tagger", {{"tags", "4"}});
    g.addNode("k", "sink");
    g.connect("t", "out0", "k", "in0");
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("tag.unpaired")) << report.render();
}

TEST(Validator, EmptyTaggedRegionIsError)
{
    ExprHigh g;
    g.addNode("t", "tagger", {{"tags", "4"}});
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("tag.unpaired")) << report.render();
}

TEST(Validator, NestedTaggerRegionIsError)
{
    ExprHigh g;
    g.addNode("t1", "tagger", {{"tags", "4"}});
    g.addNode("t2", "tagger", {{"tags", "4"}});
    g.connect("t1", "out0", "t2", "in0");
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("tag.nested-region")) << report.render();
}

TEST(Validator, ForeignReturnIntoTaggerIsError)
{
    // in1 is double-driven: the textual driver sits outside the
    // region even though the region also wires back.
    ExprHigh g;
    g.addNode("t", "tagger", {{"tags", "4"}});
    g.addNode("outsider", "source");
    g.addNode("body", "buffer");
    g.connect("outsider", "out0", "t", "in1");  // first driver: foreign
    g.connect("t", "out0", "body", "in0");
    g.connect("body", "out0", "t", "in1");
    ValidationReport report = validate(g);
    EXPECT_TRUE(report.hasRule("tag.foreign-return")) << report.render();
}

TEST(Validator, EmptyGraphIsClean)
{
    ValidationReport report = validate(ExprHigh{});
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.diagnostics().empty());
}

TEST(Validator, FirstErrorAndRenderAreConsistent)
{
    ExprHigh g;
    g.addNode("x", "frobnicator");
    ValidationReport report = validate(g);
    ASSERT_NE(report.firstError(), nullptr);
    EXPECT_EQ(report.firstError()->rule, "structure.unknown-type");
    EXPECT_NE(report.render().find("structure.unknown-type"),
              std::string::npos);
    EXPECT_EQ(report.errorCount(), 1u);
}

TEST(Validator, JsonReportCarriesRuleIds)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "0"}});
    std::string dumped = validate(g).toJson().dump();
    EXPECT_NE(dumped.find("structure.bad-arity"), std::string::npos);
    EXPECT_NE(dumped.find("\"errors\""), std::string::npos);
}

TEST(Validator, TokenFlowRulesCanBeDisabled)
{
    ExprHigh g;
    g.addNode("b1", "buffer");
    g.addNode("b2", "buffer");
    g.connect("b1", "out0", "b2", "in0");
    g.connect("b2", "out0", "b1", "in0");
    guard::ValidatorOptions options;
    options.check_token_flow = false;
    ValidationReport report = guard::validateCircuit(g, options);
    EXPECT_FALSE(report.hasRule("token.cycle-without-source"))
        << report.render();
}

TEST(Validator, AllBenchmarksValidatePreAndPostPipeline)
{
    for (const std::string& name : circuits::benchmarkNames()) {
        Result<circuits::BenchmarkSpec> spec =
            circuits::buildBenchmark(name);
        ASSERT_TRUE(spec.ok()) << name;
        ValidationReport pre = validate(spec.value().df_io);
        EXPECT_TRUE(pre.ok()) << name << ":\n" << pre.render();

        const ExprHigh& input = spec.value().df_ooo_input
                                    ? *spec.value().df_ooo_input
                                    : spec.value().df_io;
        Compiler compiler;
        CompileOptions options;
        options.num_tags = spec.value().num_tags;
        Result<CompileReport> compiled =
            compiler.compileGraph(input, options);
        ASSERT_TRUE(compiled.ok())
            << name << ": " << compiled.error().message;
        // The pipeline ran with the transactional post-check (the
        // compiler default): zero rollbacks on healthy rules, and the
        // transformed circuit passes the full validator.
        EXPECT_TRUE(compiled.value().rollbacks.empty()) << name;
        EXPECT_TRUE(compiled.value().validation.ok())
            << name << ":\n" << compiled.value().validation.render();
    }
}

// ---------------------------------------------------------------------
// Seeded fuzz: random mutations of a real circuit never crash the
// validator, and the verdict stream is deterministic per seed.
// ---------------------------------------------------------------------

/** Apply one random public-API mutation to @p g. */
void
mutateOnce(ExprHigh& g, Rng& rng)
{
    static const char* kPorts[] = {"in0", "in1", "in2", "out0",
                                   "out1", "out2"};
    static const char* kTypes[] = {"fork",   "join",  "mux",
                                   "buffer", "sink",  "tagger",
                                   "wibble", "store", "operator"};
    auto randomNode = [&]() -> std::string {
        if (g.nodes().empty())
            return "nobody";
        return g.nodes()[rng.below(g.nodes().size())].name;
    };
    auto randomPort = [&]() {
        return std::string(kPorts[rng.below(std::size(kPorts))]);
    };
    switch (rng.below(7)) {
        case 0:
            if (!g.nodes().empty())
                g.removeNode(randomNode());
            break;
        case 1:
            if (!g.edges().empty()) {
                const Edge& e = g.edges()[rng.below(g.edges().size())];
                g.removeEdge(e.src, e.dst);
            }
            break;
        case 2:
            g.connect(randomNode(), randomPort(), randomNode(),
                      randomPort());
            break;
        case 3:
            if (NodeDecl* n = g.findNode(randomNode()))
                n->type = kTypes[rng.below(std::size(kTypes))];
            break;
        case 4:
            g.addNode(g.freshName("fz"),
                      kTypes[rng.below(std::size(kTypes))],
                      {{"out", std::to_string(rng.range(-2, 5))},
                       {"tags", std::to_string(rng.range(-1, 9))}});
            break;
        case 5:
            if (NodeDecl* n = g.findNode(randomNode()))
                n->attrs["out"] = "not-a-number";
            break;
        case 6:
            g.bindInput(rng.below(4), PortRef{randomNode(), randomPort()});
            break;
    }
}

TEST(ValidatorFuzz, NeverCrashesAndIsDeterministic)
{
    auto sweep = [](std::uint64_t seed) {
        Rng rng(seed);
        std::vector<std::size_t> verdicts;
        for (int round = 0; round < 200; ++round) {
            ExprHigh g = circuits::buildGcdInOrder();
            std::size_t mutations = 1 + rng.below(4);
            for (std::size_t m = 0; m < mutations; ++m)
                mutateOnce(g, rng);
            verdicts.push_back(
                guard::validateCircuit(g).errorCount());
        }
        return verdicts;
    };
    std::vector<std::size_t> first = sweep(0xf00dULL);
    std::vector<std::size_t> second = sweep(0xf00dULL);
    EXPECT_EQ(first, second);
    // The corpus is genuinely diverse: some mutants break, some stay
    // clean (removing a fuzz-added node, rebinding an io to the same
    // port, ...).
    EXPECT_NE(*std::max_element(first.begin(), first.end()), 0u);
}

// ---------------------------------------------------------------------
// Transactional rewrites.
// ---------------------------------------------------------------------

TEST(Transaction, PostCheckVetoRollsBackAndRecords)
{
    ExprHigh g;
    g.addNode("b1", "buffer");
    g.addNode("b2", "buffer");
    g.bindInput(0, PortRef{"b1", "in0"});
    g.bindOutput(0, PortRef{"b2", "out0"});
    g.connect("b1", "out0", "b2", "in0");

    RewriteEngine engine;
    for (const RewriteDef& def : catalog::allRewrites())
        ASSERT_TRUE(engine.addRule(def).ok());

    // Without a post-check the rewrite goes through.
    Result<ExprHigh> plain = engine.applyOnce(g, "buffer-elim");
    ASSERT_TRUE(plain.ok()) << plain.error().message;
    EXPECT_EQ(engine.stats().rewrites_applied, 1u);

    // An always-veto post-check rolls it back: error result, rollback
    // recorded, stats unchanged, input graph untouched.
    engine.setPostCheck(
        [](const ExprHigh&) -> std::optional<std::string> {
            return "vetoed by test";
        });
    Result<ExprHigh> vetoed = engine.applyOnce(g, "buffer-elim");
    EXPECT_FALSE(vetoed.ok());
    EXPECT_NE(vetoed.error().message.find("rolled back"),
              std::string::npos);
    ASSERT_EQ(engine.rollbacks().size(), 1u);
    EXPECT_EQ(engine.rollbacks()[0].rule, "buffer-elim");
    EXPECT_EQ(engine.rollbacks()[0].reason, "vetoed by test");
    EXPECT_EQ(engine.stats().rewrites_applied, 1u);
    EXPECT_EQ(g.numNodes(), 2u);
}

TEST(Transaction, ExhaustiveApplicationSkipsVetoedMatches)
{
    ExprHigh g;
    g.addNode("b1", "buffer");
    g.addNode("b2", "buffer");
    g.bindInput(0, PortRef{"b1", "in0"});
    g.bindOutput(0, PortRef{"b2", "out0"});
    g.connect("b1", "out0", "b2", "in0");

    RewriteEngine engine;
    for (const RewriteDef& def : catalog::allRewrites())
        ASSERT_TRUE(engine.addRule(def).ok());
    engine.setPostCheck(
        [](const ExprHigh&) -> std::optional<std::string> {
            return "always vetoed";
        });
    Result<ExprHigh> out =
        engine.applyExhaustively(g, {"buffer-elim"});
    // Every candidate was vetoed: the graph survives unchanged
    // instead of the engine corrupting it or spinning forever.
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_TRUE(out.value().sameAs(g));
    EXPECT_FALSE(engine.rollbacks().empty());
}

TEST(Transaction, ValidatorPostCheckAcceptsHealthyRewrite)
{
    ExprHigh g;
    g.addNode("b1", "buffer");
    g.addNode("b2", "buffer");
    g.bindInput(0, PortRef{"b1", "in0"});
    g.bindOutput(0, PortRef{"b2", "out0"});
    g.connect("b1", "out0", "b2", "in0");

    RewriteEngine engine;
    for (const RewriteDef& def : catalog::allRewrites())
        ASSERT_TRUE(engine.addRule(def).ok());
    engine.setPostCheck(guard::validatorPostCheck());
    Result<ExprHigh> out = engine.applyOnce(g, "buffer-elim");
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_TRUE(engine.rollbacks().empty());
    EXPECT_EQ(out.value().numNodes(), 1u);
}

TEST(Transaction, CatalogRulesPreserveValidity)
{
    guard::CatalogValidityReport report =
        guard::verifyCatalogValidity(0xC0FFEEULL, 4);
    EXPECT_TRUE(report.all_ok) << report.first_failure;
    EXPECT_GT(report.rules_checked, 10u);
    for (const guard::RuleValidityOutcome& rule : report.rules)
        EXPECT_TRUE(rule.violations.empty())
            << rule.rule << ": " << rule.violations.front();
}

TEST(Transaction, CatalogValiditySweepIsDeterministic)
{
    guard::CatalogValidityReport a =
        guard::verifyCatalogValidity(42, 3);
    guard::CatalogValidityReport b =
        guard::verifyCatalogValidity(42, 3);
    ASSERT_EQ(a.rules.size(), b.rules.size());
    for (std::size_t i = 0; i < a.rules.size(); ++i) {
        EXPECT_EQ(a.rules[i].rule, b.rules[i].rule);
        EXPECT_EQ(a.rules[i].applications, b.rules[i].applications);
    }
}

// ---------------------------------------------------------------------
// Pinned contracts of the rewrite pipeline and the validator: FNV-1a
// digests of everything a faster implementation must reproduce byte
// for byte (snapshots, output dot, rewrite counts, rollbacks, loop
// reports, diagnostics, inferred wire types).
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

struct ContractCircuit
{
    std::string name;
    ExprHigh graph;
    int num_tags;
};

/** The six benchmarks (df_io, and df_ooo_input where present), gcd
 * and three gcd farms. */
std::vector<ContractCircuit>
contractCircuits()
{
    std::vector<ContractCircuit> out;
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec = circuits::buildBenchmark(name).take();
        out.push_back({name, spec.df_io, spec.num_tags});
        if (spec.df_ooo_input)
            out.push_back({name + "/ooo-input", *spec.df_ooo_input,
                           spec.num_tags});
    }
    out.push_back({"gcd", circuits::buildGcdInOrder(), 8});
    for (int copies : {2, 4, 8})
        out.push_back({"farm" + std::to_string(copies),
                       circuits::buildGcdFarm(copies), 4});
    return out;
}

/** Everything runOooPipeline reports, as text. */
std::string
pipelineTranscript(const ExprHigh& input, int num_tags, bool validate)
{
    Environment env;
    PipelineOptions options;
    options.num_tags = num_tags;
    options.keep_snapshots = true;
    if (validate)
        options.post_check = guard::validatorPostCheck();
    Result<PipelineResult> result = runOooPipeline(input, env, options);
    if (!result.ok())
        return "error: " + result.error().message + "\n";
    const PipelineResult& pr = result.value();
    std::string text;
    for (const PipelineSnapshot& snap : pr.snapshots)
        text += "snapshot " + snap.phase + "\n" + printDot(snap.graph);
    text += "final\n" + printDot(pr.graph);
    text += "applied " + std::to_string(pr.stats.rewrites_applied) + "\n";
    for (const auto& [rule, count] : pr.stats.per_rule)
        text += "rule " + rule + " " + std::to_string(count) + "\n";
    for (const RewriteRollback& rb : pr.rollbacks)
        text += "rollback " + rb.rule + ": " + rb.reason + "\n";
    for (const LoopTransformReport& loop : pr.loops)
        text += "loop " + loop.header_mux + " " +
                (loop.transformed ? "transformed " : "refused ") +
                loop.body_fn + " " + std::to_string(loop.body_latency) +
                " " + loop.refusal + "\n";
    return text;
}

/** Diagnostics under the default and the post-check options, and the
 * inferred wire types (or the type error). */
std::string
validationTranscript(const ExprHigh& g)
{
    guard::ValidatorOptions postcheck;
    postcheck.check_token_flow = false;
    std::string text = "default\n" + guard::validateCircuit(g).render() +
                       "postcheck\n" +
                       guard::validateCircuit(g, postcheck).render();
    Result<TypeReport> typed = checkWellTyped(g);
    if (!typed.ok())
        return text + "types: " + typed.error().message + "\n";
    text += "types\n";
    for (const auto& [port, type] : typed.value().wire_types)
        text += port.toString() + " " + type.toString() + "\n";
    return text;
}

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Compare @p got against @p want; print the whole table on drift. */
void
expectDigests(const std::map<std::string, std::uint64_t>& got,
              const std::map<std::string, std::uint64_t>& want)
{
    std::string table;
    for (const auto& [name, digest] : got)
        table += "        {\"" + name + "\", " + hex(digest) + "},\n";
    EXPECT_EQ(got, want) << "digests now:\n" << table;
}

TEST(RewriteContract, PipelineSnapshotsOutputsAndCountsArePinned)
{
    const std::map<std::string, std::uint64_t> want = {
        {"bicg/ooo-input/plain", 0xe5e98bc39f02fbcaULL},
        {"bicg/ooo-input/validate", 0xe5e98bc39f02fbcaULL},
        {"bicg/plain", 0x5c016217e81e5c43ULL},
        {"bicg/validate", 0x5c016217e81e5c43ULL},
        {"farm2/plain", 0x55dd04d9b41c757cULL},
        {"farm2/validate", 0x55dd04d9b41c757cULL},
        {"farm4/plain", 0xa90221d7bab63a43ULL},
        {"farm4/validate", 0xa90221d7bab63a43ULL},
        {"farm8/plain", 0x0b727b8445573206ULL},
        {"farm8/validate", 0x0b727b8445573206ULL},
        {"gcd/plain", 0x9e364bd6a4c12301ULL},
        {"gcd/validate", 0x9e364bd6a4c12301ULL},
        {"gemm/plain", 0x93e0093642477465ULL},
        {"gemm/validate", 0x93e0093642477465ULL},
        {"gsum-many/plain", 0x5e06134d6773a545ULL},
        {"gsum-many/validate", 0x5e06134d6773a545ULL},
        {"gsum-single/plain", 0x5e06134d6773a545ULL},
        {"gsum-single/validate", 0x5e06134d6773a545ULL},
        {"matvec/plain", 0xe4f25ac0e0fb0bfaULL},
        {"matvec/validate", 0xe4f25ac0e0fb0bfaULL},
        {"mvt/plain", 0x676adebd042ddc0fULL},
        {"mvt/validate", 0x676adebd042ddc0fULL},
    };
    std::map<std::string, std::uint64_t> got;
    for (const ContractCircuit& c : contractCircuits())
        for (bool validate : {true, false})
            got[c.name + (validate ? "/validate" : "/plain")] = fnv1a(
                pipelineTranscript(c.graph, c.num_tags, validate));
    expectDigests(got, want);
}

TEST(RewriteContract, ValidatorReportsOnMutantsAndBenchmarksArePinned)
{
    const std::map<std::string, std::uint64_t> want = {
        {"bicg/after", 0xc2b06c68519adc7eULL},
        {"bicg/before", 0xc2b06c68519adc7eULL},
        {"bicg/ooo-input/after", 0x211315e5eb420c58ULL},
        {"bicg/ooo-input/before", 0x8b8d81bc2086e2c3ULL},
        {"catalog-sweep/12648430", 0x4256987e5533cd0dULL},
        {"catalog-sweep/42", 0x8940ffe419d99436ULL},
        {"catalog-sweep/7", 0xed83db2d4d0ab4cdULL},
        {"fuzz/42", 0xbc9eff089556837eULL},
        {"fuzz/61453", 0x647af0a728908efaULL},
        {"gcd/after", 0xb912fb40d78fd4e7ULL},
        {"gcd/before", 0xe638e2ae1d997fd6ULL},
        {"gemm/after", 0xe2b0ea7ef8453bdaULL},
        {"gemm/before", 0xfd35f605b41d664cULL},
        {"gsum-many/after", 0x0054caff06d501a5ULL},
        {"gsum-many/before", 0xe6c7d2e2d533edfbULL},
        {"gsum-single/after", 0x0054caff06d501a5ULL},
        {"gsum-single/before", 0xe6c7d2e2d533edfbULL},
        {"matvec/after", 0xbb387655b59ce700ULL},
        {"matvec/before", 0x1ff17dbfb3dd84efULL},
        {"mvt/after", 0x420ea3d2a61d5e56ULL},
        {"mvt/before", 0x6fe3ac99a436b682ULL},
    };
    std::map<std::string, std::uint64_t> got;
    // The ValidatorFuzz corpus: 200 mutants of gcd per seed.
    for (std::uint64_t seed : {0xf00dULL, 42ULL}) {
        Rng rng(seed);
        std::string text;
        for (int round = 0; round < 200; ++round) {
            ExprHigh g = circuits::buildGcdInOrder();
            std::size_t mutations = 1 + rng.below(4);
            for (std::size_t m = 0; m < mutations; ++m)
                mutateOnce(g, rng);
            text += "mutant " + std::to_string(round) + "\n" +
                    validationTranscript(g);
        }
        got["fuzz/" + std::to_string(seed)] = fnv1a(text);
    }
    // Every benchmark before and after the pipeline.
    for (const ContractCircuit& c : contractCircuits()) {
        if (c.name.rfind("farm", 0) == 0)
            continue;
        got[c.name + "/before"] = fnv1a(validationTranscript(c.graph));
        Environment env;
        Result<PipelineResult> after = runOooPipeline(
            c.graph, env, {.num_tags = c.num_tags, .reexpand = true});
        ASSERT_TRUE(after.ok()) << c.name << ": " << after.error().message;
        got[c.name + "/after"] =
            fnv1a(validationTranscript(after.value().graph));
    }
    // The catalog validity sweep applies every rule on random hosts.
    for (std::uint64_t seed : {0xC0FFEEULL, 42ULL, 7ULL}) {
        guard::CatalogValidityReport report =
            guard::verifyCatalogValidity(seed, 4);
        std::string text;
        for (const guard::RuleValidityOutcome& rule : report.rules) {
            text += rule.rule + " " + std::to_string(rule.applications) +
                    (rule.skipped ? " skipped\n" : "\n");
            for (const std::string& v : rule.violations)
                text += v + "\n";
        }
        got["catalog-sweep/" + std::to_string(seed)] = fnv1a(text);
    }
    expectDigests(got, want);
}

// ---------------------------------------------------------------------
// Compiler integration: validation gates and structured errors.
// ---------------------------------------------------------------------

TEST(GuardedCompile, RejectsMalformedInputWithDiagnostics)
{
    ExprHigh g;
    g.addNode("j", "join");
    g.bindInput(0, PortRef{"j", "in0"});
    g.bindOutput(0, PortRef{"j", "out0"});
    // j.in1 dangles: compileGraph must refuse with the rule id in the
    // message, not crash downstream.
    Compiler compiler;
    Result<CompileReport> report = compiler.compileGraph(g);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.error().message.find("structure.dangling-input"),
              std::string::npos)
        << report.error().message;
}

TEST(GuardedCompile, ValidateOffRestoresOldBehaviour)
{
    ExprHigh g = bufferGraph();
    Compiler compiler;
    CompileOptions options;
    options.validate = false;
    Result<CompileReport> report = compiler.compileGraph(g, options);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report.value().verification_level, "not-run");
    EXPECT_TRUE(report.value().validation.diagnostics().empty());
}

TEST(GuardedCompile, ReportJsonCarriesGuardFields)
{
    Compiler compiler;
    CompileOptions options;
    options.num_tags = 2;
    Result<CompileReport> report =
        compiler.compileGraph(circuits::buildGcdInOrder(), options);
    ASSERT_TRUE(report.ok()) << report.error().message;
    std::string dumped = report.value().toJson().dump();
    EXPECT_NE(dumped.find("\"validation\""), std::string::npos);
    EXPECT_NE(dumped.find("\"rollbacks\""), std::string::npos);
    EXPECT_NE(dumped.find("\"verification_level\""), std::string::npos);
}

// ---------------------------------------------------------------------
// The resource governor and its degradation ladder.
// ---------------------------------------------------------------------

guard::VerificationBudget
smallBudget()
{
    guard::VerificationBudget budget;
    budget.max_states = 20000;
    budget.partial_max_states = 2000;
    budget.input_budget = 3;
    budget.trace_walks = 4;
    return budget;
}

TEST(Governor, FullLevelOnSmallCircuit)
{
    Environment env(4);
    guard::Governor governor(smallBudget());
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        bufferGraph(), bufferGraph(), env, intTokens({1, 2}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::Full);
    EXPECT_TRUE(verdict.ok) << verdict.counterexample;
    EXPECT_TRUE(verdict.refines);
    EXPECT_TRUE(verdict.degradation_reason.empty())
        << verdict.degradation_reason;
    EXPECT_GT(verdict.report.reachable_pairs, 0u);
}

TEST(Governor, FullLevelCounterexampleIsGenuine)
{
    Environment env(4);
    guard::Governor governor(smallBudget());
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        operatorGraph("add"), operatorGraph("mul"), env,
        intTokens({2, 3}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::Full);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.refines);
    EXPECT_FALSE(verdict.counterexample.empty());
}

TEST(Governor, DegradesToBoundedPartialWhenFullBlowsBudget)
{
    Environment env(4);
    guard::VerificationBudget budget = smallBudget();
    budget.max_states = 2;  // full exploration cannot fit
    budget.partial_max_states = 5000;
    guard::Governor governor(budget);
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        bufferGraph(), bufferGraph(), env, intTokens({1, 2}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::BoundedPartial);
    EXPECT_TRUE(verdict.ok) << verdict.counterexample;
    // A bounded pass is not a proof.
    EXPECT_FALSE(verdict.refines);
    EXPECT_NE(verdict.degradation_reason.find("max_states"),
              std::string::npos)
        << verdict.degradation_reason;
}

TEST(Governor, BoundedPartialStillFindsRealViolations)
{
    Environment env(4);
    guard::VerificationBudget budget = smallBudget();
    budget.max_states = 2;
    budget.partial_max_states = 5000;
    guard::Governor governor(budget);
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        operatorGraph("add"), operatorGraph("mul"), env,
        intTokens({2, 3}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::BoundedPartial);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.counterexample.empty());
}

TEST(Governor, TraceInclusionRungPassesOnEqualCircuits)
{
    Environment env(4);
    guard::VerificationBudget budget = smallBudget();
    budget.max_states = 0;          // skip the full rung
    budget.partial_max_states = 0;  // skip the bounded rung
    budget.trace_walks = 8;
    guard::Governor governor(budget);
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        bufferGraph(), bufferGraph(), env, intTokens({1, 2}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::TraceInclusion);
    EXPECT_TRUE(verdict.ok) << verdict.counterexample;
    EXPECT_FALSE(verdict.refines);
    EXPECT_EQ(verdict.trace_walks_run, 8u);
    EXPECT_NE(verdict.degradation_reason.find("skipped"),
              std::string::npos);
}

TEST(Governor, TraceInclusionRungCatchesViolation)
{
    Environment env(4);
    guard::VerificationBudget budget = smallBudget();
    budget.max_states = 0;
    budget.partial_max_states = 0;
    budget.trace_walks = 16;
    guard::Governor governor(budget);
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        operatorGraph("add"), operatorGraph("mul"), env,
        intTokens({2, 3}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::TraceInclusion);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.counterexample.empty());
}

TEST(Governor, CancelledGovernorReportsNoneNotHang)
{
    Environment env(4);
    guard::Governor governor(smallBudget());
    governor.cancel("unit-test cancellation");
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        bufferGraph(), bufferGraph(), env, intTokens({1, 2}));
    EXPECT_EQ(verdict.level, guard::VerificationLevel::None);
    EXPECT_FALSE(verdict.ok);
    EXPECT_NE(verdict.degradation_reason.find("unit-test cancellation"),
              std::string::npos)
        << verdict.degradation_reason;
}

TEST(Governor, VerdictJsonIsByteIdenticalForSameSeedAndBudget)
{
    Environment env(4);
    auto run = [&](guard::VerificationBudget budget) {
        guard::Governor governor(budget);
        return governor
            .verifyGraphs(bufferGraph(), bufferGraph(), env,
                          intTokens({1, 2}))
            .toJson()
            .dump();
    };
    guard::VerificationBudget bounded = smallBudget();
    bounded.max_states = 2;
    EXPECT_EQ(run(smallBudget()), run(smallBudget()));
    EXPECT_EQ(run(bounded), run(bounded));

    guard::VerificationBudget traces = smallBudget();
    traces.max_states = 0;
    traces.partial_max_states = 0;
    EXPECT_EQ(run(traces), run(traces));
}

TEST(Governor, GovernedCompileSurfacesVerificationLevel)
{
    // A loop-free circuit passes through the pipeline unchanged, so
    // the governed check proves full refinement instantly.
    Compiler compiler;
    CompileOptions options;
    options.governed_verify = true;
    options.verify_budget = smallBudget();
    Result<CompileReport> report =
        compiler.compileGraph(bufferGraph(), options);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report.value().verification_level, "full");
    std::string dumped = report.value().toJson().dump();
    EXPECT_NE(dumped.find("\"verification_level\":\"full\""),
              std::string::npos)
        << dumped;
}

// ---------------------------------------------------------------------
// Cooperative cancellation in exploration and simulation.
// ---------------------------------------------------------------------

TEST(Cancellation, ExplorationParksFrontierOnStopToken)
{
    Environment env(4);
    Result<ExprLow> low = lowerToExprLow(bufferGraph());
    ASSERT_TRUE(low.ok());
    Result<DenotedModule> mod = DenotedModule::denote(low.value(), env);
    ASSERT_TRUE(mod.ok()) << mod.error().message;

    ExplorationLimits limits;
    limits.max_states = 10000;
    limits.input_budget = 3;
    limits.stop.requestStop("park please");
    Result<StateSpace> space = StateSpace::explorePartial(
        mod.value(), InputDomain::uniform(mod.value(), intTokens({1})),
        limits);
    ASSERT_TRUE(space.ok()) << space.error().message;
    EXPECT_TRUE(space.value().stopped());
    EXPECT_EQ(space.value().stopReason(), "park please");
    EXPECT_FALSE(space.value().complete());

    // explore() surfaces the same condition as a structured error.
    Result<StateSpace> full = StateSpace::explore(
        mod.value(), InputDomain::uniform(mod.value(), intTokens({1})),
        limits);
    ASSERT_FALSE(full.ok());
    EXPECT_NE(full.error().message.find("park please"),
              std::string::npos);
}

TEST(Cancellation, StopTokenFirstReasonWins)
{
    StopToken stop;
    EXPECT_FALSE(stop.stopRequested());
    stop.requestStop("first");
    stop.requestStop("second");
    EXPECT_TRUE(stop.stopRequested());
    EXPECT_EQ(stop.reason(), "first");
}

TEST(Cancellation, TraceReplayStopsMidReplay)
{
    // One replay of matvec's OoO trace against its DF-IO spec runs for
    // seconds before hitting the state cap; a stop fired half a second
    // in must end it promptly, not when the cap is reached.
    Result<circuits::BenchmarkSpec> spec =
        circuits::buildBenchmark("matvec");
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    Compiler compiler;
    Result<CompileReport> ooo =
        compiler.compileGraph(spec.value().df_io, CompileOptions{});
    ASSERT_TRUE(ooo.ok()) << ooo.error().message;

    guard::VerificationBudget budget;
    budget.max_states = 0;
    budget.partial_max_states = 0;
    budget.input_budget = 1;
    budget.trace_walks = 1;
    StopToken stop = StopToken::manual();
    guard::Governor governor(budget, stop);
    Environment env(budget.input_budget + 2);
    std::chrono::steady_clock::time_point fired;
    std::thread firer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        fired = std::chrono::steady_clock::now();
        stop.requestStop("replay stop");
    });
    guard::VerificationVerdict verdict = governor.verifyGraphs(
        ooo.value().graph, spec.value().df_io, env, intTokens({0, 1}));
    auto returned = std::chrono::steady_clock::now();
    firer.join();
    ASSERT_GE(returned, fired) << verdict.degradation_reason;
    EXPECT_LT(std::chrono::duration<double>(returned - fired).count(),
              0.25);
    EXPECT_EQ(verdict.level, guard::VerificationLevel::None);
    EXPECT_NE(verdict.degradation_reason.find("replay stop"),
              std::string::npos)
        << verdict.degradation_reason;
}

TEST(Cancellation, SimulatorAbortsOnFiredStopToken)
{
    Compiler compiler;
    ExprHigh gcd = circuits::buildGcdInOrder();
    sim::SimConfig config;
    config.stop.requestStop("deadline blown");
    Result<sim::Simulator> built = sim::Simulator::build(
        gcd, compiler.environment().functionsPtr(), config);
    ASSERT_TRUE(built.ok()) << built.error().message;
    sim::Simulator simulator = built.take();
    Result<sim::SimResult> run = simulator.run(
        {intTokens({1071}), intTokens({462})}, 1);
    ASSERT_FALSE(run.ok());
    EXPECT_NE(run.error().message.find("cancelled"), std::string::npos)
        << run.error().message;
    EXPECT_NE(run.error().message.find("deadline blown"),
              std::string::npos);
}

}  // namespace
}  // namespace graphiti

/**
 * @file
 * Property-based tests (parameterized sweeps over seeds/instances):
 *
 *  - random well-formed graphs survive lower -> lift and dot
 *    round-trips;
 *  - theorem 4.6 as a property: applying a verified rewrite anywhere
 *    in a random graph yields a refinement of that graph;
 *  - every component refines itself on a finite instantiation
 *    (reflexivity of ⊑ per catalog entry);
 *  - e-graph extraction preserves term semantics and never grows
 *    terms;
 *  - the Tagger restores program order under adversarial completion
 *    orders;
 *  - the denotational executor and the cycle simulator agree on
 *    functional results.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "bench_circuits/gcd.hpp"
#include "dot/dot.hpp"
#include "graph/signatures.hpp"
#include "egraph/egraph.hpp"
#include "refine/refinement.hpp"
#include "refine/trace.hpp"
#include "rewrite/catalog.hpp"
#include "rewrite/pure_gen.hpp"
#include "semantics/executor.hpp"
#include "sim/sim.hpp"
#include "support/rng.hpp"

namespace graphiti {
namespace {

// ---------------------------------------------------------------------
// Random graph generation: a layered DAG of single-token components
// with every port wired or bound to io.
// ---------------------------------------------------------------------

ExprHigh
randomGraph(Rng& rng)
{
    ExprHigh g;
    // Open output ports waiting for consumers.
    std::vector<PortRef> open;
    std::size_t io_in = 0;

    std::size_t num_nodes = 3 + rng.below(8);
    for (std::size_t n = 0; n < num_nodes; ++n) {
        std::string name = "n" + std::to_string(n);
        switch (rng.below(5)) {
          case 0:
            g.addNode(name, "buffer");
            break;
          case 1:
            g.addNode(name, "fork", {{"out", "2"}});
            break;
          case 2:
            g.addNode(name, "operator", {{"op", "add"}});
            break;
          case 3:
            g.addNode(name, "merge");
            break;
          default:
            g.addNode(name, "join", {{"in", "2"}});
            break;
        }
        Result<Signature> sig =
            signatureOf(g.findNode(name)->type, g.findNode(name)->attrs);
        for (const std::string& in : sig.value().inputs) {
            // Wire from an open port (60%) or a fresh graph input.
            if (!open.empty() && rng.chance(0.6)) {
                std::size_t pick = rng.below(open.size());
                g.connect(open[pick], PortRef{name, in});
                open.erase(open.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            } else {
                g.bindInput(io_in++, PortRef{name, in});
            }
        }
        for (const std::string& out : sig.value().outputs)
            open.push_back(PortRef{name, out});
    }
    std::size_t io_out = 0;
    for (const PortRef& port : open)
        g.bindOutput(io_out++, port);
    return g;
}

class RandomGraphTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomGraphTest, Validates)
{
    Rng rng(GetParam());
    ExprHigh g = randomGraph(rng);
    Result<bool> valid = g.validate();
    EXPECT_TRUE(valid.ok()) << valid.error().message;
}

TEST_P(RandomGraphTest, LowerLiftRoundTrip)
{
    Rng rng(GetParam());
    ExprHigh g = randomGraph(rng);
    Result<ExprLow> low = lowerToExprLow(g);
    ASSERT_TRUE(low.ok()) << low.error().message;
    Result<ExprHigh> lifted = liftToExprHigh(low.value());
    ASSERT_TRUE(lifted.ok()) << lifted.error().message;
    EXPECT_TRUE(g.sameAs(lifted.value()));
}

TEST_P(RandomGraphTest, DotRoundTrip)
{
    Rng rng(GetParam());
    ExprHigh g = randomGraph(rng);
    Result<ExprHigh> reparsed = parseDot(printDot(g));
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    EXPECT_TRUE(g.sameAs(reparsed.value()));
}

TEST_P(RandomGraphTest, RandomOrderLoweringRoundTrips)
{
    Rng rng(GetParam());
    ExprHigh g = randomGraph(rng);
    // Shuffle the node order; lowering must not care.
    std::vector<std::string> order;
    for (const NodeDecl& n : g.nodes())
        order.push_back(n.name);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    Result<ExprLow> low = lowerToExprLow(g, order);
    ASSERT_TRUE(low.ok()) << low.error().message;
    Result<ExprHigh> lifted = liftToExprHigh(low.value());
    ASSERT_TRUE(lifted.ok()) << lifted.error().message;
    EXPECT_TRUE(g.sameAs(lifted.value()));
}

/**
 * Theorem 4.6 as a property: applying a verified rewrite wherever it
 * matches yields a graph whose random traces the original admits.
 */
TEST_P(RandomGraphTest, VerifiedRewriteApplicationRefines)
{
    Rng rng(GetParam());
    ExprHigh g = randomGraph(rng);

    RewriteDef def = catalog::bufferDeepen();
    std::optional<RewriteMatch> match = matchRewriteOnce(g, def);
    if (!match)
        return;  // no buffer this time; the property holds vacuously
    Result<ExprHigh> rewritten = applyRewrite(g, def, *match);
    ASSERT_TRUE(rewritten.ok()) << rewritten.error().message;

    Environment env(3);
    DenotedModule impl =
        DenotedModule::denote(lowerToExprLow(rewritten.value()).value(),
                              env)
            .take();
    DenotedModule spec =
        DenotedModule::denote(lowerToExprLow(g).value(), env).take();
    std::vector<Token> pool = {Token(Value(1)), Token(Value(2))};
    for (int i = 0; i < 3; ++i) {
        Rng trace_rng(GetParam() * 31 + static_cast<std::uint64_t>(i));
        IoTrace trace = randomTrace(impl, pool, trace_rng,
                                    {.max_steps = 120,
                                     .input_bias = 0.5,
                                     .max_inputs = 3});
        Result<bool> admitted = admitsTrace(spec, trace);
        ASSERT_TRUE(admitted.ok()) << admitted.error().message;
        EXPECT_TRUE(admitted.value());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Reflexivity of refinement for each single-component module.
// ---------------------------------------------------------------------

struct ComponentCase
{
    const char* type;
    AttrMap attrs;
    std::vector<Token> tokens;
};

/** Prints a case by value, e.g. "fork(out=2) fed 1". gtest would
 * otherwise dump the struct's raw bytes, pointers included, into the
 * test name. */
void
PrintTo(const ComponentCase& c, std::ostream* os)
{
    *os << c.type << "(";
    bool first = true;
    for (const auto& [k, v] : c.attrs) {
        *os << (first ? "" : ", ") << k << "=" << v;
        first = false;
    }
    *os << ") fed ";
    for (std::size_t i = 0; i < c.tokens.size(); ++i)
        *os << (i > 0 ? ", " : "") << c.tokens[i].toString();
}

class ComponentReflexivity
    : public ::testing::TestWithParam<ComponentCase>
{
};

TEST_P(ComponentReflexivity, SelfRefines)
{
    const ComponentCase& c = GetParam();
    ExprHigh g;
    g.addNode("n", c.type, c.attrs);
    Result<Signature> sig = signatureOf(c.type, c.attrs);
    for (std::size_t i = 0; i < sig.value().inputs.size(); ++i)
        g.bindInput(i, PortRef{"n", sig.value().inputs[i]});
    for (std::size_t i = 0; i < sig.value().outputs.size(); ++i)
        g.bindOutput(i, PortRef{"n", sig.value().outputs[i]});

    Environment env(3);
    auto report = checkGraphRefinement(g, g, env, c.tokens,
                                       {.max_states = 100000,
                                        .input_budget = 2});
    ASSERT_TRUE(report.ok()) << c.type << ": "
                             << report.error().message;
    EXPECT_TRUE(report.value().refines)
        << c.type << ": " << report.value().counterexample;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ComponentReflexivity,
    ::testing::Values(
        ComponentCase{"buffer", {}, {Token(Value(1))}},
        ComponentCase{"fork", {{"out", "2"}}, {Token(Value(1))}},
        ComponentCase{"fork", {{"out", "3"}}, {Token(Value(1))}},
        ComponentCase{"join", {{"in", "2"}}, {Token(Value(1))}},
        ComponentCase{
            "split", {},
            {Token(Value::tuple(Value(1), Value(2)))}},
        ComponentCase{"branch", {},
                      {Token(Value(true)), Token(Value(1))}},
        ComponentCase{"mux", {}, {Token(Value(false)), Token(Value(1))}},
        ComponentCase{"merge", {}, {Token(Value(1)), Token(Value(2))}},
        ComponentCase{"init", {{"value", "false"}},
                      {Token(Value(true))}},
        ComponentCase{"sink", {}, {Token(Value(1))}},
        ComponentCase{"constant", {{"value", "5"}}, {Token(Value())}},
        ComponentCase{"operator", {{"op", "add"}}, {Token(Value(2))}},
        ComponentCase{"operator", {{"op", "eq"}}, {Token(Value(2))}},
        ComponentCase{"tagger", {{"tags", "2"}},
                      {Token(Value(1)), Token(Value(2), 0)}},
        ComponentCase{"load", {{"memory", "m"}}, {Token(Value(1))}},
        ComponentCase{"store", {{"memory", "m"}}, {Token(Value(1))}}),
    [](const auto& info) {
        std::string name = info.param.type;
        for (const auto& [k, v] : info.param.attrs)
            name += "_" + v;
        for (char& ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name + "_" + std::to_string(info.index);
    });

// ---------------------------------------------------------------------
// E-graph extraction preserves term semantics and never grows terms.
// ---------------------------------------------------------------------

/** A random pair-algebra term over x, type-correct by construction:
 * projections only apply to terms known to be pairs. */
eg::TermExpr
randomTerm(Rng& rng, int depth, bool must_be_pair)
{
    using eg::TermExpr;
    if (depth == 0 || (!must_be_pair && rng.chance(0.3)))
        return must_be_pair
                   ? TermExpr::node("pair",
                                    {TermExpr::leaf("x"),
                                     TermExpr::leaf("x")})
                   : TermExpr::leaf("x");
    switch (rng.below(must_be_pair ? 1 : 3)) {
      case 0:
        return TermExpr::node("pair",
                              {randomTerm(rng, depth - 1, false),
                               randomTerm(rng, depth - 1, false)});
      case 1:
        return TermExpr::node("fst",
                              {randomTerm(rng, depth - 1, true)});
      default:
        return TermExpr::node("snd",
                              {randomTerm(rng, depth - 1, true)});
    }
}

class EGraphProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EGraphProperty, ExtractionPreservesSemanticsAndSize)
{
    Rng rng(GetParam());
    eg::TermExpr term = randomTerm(rng, 4, false);

    eg::EGraph graph;
    eg::ClassId cls = graph.addTerm(term);
    graph.saturate(eg::pairAlgebraRules());
    Result<eg::TermExpr> best = graph.extract(cls);
    ASSERT_TRUE(best.ok()) << best.error().message;
    EXPECT_LE(best.value().size(), term.size());

    // Semantics: both terms compute the same value on a sample input.
    auto registry = std::make_shared<FnRegistry>();
    Result<PureFn> f_before = compileTerm(term, registry);
    Result<PureFn> f_after = compileTerm(best.value(), registry);
    ASSERT_TRUE(f_before.ok());
    ASSERT_TRUE(f_after.ok());
    Value x(std::int64_t{7});
    EXPECT_EQ(f_before.value()(x), f_after.value()(x));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EGraphProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

// ---------------------------------------------------------------------
// The Tagger restores program order under adversarial completions.
// ---------------------------------------------------------------------

class TaggerProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TaggerProperty, CommitsInProgramOrder)
{
    Rng rng(GetParam());
    int num_tags = 1 + static_cast<int>(rng.below(4));
    ComponentPtr tagger = makeTagger(num_tags, kUnbounded);
    CompState state = tagger->initialState();

    std::vector<std::int64_t> entered;
    std::vector<std::int64_t> committed;
    std::vector<Token> in_flight;
    std::int64_t next_value = 100;

    for (int step = 0; step < 200; ++step) {
        switch (rng.below(4)) {
          case 0: {  // feed a fresh token
            auto s = tagger->acceptInput(state, 0,
                                         Token(Value(next_value)));
            if (!s.empty()) {
                state = s[0];
                entered.push_back(next_value++);
            }
            break;
          }
          case 1: {  // allocate + pull into the "loop"
            auto internal = tagger->internalSteps(state);
            if (!internal.empty()) {
                state = internal[0];
                auto out = tagger->emitOutput(state, 0);
                if (!out.empty()) {
                    in_flight.push_back(out[0].first);
                    state = out[0].second;
                }
            }
            break;
          }
          case 2: {  // return a random in-flight token (adversarial)
            if (!in_flight.empty()) {
                std::size_t pick = rng.below(in_flight.size());
                auto s = tagger->acceptInput(state, 1,
                                             in_flight[pick]);
                if (!s.empty()) {
                    state = s[0];
                    in_flight.erase(
                        in_flight.begin() +
                        static_cast<std::ptrdiff_t>(pick));
                }
            }
            break;
          }
          default: {  // commit
            auto out = tagger->emitOutput(state, 1);
            if (!out.empty()) {
                committed.push_back(out[0].first.value.asInt());
                EXPECT_FALSE(out[0].first.tag.has_value());
                state = out[0].second;
            }
            break;
          }
        }
    }
    // Whatever was committed is a prefix of the entry order.
    ASSERT_LE(committed.size(), entered.size());
    for (std::size_t i = 0; i < committed.size(); ++i)
        EXPECT_EQ(committed[i], entered[i]) << "position " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaggerProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------
// Denotational executor and cycle simulator agree functionally.
// ---------------------------------------------------------------------

class ExecutorSimAgreement
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ExecutorSimAgreement, GcdResultsMatch)
{
    Rng rng(GetParam());
    std::vector<std::pair<int, int>> pairs;
    for (int i = 0; i < 5; ++i)
        pairs.push_back({static_cast<int>(rng.range(1, 300)),
                         static_cast<int>(rng.range(1, 300))});

    ExprHigh g = circuits::buildGcdInOrder();

    // Denotational executor.
    Environment env;
    DenotedModule mod =
        DenotedModule::denote(lowerToExprLow(g).value(), env).take();
    Executor exec(mod);
    std::vector<std::int64_t> denotational;
    for (auto [a, b] : pairs) {
        EXPECT_TRUE(exec.feedIo(0, Value(a)));
        EXPECT_TRUE(exec.feedIo(1, Value(b)));
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        auto out = exec.pullIo(0);
        ASSERT_TRUE(out.has_value());
        denotational.push_back(out->value.asInt());
    }

    // Cycle simulator.
    sim::Simulator simulator =
        sim::Simulator::build(g, env.functionsPtr()).take();
    std::vector<Token> as, bs;
    for (auto [a, b] : pairs) {
        as.emplace_back(Value(a));
        bs.emplace_back(Value(b));
    }
    auto result = simulator.run({as, bs}, pairs.size());
    ASSERT_TRUE(result.ok()) << result.error().message;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(result.value().outputs[0][i].value.asInt(),
                  denotational[i]);
        EXPECT_EQ(denotational[i],
                  std::gcd(pairs[i].first, pairs[i].second));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorSimAgreement,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace graphiti

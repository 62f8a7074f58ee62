/**
 * @file
 * Tests for the well-typedness checker (section 6.3): type inference
 * over the component rules, pair construction/destruction, and
 * rejection of ill-typed wiring.
 */

#include <gtest/gtest.h>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "graph/typecheck.hpp"
#include "rewrite/ooo_pipeline.hpp"

namespace graphiti {
namespace {

TEST(TypeCheck, BenchmarkCircuitsAreWellTyped)
{
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        Result<TypeReport> report = checkWellTyped(spec.df_io);
        EXPECT_TRUE(report.ok())
            << name << ": "
            << (report.ok() ? "" : report.error().message);
        if (spec.df_ooo_input) {
            Result<TypeReport> variant =
                checkWellTyped(*spec.df_ooo_input);
            EXPECT_TRUE(variant.ok())
                << name << " (ooo variant): "
                << (variant.ok() ? "" : variant.error().message);
        }
    }
}

TEST(TypeCheck, TransformedCircuitsStayWellTyped)
{
    Environment env;
    Result<PipelineResult> transformed =
        runOooPipeline(circuits::buildGcdInOrder(), env,
                       {.num_tags = 4, .reexpand = true});
    ASSERT_TRUE(transformed.ok());
    Result<TypeReport> report =
        checkWellTyped(transformed.value().graph);
    EXPECT_TRUE(report.ok())
        << (report.ok() ? "" : report.error().message);
}

TEST(TypeCheck, InfersIntThroughArithmetic)
{
    ExprHigh g;
    g.addNode("f", "fork", {{"out", "2"}});
    g.addNode("add", "operator", {{"op", "add"}});
    g.bindInput(0, PortRef{"f", "in0"});
    g.connect("f", "out0", "add", "in0");
    g.connect("f", "out1", "add", "in1");
    g.bindOutput(0, PortRef{"add", "out0"});
    Result<TypeReport> report = checkWellTyped(g);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value()
                  .wire_types.at(PortRef{"f", "out0"})
                  .kind,
              WireType::Kind::integer);
    EXPECT_EQ(report.value()
                  .wire_types.at(PortRef{"add", "out0"})
                  .kind,
              WireType::Kind::integer);
}

TEST(TypeCheck, InfersPairThroughJoinSplit)
{
    ExprHigh g;
    g.addNode("cI", "constant", {{"value", "3"}});
    g.addNode("cF", "constant", {{"value", "1.5"}});
    g.addNode("join", "join", {{"in", "2"}});
    g.addNode("split", "split");
    g.bindInput(0, PortRef{"cI", "in0"});
    g.bindInput(1, PortRef{"cF", "in0"});
    g.connect("cI", "out0", "join", "in0");
    g.connect("cF", "out0", "join", "in1");
    g.connect("join", "out0", "split", "in0");
    g.bindOutput(0, PortRef{"split", "out0"});
    g.bindOutput(1, PortRef{"split", "out1"});
    Result<TypeReport> report = checkWellTyped(g);
    ASSERT_TRUE(report.ok()) << report.error().message;
    const WireType& joined =
        report.value().wire_types.at(PortRef{"join", "out0"});
    ASSERT_EQ(joined.kind, WireType::Kind::pair);
    EXPECT_EQ(joined.first->kind, WireType::Kind::integer);
    EXPECT_EQ(joined.second->kind, WireType::Kind::floating);
    EXPECT_EQ(report.value()
                  .wire_types.at(PortRef{"split", "out1"})
                  .kind,
              WireType::Kind::floating);
}

TEST(TypeCheck, RejectsFloatBranchCondition)
{
    ExprHigh g;
    g.addNode("cF", "constant", {{"value", "1.5"}});
    g.addNode("br", "branch");
    g.bindInput(0, PortRef{"cF", "in0"});
    g.bindInput(1, PortRef{"br", "in0"});
    g.connect("cF", "out0", "br", "in1");
    g.bindOutput(0, PortRef{"br", "out0"});
    g.bindOutput(1, PortRef{"br", "out1"});
    Result<TypeReport> report = checkWellTyped(g);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.error().message.find("type conflict"),
              std::string::npos);
}

TEST(TypeCheck, RejectsIntIntoFloatAdder)
{
    ExprHigh g;
    g.addNode("cI", "constant", {{"value", "3"}});
    g.addNode("cF", "constant", {{"value", "1.5"}});
    g.addNode("fadd", "operator", {{"op", "fadd"}});
    g.bindInput(0, PortRef{"cI", "in0"});
    g.bindInput(1, PortRef{"cF", "in0"});
    g.connect("cI", "out0", "fadd", "in0");
    g.connect("cF", "out0", "fadd", "in1");
    g.bindOutput(0, PortRef{"fadd", "out0"});
    EXPECT_FALSE(checkWellTyped(g).ok());
}

TEST(TypeCheck, RejectsMismatchedMuxArms)
{
    ExprHigh g;
    g.addNode("cI", "constant", {{"value", "3"}});
    g.addNode("cF", "constant", {{"value", "1.5"}});
    g.addNode("mux", "mux");
    g.bindInput(0, PortRef{"cI", "in0"});
    g.bindInput(1, PortRef{"cF", "in0"});
    g.bindInput(2, PortRef{"mux", "in0"});
    g.connect("cI", "out0", "mux", "in1");
    g.connect("cF", "out0", "mux", "in2");
    g.bindOutput(0, PortRef{"mux", "out0"});
    EXPECT_FALSE(checkWellTyped(g).ok());
}

TEST(TypeCheck, RejectsEqOnDifferentTypes)
{
    ExprHigh g;
    g.addNode("cI", "constant", {{"value", "3"}});
    g.addNode("cF", "constant", {{"value", "1.5"}});
    g.addNode("eq", "operator", {{"op", "eq"}});
    g.bindInput(0, PortRef{"cI", "in0"});
    g.bindInput(1, PortRef{"cF", "in0"});
    g.connect("cI", "out0", "eq", "in0");
    g.connect("cF", "out0", "eq", "in1");
    g.bindOutput(0, PortRef{"eq", "out0"});
    EXPECT_FALSE(checkWellTyped(g).ok());
}

TEST(TypeCheck, PolymorphicWiresStayUnknown)
{
    ExprHigh g;
    g.addNode("b", "buffer");
    g.bindInput(0, PortRef{"b", "in0"});
    g.bindOutput(0, PortRef{"b", "out0"});
    Result<TypeReport> report = checkWellTyped(g);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value()
                  .wire_types.at(PortRef{"b", "out0"})
                  .kind,
              WireType::Kind::unknown);
}

TEST(TypeCheck, SelectUnifiesArmsWithOutput)
{
    ExprHigh g;
    g.addNode("cB", "constant", {{"value", "true"}});
    g.addNode("cF1", "constant", {{"value", "1.5"}});
    g.addNode("cF2", "constant", {{"value", "2.5"}});
    g.addNode("sel", "operator", {{"op", "select"}});
    g.bindInput(0, PortRef{"cB", "in0"});
    g.bindInput(1, PortRef{"cF1", "in0"});
    g.bindInput(2, PortRef{"cF2", "in0"});
    g.connect("cB", "out0", "sel", "in0");
    g.connect("cF1", "out0", "sel", "in1");
    g.connect("cF2", "out0", "sel", "in2");
    g.bindOutput(0, PortRef{"sel", "out0"});
    Result<TypeReport> report = checkWellTyped(g);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report.value()
                  .wire_types.at(PortRef{"sel", "out0"})
                  .kind,
              WireType::Kind::floating);
}

TEST(TypeCheck, JoinWithoutInputsConstrainsNothing)
{
    // in=0 leaves the join no input ports; its output stays
    // polymorphic (the validator reports the arity as bad-arity).
    for (const char* arity : {"0", "-2"}) {
        ExprHigh g;
        g.addNode("j", "join", {{"in", arity}});
        g.addNode("k", "sink");
        g.connect("j", "out0", "k", "in0");
        Result<TypeReport> report = checkWellTyped(g);
        ASSERT_TRUE(report.ok()) << report.error().message;
        EXPECT_EQ(report.value().wire_types.at(PortRef{"j", "out0"}).kind,
                  WireType::Kind::unknown);
    }
}

TEST(TypeCheck, WireTypeToString)
{
    WireType t = WireType::pairOf(WireType::integer(),
                                  WireType::boolean());
    EXPECT_EQ(t.toString(), "(int, bool)");
    EXPECT_EQ(WireType::unknown().toString(), "?");
}

}  // namespace
}  // namespace graphiti

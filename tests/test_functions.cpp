/**
 * @file
 * Parameterized sweep over the operator evaluation catalog, plus the
 * function registry and term compilation edge cases.
 */

#include <gtest/gtest.h>

#include "rewrite/pure_gen.hpp"
#include "semantics/functions.hpp"

namespace graphiti {
namespace {

struct OpCase
{
    const char* op;
    std::vector<Value> args;
    Value expected;
};

/** Prints a case by value, e.g. "add(2, 3) = 5". gtest would otherwise
 * dump the struct's raw bytes, pointers included, into the test name. */
void
PrintTo(const OpCase& c, std::ostream* os)
{
    *os << c.op << "(";
    for (std::size_t i = 0; i < c.args.size(); ++i)
        *os << (i > 0 ? ", " : "") << c.args[i].toString();
    *os << ") = " << c.expected.toString();
}

class OperatorEval : public ::testing::TestWithParam<OpCase>
{
};

TEST_P(OperatorEval, Computes)
{
    const OpCase& c = GetParam();
    Result<Value> result = evalOperator(c.op, c.args);
    ASSERT_TRUE(result.ok()) << c.op << ": " << result.error().message;
    if (c.expected.isDouble())
        EXPECT_DOUBLE_EQ(result.value().asDouble(),
                         c.expected.asDouble());
    else
        EXPECT_EQ(result.value(), c.expected) << c.op;
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, OperatorEval,
    ::testing::Values(
        OpCase{"add", {Value(2), Value(3)}, Value(5)},
        OpCase{"sub", {Value(2), Value(3)}, Value(-1)},
        OpCase{"mul", {Value(4), Value(3)}, Value(12)},
        OpCase{"div", {Value(7), Value(2)}, Value(3)},
        OpCase{"mod", {Value(7), Value(2)}, Value(1)},
        OpCase{"shl", {Value(1), Value(4)}, Value(16)},
        OpCase{"shr", {Value(16), Value(2)}, Value(4)},
        OpCase{"and", {Value(6), Value(3)}, Value(2)},
        OpCase{"or", {Value(6), Value(3)}, Value(7)},
        OpCase{"xor", {Value(6), Value(3)}, Value(5)},
        OpCase{"lt", {Value(1), Value(2)}, Value(true)},
        OpCase{"le", {Value(2), Value(2)}, Value(true)},
        OpCase{"gt", {Value(1), Value(2)}, Value(false)},
        OpCase{"ge", {Value(2), Value(2)}, Value(true)},
        OpCase{"eq", {Value(3), Value(3)}, Value(true)},
        OpCase{"ne", {Value(3), Value(3)}, Value(false)},
        OpCase{"eq",
               {Value::tuple(Value(1), Value(2)),
                Value::tuple(Value(1), Value(2))},
               Value(true)},
        OpCase{"not", {Value(false)}, Value(true)},
        OpCase{"neg", {Value(5)}, Value(-5)},
        OpCase{"abs", {Value(-5)}, Value(5)},
        OpCase{"id", {Value(9)}, Value(9)},
        OpCase{"select", {Value(true), Value(1), Value(2)}, Value(1)},
        OpCase{"select", {Value(false), Value(1), Value(2)}, Value(2)},
        OpCase{"fadd", {Value(1.5), Value(2.25)}, Value(3.75)},
        OpCase{"fsub", {Value(1.5), Value(2.25)}, Value(-0.75)},
        OpCase{"fmul", {Value(1.5), Value(2.0)}, Value(3.0)},
        OpCase{"fdiv", {Value(3.0), Value(2.0)}, Value(1.5)},
        OpCase{"flt", {Value(1.0), Value(2.0)}, Value(true)},
        OpCase{"fge", {Value(1.0), Value(2.0)}, Value(false)},
        OpCase{"fneg", {Value(2.5)}, Value(-2.5)},
        OpCase{"fadd", {Value(1), Value(2.5)}, Value(3.5)}),
    [](const auto& info) {
        return std::string(info.param.op) + "_" +
               std::to_string(info.index);
    });

TEST(OperatorEval, DivisionByZeroFails)
{
    EXPECT_FALSE(evalOperator("div", {Value(1), Value(0)}).ok());
    EXPECT_FALSE(evalOperator("mod", {Value(1), Value(0)}).ok());
}

TEST(OperatorEval, UnknownOpFails)
{
    EXPECT_FALSE(evalOperator("frobnicate", {Value(1), Value(2)}).ok());
}

TEST(FnRegistry, AddFindReplace)
{
    FnRegistry reg;
    EXPECT_FALSE(reg.has("f"));
    reg.add("f", [](const Value& v) { return Value(v.asInt() + 1); });
    ASSERT_TRUE(reg.has("f"));
    EXPECT_EQ((*reg.find("f"))(Value(1)).asInt(), 2);
    reg.add("f", [](const Value& v) { return Value(v.asInt() * 2); });
    EXPECT_EQ((*reg.find("f"))(Value(3)).asInt(), 6);
}

TEST(FnRegistry, FreshNameAvoidsCollisions)
{
    FnRegistry reg;
    reg.add("g0", [](const Value& v) { return v; });
    EXPECT_EQ(reg.freshName("g"), "g1");
}

TEST(CompileTerm, ConstAndOps)
{
    auto reg = std::make_shared<FnRegistry>();
    eg::TermExpr term = eg::TermExpr::node(
        "op:add",
        {eg::TermExpr::leaf("x"), eg::TermExpr::leaf("const:5")});
    Result<PureFn> fn = compileTerm(term, reg);
    ASSERT_TRUE(fn.ok());
    EXPECT_EQ(fn.value()(Value(2)).asInt(), 7);
}

TEST(CompileTerm, RegistryFunctionsAreLookedUpLazily)
{
    auto reg = std::make_shared<FnRegistry>();
    reg.get()->add("f", [](const Value& v) { return v; });
    eg::TermExpr term =
        eg::TermExpr::node("fn:f", {eg::TermExpr::leaf("x")});
    Result<PureFn> fn = compileTerm(term, reg);
    ASSERT_TRUE(fn.ok());
    // Replacing the registered function changes the compiled one.
    reg.get()->add("f", [](const Value& v) {
        return Value(v.asInt() * 10);
    });
    EXPECT_EQ(fn.value()(Value(4)).asInt(), 40);
}

TEST(CompileTerm, UnknownPiecesFail)
{
    auto reg = std::make_shared<FnRegistry>();
    EXPECT_FALSE(
        compileTerm(eg::TermExpr::leaf("fn:ghost"), reg).ok());
    EXPECT_FALSE(
        compileTerm(eg::TermExpr::leaf("wat:1"), reg).ok());
    EXPECT_FALSE(
        compileTerm(eg::TermExpr::leaf("const:zebra"), reg).ok());
}

TEST(CompileTerm, DivergentBodyThrowsAtRuntime)
{
    auto reg = std::make_shared<FnRegistry>();
    eg::TermExpr term = eg::TermExpr::node(
        "op:mod",
        {eg::TermExpr::leaf("x"), eg::TermExpr::leaf("const:0")});
    Result<PureFn> fn = compileTerm(term, reg);
    ASSERT_TRUE(fn.ok());
    EXPECT_THROW(fn.value()(Value(3)), std::runtime_error);
}

}  // namespace
}  // namespace graphiti

/**
 * @file
 * Parameterized sweep over the operator evaluation catalog, the
 * integer overflow cases, a differential test of the flat operator
 * kernels (direct and as the simulator fires them) against the boxed
 * adapter, plus the function registry and term compilation edge cases.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "graph/signatures.hpp"
#include "rewrite/pure_gen.hpp"
#include "semantics/functions.hpp"
#include "sim/sim.hpp"

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
    EXPECT_EQ(evalOperator("div", {Value(1), Value(0)}).error().message,
              "division by zero");
    EXPECT_EQ(evalOperator("mod", {Value(1), Value(false)}).error().message,
              "modulo by zero");
}

TEST(OperatorEval, UnknownOpFails)
{
    EXPECT_EQ(evalOperator("frobnicate", {Value(1), Value(2)})
                  .error()
                  .message,
              "unknown integer operator: frobnicate");
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/** The int operator @p op yields on @p args. */
std::int64_t
intResult(const char* op, std::vector<Value> args)
{
    Result<Value> r = evalOperator(op, args);
    EXPECT_TRUE(r.ok()) << op << ": " << r.error().message;
    return r.ok() ? r.value().asInt() : 0;
}

TEST(OperatorEval, IntegerOverflowWraps)
{
    EXPECT_EQ(intResult("add", {Value(kMax), Value(1)}), kMin);
    EXPECT_EQ(intResult("add", {Value(kMin), Value(-1)}), kMax);
    EXPECT_EQ(intResult("sub", {Value(kMin), Value(1)}), kMax);
    EXPECT_EQ(intResult("sub", {Value(0), Value(kMin)}), kMin);
    EXPECT_EQ(intResult("mul", {Value(kMax), Value(2)}), -2);
    EXPECT_EQ(intResult("mul", {Value(kMin), Value(-1)}), kMin);
    EXPECT_EQ(intResult("neg", {Value(kMin)}), kMin);
    EXPECT_EQ(intResult("abs", {Value(kMin)}), kMin);
    EXPECT_EQ(intResult("abs", {Value(kMin + 1)}), kMax);
    EXPECT_EQ(intResult("shl", {Value(1), Value(63)}), kMin);
    EXPECT_EQ(intResult("shl", {Value(kMax), Value(1)}), -2);
    EXPECT_EQ(intResult("shl", {Value(-1), Value(64)}), -1);
    EXPECT_EQ(intResult("shr", {Value(kMin), Value(63)}), -1);
}

TEST(OperatorEval, MinDividedByMinusOneWraps)
{
    // INT64_MIN / -1 overflows, and x86 division traps (SIGFPE) on it.
    EXPECT_EQ(intResult("div", {Value(kMin), Value(-1)}), kMin);
    EXPECT_EQ(intResult("mod", {Value(kMin), Value(-1)}), 0);
    EXPECT_EQ(intResult("div", {Value(7), Value(-1)}), -7);
    EXPECT_EQ(intResult("mod", {Value(7), Value(-1)}), 0);
    EXPECT_EQ(intResult("div", {Value(kMin), Value(2)}), kMin / 2);
    EXPECT_EQ(intResult("mod", {Value(-7), Value(2)}), -1);
}

TEST(OperatorEval, FailedCoercionsThrowValuesMessage)
{
    auto thrown = [](const char* op, std::vector<Value> args) {
        try {
            (void)evalOperator(op, args);
        } catch (const std::runtime_error& e) {
            return std::string(e.what());
        }
        return std::string("no exception");
    };
    EXPECT_EQ(thrown("add", {Value(1.5), Value(1)}),
              "Value::asInt on non-integer: 1.5");
    EXPECT_EQ(thrown("div", {Value(1), Value::tuple(Value(1), Value(2))}),
              "Value::asInt on non-integer: (1, 2)");
    EXPECT_EQ(thrown("not", {Value()}), "Value::asBool on non-boolean: ()");
    EXPECT_EQ(thrown("select", {Value(0.5), Value(1), Value(2)}),
              "Value::asBool on non-boolean: 0.5");
    // The floating-point operators coerce their second operand first.
    EXPECT_EQ(thrown("fadd", {Value(), Value::tuple(Value(1), Value(2))}),
              "Value::toDouble on non-numeric: (1, 2)");
    EXPECT_EQ(thrown("fneg", {Value()}),
              "Value::toDouble on non-numeric: ()");
}

TEST(OperatorEval, BoolsCoerceAndSignedZeroAndNaNSurvive)
{
    EXPECT_EQ(intResult("add", {Value(true), Value(true)}), 2);
    EXPECT_EQ(evalOperator("not", {Value(5)}).value(), Value(false));
    EXPECT_EQ(evalOperator("fadd", {Value(true), Value(0.5)}).value(),
              Value(1.5));
    // Bool and int payloads are never equal; NaN is unequal to itself.
    EXPECT_EQ(evalOperator("eq", {Value(true), Value(1)}).value(),
              Value(false));
    const double nan = std::nan("");
    EXPECT_EQ(evalOperator("eq", {Value(nan), Value(nan)}).value(),
              Value(false));
    EXPECT_EQ(evalOperator("ne", {Value(nan), Value(nan)}).value(),
              Value(true));
    EXPECT_EQ(evalOperator("eq", {Value(-0.0), Value(0.0)}).value(),
              Value(true));
    auto bits = [](const char* op, std::vector<Value> args) {
        return std::bit_cast<std::uint64_t>(
            evalOperator(op, args).value().asDouble());
    };
    EXPECT_EQ(bits("fneg", {Value(0.0)}), std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_EQ(bits("fmul", {Value(-0.0), Value(1.0)}),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_EQ(bits("id", {Value(-0.0)}), std::bit_cast<std::uint64_t>(-0.0));
    // Two NaNs: the first operand's payload, whichever the op.
    const double neg_nan = -nan;
    for (const char* op : {"fadd", "fsub", "fmul", "fdiv"}) {
        EXPECT_EQ(bits(op, {Value(neg_nan), Value(nan)}),
                  std::bit_cast<std::uint64_t>(neg_nan))
            << op;
        EXPECT_EQ(bits(op, {Value(nan), Value(neg_nan)}),
                  std::bit_cast<std::uint64_t>(nan))
            << op;
    }
}

// ---------------------------------------------------------------------
// The flat kernels against the boxed adapter.
// ---------------------------------------------------------------------

/** Renders a value exactly: doubles by their bits, tuples by element. */
std::string
exact(const Value& v)
{
    char buf[40];
    if (v.isUnit())
        return "()";
    if (v.isBool())
        return v.asBool() ? "true" : "false";
    if (v.isInt())
        return "i" + std::to_string(v.asInt());
    if (v.isDouble()) {
        std::snprintf(buf, sizeof buf, "d%016" PRIx64,
                      std::bit_cast<std::uint64_t>(v.asDouble()));
        return buf;
    }
    std::string out = "(";
    for (const Value& e : v.asTuple())
        out += exact(e) + ",";
    return out + ")";
}

/** An evaluation's outcome: its value, its error or its exception. */
std::string
outcome(const std::function<Result<Value>()>& eval)
{
    try {
        Result<Value> r = eval();
        return r.ok() ? "value " + exact(r.value())
                      : "error " + r.error().message;
    } catch (const std::exception& e) {
        return std::string("throw ") + e.what();
    }
}

/** The operand grid: unit, bools, ints and doubles at their edges,
 * a pair, a pair holding a double, and a 3-tuple. */
std::vector<Value>
operandGrid()
{
    const double inf = std::numeric_limits<double>::infinity();
    return {Value(),          Value(false),     Value(true),
            Value(0),         Value(1),         Value(-1),
            Value(7),         Value(-3),        Value(64),
            Value(kMin),      Value(kMax),      Value(0.0),
            Value(-0.0),      Value(1.5),       Value(-2.5),
            Value(std::nan("")), Value(-std::nan("")), Value(inf),
            Value(-inf),
            Value::tuple(Value(1), Value(2)),
            Value::tuple(Value(1), Value(-0.0)),
            Value(ValueTuple{Value(1), Value(2), Value(3)})};
}

/** Every argument list of @p arity over @p grid (the last varies
 * slowest), passed to @p visit. */
void
forEachArgs(const std::vector<Value>& grid, int arity,
            const std::function<void(const std::vector<Value>&)>& visit)
{
    std::size_t total = 1;
    for (int i = 0; i < arity; ++i)
        total *= grid.size();
    for (std::size_t c = 0; c < total; ++c) {
        std::vector<Value> args;
        for (std::size_t r = c; args.size() < std::size_t(arity);
             r /= grid.size())
            args.push_back(grid[r % grid.size()]);
        visit(args);
    }
}

std::string
describe(const std::string& op, const std::vector<Value>& args)
{
    std::string out = op + "(";
    for (const Value& a : args)
        out += exact(a) + " ";
    return out + ")";
}

TEST(OperatorKernel, CatalogMatchesTheSignatures)
{
    const std::vector<std::string> names = operatorNames();
    EXPECT_EQ(names.size(), 31u);
    for (const std::string& op : names) {
        EXPECT_GE(operatorArity(op), 1) << op;
        EXPECT_LE(operatorArity(op), 3) << op;
        EXPECT_NE(operatorKernel(op), nullptr) << op;
        EXPECT_NE(operatorFn(op), nullptr) << op;
    }
    EXPECT_EQ(operatorKernel("frobnicate"), nullptr);
    EXPECT_EQ(operatorFn("frobnicate"), nullptr);
}

TEST(OperatorKernel, KernelAgreesWithBoxedAdapterOnTheGrid)
{
    // A kernel's value must be the adapter's bit for bit; where it
    // defers, resolving the deferral must give the adapter's error,
    // exception or tuple comparison.
    const std::vector<Value> grid = operandGrid();
    for (const std::string& op : operatorNames()) {
        OperatorKernel kernel = operatorKernel(op);
        forEachArgs(grid, operatorArity(op), [&](const std::vector<Value>&
                                                     args) {
            std::vector<Scalar> in;
            for (std::size_t i = 0; i < args.size(); ++i) {
                const Value& v = args[i];
                if (v.isTuple())
                    in.push_back({i, ScalarKind::Tuple});
                else if (v.isUnit())
                    in.push_back({});
                else if (v.isBool())
                    in.push_back({v.asBool() ? 1u : 0u, ScalarKind::Bool});
                else if (v.isInt())
                    in.push_back({std::bit_cast<std::uint64_t>(v.asInt()),
                                  ScalarKind::Int});
                else
                    in.push_back(
                        {std::bit_cast<std::uint64_t>(v.asDouble()),
                         ScalarKind::Double});
            }
            const Scalar out = kernel(in.data());
            const std::string flat = outcome([&]() -> Result<Value> {
                switch (out.kind) {
                    case ScalarKind::Unit: return Value();
                    case ScalarKind::Bool: return Value(out.bits != 0);
                    case ScalarKind::Int:
                        return Value(std::bit_cast<std::int64_t>(out.bits));
                    case ScalarKind::Double:
                        return Value(std::bit_cast<double>(out.bits));
                    case ScalarKind::Tuple: return args.at(out.bits);
                    case ScalarKind::Deferred: break;
                }
                return resolveDeferred(out, args);
            });
            EXPECT_EQ(flat, outcome([&] { return evalOperator(op, args); }))
                << describe(op, args);
        });
    }
}

/** The outcome of firing operator @p op once in the simulator on
 * @p args, one graph input per operand, rendered as outcome() does. */
std::string
simulated(const std::string& op, const std::vector<Value>& args)
{
    ExprHigh g;
    g.addNode("n", "operator", {{"op", op}});
    std::vector<std::vector<Token>> inputs;
    for (std::size_t i = 0; i < args.size(); ++i) {
        g.bindInput(i, PortRef{"n", "in" + std::to_string(i)});
        inputs.push_back({Token(args[i])});
    }
    g.bindOutput(0, PortRef{"n", "out0"});
    sim::Simulator s =
        sim::Simulator::build(g, std::make_shared<FnRegistry>()).take();
    return outcome([&]() -> Result<Value> {
        Result<sim::SimResult> r = s.run(inputs, 1);
        if (!r.ok()) {
            // Drop the "cycle N, node n: " context.
            const std::string& m = r.error().message;
            const std::string at = "node n: ";
            return err(m.substr(m.find(at) + at.size()));
        }
        return r.value().outputs.at(0).at(0).value;
    });
}

TEST(OperatorKernel, SimulatorFiresAsTheBoxedAdapterOnTheGrid)
{
    // The simulator calls the kernels on its flat tokens: pairs and
    // 3-tuples pass through its arena and box table, deferrals are
    // resolved over boxed copies.
    const std::vector<Value> grid = operandGrid();
    for (const std::string& op : operatorNames()) {
        forEachArgs(grid, operatorArity(op), [&](const std::vector<Value>&
                                                     args) {
            EXPECT_EQ(simulated(op, args),
                      outcome([&] { return evalOperator(op, args); }))
                << describe(op, args);
        });
    }
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

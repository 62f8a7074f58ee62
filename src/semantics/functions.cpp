#include "semantics/functions.hpp"

#include <functional>
#include <utility>

namespace graphiti {

namespace {

using Args = std::vector<Value>;

/** Integer operands of a binary operator (a missing second one is 0). */
std::pair<std::int64_t, std::int64_t>
ints(const Args& a)
{
    return {a.at(0).asInt(), a.size() > 1 ? a.at(1).asInt() : 0};
}

template <typename Op>
Result<Value>
intOp(const Args& a)
{
    auto [x, y] = ints(a);
    return Value(Op{}(x, y));
}

/** A binary floating-point operator (double precision). */
template <typename Op>
Result<Value>
doubleOp(const Args& a)
{
    return Value(Op{}(a.at(0).toDouble(), a.at(1).toDouble()));
}

Result<Value>
identity(const Args& a)
{
    return a.at(0);
}

struct OperatorEntry
{
    const char* name;
    OperatorFn fn;
};

/** The operator catalog: one evaluator per `op` name. */
constexpr OperatorEntry kOperators[] = {
    // Equality works on any payload.
    {"eq", [](const Args& a) -> Result<Value> {
         return Value(a.at(0) == a.at(1));
     }},
    {"ne", [](const Args& a) -> Result<Value> {
         return Value(a.at(0) != a.at(1));
     }},
    {"id", identity},
    {"trunc", identity},
    {"zext", identity},
    {"sext", identity},
    {"not", [](const Args& a) -> Result<Value> {
         return Value(!a.at(0).asBool());
     }},
    {"neg", [](const Args& a) -> Result<Value> {
         return Value(-a.at(0).asInt());
     }},
    {"abs", [](const Args& a) -> Result<Value> {
         std::int64_t v = a.at(0).asInt();
         return Value(v < 0 ? -v : v);
     }},
    {"select", [](const Args& a) -> Result<Value> {
         return a.at(0).asBool() ? a.at(1) : a.at(2);
     }},

    {"fadd", doubleOp<std::plus<>>},
    {"fsub", doubleOp<std::minus<>>},
    {"fmul", doubleOp<std::multiplies<>>},
    {"fdiv", doubleOp<std::divides<>>},
    {"flt", doubleOp<std::less<>>},
    {"fge", doubleOp<std::greater_equal<>>},
    {"fneg", [](const Args& a) -> Result<Value> {
         return Value(-a.at(0).toDouble());
     }},

    {"add", intOp<std::plus<>>},
    {"sub", intOp<std::minus<>>},
    {"mul", intOp<std::multiplies<>>},
    {"div", [](const Args& a) -> Result<Value> {
         auto [x, y] = ints(a);
         if (y == 0)
             return err("division by zero");
         return Value(x / y);
     }},
    {"mod", [](const Args& a) -> Result<Value> {
         auto [x, y] = ints(a);
         if (y == 0)
             return err("modulo by zero");
         return Value(x % y);
     }},
    {"shl", [](const Args& a) -> Result<Value> {
         auto [x, y] = ints(a);
         return Value(x << (y & 63));
     }},
    {"shr", [](const Args& a) -> Result<Value> {
         auto [x, y] = ints(a);
         return Value(x >> (y & 63));
     }},
    {"and", intOp<std::bit_and<>>},
    {"or", intOp<std::bit_or<>>},
    {"xor", intOp<std::bit_xor<>>},
    {"lt", intOp<std::less<>>},
    {"le", intOp<std::less_equal<>>},
    {"gt", intOp<std::greater<>>},
    {"ge", intOp<std::greater_equal<>>},
};

}  // namespace

OperatorFn
operatorFn(const std::string& op)
{
    for (const OperatorEntry& entry : kOperators)
        if (op == entry.name)
            return entry.fn;
    return nullptr;
}

Result<Value>
evalOperator(const std::string& op, const std::vector<Value>& args)
{
    OperatorFn fn = operatorFn(op);
    if (fn == nullptr)
        return err("unknown integer operator: " + op);
    return fn(args);
}

}  // namespace graphiti

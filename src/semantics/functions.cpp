#include "semantics/functions.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

namespace graphiti {

namespace {

using Args = std::vector<Value>;

/** Why a kernel returned a Deferred result. Its bits hold the reason
 * in the low byte and the operand concerned above it. */
enum class Deferral : std::uint8_t
{
    DivisionByZero,
    ModuloByZero,
    NotBool,        ///< the operand fails Value::asBool
    NotInt,         ///< the operand fails Value::asInt
    NotNumeric,     ///< the operand fails Value::toDouble
    TuplesEqual,    ///< eq of two tuples: compare them boxed
    TuplesUnequal,  ///< ne of two tuples: compare them boxed
};

Scalar
scalar(bool b)
{
    return {b ? 1u : 0u, ScalarKind::Bool};
}

Scalar
scalar(std::int64_t i)
{
    return {std::bit_cast<std::uint64_t>(i), ScalarKind::Int};
}

Scalar
scalar(double d)
{
    return {std::bit_cast<std::uint64_t>(d), ScalarKind::Double};
}

/** The quiet bit of a NaN's payload. */
constexpr std::uint64_t kQuietNan = std::uint64_t{1} << 51;

Scalar
defer(Deferral why, std::uint64_t operand = 0)
{
    return {static_cast<std::uint64_t>(why) | operand << 8,
            ScalarKind::Deferred};
}

// Value's coercions (asBool, asInt, toDouble) on a scalar: false where
// Value's would throw.

bool
asBool(Scalar s, bool& out)
{
    if (s.kind != ScalarKind::Bool && s.kind != ScalarKind::Int)
        return false;
    out = s.bits != 0;
    return true;
}

bool
asInt(Scalar s, std::int64_t& out)
{
    if (s.kind != ScalarKind::Int && s.kind != ScalarKind::Bool)
        return false;
    out = std::bit_cast<std::int64_t>(s.bits);
    return true;
}

bool
toDouble(Scalar s, double& out)
{
    if (s.kind == ScalarKind::Double)
        out = std::bit_cast<double>(s.bits);
    else if (s.kind == ScalarKind::Int)
        out = static_cast<double>(std::bit_cast<std::int64_t>(s.bits));
    else if (s.kind == ScalarKind::Bool)
        out = s.bits != 0 ? 1.0 : 0.0;
    else
        return false;
    return true;
}

/** Two's complement arithmetic on the unsigned bits: overflow wraps
 * instead of being undefined. */
template <typename Op>
struct Wrapping
{
    std::int64_t
    operator()(std::int64_t x, std::int64_t y) const
    {
        return static_cast<std::int64_t>(
            Op{}(static_cast<std::uint64_t>(x),
                 static_cast<std::uint64_t>(y)));
    }
};

std::int64_t
wrappingNegate(std::int64_t x)
{
    return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(x));
}

/** @p f on both operands of a binary integer operator, coerced as
 * Value::asInt, the first one first. */
template <typename F>
Scalar
onInts(const Scalar* a, F f)
{
    std::int64_t x = 0;
    std::int64_t y = 0;
    if (!asInt(a[0], x))
        return defer(Deferral::NotInt, 0);
    if (!asInt(a[1], y))
        return defer(Deferral::NotInt, 1);
    return f(x, y);
}

template <typename Op>
Scalar
intOp(const Scalar* a)
{
    return onInts(a, [](std::int64_t x, std::int64_t y) {
        return scalar(Op{}(x, y));
    });
}

struct ShiftLeft
{
    std::int64_t
    operator()(std::int64_t x, std::int64_t y) const
    {
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(x)
                                         << (y & 63));
    }
};

struct ShiftRight
{
    std::int64_t
    operator()(std::int64_t x, std::int64_t y) const
    {
        return x >> (y & 63);
    }
};

/**
 * A binary floating-point operator (double precision). The second
 * operand is coerced first, so a call with two non-numeric operands
 * throws naming the second, as it always has. When both are NaN the
 * result is the first, quieted (what x86 computes for x op y), whichever
 * operand order the compiler picks for fadd and fmul.
 */
template <typename Op>
Scalar
doubleOp(const Scalar* a)
{
    double x = 0;
    double y = 0;
    if (!toDouble(a[1], y))
        return defer(Deferral::NotNumeric, 1);
    if (!toDouble(a[0], x))
        return defer(Deferral::NotNumeric, 0);
    const auto r = Op{}(x, y);
    if constexpr (std::is_same_v<decltype(r), const double>) {
        if (std::isnan(r) && std::isnan(x) && std::isnan(y))
            return {a[0].bits | kQuietNan, ScalarKind::Double};
    }
    return scalar(r);
}

/** eq (@p Equal) or ne. Payloads of different kinds differ; two
 * tuples are compared boxed. */
template <bool Equal>
Scalar
equality(const Scalar* a)
{
    if (a[0].kind != a[1].kind)
        return scalar(!Equal);
    switch (a[0].kind) {
        case ScalarKind::Unit: return scalar(Equal);
        case ScalarKind::Double:
            return scalar((std::bit_cast<double>(a[0].bits) ==
                           std::bit_cast<double>(a[1].bits)) == Equal);
        case ScalarKind::Tuple:
            return defer(Equal ? Deferral::TuplesEqual
                               : Deferral::TuplesUnequal);
        default: return scalar((a[0].bits == a[1].bits) == Equal);
    }
}

Scalar
identity(const Scalar* a)
{
    return a[0];
}

Scalar
select(const Scalar* a)
{
    bool cond = false;
    if (!asBool(a[0], cond))
        return defer(Deferral::NotBool, 0);
    return cond ? a[1] : a[2];
}

Scalar
logicalNot(const Scalar* a)
{
    bool b = false;
    if (!asBool(a[0], b))
        return defer(Deferral::NotBool, 0);
    return scalar(!b);
}

Scalar
negate(const Scalar* a)
{
    std::int64_t x = 0;
    if (!asInt(a[0], x))
        return defer(Deferral::NotInt, 0);
    return scalar(wrappingNegate(x));
}

Scalar
absolute(const Scalar* a)
{
    std::int64_t x = 0;
    if (!asInt(a[0], x))
        return defer(Deferral::NotInt, 0);
    return scalar(x < 0 ? wrappingNegate(x) : x);
}

Scalar
doubleNegate(const Scalar* a)
{
    double x = 0;
    if (!toDouble(a[0], x))
        return defer(Deferral::NotNumeric, 0);
    return scalar(-x);
}

Scalar
divide(const Scalar* a)
{
    return onInts(a, [](std::int64_t x, std::int64_t y) {
        if (y == 0)
            return defer(Deferral::DivisionByZero);
        // INT64_MIN / -1 overflows (and traps on x86): wrap it instead.
        return scalar(y == -1 ? wrappingNegate(x) : x / y);
    });
}

Scalar
modulo(const Scalar* a)
{
    return onInts(a, [](std::int64_t x, std::int64_t y) {
        if (y == 0)
            return defer(Deferral::ModuloByZero);
        return scalar(y == -1 ? std::int64_t{0} : x % y);
    });
}

struct OperatorEntry
{
    const char* name;
    int arity;
    OperatorKernel kernel;
};

/** The operator catalog: one kernel per `op` name. */
constexpr OperatorEntry kOperators[] = {
    // Equality works on any payload.
    {"eq", 2, equality<true>},
    {"ne", 2, equality<false>},
    // Pass-through ops move any payload.
    {"id", 1, identity},
    {"trunc", 1, identity},
    {"zext", 1, identity},
    {"sext", 1, identity},
    {"not", 1, logicalNot},
    {"neg", 1, negate},
    {"abs", 1, absolute},
    {"select", 3, select},

    {"fadd", 2, doubleOp<std::plus<>>},
    {"fsub", 2, doubleOp<std::minus<>>},
    {"fmul", 2, doubleOp<std::multiplies<>>},
    {"fdiv", 2, doubleOp<std::divides<>>},
    {"flt", 2, doubleOp<std::less<>>},
    {"fge", 2, doubleOp<std::greater_equal<>>},
    {"fneg", 1, doubleNegate},

    {"add", 2, intOp<Wrapping<std::plus<>>>},
    {"sub", 2, intOp<Wrapping<std::minus<>>>},
    {"mul", 2, intOp<Wrapping<std::multiplies<>>>},
    {"div", 2, divide},
    {"mod", 2, modulo},
    {"shl", 2, intOp<ShiftLeft>},
    {"shr", 2, intOp<ShiftRight>},
    {"and", 2, intOp<std::bit_and<>>},
    {"or", 2, intOp<std::bit_or<>>},
    {"xor", 2, intOp<std::bit_xor<>>},
    {"lt", 2, intOp<std::less<>>},
    {"le", 2, intOp<std::less_equal<>>},
    {"gt", 2, intOp<std::greater<>>},
    {"ge", 2, intOp<std::greater_equal<>>},
};

/** Operand @p i of a kernel: a tuple is opaque, named by its index. */
Scalar
scalarOf(const Value& v, std::uint64_t i)
{
    if (v.isBool())
        return scalar(v.asBool());
    if (v.isInt())
        return scalar(v.asInt());
    if (v.isDouble())
        return scalar(v.asDouble());
    if (v.isUnit())
        return Scalar{};
    return {i, ScalarKind::Tuple};
}

/** The boxed adapter of kOperators[I]. */
template <std::size_t I>
Result<Value>
boxed(const Args& args)
{
    constexpr OperatorEntry entry = kOperators[I];
    static_assert(entry.arity <= 3);
    std::array<Scalar, 3> in;
    for (int i = 0; i < entry.arity; ++i)
        in[i] = scalarOf(args.at(i), i);
    const Scalar out = entry.kernel(in.data());
    switch (out.kind) {
        case ScalarKind::Unit: return Value();
        case ScalarKind::Bool: return Value(out.bits != 0);
        case ScalarKind::Int:
            return Value(std::bit_cast<std::int64_t>(out.bits));
        case ScalarKind::Double:
            return Value(std::bit_cast<double>(out.bits));
        case ScalarKind::Tuple: return args[out.bits];
        case ScalarKind::Deferred: break;
    }
    return resolveDeferred(out, args);
}

constexpr auto kBoxed = []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<OperatorFn, sizeof...(I)>{&boxed<I>...};
}(std::make_index_sequence<std::size(kOperators)>{});

/** The catalog index of @p op, or the catalog size when unknown. */
std::size_t
indexOf(const std::string& op)
{
    std::size_t i = 0;
    while (i < std::size(kOperators) && op != kOperators[i].name)
        ++i;
    return i;
}

}  // namespace

OperatorKernel
operatorKernel(const std::string& op)
{
    std::size_t i = indexOf(op);
    return i < std::size(kOperators) ? kOperators[i].kernel : nullptr;
}

std::vector<std::string>
operatorNames()
{
    std::vector<std::string> names;
    for (const OperatorEntry& entry : kOperators)
        names.emplace_back(entry.name);
    return names;
}

Result<Value>
resolveDeferred(Scalar deferred, const std::vector<Value>& args)
{
    const Value& operand = args.at(deferred.bits >> 8);
    switch (static_cast<Deferral>(deferred.bits & 0xff)) {
        case Deferral::DivisionByZero: return err("division by zero");
        case Deferral::ModuloByZero: return err("modulo by zero");
        // The coercion that failed on the flat operand throws Value's
        // own message on the boxed one.
        case Deferral::NotBool: operand.asBool(); break;
        case Deferral::NotInt: operand.asInt(); break;
        case Deferral::NotNumeric: operand.toDouble(); break;
        case Deferral::TuplesEqual: return Value(args.at(0) == args.at(1));
        case Deferral::TuplesUnequal:
            return Value(args.at(0) != args.at(1));
    }
    throw std::logic_error("operator kernel deferral not explained by "
                           "its boxed operands");
}

OperatorFn
operatorFn(const std::string& op)
{
    std::size_t i = indexOf(op);
    return i < kBoxed.size() ? kBoxed[i] : nullptr;
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

/**
 * @file
 * Unit tests for the support library: values, tokens, results,
 * strings and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include "support/result.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/token.hpp"

namespace graphiti {
namespace {

TEST(Value, DefaultIsUnit)
{
    Value v;
    EXPECT_TRUE(v.isUnit());
    EXPECT_EQ(v.toString(), "()");
}

TEST(Value, IntRoundTrip)
{
    Value v(std::int64_t{42});
    EXPECT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), 42);
    EXPECT_EQ(v.toString(), "42");
}

TEST(Value, BoolRoundTrip)
{
    EXPECT_TRUE(Value(true).asBool());
    EXPECT_FALSE(Value(false).asBool());
    EXPECT_EQ(Value(true).toString(), "true");
}

TEST(Value, IntCoercesToBool)
{
    EXPECT_TRUE(Value(std::int64_t{7}).asBool());
    EXPECT_FALSE(Value(std::int64_t{0}).asBool());
}

TEST(Value, DoubleRoundTrip)
{
    Value v(2.5);
    EXPECT_TRUE(v.isDouble());
    EXPECT_DOUBLE_EQ(v.asDouble(), 2.5);
}

TEST(Value, ToDoubleCoercions)
{
    EXPECT_DOUBLE_EQ(Value(std::int64_t{3}).toDouble(), 3.0);
    EXPECT_DOUBLE_EQ(Value(true).toDouble(), 1.0);
    EXPECT_DOUBLE_EQ(Value(1.5).toDouble(), 1.5);
}

TEST(Value, TupleConstructionAndAccess)
{
    Value v = Value::tuple(Value(1), Value(2));
    ASSERT_TRUE(v.isTuple());
    EXPECT_EQ(v.asTuple()[0].asInt(), 1);
    EXPECT_EQ(v.asTuple()[1].asInt(), 2);
    EXPECT_EQ(v.toString(), "(1, 2)");
}

TEST(Value, NestedTupleEquality)
{
    Value a = Value::tuple(Value(1), Value::tuple(Value(2), Value(true)));
    Value b = Value::tuple(Value(1), Value::tuple(Value(2), Value(true)));
    Value c = Value::tuple(Value(1), Value::tuple(Value(2), Value(false)));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Value, EqualityDistinguishesTypes)
{
    EXPECT_NE(Value(std::int64_t{1}), Value(true));
    EXPECT_NE(Value(std::int64_t{1}), Value(1.0));
    EXPECT_NE(Value(), Value(false));
}

TEST(Value, HashConsistentWithEquality)
{
    Value a = Value::tuple(Value(3), Value(4));
    Value b = Value::tuple(Value(3), Value(4));
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(Value, WrongAccessorThrows)
{
    EXPECT_THROW(Value(1.5).asInt(), std::runtime_error);
    EXPECT_THROW(Value(std::int64_t{1}).asTuple(), std::runtime_error);
    EXPECT_THROW(Value().asBool(), std::runtime_error);
}

TEST(Token, TagRendering)
{
    Token t(Value(5), 3);
    EXPECT_EQ(t.toString(), "5#3");
    EXPECT_EQ(Token(Value(5)).toString(), "5");
}

TEST(Token, EqualityIncludesTag)
{
    EXPECT_NE(Token(Value(5), 1), Token(Value(5), 2));
    EXPECT_NE(Token(Value(5), 1), Token(Value(5)));
    EXPECT_EQ(Token(Value(5), 1), Token(Value(5), 1));
}

TEST(Result, ValueAndError)
{
    Result<int> good(7);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 7);

    Result<int> bad = err("broken");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message, "broken");
    EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(Result, ContextPrefixesMessage)
{
    Result<int> bad = Result<int>(err("inner")).withContext("outer");
    EXPECT_EQ(bad.error().message, "outer: inner");
}

TEST(Strings, SplitKeepsEmptyFields)
{
    auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, TrimBothEnds)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinWithSeparator)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("operator:add", "operator"));
    EXPECT_FALSE(startsWith("op", "operator"));
}

TEST(Strings, ParseNumberTakesWholeUnsignedDecimalsOnly)
{
    EXPECT_EQ(parseNumber<std::size_t>("0"), 0u);
    EXPECT_EQ(parseNumber<std::size_t>("8"), 8u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_EQ(parseNumber<double>("0.5"), 0.5);
    EXPECT_EQ(parseNumber<double>("1e-9"), 1e-9);
    EXPECT_EQ(parseNumber<double>("3"), 3.0);
    // A negative count would wrap to SIZE_MAX, "two" and "2x" would
    // read as 0 and 2 under atoi: every one of them is refused.
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "two", "2x",
                            "0x10", "18446744073709551616"})
        EXPECT_FALSE(parseNumber<std::size_t>(bad).has_value()) << bad;
    for (const char* bad : {"", "-0.5", "+1", "x", "1.5s", "inf", "nan",
                            "1e999"})
        EXPECT_FALSE(parseNumber<double>(bad).has_value()) << bad;
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = rng.range(2, 4);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 4);
        saw_lo |= v == 2;
        saw_hi |= v == 4;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

}  // namespace
}  // namespace graphiti

#ifndef GRAPHITI_OBS_JSON_HPP
#define GRAPHITI_OBS_JSON_HPP

/**
 * @file
 * A minimal JSON document model: enough to emit metrics snapshots,
 * Chrome/Perfetto trace files and bench records, and to parse them
 * back (the round-trip the obs tests rely on). No external
 * dependencies; numbers are doubles, objects preserve key order.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/result.hpp"

namespace graphiti::obs::json {

/** Escape @p text for inclusion in a JSON string literal. */
std::string escape(const std::string& text);

class Value;

using Array = std::vector<Value>;
/** Key/value pairs in insertion order (traces read better that way). */
using Object = std::vector<std::pair<std::string, Value>>;

/** One JSON value: null, bool, number, string, array or object. */
class Value
{
  public:
    Value() : repr_(nullptr) {}
    Value(std::nullptr_t) : repr_(nullptr) {}
    Value(bool b) : repr_(b) {}
    Value(double d) : repr_(d) {}
    Value(int i) : repr_(static_cast<double>(i)) {}
    Value(std::int64_t i) : repr_(static_cast<double>(i)) {}
    Value(std::size_t i) : repr_(static_cast<double>(i)) {}
    Value(std::string s) : repr_(std::move(s)) {}
    Value(const char* s) : repr_(std::string(s)) {}
    Value(Array a) : repr_(std::move(a)) {}
    Value(Object o) : repr_(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(repr_); }
    bool isBool() const { return std::holds_alternative<bool>(repr_); }
    bool isNumber() const { return std::holds_alternative<double>(repr_); }
    bool isString() const { return std::holds_alternative<std::string>(repr_); }
    bool isArray() const { return std::holds_alternative<Array>(repr_); }
    bool isObject() const { return std::holds_alternative<Object>(repr_); }

    bool asBool() const { return std::get<bool>(repr_); }
    double asNumber() const { return std::get<double>(repr_); }
    const std::string& asString() const { return std::get<std::string>(repr_); }
    const Array& asArray() const { return std::get<Array>(repr_); }
    Array& asArray() { return std::get<Array>(repr_); }
    const Object& asObject() const { return std::get<Object>(repr_); }
    Object& asObject() { return std::get<Object>(repr_); }

    /** Object field access; null value when absent or not an object. */
    const Value* find(const std::string& key) const;

    /** Set (or replace) an object field; converts null to object. */
    Value& set(const std::string& key, Value value);

    /** Append to an array; converts null to array. */
    Value& push(Value value);

    /**
     * Recursively sort object keys (arrays keep element order).
     * Snapshots assembled from unordered containers call this before
     * emission so equal state always dumps byte-identical text —
     * gate diffs and golden tests must never be order-fragile.
     */
    Value& sortKeys();

    /** Render compactly (indent < 0) or pretty-printed. */
    std::string dump(int indent = -1) const;

    bool operator==(const Value& other) const = default;

  private:
    void dumpTo(std::string& out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        repr_;
};

/**
 * @p v as an unsigned integer. Only integral numbers in [0, 2^53) —
 * the range a double holds exactly — convert; a negative, fractional,
 * too large or non-numeric value is an error, never a wrapped or
 * truncated cast. Callers prefix the field name.
 */
Result<std::uint64_t> exactCount(const Value& v);

/** Parse a JSON document; fails with position info on malformed text. */
Result<Value> parse(const std::string& text);

/** Write @p value to @p path (compact). */
Result<bool> writeFile(const std::string& path, const Value& value);

/**
 * Write @p value to @p path via write-temp-then-rename, so readers
 * never observe a torn document: they see the old file or the new
 * one, nothing in between (the verdict store and the journal dump
 * both rely on this).
 */
Result<bool> writeFileAtomic(const std::string& path,
                             const Value& value);

}  // namespace graphiti::obs::json

#endif  // GRAPHITI_OBS_JSON_HPP

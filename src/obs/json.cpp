#include "obs/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace graphiti::obs::json {

std::string
escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    return out;
}

const Value*
Value::find(const std::string& key) const
{
    if (!isObject())
        return nullptr;
    for (const auto& [k, v] : asObject())
        if (k == key)
            return &v;
    return nullptr;
}

Value&
Value::set(const std::string& key, Value value)
{
    if (!isObject())
        repr_ = Object{};
    for (auto& [k, v] : std::get<Object>(repr_)) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    std::get<Object>(repr_).emplace_back(key, std::move(value));
    return *this;
}

Value&
Value::push(Value value)
{
    if (!isArray())
        repr_ = Array{};
    std::get<Array>(repr_).push_back(std::move(value));
    return *this;
}

Value&
Value::sortKeys()
{
    if (isObject()) {
        Object& fields = std::get<Object>(repr_);
        std::stable_sort(fields.begin(), fields.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        for (auto& [key, value] : fields)
            value.sortKeys();
    } else if (isArray()) {
        for (Value& element : std::get<Array>(repr_))
            element.sortKeys();
    }
    return *this;
}

Result<std::uint64_t>
exactCount(const Value& v)
{
    constexpr double kLimit = 9007199254740992.0;  // 2^53
    // The negated range test also rejects NaN.
    if (!v.isNumber() || !(v.asNumber() >= 0 && v.asNumber() < kLimit) ||
        v.asNumber() != std::floor(v.asNumber()))
        return err("must be a non-negative integer below 2^53");
    return static_cast<std::uint64_t>(v.asNumber());
}

namespace {

std::string
numberToString(double d)
{
    if (!std::isfinite(d))
        return "null";  // JSON has no inf/nan
    // Integers (the common case: cycles, counts) print without a
    // fraction so traces stay diff-friendly.
    if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
}

}  // namespace

void
Value::dumpTo(std::string& out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent < 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * d), ' ');
    };
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += asBool() ? "true" : "false";
    } else if (isNumber()) {
        out += numberToString(asNumber());
    } else if (isString()) {
        out += '"';
        out += escape(asString());
        out += '"';
    } else if (isArray()) {
        const Array& items = asArray();
        out += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            items[i].dumpTo(out, indent, depth + 1);
        }
        if (!items.empty())
            newline(depth);
        out += ']';
    } else {
        const Object& fields = asObject();
        out += '{';
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i > 0)
                out += ',';
            newline(depth + 1);
            out += '"';
            out += escape(fields[i].first);
            out += "\":";
            if (indent >= 0)
                out += ' ';
            fields[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!fields.empty())
            newline(depth);
        out += '}';
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over the whole document. */
class Parser
{
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    Result<Value>
    parseDocument()
    {
        Result<Value> v = parseValue();
        if (!v.ok())
            return v;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters");
        return v;
    }

  private:
    Error
    fail(const std::string& what) const
    {
        return Error("json parse error at offset " +
                     std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char* word)
    {
        std::size_t len = std::string_view(word).size();
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Result<Value>
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            Result<std::string> s = parseString();
            if (!s.ok())
                return s.error();
            return Value(s.take());
        }
        if (consumeWord("true"))
            return Value(true);
        if (consumeWord("false"))
            return Value(false);
        if (consumeWord("null"))
            return Value(nullptr);
        return parseNumber();
    }

    Result<Value>
    parseNumber()
    {
        const char* begin = text_.c_str() + pos_;
        char* end = nullptr;
        double d = std::strtod(begin, &end);
        if (end == begin)
            return fail("expected a value");
        pos_ += static_cast<std::size_t>(end - begin);
        return Value(d);
    }

    Result<std::string>
    parseString()
    {
        if (!consume('"'))
            return fail("expected '\"'");
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // UTF-8 encode the BMP codepoint (surrogate pairs
                    // are beyond what metric names need).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    Result<Value>
    parseArray()
    {
        consume('[');
        Array items;
        skipWs();
        if (consume(']'))
            return Value(std::move(items));
        while (true) {
            Result<Value> v = parseValue();
            if (!v.ok())
                return v;
            items.push_back(v.take());
            skipWs();
            if (consume(']'))
                return Value(std::move(items));
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    Result<Value>
    parseObject()
    {
        consume('{');
        Object fields;
        skipWs();
        if (consume('}'))
            return Value(std::move(fields));
        while (true) {
            skipWs();
            Result<std::string> key = parseString();
            if (!key.ok())
                return key.error();
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            Result<Value> v = parseValue();
            if (!v.ok())
                return v;
            fields.emplace_back(key.take(), v.take());
            skipWs();
            if (consume('}'))
                return Value(std::move(fields));
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

Result<Value>
parse(const std::string& text)
{
    return Parser(text).parseDocument();
}

Result<bool>
writeFile(const std::string& path, const Value& value)
{
    std::ofstream out(path);
    if (!out)
        return err("cannot open " + path + " for writing");
    out << value.dump(2) << "\n";
    // Flush before checking: a small document fits the stream buffer
    // entirely, so without this the first write syscall happens at
    // destruction and an ENOSPC/EIO there would be silently dropped.
    out.flush();
    if (!out)
        return err("write to " + path + " failed");
    return true;
}

Result<bool>
writeFileAtomic(const std::string& path, const Value& value)
{
    std::string tmp = path + ".tmp";
    Result<bool> wrote = writeFile(tmp, value);
    if (!wrote.ok())
        return wrote.error();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return err("rename " + tmp + " -> " + path + " failed");
    }
    return true;
}

}  // namespace graphiti::obs::json

#include "graph/signatures.hpp"

#include <algorithm>
#include <cctype>
#include <map>

namespace graphiti {

int
attrInt(const AttrMap& attrs, const std::string& key, int default_value)
{
    auto it = attrs.find(key);
    if (it == attrs.end())
        return default_value;
    // Hand-rolled parse: attribute values come straight from untrusted
    // dot input, and std::stoi throws on garbage or overflow. Malformed
    // values fall back to the default instead of crashing the pipeline
    // (the guard::Validator reports them as diagnostics).
    const std::string& text = it->second;
    std::size_t pos = 0;
    bool negative = false;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
        negative = text[pos] == '-';
        ++pos;
    }
    if (pos >= text.size())
        return default_value;
    long value = 0;
    for (; pos < text.size(); ++pos) {
        if (!std::isdigit(static_cast<unsigned char>(text[pos])))
            return default_value;
        value = value * 10 + (text[pos] - '0');
        if (value > 1'000'000'000L)  // clamp: no attribute is this big
            return default_value;
    }
    return static_cast<int>(negative ? -value : value);
}

std::string
attrStr(const AttrMap& attrs, const std::string& key,
        const std::string& default_value)
{
    auto it = attrs.find(key);
    if (it == attrs.end())
        return default_value;
    return it->second;
}

int
operatorArity(const std::string& op)
{
    static const std::map<std::string, int> arities = {
        {"add", 2},  {"sub", 2},  {"mul", 2},   {"div", 2},  {"mod", 2},
        {"shl", 2},  {"shr", 2},  {"and", 2},   {"or", 2},   {"xor", 2},
        {"lt", 2},   {"le", 2},   {"gt", 2},    {"ge", 2},   {"eq", 2},
        {"ne", 2},   {"not", 1},  {"neg", 1},   {"select", 3},
        {"fadd", 2}, {"fsub", 2}, {"fmul", 2},  {"fdiv", 2},
        {"flt", 2},  {"fge", 2},  {"fneg", 1},  {"abs", 1},
        {"id", 1},   {"trunc", 1}, {"zext", 1}, {"sext", 1},
    };
    auto it = arities.find(op);
    return it == arities.end() ? -1 : it->second;
}

bool
operatorIsPredicate(const std::string& op)
{
    return op == "lt" || op == "le" || op == "gt" || op == "ge" ||
           op == "eq" || op == "ne" || op == "flt" || op == "fge";
}

int
operatorLatency(const std::string& op)
{
    static const std::map<std::string, int> latencies = {
        {"mul", 4},  {"div", 8},  {"mod", 8},
        {"fadd", 10}, {"fsub", 10}, {"fmul", 6}, {"fdiv", 30},
        {"flt", 2},  {"fge", 2},
    };
    auto it = latencies.find(op);
    return it == latencies.end() ? 0 : it->second;
}

bool
typeHasSideEffects(const std::string& type)
{
    return type == "store" || type == "mem_controller";
}

namespace {

Signature
simpleSignature(int num_in, int num_out)
{
    Signature sig;
    sig.inputs.reserve(static_cast<std::size_t>(std::max(num_in, 0)));
    sig.outputs.reserve(static_cast<std::size_t>(std::max(num_out, 0)));
    for (int i = 0; i < num_in; ++i)
        sig.inputs.push_back("in" + std::to_string(i));
    for (int i = 0; i < num_out; ++i)
        sig.outputs.push_back("out" + std::to_string(i));
    return sig;
}

}  // namespace

Result<Signature>
signatureOf(const std::string& type, const AttrMap& attrs)
{
    if (type == "fork")
        return simpleSignature(1, attrInt(attrs, "out", 2));
    if (type == "join")
        return simpleSignature(attrInt(attrs, "in", 2), 1);
    if (type == "split")
        return simpleSignature(1, 2);
    if (type == "branch")
        return simpleSignature(2, 2);
    if (type == "mux")
        return simpleSignature(3, 1);
    if (type == "merge")
        return simpleSignature(2, 1);
    if (type == "init")
        return simpleSignature(1, 1);
    if (type == "buffer")
        return simpleSignature(1, 1);
    if (type == "sink")
        return simpleSignature(1, 0);
    if (type == "source")
        return simpleSignature(0, 1);
    if (type == "constant")
        return simpleSignature(1, 1);
    if (type == "pure")
        return simpleSignature(1, 1);
    if (type == "tagger")
        return simpleSignature(2, 2);
    if (type == "load")
        return simpleSignature(1, 1);
    if (type == "store")
        return simpleSignature(2, 1);
    if (type == "operator") {
        std::string op = attrStr(attrs, "op", "");
        int arity = operatorArity(op);
        if (arity < 0)
            return err("unknown operator: '" + op + "'");
        return simpleSignature(arity, 1);
    }
    return err("unknown component type: '" + type + "'");
}

}  // namespace graphiti

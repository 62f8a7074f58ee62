#include "semantics/state.hpp"

#include <sstream>

namespace graphiti {

namespace {

std::size_t
combineHash(std::size_t seed, std::size_t h)
{
    return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

std::size_t
CompState::totalTokens() const
{
    std::size_t n = 0;
    for (const auto& q : queues)
        n += q.size();
    return n;
}

std::size_t
CompState::approxBytes() const
{
    // Size-based estimate (counts x element sizes), deliberately
    // ignoring vector slack: capacities depend on growth history, so
    // only sizes keep the figure a pure function of state content —
    // the property that makes peak-bytes stable per seed. Tuple
    // payloads count as one Token (shallow).
    std::size_t bytes = sizeof(CompState);
    for (const auto& q : queues)
        bytes += sizeof(q) + q.size() * sizeof(Token);
    bytes += regs.size() * sizeof(std::int64_t);
    return bytes;
}

std::size_t
CompState::hash() const
{
    std::size_t seed = 0x51ed;
    for (const auto& q : queues) {
        seed = combineHash(seed, q.size());
        for (const Token& t : q)
            seed = combineHash(seed, t.hash());
    }
    for (std::int64_t r : regs)
        seed = combineHash(seed, std::hash<std::int64_t>{}(r));
    return seed;
}

std::string
CompState::toString() const
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < queues.size(); ++i) {
        if (i > 0)
            os << " ";
        os << "q" << i << "=[";
        for (std::size_t j = 0; j < queues[i].size(); ++j) {
            if (j > 0)
                os << ",";
            os << queues[i][j].toString();
        }
        os << "]";
    }
    for (std::size_t i = 0; i < regs.size(); ++i)
        os << " r" << i << "=" << regs[i];
    os << "}";
    return os.str();
}

std::size_t
GraphState::totalTokens() const
{
    std::size_t n = 0;
    for (const CompState& c : comps)
        n += c.totalTokens();
    return n;
}

std::size_t
GraphState::approxBytes() const
{
    std::size_t bytes = sizeof(GraphState);
    for (const CompState& c : comps)
        bytes += c.approxBytes();
    return bytes;
}

std::size_t
GraphState::hash() const
{
    std::size_t seed = 0x9e37;
    for (const CompState& c : comps)
        seed = combineHash(seed, c.hash());
    return seed;
}

std::string
GraphState::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < comps.size(); ++i)
        os << i << ":" << comps[i].toString() << "\n";
    return os.str();
}

}  // namespace graphiti

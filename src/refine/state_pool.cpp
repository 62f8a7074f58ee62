#include "refine/state_pool.hpp"

namespace graphiti {

std::optional<std::uint32_t>
StatePool::findHashed(const CompState& comp, std::size_t h) const
{
    auto it = index_.find(h);
    if (it == index_.end())
        return std::nullopt;
    for (std::uint32_t id : it->second) {
        if (values_[id] == comp)
            return id;
    }
    return std::nullopt;
}

std::uint32_t
StatePool::intern(const CompState& comp)
{
    std::size_t h = comp.hash();
    if (auto hit = findHashed(comp, h))
        return *hit;
    std::uint32_t id = static_cast<std::uint32_t>(values_.size());
    values_.push_back(comp);
    tokens_.push_back(comp.totalTokens());
    value_bytes_ += comp.approxBytes();
    index_[h].push_back(id);
    return id;
}

std::optional<std::uint32_t>
StatePool::find(const CompState& comp) const
{
    return findHashed(comp, comp.hash());
}

std::size_t
StatePool::approxBytes() const
{
    // Unordered-map node: hash link + cached hash, plus the bucket
    // array; candidate vectors count their elements. Same node model
    // as the state index so StateSpace::approxBytes sums consistently.
    constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
    std::size_t bytes = value_bytes_;
    bytes += tokens_.size() * sizeof(std::size_t);
    bytes += index_.size() *
             (sizeof(std::pair<const std::size_t,
                               std::vector<std::uint32_t>>) +
              kNodeOverhead);
    bytes += values_.size() * sizeof(std::uint32_t);
    return bytes;
}

}  // namespace graphiti

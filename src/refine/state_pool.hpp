#ifndef GRAPHITI_REFINE_STATE_POOL_HPP
#define GRAPHITI_REFINE_STATE_POOL_HPP

/**
 * @file
 * Interned component-state pool for compact state encoding.
 *
 * A graph state is the product of its components' states, and in
 * practice the factors repeat massively: most components of an
 * out-of-order loop sit in the same handful of idle/steady states
 * across millions of product states. The pool interns each distinct
 * CompState value once per exploration; a graph state then encodes as
 * a fixed-width row of 32-bit pool ids, and hashing a state becomes a
 * cheap walk over ids instead of a deep walk over queues and tokens.
 *
 * Determinism contract (docs/parallelism.md): ids are assigned in
 * first-intern order, and exploration interns in its one canonical
 * worklist order, so pool ids are a pure function of the explored
 * module, and every id-derived hash, shard assignment and index
 * layout follows suit.
 */

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "semantics/state.hpp"

namespace graphiti {

/** Append-only intern table for CompState values. */
class StatePool
{
  public:
    /** Id of @p comp, interning it on first sight. Ids are dense and
     * assigned in call order. */
    std::uint32_t intern(const CompState& comp);

    /** Id of @p comp if already interned; never assigns an id. */
    std::optional<std::uint32_t> find(const CompState& comp) const;

    /** The interned value for @p id. */
    const CompState& value(std::uint32_t id) const
    {
        return values_[id];
    }

    /** Cached totalTokens() of the interned value. */
    std::size_t tokensOf(std::uint32_t id) const { return tokens_[id]; }

    /** Number of distinct component states interned. */
    std::size_t size() const { return values_.size(); }

    /**
     * Size-based byte estimate of the pool: deep interned values plus
     * the hash index (entries and buckets). Maintained incrementally
     * at intern time, so reading it is O(1). Values follow the same
     * capacity-independent accounting as CompState::approxBytes, so
     * the figure is a pure function of the interned set
     * (docs/verification_observability.md).
     */
    std::size_t approxBytes() const;

  private:
    std::optional<std::uint32_t> findHashed(const CompState& comp,
                                            std::size_t h) const;

    std::vector<CompState> values_;
    std::vector<std::size_t> tokens_;
    /** CompState::hash() -> candidate ids (deep-compare on collision). */
    std::unordered_map<std::size_t, std::vector<std::uint32_t>> index_;
    /** Running sum of values_[i].approxBytes(). */
    std::size_t value_bytes_ = 0;
};

}  // namespace graphiti

#endif  // GRAPHITI_REFINE_STATE_POOL_HPP

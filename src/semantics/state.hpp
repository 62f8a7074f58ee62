#ifndef GRAPHITI_SEMANTICS_STATE_HPP
#define GRAPHITI_SEMANTICS_STATE_HPP

/**
 * @file
 * Component and graph states for the denotational semantics.
 *
 * Section 4.3 gives components semantics as transition relations over
 * an internal state built from queues (e.g. the fork's pair of lists).
 * CompState is that state, made concrete: a vector of token queues plus
 * a vector of scalar registers (used by Init's "already produced the
 * initial token" flag and the Tagger's allocation counters). A denoted
 * graph's state (GraphState) is the product of its components' states,
 * exactly as the product combinator of section 4.5 prescribes.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "support/token.hpp"

namespace graphiti {

/**
 * A FIFO of tokens with an O(1) amortized pop.
 *
 * The semantics hot path copies a CompState per successor and then
 * dequeues from the front; erasing the front of a std::vector made
 * every dequeue O(n). TokenQueue keeps the same storage but tracks a
 * head index: popFront() bumps the head, and the consumed prefix is
 * compacted away only when it grows past a small bound — so the
 * physical layout may differ between two logically equal queues.
 *
 * Every observable operation (equality, hash, toString, size,
 * iteration, approxBytes) is defined over the *logical* contents, so
 * the head index is invisible to interning, fingerprints and
 * counterexample text — the property the encoding-equivalence tests
 * pin down.
 */
class TokenQueue
{
  public:
    TokenQueue() = default;

    /** Logical number of queued tokens. */
    std::size_t size() const { return items_.size() - head_; }
    bool empty() const { return head_ == items_.size(); }

    /** The front (next to dequeue); queue must be nonempty. */
    const Token& front() const { return items_[head_]; }

    /** Logical indexing from the front. */
    const Token& operator[](std::size_t i) const
    {
        return items_[head_ + i];
    }

    /** Iteration over the logical contents. */
    const Token* begin() const { return items_.data() + head_; }
    const Token* end() const { return items_.data() + items_.size(); }

    void push_back(Token t) { items_.push_back(std::move(t)); }

    /** Remove the front in O(1) amortized; queue must be nonempty. */
    void
    popFront()
    {
        ++head_;
        if (head_ == items_.size()) {
            items_.clear();
            head_ = 0;
        } else if (head_ >= kCompactAt && head_ * 2 >= items_.size()) {
            compact();
        }
    }

    /** Remove the token at logical index @p i (the Untagger's
     * out-of-order completion pick). */
    void
    eraseAt(std::size_t i)
    {
        items_.erase(items_.begin() +
                     static_cast<std::ptrdiff_t>(head_ + i));
    }

    /** Logical equality: head offsets never matter. */
    bool
    operator==(const TokenQueue& other) const
    {
        if (size() != other.size())
            return false;
        for (std::size_t i = 0; i < size(); ++i) {
            if (!((*this)[i] == other[i]))
                return false;
        }
        return true;
    }

  private:
    /** Consumed-prefix bound before compaction kicks in; keeps the
     * slack small without compacting on every pop. */
    static constexpr std::size_t kCompactAt = 16;

    void
    compact()
    {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }

    std::vector<Token> items_;
    std::size_t head_ = 0;
};

/** The state of one component instance: queues plus scalar registers. */
struct CompState
{
    /** FIFO queues; logical index 0 is the front (next to dequeue). */
    std::vector<TokenQueue> queues;
    /** Scalar registers (counters, flags). */
    std::vector<std::int64_t> regs;

    bool operator==(const CompState&) const = default;

    /** Size-based heap estimate in bytes: a pure function of logical
     * state content (no capacity or head-index slack), so resource
     * accounting stays deterministic across runs. */
    std::size_t approxBytes() const;

    /** Enqueue @p t on queue @p q. */
    void
    enq(std::size_t q, Token t)
    {
        queues[q].push_back(std::move(t));
    }

    /** The front of queue @p q (must be nonempty). */
    const Token&
    first(std::size_t q) const
    {
        return queues[q].front();
    }

    /** Remove the front of queue @p q (must be nonempty); O(1)
     * amortized via the TokenQueue head index. */
    void
    deq(std::size_t q)
    {
        queues[q].popFront();
    }

    bool
    empty(std::size_t q) const
    {
        return queues[q].empty();
    }

    /** Total number of queued tokens across all queues. */
    std::size_t totalTokens() const;

    std::size_t hash() const;
    std::string toString() const;
};

/** The state of a denoted graph: one CompState per base component. */
struct GraphState
{
    std::vector<CompState> comps;

    bool operator==(const GraphState&) const = default;

    std::size_t totalTokens() const;
    /** Deterministic size-based byte estimate (see CompState). */
    std::size_t approxBytes() const;
    std::size_t hash() const;
    std::string toString() const;
};

/** Hash functor so states can key unordered containers. */
struct GraphStateHash
{
    std::size_t operator()(const GraphState& s) const { return s.hash(); }
};

}  // namespace graphiti

#endif  // GRAPHITI_SEMANTICS_STATE_HPP

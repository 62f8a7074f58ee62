#ifndef GRAPHITI_GUARD_VERDICT_STORE_HPP
#define GRAPHITI_GUARD_VERDICT_STORE_HPP

/**
 * @file
 * Memoization of governed verification verdicts: the verdict key, the
 * verdict JSON codec and the one store every verdict lookup and commit
 * goes through.
 *
 * A governed verdict with deadline_seconds == 0 is a pure function of
 * (transformed circuit, original circuit, budget, token domain): the
 * ladder is driven by deterministic state caps and seeds
 * (docs/parallelism.md). The store
 * keys verdicts by a canonical structural hash of exactly those
 * inputs, so recompiling an unchanged circuit skips exploration
 * entirely. Deadline-governed verdicts are wall-clock dependent and
 * are never cached.
 *
 * Each Compiler owns a memory-only store unless it is handed a shared
 * one (Compiler::setVerdictStore) — the served daemon shares one
 * across requests (docs/service.md), optionally persisted to a
 * directory so verdicts survive restarts.
 *
 * Sharding: the top bits of the (already uniform) FNV-1a cache key
 * pick a shard; each shard has its own mutex, so concurrent jobs on
 * different keys never contend. Bounding: each shard keeps an LRU
 * list and evicts the coldest entry past its cap, so a daemon serving
 * millions of distinct circuits stays within a fixed memory budget.
 *
 * Crash safety: with a persistence directory configured, every
 * store() rewrites the owning shard's file via write-to-temp +
 * rename(2) — atomic on POSIX — so a SIGKILL at any instant leaves
 * either the previous complete file or the new complete file, never a
 * torn one. A verdict is "committed" exactly when store() returns.
 * Loading tolerates corruption: an unparseable shard file or a
 * malformed entry is skipped and counted (`guard.verify.cache_corrupt`),
 * never fatal — a half-written frame of a crashed foreign writer must
 * not take the daemon down.
 */

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/expr_high.hpp"
#include "guard/governor.hpp"
#include "support/token.hpp"

namespace graphiti::guard {

/**
 * Canonical cache key: FNV-1a 64 over the printed circuits (printDot
 * is a canonical rendering — round-trips parseDot), every
 * verdict-relevant budget field, and the token domain.
 */
std::uint64_t verificationCacheKey(const ExprHigh& transformed,
                                   const ExprHigh& original,
                                   const VerificationBudget& budget,
                                   const std::vector<Token>& tokens);

/** @p key rendered the way reports and shard files spell it:
 * `0x` followed by 16 lower-case hex digits. */
std::string formatCacheKey(std::uint64_t key);

/** Rebuild a verdict from VerificationVerdict::toJson output. */
Result<VerificationVerdict> verdictFromJson(const obs::json::Value& v);

/** True when a verdict under @p budget may be memoized (no wall-clock
 * deadline — the verdict is deterministic). */
bool isCacheable(const VerificationBudget& budget);

/** Shape of one VerdictStore. */
struct VerdictStoreConfig
{
    /** Persistence directory; empty = memory-only. Created lazily. */
    std::string dir;
    /** Shard count (clamped to >= 1). More shards = less lock
     * contention and smaller rewrite units. */
    std::size_t shards = 8;
    /** LRU cap per shard; 0 = unbounded. */
    std::size_t max_entries_per_shard = 1024;
};

/** Counters of one store; see VerdictStore::stats. */
struct VerdictStoreStats
{
    std::size_t entries = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t corrupt_entries = 0;

    obs::json::Value toJson() const;
};

/** Sharded, LRU-bounded, crash-safe verdict store.
 *
 * lookup/store/approxBytes are virtual so the sandbox tier can stand
 * in a proxy: an isolated worker's Compiler talks to a subclass that
 * forwards over the worker socketpair, keeping every real store write
 * in the daemon parent where a dying child cannot tear it. */
class VerdictStore
{
  public:
    explicit VerdictStore(VerdictStoreConfig config = {});
    virtual ~VerdictStore() = default;

    /** Cached verdict for @p key; refreshes its LRU position and
     * counts a hit or a miss. */
    virtual std::optional<VerificationVerdict> lookup(std::uint64_t key);

    /**
     * Commit @p verdict under @p key (last store wins), evicting the
     * shard's coldest entry past the cap. With persistence on, the
     * shard file is atomically rewritten before returning — the
     * verdict survives a SIGKILL from here on.
     */
    virtual void store(std::uint64_t key,
                       const VerificationVerdict& verdict);

    /**
     * Load every shard file from the configured directory.
     * Corruption-tolerant: bad files/entries — including keys not
     * spelled exactly as formatCacheKey writes them and counts that
     * are not exact non-negative integers — are skipped and counted.
     * Returns the number of entries loaded.
     */
    Result<std::size_t> load();

    VerdictStoreStats stats() const;
    const VerdictStoreConfig& config() const { return config_; }

    /** Size-based byte estimate of all shards' verdicts + LRU lists
     * (resource accounting only). */
    virtual std::size_t approxBytes() const;

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        /** Most-recent first; entries hold iterators into this. */
        std::list<std::uint64_t> lru;
        struct Entry
        {
            VerificationVerdict verdict;
            std::list<std::uint64_t>::iterator lru_pos;
        };
        std::unordered_map<std::uint64_t, Entry> entries;
    };

    std::size_t shardOf(std::uint64_t key) const;
    std::string shardPath(std::size_t index) const;
    /** Serialize one shard; caller holds its mutex. */
    obs::json::Value shardJsonLocked(const Shard& shard) const;
    /** Persist one shard; caller holds its mutex. */
    void persistShardLocked(std::size_t index) const;

    VerdictStoreConfig config_;
    std::vector<Shard> shards_;
    mutable std::mutex stats_mutex_;
    mutable VerdictStoreStats stats_;
};

}  // namespace graphiti::guard

#endif  // GRAPHITI_GUARD_VERDICT_STORE_HPP

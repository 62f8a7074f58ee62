#ifndef GRAPHITI_GUARD_VERDICT_STORE_HPP
#define GRAPHITI_GUARD_VERDICT_STORE_HPP

/**
 * @file
 * Memoization of governed compiles: the store keys, the one entry
 * codec and the one store every lookup and commit goes through.
 *
 * The store holds two kinds of entry under 64-bit FNV-1a keys:
 *
 *   - a verdict: a governed verdict with deadline_seconds == 0 is a
 *     pure function of (transformed circuit, original circuit,
 *     budget, token domain), since the ladder is driven by
 *     deterministic state caps and seeds (docs/parallelism.md). Its
 *     key hashes exactly those inputs, so recompiling an unchanged
 *     circuit skips exploration entirely. Deadline-governed verdicts
 *     are wall-clock dependent and are never cached.
 *   - a compile entry: the OoO pipeline (figure 1) is a deterministic
 *     function of the input circuit, the tag count, the reexpand and
 *     validate switches and the rule catalog. Its key hashes exactly
 *     those (the catalog through catalogFingerprint), and the entry
 *     holds the output circuit plus the deterministic part of the
 *     compile report. A known input then costs a hash and a parse,
 *     not a rewrite pipeline, and the verdict key follows from the
 *     two printed circuits alone.
 *
 * Each Compiler owns a memory-only store unless it is handed a shared
 * one (Compiler::setVerdictStore) — the served daemon shares one
 * across requests (docs/service.md), optionally persisted to a
 * directory so entries survive restarts.
 *
 * Sharding: the top bits of the (already uniform) FNV-1a key pick a
 * shard; each shard has its own mutex, so concurrent jobs on
 * different keys never contend. Bounding: each shard keeps an LRU
 * list and evicts the coldest entry past its cap, so a daemon serving
 * millions of distinct circuits stays within a fixed memory budget.
 *
 * Crash safety: with a persistence directory configured, every put()
 * rewrites the owning shard's file via write-to-temp + rename(2) —
 * atomic on POSIX — so a SIGKILL at any instant leaves either the
 * previous complete file or the new complete file, never a torn one.
 * An entry is "committed" exactly when put() returns. Loading
 * tolerates corruption: an unparseable shard file or a malformed
 * entry is skipped and counted (`guard.verify.cache_corrupt`), never
 * fatal — a half-written frame of a crashed foreign writer must not
 * take the daemon down. Shard files written before compile entries
 * existed (verdict entries only) load unchanged.
 */

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "graph/expr_high.hpp"
#include "guard/diagnostics.hpp"
#include "guard/governor.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/ooo_pipeline.hpp"
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

/** The same key from the two circuits already printed by printDot,
 * for callers that hold the dot text: no re-printing. */
std::uint64_t verificationCacheKey(const std::string& transformed_dot,
                                   const std::string& original_dot,
                                   const VerificationBudget& budget,
                                   const std::vector<Token>& tokens);

/** Fingerprint of a rule catalog: FNV-1a 64 over each rule's name,
 * printed LHS and RHS, verified flag and passthrough wires, and
 * kOooPipelineVersion. Any rule edit changes it. */
std::uint64_t catalogFingerprint(const std::vector<RewriteDef>& rules);

/** catalogFingerprint(catalog::validatedRewrites()), the rules the
 * pipeline applies, computed once per process. */
std::uint64_t catalogFingerprint();

/**
 * Compile-entry key: FNV-1a 64 over the canonical input dot
 * (printDot of the parsed input), every option that shapes the
 * pipeline's output, and @p catalog_fingerprint.
 */
std::uint64_t compileCacheKey(const std::string& input_dot, int num_tags,
                              bool reexpand, bool validate,
                              std::uint64_t catalog_fingerprint);

/** @p key rendered the way reports and shard files spell it:
 * `0x` followed by 16 lower-case hex digits. */
std::string formatCacheKey(std::uint64_t key);

/** Rebuild a verdict from VerificationVerdict::toJson output. */
Result<VerificationVerdict> verdictFromJson(const obs::json::Value& v);

/** True when a verdict under @p budget may be memoized (no wall-clock
 * deadline — the verdict is deterministic). */
bool isCacheable(const VerificationBudget& budget);

/** What one compile of an input circuit produced, minus wall time:
 * the output circuit and the deterministic part of its report. */
struct CompileEntry
{
    std::string output_dot;
    std::vector<LoopTransformReport> loops;
    EngineStats rewrites;
    std::vector<RewriteRollback> rollbacks;
    ValidationReport validation;

    /** {"output_dot": …, "report": {loops, rewrites, rollbacks,
     * validation}}, each report field as CompileReport::toJson
     * renders it. */
    obs::json::Value toJson() const;
};

/** Loop reports as CompileReport::toJson renders them. */
obs::json::Value loopsToJson(const std::vector<LoopTransformReport>& loops);

/** Rolled-back rewrites as CompileReport::toJson renders them. */
obs::json::Value rollbacksToJson(const std::vector<RewriteRollback>& rollbacks);

/** One store entry. */
using StoreEntry = std::variant<VerificationVerdict, CompileEntry>;

/** Which kind of entry a lookup asks for (the variant index). */
enum class EntryKind
{
    Verdict = 0,
    Compile = 1,
};

EntryKind kindOf(const StoreEntry& entry);

/** "verdict" or "compile": the member an entry's payload is filed
 * under, and the kind a lookup frame names. */
const char* toString(EntryKind kind);

/**
 * The one entry codec. Shard-file entries and the sandbox link's
 * store frames both carry an entry as one member of an enclosing
 * object: "verdict" (VerificationVerdict::toJson) or "compile"
 * (CompileEntry::toJson). setEntryJson writes that member on
 * @p holder; entryFromJson reads it back and fails when @p holder
 * carries neither member, both, or a malformed one.
 */
void setEntryJson(obs::json::Value& holder, const StoreEntry& entry);
Result<StoreEntry> entryFromJson(const obs::json::Value& holder);

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
    /** Verdict lookups. */
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Compile-entry lookups. */
    std::size_t compile_hits = 0;
    std::size_t compile_misses = 0;
    std::size_t evictions = 0;
    std::size_t corrupt_entries = 0;

    obs::json::Value toJson() const;
};

/** Sharded, LRU-bounded, crash-safe store of verdicts and compile
 * entries.
 *
 * get/put/approxBytes are virtual so the sandbox tier can stand in a
 * proxy: an isolated worker's Compiler talks to a subclass that
 * forwards over the worker socketpair, keeping every real store write
 * in the daemon parent where a dying child cannot tear it. */
class VerdictStore
{
  public:
    explicit VerdictStore(VerdictStoreConfig config = {});
    virtual ~VerdictStore() = default;

    /** The entry of @p kind under @p key; refreshes its LRU position
     * and counts a hit or a miss of that kind. An entry of the other
     * kind under the same key is a miss. */
    virtual std::optional<StoreEntry> get(std::uint64_t key,
                                          EntryKind kind);

    /**
     * Commit @p entry under @p key (last put wins), evicting the
     * shard's coldest entry past the cap. With persistence on, the
     * shard file is atomically rewritten before returning — the
     * entry survives a SIGKILL from here on.
     */
    virtual void put(std::uint64_t key, const StoreEntry& entry);

    /** get/put of a verdict. */
    std::optional<VerificationVerdict> lookup(std::uint64_t key);
    void store(std::uint64_t key, const VerificationVerdict& verdict);

    /** get/put of a compile entry. */
    std::optional<CompileEntry> lookupCompile(std::uint64_t key);
    void storeCompile(std::uint64_t key, const CompileEntry& entry);

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

    /** Size-based byte estimate of all shards' entries + LRU lists
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
            StoreEntry entry;
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

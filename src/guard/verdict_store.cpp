#include "guard/verdict_store.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "dot/dot.hpp"
#include "obs/scope.hpp"

namespace graphiti::guard {

namespace {

std::uint64_t
fnv1a64(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64Double(std::uint64_t h, double d)
{
    // Doubles hash via a fixed decimal rendering, so the key does not
    // depend on in-memory bit patterns of equal-printing values.
    std::ostringstream os;
    os << d;
    return fnv1a64(h, os.str());
}

VerificationLevel
levelFromString(const std::string& name)
{
    if (name == "full")
        return VerificationLevel::Full;
    if (name == "bounded-partial")
        return VerificationLevel::BoundedPartial;
    if (name == "trace-inclusion")
        return VerificationLevel::TraceInclusion;
    return VerificationLevel::None;
}

std::string
fieldString(const obs::json::Value& v, const char* key)
{
    const obs::json::Value* f = v.find(key);
    return (f != nullptr && f->isString()) ? f->asString() : "";
}

/** Read count field @p key into @p out, which stays as it is when the
 * field is absent; false when the field is not an exact non-negative
 * integer. */
bool
readCount(const obs::json::Value& v, const char* key, std::size_t& out)
{
    const obs::json::Value* f = v.find(key);
    if (f == nullptr)
        return true;
    Result<std::uint64_t> n = obs::json::exactCount(*f);
    if (n.ok())
        out = static_cast<std::size_t>(n.value());
    return n.ok();
}

/** Size-based byte estimate of one verdict (strings deep, capacity
 * slack ignored). */
std::size_t
verdictApproxBytes(const VerificationVerdict& verdict)
{
    return sizeof(VerificationVerdict) +
           verdict.degradation_reason.size() +
           verdict.counterexample.size() +
           verdict.report.counterexample.size();
}

}  // namespace

std::uint64_t
verificationCacheKey(const ExprHigh& transformed,
                     const ExprHigh& original,
                     const VerificationBudget& budget,
                     const std::vector<Token>& tokens)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a64(h, printDot(transformed));
    h = fnv1a64(h, printDot(original));
    h = fnv1a64Double(h, budget.deadline_seconds);
    h = fnv1a64(h, budget.max_states);
    h = fnv1a64(h, budget.partial_max_states);
    h = fnv1a64(h, budget.input_budget);
    h = fnv1a64(h, budget.trace_walks);
    h = fnv1a64(h, budget.trace.max_steps);
    h = fnv1a64Double(h, budget.trace.input_bias);
    h = fnv1a64(h, budget.trace.max_inputs);
    h = fnv1a64(h, budget.seed);
    h = fnv1a64(h, tokens.size());
    for (const Token& token : tokens)
        h = fnv1a64(h, token.toString());
    return h;
}

std::string
formatCacheKey(std::uint64_t key)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

bool
isCacheable(const VerificationBudget& budget)
{
    return budget.deadline_seconds == 0.0;
}

Result<VerificationVerdict>
verdictFromJson(const obs::json::Value& v)
{
    if (!v.isObject())
        return err("verdict JSON is not an object");
    const obs::json::Value* level = v.find("level");
    const obs::json::Value* ok = v.find("ok");
    if (level == nullptr || !level->isString() || ok == nullptr ||
        !ok->isBool())
        return err("verdict JSON lacks level/ok");
    VerificationVerdict verdict;
    verdict.level = levelFromString(level->asString());
    verdict.ok = ok->asBool();
    const obs::json::Value* refines = v.find("refines");
    verdict.refines = refines != nullptr && refines->isBool() &&
                      refines->asBool();
    verdict.degradation_reason = fieldString(v, "degradation_reason");
    verdict.counterexample = fieldString(v, "counterexample");
    if (const obs::json::Value* game = v.find("game")) {
        RefinementReport& report = verdict.report;
        if (!readCount(*game, "impl_states", report.impl_states) ||
            !readCount(*game, "spec_states", report.spec_states) ||
            !readCount(*game, "reachable_pairs", report.reachable_pairs) ||
            !readCount(*game, "fixpoint_iterations",
                       report.fixpoint_iterations))
            return err("verdict JSON has a malformed game count");
        // toJson does not serialize the game-side duplicates; restore
        // them consistently with how the compiler consumes verdicts.
        report.refines = verdict.ok;
        report.counterexample = verdict.counterexample;
    }
    if (!readCount(v, "trace_walks_run", verdict.trace_walks_run))
        return err("verdict JSON has a malformed trace_walks_run");
    return verdict;
}

obs::json::Value
VerdictStoreStats::toJson() const
{
    obs::json::Value out{obs::json::Object{}};
    out.set("entries", entries);
    out.set("hits", hits);
    out.set("misses", misses);
    out.set("evictions", evictions);
    out.set("corrupt_entries", corrupt_entries);
    return out;
}

VerdictStore::VerdictStore(VerdictStoreConfig config)
    : config_(std::move(config)),
      shards_(std::max<std::size_t>(config_.shards, 1))
{
    config_.shards = shards_.size();
}

std::size_t
VerdictStore::shardOf(std::uint64_t key) const
{
    // Top bits: the FNV key is uniform, and the low bits already pick
    // hash buckets inside the shard map.
    return (key >> 48) % shards_.size();
}

std::string
VerdictStore::shardPath(std::size_t index) const
{
    return config_.dir + "/verdicts-" + std::to_string(index) +
           ".json";
}

std::optional<VerificationVerdict>
VerdictStore::lookup(std::uint64_t key)
{
    Shard& shard = shards_[shardOf(key)];
    std::optional<VerificationVerdict> found;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        if (it != shard.entries.end()) {
            shard.lru.erase(it->second.lru_pos);
            shard.lru.push_front(key);
            it->second.lru_pos = shard.lru.begin();
            found = it->second.verdict;
        }
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (found)
        ++stats_.hits;
    else
        ++stats_.misses;
    return found;
}

void
VerdictStore::store(std::uint64_t key,
                    const VerificationVerdict& verdict)
{
    std::size_t index = shardOf(key);
    Shard& shard = shards_[index];
    std::size_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        if (it != shard.entries.end()) {
            it->second.verdict = verdict;
            shard.lru.erase(it->second.lru_pos);
            shard.lru.push_front(key);
            it->second.lru_pos = shard.lru.begin();
        } else {
            shard.lru.push_front(key);
            shard.entries.emplace(
                key, Shard::Entry{verdict, shard.lru.begin()});
            while (config_.max_entries_per_shard > 0 &&
                   shard.entries.size() >
                       config_.max_entries_per_shard) {
                std::uint64_t coldest = shard.lru.back();
                shard.lru.pop_back();
                shard.entries.erase(coldest);
                ++evicted;
            }
        }
        if (!config_.dir.empty())
            persistShardLocked(index);
    }
    if (evicted > 0) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.evictions += evicted;
        GRAPHITI_OBS_COUNT("guard.verify.store_evictions",
                           static_cast<std::int64_t>(evicted));
    }
}

obs::json::Value
VerdictStore::shardJsonLocked(const Shard& shard) const
{
    namespace json = obs::json;
    json::Value out{json::Object{}};
    out.set("version", 1);
    json::Value arr{json::Array{}};
    // Dump in LRU order (hottest first), so a bounded reload under a
    // smaller cap keeps the hottest entries.
    for (std::uint64_t key : shard.lru) {
        auto it = shard.entries.find(key);
        json::Value entry{json::Object{}};
        entry.set("key", formatCacheKey(key));
        entry.set("verdict", it->second.verdict.toJson());
        arr.push(std::move(entry));
    }
    out.set("entries", std::move(arr));
    return out;
}

void
VerdictStore::persistShardLocked(std::size_t index) const
{
    ::mkdir(config_.dir.c_str(), 0755);  // EEXIST is fine
    Result<bool> wrote = obs::json::writeFileAtomic(
        shardPath(index), shardJsonLocked(shards_[index]));
    if (!wrote.ok())
        GRAPHITI_OBS_COUNT("guard.verify.store_persist_errors", 1);
}

Result<std::size_t>
VerdictStore::load()
{
    if (config_.dir.empty())
        return std::size_t{0};
    std::size_t loaded = 0;
    std::size_t corrupt = 0;
    for (std::size_t index = 0; index < shards_.size(); ++index) {
        std::ifstream in(shardPath(index));
        if (!in)
            continue;  // missing shard file: empty shard
        std::ostringstream text;
        text << in.rdbuf();
        Result<obs::json::Value> parsed = obs::json::parse(text.str());
        if (!parsed.ok()) {
            ++corrupt;  // torn or foreign file: skip the whole shard
            continue;
        }
        const obs::json::Value* entries =
            parsed.value().find("entries");
        if (entries == nullptr || !entries->isArray()) {
            ++corrupt;
            continue;
        }
        Shard& shard = shards_[index];
        std::lock_guard<std::mutex> lock(shard.mutex);
        // File is hottest-first; iterate in reverse so push_front
        // rebuilds the same LRU order.
        const obs::json::Array& arr = entries->asArray();
        for (auto it = arr.rbegin(); it != arr.rend(); ++it) {
            const obs::json::Value* key = it->find("key");
            const obs::json::Value* verdict = it->find("verdict");
            Result<VerificationVerdict> decoded =
                (key != nullptr && key->isString() && verdict != nullptr)
                    ? verdictFromJson(*verdict)
                    : err("malformed entry");
            if (!decoded.ok()) {
                ++corrupt;
                continue;
            }
            std::uint64_t parsed_key = std::strtoull(
                key->asString().c_str(), nullptr, 16);
            if (formatCacheKey(parsed_key) != key->asString()) {
                ++corrupt;  // not a key this store ever wrote
                continue;
            }
            if (shardOf(parsed_key) != index) {
                ++corrupt;  // entry filed under the wrong shard
                continue;
            }
            auto existing = shard.entries.find(parsed_key);
            if (existing != shard.entries.end())
                continue;  // in-memory entries win
            shard.lru.push_front(parsed_key);
            shard.entries.emplace(
                parsed_key,
                Shard::Entry{decoded.take(), shard.lru.begin()});
            ++loaded;
            while (config_.max_entries_per_shard > 0 &&
                   shard.entries.size() >
                       config_.max_entries_per_shard) {
                std::uint64_t coldest = shard.lru.back();
                shard.lru.pop_back();
                shard.entries.erase(coldest);
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.corrupt_entries += corrupt;
    }
    GRAPHITI_OBS_COUNT("guard.verify.cache_corrupt",
                       static_cast<std::int64_t>(corrupt));
    return loaded;
}

VerdictStoreStats
VerdictStore::stats() const
{
    VerdictStoreStats out;
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        out = stats_;
    }
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        out.entries += shard.entries.size();
    }
    return out;
}

std::size_t
VerdictStore::approxBytes() const
{
    constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
    std::size_t bytes = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (const auto& [key, entry] : shard.entries)
            bytes += sizeof(key) + verdictApproxBytes(entry.verdict) +
                     sizeof(entry.lru_pos) + kNodeOverhead;
        bytes += shard.entries.bucket_count() * sizeof(void*);
        // LRU list: one key + two links per node.
        bytes += shard.lru.size() *
                 (sizeof(std::uint64_t) + 2 * sizeof(void*));
    }
    return bytes;
}

}  // namespace graphiti::guard

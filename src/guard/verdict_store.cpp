#include "guard/verdict_store.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <sys/stat.h>

#include "dot/dot.hpp"
#include "obs/scope.hpp"
#include "rewrite/catalog.hpp"

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

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** A string field of a longer key: its length first, so adjacent
 * fields cannot trade bytes. */
std::uint64_t
fnv1a64Field(std::uint64_t h, const std::string& s)
{
    return fnv1a64(fnv1a64(h, s.size()), s);
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

/** Read required string field @p key into @p out; false when it is
 * absent or not a string. */
bool
readString(const obs::json::Value& v, const char* key, std::string& out)
{
    const obs::json::Value* f = v.find(key);
    if (f == nullptr || !f->isString())
        return false;
    out = f->asString();
    return true;
}

/** readCount for a field that must be present. */
bool
readRequiredCount(const obs::json::Value& v, const char* key,
                  std::size_t& out)
{
    return v.find(key) != nullptr && readCount(v, key, out);
}

Result<std::vector<LoopTransformReport>>
loopsFromJson(const obs::json::Value& v)
{
    if (!v.isArray())
        return err("loops is not an array");
    std::vector<LoopTransformReport> loops;
    for (const obs::json::Value& entry : v.asArray()) {
        LoopTransformReport loop;
        const obs::json::Value* transformed = entry.find("transformed");
        if (!readString(entry, "header_mux", loop.header_mux) ||
            transformed == nullptr || !transformed->isBool())
            return err("malformed loop report");
        loop.transformed = transformed->asBool();
        if (entry.find("refusal") != nullptr &&
            !readString(entry, "refusal", loop.refusal))
            return err("malformed loop refusal");
        if (loop.transformed) {
            std::size_t latency = 0;
            if (!readString(entry, "body_fn", loop.body_fn) ||
                !readRequiredCount(entry, "body_latency", latency) ||
                !readRequiredCount(entry, "term_size_before",
                                   loop.term_size_before) ||
                !readRequiredCount(entry, "term_size_after",
                                   loop.term_size_after) ||
                latency > static_cast<std::size_t>(
                              std::numeric_limits<int>::max()))
                return err("malformed transformed-loop report");
            loop.body_latency = static_cast<int>(latency);
        }
        loops.push_back(std::move(loop));
    }
    return loops;
}

Result<EngineStats>
engineStatsFromJson(const obs::json::Value& v)
{
    EngineStats stats;
    const obs::json::Value* rules = v.find("per_rule");
    if (!readRequiredCount(v, "rewrites_applied", stats.rewrites_applied) ||
        rules == nullptr || !rules->isObject())
        return err("malformed rewrite counts");
    for (const auto& [rule, count] : rules->asObject()) {
        Result<std::uint64_t> n = obs::json::exactCount(count);
        if (!n.ok())
            return err("malformed per-rule count");
        stats.per_rule[rule] = static_cast<std::size_t>(n.value());
    }
    return stats;
}

Result<std::vector<RewriteRollback>>
rollbacksFromJson(const obs::json::Value& v)
{
    if (!v.isArray())
        return err("rollbacks is not an array");
    std::vector<RewriteRollback> rollbacks;
    for (const obs::json::Value& entry : v.asArray()) {
        RewriteRollback rollback;
        if (!readString(entry, "rule", rollback.rule) ||
            !readString(entry, "reason", rollback.reason))
            return err("malformed rollback");
        rollbacks.push_back(std::move(rollback));
    }
    return rollbacks;
}

Result<ValidationReport>
validationFromJson(const obs::json::Value& v)
{
    const obs::json::Value* diagnostics = v.find("diagnostics");
    if (diagnostics == nullptr || !diagnostics->isArray())
        return err("malformed validation report");
    ValidationReport report;
    for (const obs::json::Value& entry : diagnostics->asArray()) {
        std::string severity, rule, component, message;
        if (!readString(entry, "severity", severity) ||
            (severity != toString(Severity::Error) &&
             severity != toString(Severity::Warning)) ||
            !readString(entry, "rule", rule) ||
            !readString(entry, "message", message) ||
            (entry.find("component") != nullptr &&
             !readString(entry, "component", component)))
            return err("malformed diagnostic");
        report.add(severity == toString(Severity::Error)
                       ? Severity::Error
                       : Severity::Warning,
                   std::move(rule), std::move(component),
                   std::move(message));
    }
    return report;
}

/** Size-based byte estimate of one entry (strings deep, capacity
 * slack ignored). */
std::size_t
entryApproxBytes(const StoreEntry& entry)
{
    if (const auto* verdict = std::get_if<VerificationVerdict>(&entry))
        return sizeof(StoreEntry) + verdict->degradation_reason.size() +
               verdict->counterexample.size() +
               verdict->report.counterexample.size();
    const CompileEntry& compiled = std::get<CompileEntry>(entry);
    std::size_t bytes = sizeof(StoreEntry) + compiled.output_dot.size();
    for (const LoopTransformReport& loop : compiled.loops)
        bytes += sizeof(loop) + loop.header_mux.size() +
                 loop.refusal.size() + loop.body_fn.size();
    for (const auto& [rule, count] : compiled.rewrites.per_rule)
        bytes += rule.size() + sizeof(count) + 4 * sizeof(void*);
    for (const RewriteRollback& rollback : compiled.rollbacks)
        bytes += sizeof(rollback) + rollback.rule.size() +
                 rollback.reason.size();
    for (const Diagnostic& d : compiled.validation.diagnostics())
        bytes += sizeof(d) + d.rule.size() + d.component.size() +
                 d.message.size();
    return bytes;
}

}  // namespace

std::uint64_t
verificationCacheKey(const ExprHigh& transformed,
                     const ExprHigh& original,
                     const VerificationBudget& budget,
                     const std::vector<Token>& tokens)
{
    return verificationCacheKey(printDot(transformed), printDot(original),
                                budget, tokens);
}

std::uint64_t
verificationCacheKey(const std::string& transformed_dot,
                     const std::string& original_dot,
                     const VerificationBudget& budget,
                     const std::vector<Token>& tokens)
{
    std::uint64_t h = kFnvOffset;
    h = fnv1a64(h, transformed_dot);
    h = fnv1a64(h, original_dot);
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

std::uint64_t
catalogFingerprint(const std::vector<RewriteDef>& rules)
{
    std::uint64_t h = fnv1a64(kFnvOffset, static_cast<std::uint64_t>(
                                              kOooPipelineVersion));
    h = fnv1a64(h, rules.size());
    for (const RewriteDef& rule : rules) {
        h = fnv1a64Field(h, rule.name);
        h = fnv1a64Field(h, printDot(rule.lhs));
        h = fnv1a64Field(h, printDot(rule.rhs));
        h = fnv1a64(h, rule.verified ? 1 : 0);
        h = fnv1a64(h, rule.passthrough.size());
        for (const auto& [in, out] : rule.passthrough)
            h = fnv1a64(fnv1a64(h, in), out);
    }
    return h;
}

std::uint64_t
catalogFingerprint()
{
    static const std::uint64_t fingerprint =
        catalogFingerprint(catalog::validatedRewrites());
    return fingerprint;
}

std::uint64_t
compileCacheKey(const std::string& input_dot, int num_tags,
                bool reexpand, bool validate,
                std::uint64_t catalog_fingerprint)
{
    // The leading tag keeps compile keys apart from verdict keys.
    std::uint64_t h = fnv1a64Field(kFnvOffset, "compile");
    h = fnv1a64(h, catalog_fingerprint);
    h = fnv1a64Field(h, input_dot);
    h = fnv1a64(h, static_cast<std::uint64_t>(num_tags));
    h = fnv1a64(h, reexpand ? 1 : 0);
    h = fnv1a64(h, validate ? 1 : 0);
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
loopsToJson(const std::vector<LoopTransformReport>& loops)
{
    namespace json = obs::json;
    json::Value out{json::Array{}};
    for (const LoopTransformReport& loop : loops) {
        json::Value entry{json::Object{}};
        entry.set("header_mux", loop.header_mux);
        entry.set("transformed", loop.transformed);
        if (!loop.refusal.empty())
            entry.set("refusal", loop.refusal);
        if (loop.transformed) {
            entry.set("body_fn", loop.body_fn);
            entry.set("body_latency", loop.body_latency);
            entry.set("term_size_before", loop.term_size_before);
            entry.set("term_size_after", loop.term_size_after);
        }
        out.push(std::move(entry));
    }
    return out;
}

obs::json::Value
rollbacksToJson(const std::vector<RewriteRollback>& rollbacks)
{
    namespace json = obs::json;
    json::Value out{json::Array{}};
    for (const RewriteRollback& rb : rollbacks) {
        json::Value entry{json::Object{}};
        entry.set("rule", rb.rule);
        entry.set("reason", rb.reason);
        out.push(std::move(entry));
    }
    return out;
}

obs::json::Value
CompileEntry::toJson() const
{
    obs::json::Value report{obs::json::Object{}};
    report.set("rewrites", rewrites.toJson());
    report.set("loops", loopsToJson(loops));
    report.set("validation", validation.toJson());
    report.set("rollbacks", rollbacksToJson(rollbacks));
    obs::json::Value out{obs::json::Object{}};
    out.set("output_dot", output_dot);
    out.set("report", std::move(report));
    return out;
}

namespace {

/** Rebuild a compile entry from CompileEntry::toJson output. */
Result<CompileEntry>
compileEntryFromJson(const obs::json::Value& v)
{
    CompileEntry entry;
    const obs::json::Value* report = v.find("report");
    if (!readString(v, "output_dot", entry.output_dot) ||
        report == nullptr || !report->isObject())
        return err("compile entry lacks output_dot/report");
    const obs::json::Value* loops = report->find("loops");
    const obs::json::Value* rewrites = report->find("rewrites");
    const obs::json::Value* rollbacks = report->find("rollbacks");
    const obs::json::Value* validation = report->find("validation");
    if (loops == nullptr || rewrites == nullptr ||
        rollbacks == nullptr || validation == nullptr)
        return err("compile entry report lacks a field");
    Result<std::vector<LoopTransformReport>> loop_reports =
        loopsFromJson(*loops);
    Result<EngineStats> stats = engineStatsFromJson(*rewrites);
    Result<std::vector<RewriteRollback>> vetoed =
        rollbacksFromJson(*rollbacks);
    Result<ValidationReport> validated = validationFromJson(*validation);
    if (!loop_reports.ok())
        return loop_reports.error();
    if (!stats.ok())
        return stats.error();
    if (!vetoed.ok())
        return vetoed.error();
    if (!validated.ok())
        return validated.error();
    entry.loops = loop_reports.take();
    entry.rewrites = stats.take();
    entry.rollbacks = vetoed.take();
    entry.validation = validated.take();
    return entry;
}

}  // namespace

EntryKind
kindOf(const StoreEntry& entry)
{
    return static_cast<EntryKind>(entry.index());
}

const char*
toString(EntryKind kind)
{
    return kind == EntryKind::Compile ? "compile" : "verdict";
}

void
setEntryJson(obs::json::Value& holder, const StoreEntry& entry)
{
    if (const auto* verdict = std::get_if<VerificationVerdict>(&entry))
        holder.set(toString(EntryKind::Verdict), verdict->toJson());
    else
        holder.set(toString(EntryKind::Compile),
                   std::get<CompileEntry>(entry).toJson());
}

Result<StoreEntry>
entryFromJson(const obs::json::Value& holder)
{
    const obs::json::Value* verdict =
        holder.find(toString(EntryKind::Verdict));
    const obs::json::Value* compiled =
        holder.find(toString(EntryKind::Compile));
    if ((verdict == nullptr) == (compiled == nullptr))
        return err("store entry carries no payload or two");
    if (verdict != nullptr) {
        Result<VerificationVerdict> decoded = verdictFromJson(*verdict);
        if (!decoded.ok())
            return decoded.error();
        return StoreEntry{decoded.take()};
    }
    Result<CompileEntry> decoded = compileEntryFromJson(*compiled);
    if (!decoded.ok())
        return decoded.error();
    return StoreEntry{decoded.take()};
}

obs::json::Value
VerdictStoreStats::toJson() const
{
    obs::json::Value out{obs::json::Object{}};
    out.set("entries", entries);
    out.set("hits", hits);
    out.set("misses", misses);
    out.set("compile_hits", compile_hits);
    out.set("compile_misses", compile_misses);
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

std::optional<StoreEntry>
VerdictStore::get(std::uint64_t key, EntryKind kind)
{
    Shard& shard = shards_[shardOf(key)];
    std::optional<StoreEntry> found;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        if (it != shard.entries.end() && kindOf(it->second.entry) == kind) {
            shard.lru.erase(it->second.lru_pos);
            shard.lru.push_front(key);
            it->second.lru_pos = shard.lru.begin();
            found = it->second.entry;
        }
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    bool verdict = kind == EntryKind::Verdict;
    if (found)
        ++(verdict ? stats_.hits : stats_.compile_hits);
    else
        ++(verdict ? stats_.misses : stats_.compile_misses);
    return found;
}

void
VerdictStore::put(std::uint64_t key, const StoreEntry& entry)
{
    std::size_t index = shardOf(key);
    Shard& shard = shards_[index];
    std::size_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(key);
        if (it != shard.entries.end()) {
            it->second.entry = entry;
            shard.lru.erase(it->second.lru_pos);
            shard.lru.push_front(key);
            it->second.lru_pos = shard.lru.begin();
        } else {
            shard.lru.push_front(key);
            shard.entries.emplace(
                key, Shard::Entry{entry, shard.lru.begin()});
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

std::optional<VerificationVerdict>
VerdictStore::lookup(std::uint64_t key)
{
    std::optional<StoreEntry> found = get(key, EntryKind::Verdict);
    if (!found)
        return std::nullopt;
    auto* verdict = std::get_if<VerificationVerdict>(&*found);
    if (verdict == nullptr)
        return std::nullopt;
    return std::move(*verdict);
}

void
VerdictStore::store(std::uint64_t key, const VerificationVerdict& verdict)
{
    put(key, StoreEntry{verdict});
}

std::optional<CompileEntry>
VerdictStore::lookupCompile(std::uint64_t key)
{
    std::optional<StoreEntry> found = get(key, EntryKind::Compile);
    if (!found)
        return std::nullopt;
    auto* compiled = std::get_if<CompileEntry>(&*found);
    if (compiled == nullptr)
        return std::nullopt;
    return std::move(*compiled);
}

void
VerdictStore::storeCompile(std::uint64_t key, const CompileEntry& entry)
{
    put(key, StoreEntry{entry});
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
        setEntryJson(entry, it->second.entry);
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
            Result<StoreEntry> decoded =
                (key != nullptr && key->isString())
                    ? entryFromJson(*it)
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
            bytes += sizeof(key) + entryApproxBytes(entry.entry) +
                     sizeof(entry.lru_pos) + kNodeOverhead;
        bytes += shard.entries.bucket_count() * sizeof(void*);
        // LRU list: one key + two links per node.
        bytes += shard.lru.size() *
                 (sizeof(std::uint64_t) + 2 * sizeof(void*));
    }
    return bytes;
}

}  // namespace graphiti::guard

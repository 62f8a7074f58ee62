/**
 * @file
 * Tests of the compile service (label: served).
 *
 * The contracts under test (docs/service.md):
 *   - framing: length-prefixed JSON round-trips; truncation, junk and
 *     oversized lengths are structured errors, never hangs;
 *   - byte identity: a verdict served by the daemon is byte-identical
 *     to the one the same request produces in-process through
 *     Compiler::compileGraph, benchmark by benchmark; a request still
 *     carrying the retired "threads" option or frontier spill cap
 *     gets the same verdict and cache key;
 *   - wire integers: ids and budget counts that are not exact
 *     non-negative integers are rejected, never cast;
 *   - overload honesty: a flood beyond queue capacity sheds with
 *     status "rejected" and a retry_after hint — nothing hangs,
 *     nothing is silently dropped;
 *   - compile entries: a repeat request, or one with a fresh budget
 *     salt, reuses the stored compile and answers with the same
 *     result JSON, or the verdict a store-less compile computes;
 *     compile entries persist beside verdicts, and malformed ones are
 *     skipped and counted;
 *   - crash safety: verdicts committed before kill() are cache hits
 *     after a restart from the same store directory;
 *   - misbehaving clients (half-written frames, junk payloads,
 *     mid-job disconnects, deadline-zero floods) never take the
 *     daemon down for the healthy ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "core/job.hpp"
#include "dot/dot.hpp"
#include "faults/connection_plan.hpp"
#include "faults/fault_plan.hpp"
#include "guard/verdict_store.hpp"
#include "obs/latency.hpp"
#include "served/client.hpp"
#include "served/daemon.hpp"
#include "served/protocol.hpp"
#include "served/scheduler.hpp"
#include "support/backoff.hpp"
#include "support/socket.hpp"

namespace graphiti {
namespace {

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

/** A short unix-socket path unique to this process and @p tag (unix
 * socket paths are limited to ~108 bytes, so keep it in /tmp). */
std::string
socketPath(const std::string& tag)
{
    return "/tmp/graphiti-test-" + tag + "-" +
           std::to_string(::getpid()) + ".sock";
}

/** The test-suite verification budget: tight enough that even the big
 * benchmark circuits finish in milliseconds (the ladder degrades —
 * determinism, not assurance depth, is what these tests pin down). */
CompileOptions
tightOptions()
{
    CompileOptions options;
    options.governed_verify = true;
    options.verify_budget.max_states = 800;
    options.verify_budget.partial_max_states = 300;
    options.verify_budget.input_budget = 1;
    options.verify_budget.trace_walks = 2;
    options.verify_budget.trace.max_steps = 60;
    options.verify_budget.trace.max_inputs = 2;
    return options;
}

JobSpec
verifySpec(const std::string& dot, int num_tags = 4)
{
    JobSpec spec;
    spec.kind = "verify";
    spec.circuit_dot = dot;
    spec.options = tightOptions();
    spec.options.num_tags = num_tags;
    return spec;
}

std::string
gcdDot()
{
    return printDot(circuits::buildGcdInOrder());
}

/** A synthetic verdict distinguishable by @p salt. */
guard::VerificationVerdict
syntheticVerdict(std::uint64_t salt)
{
    guard::VerificationVerdict verdict;
    verdict.level = guard::VerificationLevel::BoundedPartial;
    verdict.ok = true;
    verdict.degradation_reason = "synthetic-" + std::to_string(salt);
    verdict.report.impl_states = salt;
    verdict.report.spec_states = salt + 1;
    return verdict;
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/** A connected (server, client) unix-socket pair. */
struct SocketPair
{
    net::Socket server;
    net::Socket client;

    explicit SocketPair(const std::string& tag)
    {
        std::string path = socketPath(tag);
        Result<net::Socket> listener = net::listenUnix(path);
        EXPECT_TRUE(listener.ok()) << listener.error().message;
        Result<net::Socket> connected = net::connectUnix(path);
        EXPECT_TRUE(connected.ok()) << connected.error().message;
        client = connected.take();
        Result<net::Socket> accepted =
            net::acceptConnection(listener.value(), 2000);
        EXPECT_TRUE(accepted.ok() && accepted.value().valid());
        server = accepted.take();
        std::remove(path.c_str());
    }
};

TEST(ServedProtocol, FramesRoundTripIncludingEmptyPayload)
{
    SocketPair pair("frame-rt");
    for (const std::string payload :
         {std::string("{\"id\":1}"), std::string(""),
          std::string(4096, 'x')}) {
        Result<bool> sent =
            served::writeFrame(pair.client, payload, 1000);
        ASSERT_TRUE(sent.ok()) << sent.error().message;
        std::string received;
        Result<bool> got =
            served::readFrame(pair.server, received, 1000);
        ASSERT_TRUE(got.ok()) << got.error().message;
        EXPECT_TRUE(got.value());
        EXPECT_EQ(received, payload);
    }
}

TEST(ServedProtocol, CleanEofIsFalseNotError)
{
    SocketPair pair("frame-eof");
    pair.client.close();
    std::string received;
    Result<bool> got = served::readFrame(pair.server, received, 1000);
    ASSERT_TRUE(got.ok()) << got.error().message;
    EXPECT_FALSE(got.value());  // peer done before the first byte
}

TEST(ServedProtocol, TruncatedFrameIsAnError)
{
    SocketPair pair("frame-trunc");
    std::string frame = served::encodeFrame("{\"id\":42}");
    ASSERT_GT(frame.size(), 5u);
    // Half the header plus one payload byte, then hang up.
    net::writeAll(pair.client, frame.substr(0, 5), 1000);
    pair.client.close();
    std::string received;
    Result<bool> got = served::readFrame(pair.server, received, 1000);
    EXPECT_FALSE(got.ok());
}

TEST(ServedProtocol, OversizedLengthRejectedBeforeAllocation)
{
    SocketPair pair("frame-big");
    // A header claiming kMaxFrameBytes + 1 bytes follow.
    std::uint32_t claimed =
        static_cast<std::uint32_t>(served::kMaxFrameBytes) + 1;
    std::string header(4, '\0');
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<char>((claimed >> (24 - 8 * i)) & 0xff);
    net::writeAll(pair.client, header, 1000);
    std::string received;
    Result<bool> got = served::readFrame(pair.server, received, 1000);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().message.find("frame"), std::string::npos);
}

TEST(ServedProtocol, RequestAndResponseJsonRoundTrip)
{
    served::JobRequest request;
    request.id = 7;
    request.job = obs::json::Value{obs::json::Object{}};
    request.job.set("kind", "ping");
    request.deadline_seconds = 1.5;
    request.client = "alice";
    Result<served::JobRequest> request_back =
        served::jobRequestFromJson(request.toJson());
    ASSERT_TRUE(request_back.ok()) << request_back.error().message;
    EXPECT_EQ(request_back.value().id, 7u);
    EXPECT_EQ(request_back.value().deadline_seconds, 1.5);
    EXPECT_EQ(request_back.value().client, "alice");
    EXPECT_EQ(request_back.value().job.dump(), request.job.dump());

    served::JobResponse response;
    response.id = 7;
    response.status = "rejected";
    response.error = "queue full";
    response.retry_after_ms = 125.0;
    response.artifact = "{\"wedged\":true}";
    Result<served::JobResponse> response_back =
        served::jobResponseFromJson(response.toJson());
    ASSERT_TRUE(response_back.ok()) << response_back.error().message;
    EXPECT_EQ(response_back.value().id, 7u);
    EXPECT_EQ(response_back.value().status, "rejected");
    EXPECT_EQ(response_back.value().error, "queue full");
    EXPECT_EQ(response_back.value().retry_after_ms, 125.0);
    EXPECT_EQ(response_back.value().artifact, "{\"wedged\":true}");
    EXPECT_FALSE(response_back.value().ok());
}

TEST(ServedProtocol, InexactIntegersAreRejectedNotCast)
{
    // A double cast to an integer wraps or truncates: 1e300 would
    // become 0 ("full check skipped"), 2.5 would become 2, and 2^53+1
    // already parses as 2^53. Each must be an error instead.
    for (const char* bad :
         {"1e300", "2.5", "9007199254740993", "-1", "\"7\"", "null"}) {
        std::string text = bad;
        Result<obs::json::Value> options = obs::json::parse(
            "{\"budget\":{\"max_states\":" + text + "}}");
        ASSERT_TRUE(options.ok()) << text;
        EXPECT_FALSE(compileOptionsFromJson(options.value()).ok())
            << "budget max_states " << text;

        Result<obs::json::Value> request = obs::json::parse(
            "{\"id\":" + text + ",\"job\":{\"kind\":\"ping\"}}");
        ASSERT_TRUE(request.ok()) << text;
        EXPECT_FALSE(served::jobRequestFromJson(request.value()).ok())
            << "request id " << text;

        Result<obs::json::Value> response = obs::json::parse(
            "{\"id\":" + text + ",\"status\":\"ok\"}");
        ASSERT_TRUE(response.ok()) << text;
        EXPECT_FALSE(served::jobResponseFromJson(response.value()).ok())
            << "response id " << text;
    }
    // The largest exact count still parses, unchanged.
    Result<obs::json::Value> edge = obs::json::parse(
        "{\"id\":9007199254740991,\"job\":{\"kind\":\"ping\"}}");
    ASSERT_TRUE(edge.ok());
    Result<served::JobRequest> request =
        served::jobRequestFromJson(edge.value());
    ASSERT_TRUE(request.ok()) << request.error().message;
    EXPECT_EQ(request.value().id, 9007199254740991u);
}

// ---------------------------------------------------------------------
// Backoff.
// ---------------------------------------------------------------------

TEST(ServedBackoff, SeededScheduleReplaysExactly)
{
    BackoffPolicy policy;
    policy.base_ms = 10.0;
    policy.cap_ms = 500.0;
    Rng a(0xbacc0ff), b(0xbacc0ff);
    for (std::size_t attempt = 0; attempt < 8; ++attempt) {
        double da = backoffDelayMs(policy, attempt, a);
        double db = backoffDelayMs(policy, attempt, b);
        EXPECT_EQ(da, db) << "attempt " << attempt;
        EXPECT_LE(da, policy.cap_ms);
        EXPECT_GE(da, 0.0);
    }
}

TEST(ServedBackoff, ServerHintRaisesTheFloorAndCapBoundsTheCeiling)
{
    BackoffPolicy policy;
    policy.base_ms = 1.0;
    policy.cap_ms = 64.0;
    Rng rng(1);
    // With base 1ms the jittered draw for attempt 0 is < 1ms; a 200ms
    // hint must win.
    EXPECT_GE(backoffDelayMs(policy, 0, rng, 200.0), 200.0);
    // Deep attempts never exceed the cap (absent a larger hint).
    for (std::size_t attempt = 0; attempt < 40; ++attempt)
        EXPECT_LE(backoffDelayMs(policy, attempt, rng), policy.cap_ms);
}

// ---------------------------------------------------------------------
// Admission and fair share (pure policy).
// ---------------------------------------------------------------------

TEST(ServedAdmission, ShedsExactlyWhenTheQueueIsFull)
{
    served::AdmissionState state;
    state.queue_capacity = 4;
    state.workers = 2;

    state.queued = 3;
    EXPECT_TRUE(served::admitJob(state).admit);
    state.queued = 4;
    served::AdmissionDecision shed = served::admitJob(state);
    EXPECT_FALSE(shed.admit);
    EXPECT_FALSE(shed.reason.empty());
    EXPECT_GT(shed.retry_after_ms, 0.0);

    // Capacity 0 = unlimited queue: never sheds.
    state.queue_capacity = 0;
    state.queued = 10000;
    EXPECT_TRUE(served::admitJob(state).admit);
}

TEST(ServedAdmission, RetryAfterScalesWithBacklog)
{
    served::AdmissionState shallow;
    shallow.queue_capacity = 2;
    shallow.queued = 2;
    shallow.workers = 2;
    shallow.estimated_job_ms = 50.0;
    served::AdmissionState deep = shallow;
    deep.queue_capacity = 16;
    deep.queued = 16;
    EXPECT_GT(served::admitJob(deep).retry_after_ms,
              served::admitJob(shallow).retry_after_ms);
}

TEST(ServedFairShare, VictimIsTheLargestOverShareClient)
{
    using Counts = std::map<std::string, std::size_t>;

    // One client can never be over its own share.
    EXPECT_EQ(served::pickPreemptionVictim(Counts{{"a", 4}},
                                           {"a"}, 4),
              "");
    // Nobody waiting: nothing to preempt for.
    EXPECT_EQ(served::pickPreemptionVictim(Counts{{"a", 4}, {"b", 0}},
                                           {}, 4),
              "");
    // a holds 3 of 4 lanes while b waits; share = ceil(4/2) = 2.
    EXPECT_EQ(served::pickPreemptionVictim(Counts{{"a", 3}, {"b", 1}},
                                           {"b"}, 4),
              "a");
    // Exactly at share is not over share.
    EXPECT_EQ(served::pickPreemptionVictim(Counts{{"a", 2}, {"b", 2}},
                                           {"b"}, 4),
              "");
    // Ties break to the lexicographically smallest name.
    EXPECT_EQ(served::pickPreemptionVictim(
                  Counts{{"c", 3}, {"b", 3}, {"a", 0}}, {"a"}, 6),
              "b");
}

// ---------------------------------------------------------------------
// Deterministic plans (stress seeds, connection misbehavior).
// ---------------------------------------------------------------------

TEST(ServedPlans, DerivedSeedsAreStableAndFamilyDisjoint)
{
    std::uint64_t a0 = faults::derivePlanSeed(1, "random", 0);
    EXPECT_EQ(a0, faults::derivePlanSeed(1, "random", 0));
    EXPECT_NE(a0, faults::derivePlanSeed(1, "random", 1));
    EXPECT_NE(a0, faults::derivePlanSeed(1, "burst", 0));
    EXPECT_NE(a0, faults::derivePlanSeed(2, "random", 0));
}

TEST(ServedPlans, ConnectionPlanIsDeterministicPerCoordinate)
{
    faults::ConnectionPlan plan(0xfeed, {});
    faults::ConnectionPlan replay(0xfeed, {});
    bool saw_hostile = false;
    for (std::size_t client = 0; client < 8; ++client) {
        for (std::size_t request = 0; request < 32; ++request) {
            faults::ClientAction action =
                plan.action(client, request);
            EXPECT_EQ(action, replay.action(client, request));
            saw_hostile |= action != faults::ClientAction::Behave;
        }
    }
    EXPECT_TRUE(saw_hostile);  // default rates sum to 0.35

    EXPECT_EQ(faults::ConnectionPlan::wellBehaved().action(3, 9),
              faults::ClientAction::Behave);

    for (std::size_t request = 0; request < 64; ++request) {
        std::size_t cut = plan.truncateAt(0, request, 100);
        EXPECT_GE(cut, 1u);
        EXPECT_LT(cut, 100u);
    }
}

// ---------------------------------------------------------------------
// Verdict store (crash-safe sharded LRU).
// ---------------------------------------------------------------------

TEST(ServedVerdictStore, LruEvictsTheColdestEntry)
{
    guard::VerdictStoreConfig config;
    config.shards = 1;
    config.max_entries_per_shard = 2;
    guard::VerdictStore store(config);

    store.store(1, syntheticVerdict(1));
    store.store(2, syntheticVerdict(2));
    ASSERT_TRUE(store.lookup(1).has_value());  // 2 is now coldest
    store.store(3, syntheticVerdict(3));
    EXPECT_FALSE(store.lookup(2).has_value());
    EXPECT_TRUE(store.lookup(1).has_value());
    EXPECT_TRUE(store.lookup(3).has_value());
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.stats().entries, 2u);
}

TEST(ServedVerdictStore, PersistsWriteThroughAndReloads)
{
    std::string dir = tempPath("verdict-store-reload");
    std::filesystem::remove_all(dir);
    guard::VerdictStoreConfig config;
    config.dir = dir;
    config.shards = 2;

    {
        guard::VerdictStore store(config);
        store.store(5, syntheticVerdict(5));
        store.store(std::uint64_t{1} << 48,
                    syntheticVerdict(6));  // lands in the other shard
        // Every store() already wrote its shard through.
    }
    guard::VerdictStore reloaded(config);
    Result<std::size_t> loaded = reloaded.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 2u);
    auto verdict = reloaded.lookup(5);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->toJson().dump(2),
              syntheticVerdict(5).toJson().dump(2));
    // Atomic write-rename leaves no temp droppings behind.
    for (std::size_t shard = 0; shard < 2; ++shard) {
        std::string tmp = dir + "/verdicts-" +
                          std::to_string(shard) + ".json.tmp";
        std::ifstream probe(tmp);
        EXPECT_FALSE(probe.good()) << tmp;
    }
}

TEST(ServedVerdictStore, CorruptShardIsSkippedNotFatal)
{
    std::string dir = tempPath("verdict-store-corrupt");
    std::filesystem::remove_all(dir);
    guard::VerdictStoreConfig config;
    config.dir = dir;
    config.shards = 2;

    {
        guard::VerdictStore store(config);
        store.store(9, syntheticVerdict(9));  // shard 0
    }
    {
        // Simulate a torn write in the *other* shard file.
        std::ofstream out(dir + "/verdicts-1.json");
        out << "{\"version\":1,\"entries\":[{\"key\"";
    }
    guard::VerdictStore reloaded(config);
    Result<std::size_t> loaded = reloaded.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 1u);  // the good shard still loads
    EXPECT_TRUE(reloaded.lookup(9).has_value());
    EXPECT_GE(reloaded.stats().corrupt_entries, 1u);
}

// ---------------------------------------------------------------------
// Verdict store load/save hardening.
// ---------------------------------------------------------------------

/** A two-shard persistent store config rooted at a fresh @p name. */
guard::VerdictStoreConfig
freshStoreConfig(const std::string& name)
{
    guard::VerdictStoreConfig config;
    config.dir = tempPath(name);
    config.shards = 2;
    std::filesystem::remove_all(config.dir);
    std::filesystem::create_directories(config.dir);
    return config;
}

TEST(ServedVerifyCache, CorruptEntriesAreSkippedAndCounted)
{
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-mixed");
    obs::json::Value doc{obs::json::Object{}};
    doc.set("version", 1);
    obs::json::Value entries{obs::json::Array{}};
    obs::json::Value good{obs::json::Object{}};
    good.set("key", guard::formatCacheKey(42));  // shard 0
    good.set("verdict", syntheticVerdict(42).toJson());
    entries.push(std::move(good));
    obs::json::Value bad{obs::json::Object{}};
    bad.set("key", "0xdead");
    bad.set("verdict", "not an object");
    entries.push(std::move(bad));
    obs::json::Value keyless{obs::json::Object{}};
    keyless.set("verdict", syntheticVerdict(1).toJson());
    entries.push(std::move(keyless));
    // A valid verdict under a key formatCacheKey never writes: it
    // must not be read as key 0 (which shard 0 would accept).
    obs::json::Value misspelled{obs::json::Object{}};
    misspelled.set("key", "zzz");
    misspelled.set("verdict", syntheticVerdict(3).toJson());
    entries.push(std::move(misspelled));
    doc.set("entries", std::move(entries));
    ASSERT_TRUE(
        obs::json::writeFileAtomic(config.dir + "/verdicts-0.json", doc)
            .ok());

    guard::VerdictStore store(config);
    Result<std::size_t> loaded = store.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 1u);
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_EQ(store.stats().corrupt_entries, 3u);
    EXPECT_TRUE(store.lookup(42).has_value());
    EXPECT_FALSE(store.lookup(0).has_value());
}

TEST(ServedVerifyCache, WholeFileGarbageIsAnEmptyCacheNotACrash)
{
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-garbage");
    {
        std::ofstream out(config.dir + "/verdicts-0.json");
        out << "]]]] definitely not json {{";
    }
    guard::VerdictStore store(config);
    Result<std::size_t> loaded = store.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 0u);
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_GE(store.stats().corrupt_entries, 1u);
}

TEST(ServedVerifyCache, AtomicSaveLeavesNoTempFile)
{
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-atomic");
    guard::VerdictStore store(config);
    std::string path = config.dir + "/verdicts-0.json";
    EXPECT_FALSE(std::ifstream(path).good());
    store.store(7, syntheticVerdict(7));
    EXPECT_TRUE(std::ifstream(path).good());
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(ServedVerifyCache, InexactCountInAnEntryIsCorrupt)
{
    // A shard file is read back from disk: a count that is not an
    // exact non-negative integer makes its entry corrupt, exactly like
    // any other malformed entry, instead of a silently cast count.
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-inexact");
    std::string entries =
        "{\"key\":\"" + guard::formatCacheKey(42) + "\",\"verdict\":" +
        syntheticVerdict(42).toJson().dump() + "}";
    for (const char* bad : {"1e300", "2.5", "9007199254740993", "-1"}) {
        entries += ",{\"key\":\"" + guard::formatCacheKey(43) +
                   "\",\"verdict\":{\"level\":\"full\",\"ok\":true,"
                   "\"game\":{\"impl_states\":" + bad + "}}}";
        entries += ",{\"key\":\"" + guard::formatCacheKey(44) +
                   "\",\"verdict\":{\"level\":\"full\",\"ok\":true,"
                   "\"trace_walks_run\":" + bad + "}}";
    }
    {
        std::ofstream out(config.dir + "/verdicts-0.json");
        out << "{\"version\":1,\"entries\":[" << entries << "]}";
    }
    guard::VerdictStore store(config);
    Result<std::size_t> loaded = store.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 1u);
    EXPECT_EQ(store.stats().corrupt_entries, 8u);
    EXPECT_TRUE(store.lookup(42).has_value());
    EXPECT_FALSE(store.lookup(43).has_value());
    EXPECT_FALSE(store.lookup(44).has_value());
}

/** A compile entry distinguishable by @p salt. */
guard::CompileEntry
syntheticCompileEntry(std::uint64_t salt)
{
    guard::CompileEntry entry;
    entry.output_dot = "digraph circuit { /* " + std::to_string(salt) +
                       " */ }";
    LoopTransformReport loop;
    loop.header_mux = "mux" + std::to_string(salt);
    loop.transformed = true;
    loop.body_fn = "body_fn0";
    loop.body_latency = 3;
    loop.term_size_before = 12;
    loop.term_size_after = 5;
    entry.loops.push_back(loop);
    LoopTransformReport refused;
    refused.header_mux = "mux_j";
    refused.refusal = "loop body stores to memory";
    entry.loops.push_back(refused);
    entry.rewrites.record("fork-split");
    entry.rewrites.record("fork-split");
    entry.rollbacks.push_back({"mux-to-merge", "tag.unpaired"});
    entry.validation.add(guard::Severity::Warning, "graph.unreachable",
                         "sink3", "never fires");
    return entry;
}

TEST(ServedVerdictStore, CompileEntriesPersistBesideVerdictsAndReload)
{
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-compile");
    {
        guard::VerdictStore store(config);
        store.storeCompile(42, syntheticCompileEntry(42));
        store.store(43, syntheticVerdict(43));
        // An entry of one kind is a miss for the other kind, counted
        // with the kind asked for.
        EXPECT_FALSE(store.lookup(42).has_value());
        EXPECT_FALSE(store.lookupCompile(43).has_value());
        guard::VerdictStoreStats stats = store.stats();
        EXPECT_EQ(stats.misses, 1u);
        EXPECT_EQ(stats.compile_misses, 1u);
        EXPECT_EQ(stats.hits + stats.compile_hits, 0u);
    }
    guard::VerdictStore reloaded(config);
    Result<std::size_t> loaded = reloaded.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 2u);
    EXPECT_EQ(reloaded.stats().corrupt_entries, 0u);
    std::optional<guard::CompileEntry> entry = reloaded.lookupCompile(42);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->toJson().dump(2),
              syntheticCompileEntry(42).toJson().dump(2));
    EXPECT_EQ(entry->validation.diagnostics().size(), 1u);
    EXPECT_EQ(entry->rewrites.per_rule.at("fork-split"), 2u);
    ASSERT_TRUE(reloaded.lookup(43).has_value());
    obs::json::Value stats = reloaded.stats().toJson();
    EXPECT_EQ(stats.find("compile_hits")->asNumber(), 1.0);
    EXPECT_EQ(stats.find("hits")->asNumber(), 1.0);
}

TEST(ServedVerdictStore, VerdictOnlyShardOfThePreviousFormatLoads)
{
    // A shard file as written before compile entries existed: version
    // 1, every entry a key and a verdict.
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-previous");
    {
        std::ofstream out(config.dir + "/verdicts-0.json");
        out << "{\"version\": 1, \"entries\": [{\"key\": \""
            << guard::formatCacheKey(42) << "\", \"verdict\": "
            << syntheticVerdict(42).toJson().dump() << "}, {\"key\": \""
            << guard::formatCacheKey(7) << "\", \"verdict\": "
            << syntheticVerdict(7).toJson().dump() << "}]}";
    }
    guard::VerdictStore store(config);
    Result<std::size_t> loaded = store.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 2u);
    EXPECT_EQ(store.stats().corrupt_entries, 0u);
    std::optional<guard::VerificationVerdict> verdict = store.lookup(7);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_EQ(verdict->toJson().dump(2),
              syntheticVerdict(7).toJson().dump(2));
}

TEST(ServedVerifyCache, MalformedCompileEntryIsCorrupt)
{
    guard::VerdictStoreConfig config =
        freshStoreConfig("verdict-store-bad-compile");
    obs::json::Value good = syntheticCompileEntry(42).toJson();
    auto entry = [](const std::string& key, const char* member,
                    obs::json::Value payload) {
        obs::json::Value out{obs::json::Object{}};
        out.set("key", key);
        out.set(member, std::move(payload));
        return out;
    };
    /** @p good with @p field of its report replaced by @p value. */
    auto withReportField = [&](const char* field, obs::json::Value value) {
        obs::json::Value report = *good.find("report");
        report.set(field, std::move(value));
        obs::json::Value out = good;
        out.set("report", std::move(report));
        return out;
    };
    obs::json::Value inexact{obs::json::Object{}};
    inexact.set("rewrites_applied", 2.5);
    inexact.set("per_rule", obs::json::Value{obs::json::Object{}});
    obs::json::Value dotless = good;
    dotless.set("output_dot", 7);

    obs::json::Value entries{obs::json::Array{}};
    entries.push(entry(guard::formatCacheKey(42), "compile", good));
    entries.push(entry(guard::formatCacheKey(43), "compile", dotless));
    entries.push(entry(guard::formatCacheKey(44), "compile",
                       withReportField("loops", "none")));
    entries.push(entry(guard::formatCacheKey(45), "compile",
                       withReportField("rewrites", inexact)));
    entries.push(entry(guard::formatCacheKey(46), "compile",
                       withReportField("rollbacks",
                                       obs::json::Value{
                                           obs::json::Object{}})));
    // Two payloads in one entry.
    obs::json::Value both =
        entry(guard::formatCacheKey(47), "compile", good);
    both.set("verdict", syntheticVerdict(47).toJson());
    entries.push(std::move(both));
    // A good payload under a key this store never writes.
    entries.push(entry("0x2A", "compile", good));
    obs::json::Value doc{obs::json::Object{}};
    doc.set("version", 1);
    doc.set("entries", std::move(entries));
    ASSERT_TRUE(
        obs::json::writeFileAtomic(config.dir + "/verdicts-0.json", doc)
            .ok());

    guard::VerdictStore store(config);
    Result<std::size_t> loaded = store.load();
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 1u);
    EXPECT_EQ(store.stats().corrupt_entries, 6u);
    EXPECT_TRUE(store.lookupCompile(42).has_value());
    for (std::uint64_t key : {43, 44, 45, 46, 47})
        EXPECT_FALSE(store.lookupCompile(key).has_value()) << key;
    EXPECT_FALSE(store.lookup(47).has_value());
}

TEST(ServedVerifyCache, FullDeviceWriteFailsLoudly)
{
    // /dev/full accepts opens and drops writes with ENOSPC at flush —
    // exactly the silent-success bug the flushing writeFile fixes.
    std::ifstream probe("/dev/full");
    if (!probe.good())
        GTEST_SKIP() << "no /dev/full on this system";
    obs::json::Value doc{obs::json::Object{}};
    doc.set("k", 1);
    Result<bool> wrote = obs::json::writeFile("/dev/full", doc);
    EXPECT_FALSE(wrote.ok());
}

// ---------------------------------------------------------------------
// Latency reservoir.
// ---------------------------------------------------------------------

TEST(ServedLatency, NearestRankPercentilesOverTheWindow)
{
    obs::LatencyReservoir reservoir(128);
    for (int i = 1; i <= 100; ++i)
        reservoir.record(static_cast<double>(i));
    EXPECT_EQ(reservoir.count(), 100u);
    EXPECT_DOUBLE_EQ(reservoir.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(reservoir.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(reservoir.max(), 100.0);

    obs::LatencyReservoir tiny(4);
    for (double ms : {10.0, 20.0, 30.0, 40.0, 50.0})
        tiny.record(ms);  // 10 falls out of the window
    EXPECT_DOUBLE_EQ(tiny.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(tiny.percentile(1), 20.0);
    EXPECT_EQ(tiny.count(), 5u);  // lifetime count, not window size
}

// ---------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------

served::SchedulerConfig
schedulerConfig(std::size_t workers, std::size_t queue)
{
    served::SchedulerConfig config;
    config.workers = workers;
    config.queue_capacity = queue;
    return config;
}

TEST(ServedScheduler, PingRoundTrips)
{
    served::Scheduler scheduler(schedulerConfig(1, 4));
    ASSERT_TRUE(scheduler.start().ok());
    JobSpec ping;
    ping.kind = "ping";
    served::JobOutcome outcome = scheduler.submitAndWait("t", ping);
    EXPECT_EQ(outcome.status, "ok");
    const obs::json::Value* pong = outcome.result.find("pong");
    ASSERT_NE(pong, nullptr);
    EXPECT_TRUE(pong->isBool() && pong->asBool());
    scheduler.stop();
}

TEST(ServedScheduler, FloodBeyondCapacityShedsWithHintsAndNeverHangs)
{
    served::Scheduler scheduler(schedulerConfig(1, 1));
    ASSERT_TRUE(scheduler.start().ok());

    const std::string dot = gcdDot();
    constexpr std::size_t kFlood = 8;  // 4x (workers + queue)
    std::vector<served::JobOutcome> outcomes(kFlood);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kFlood; ++i) {
        threads.emplace_back([&, i] {
            JobSpec spec = verifySpec(dot);
            // Unique seed per job: no cache short-circuits, every
            // admitted job occupies the worker for real.
            spec.options.verify_budget.seed = 1000 + i;
            outcomes[i] = scheduler.submitAndWait(
                "flood-" + std::to_string(i), spec);
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    std::size_t ok = 0, rejected = 0;
    for (const served::JobOutcome& outcome : outcomes) {
        ASSERT_TRUE(outcome.status == "ok" ||
                    outcome.status == "rejected")
            << outcome.status << ": " << outcome.error;
        if (outcome.status == "ok") {
            ++ok;
        } else {
            ++rejected;
            // A structured rejection: a reason and a retry hint.
            EXPECT_FALSE(outcome.error.empty());
            EXPECT_GT(outcome.retry_after_ms, 0.0);
        }
    }
    EXPECT_EQ(ok + rejected, kFlood);
    EXPECT_GE(ok, 1u);  // the flood never starves everyone

    served::SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.accepted + stats.shed, kFlood);
    EXPECT_EQ(stats.shed, rejected);
    EXPECT_EQ(stats.completed, ok);
    scheduler.stop();
}

TEST(ServedScheduler, DeadlineNeverPoisonsTheVerdictStore)
{
    served::Scheduler scheduler(schedulerConfig(1, 4));
    ASSERT_TRUE(scheduler.start().ok());
    const std::string dot = gcdDot();

    // A deadline that has already expired: the job is answered (as a
    // cancellation or a fully degraded run), and whatever it produced
    // must NOT be committed as the circuit's verdict.
    served::JobOutcome rushed =
        scheduler.submitAndWait("t", verifySpec(dot), 1e-9);
    EXPECT_TRUE(rushed.status == "cancelled" || rushed.status == "ok")
        << rushed.status << ": " << rushed.error;

    served::JobOutcome honest =
        scheduler.submitAndWait("t", verifySpec(dot));
    ASSERT_EQ(honest.status, "ok") << honest.error;
    const obs::json::Value* hit = honest.result.find("verify_cache_hit");
    ASSERT_NE(hit, nullptr);
    EXPECT_FALSE(hit->asBool())
        << "deadline-degraded verdict was served from the store";

    // The honest verdict, however, is committed: the same request
    // again is a hit with the identical verdict.
    served::JobOutcome repeat =
        scheduler.submitAndWait("t", verifySpec(dot));
    ASSERT_EQ(repeat.status, "ok") << repeat.error;
    const obs::json::Value* repeat_hit =
        repeat.result.find("verify_cache_hit");
    ASSERT_NE(repeat_hit, nullptr);
    EXPECT_TRUE(repeat_hit->asBool());
    EXPECT_EQ(honest.result.find("verdict")->dump(2),
              repeat.result.find("verdict")->dump(2));
    scheduler.stop();
}

// ---------------------------------------------------------------------
// Daemon end-to-end.
// ---------------------------------------------------------------------

served::ClientConfig
clientConfig(const std::string& socket_path)
{
    served::ClientConfig config;
    config.socket_path = socket_path;
    config.sleep_between_retries = false;  // tests stay fast
    return config;
}

TEST(ServedDaemon, VerdictsByteIdenticalToOneShotOnEveryBenchmark)
{
    std::string path = socketPath("byte-identity");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler = schedulerConfig(2, 8);
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    served::Client client(clientConfig(path));

    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec bench =
            circuits::buildBenchmark(name).take();
        const ExprHigh& graph =
            bench.df_ooo_input ? *bench.df_ooo_input : bench.df_io;
        JobSpec spec = verifySpec(printDot(graph), bench.num_tags);
        // Recompute every time: byte identity must come from the
        // verification core, not from one request warming the store.
        spec.options.verify_cache = false;

        // The one-shot baseline: a fresh Compiler, same options.
        Compiler compiler;
        CompileOptions options = spec.options;
        Result<CompileReport> oneshot =
            compiler.compileDot(spec.circuit_dot, options);
        ASSERT_TRUE(oneshot.ok()) << name << ": "
                                  << oneshot.error().message;
        std::string baseline_verdict =
            oneshot.value().verdict.toJson().dump(2);
        std::string baseline_dot = oneshot.value().output_dot;

        Result<served::JobResponse> response = client.request(spec);
        ASSERT_TRUE(response.ok())
            << name << ": " << response.error().message;
        ASSERT_EQ(response.value().status, "ok")
            << name << ": " << response.value().error;
        const obs::json::Value& result = response.value().result;
        const obs::json::Value* verdict = result.find("verdict");
        const obs::json::Value* output_dot = result.find("output_dot");
        ASSERT_NE(verdict, nullptr) << name;
        ASSERT_NE(output_dot, nullptr) << name;
        EXPECT_EQ(verdict->dump(2), baseline_verdict) << name;
        EXPECT_EQ(output_dot->asString(), baseline_dot) << name;
    }
    daemon.stop();
}

/** @p object without the members named in @p keys. */
obs::json::Value
withoutKeys(const obs::json::Value& object,
            std::initializer_list<std::string> keys)
{
    obs::json::Value out{obs::json::Object{}};
    for (const auto& [key, value] : object.asObject())
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            out.set(key, value);
    return out;
}

/** A verify result without what a store hit may change: both hit
 * flags, report.seconds (0 on a compile hit) and
 * report.verify_peak_bytes (a verdict crosses the worker link as
 * JSON without its resource figures, so a served verdict hit reads 0
 * there: no exploration ran). */
std::string
withoutHitFields(const obs::json::Value& result)
{
    obs::json::Value out = withoutKeys(
        result, {"verify_cache_hit", "compile_cache_hit", "report"});
    out.set("report",
            withoutKeys(*result.find("report"),
                        {"seconds", "verify_cache_hit",
                         "compile_cache_hit", "verify_peak_bytes"}));
    return out.dump(2);
}

bool
flag(const obs::json::Value& result, const char* key)
{
    const obs::json::Value* f = result.find(key);
    return f != nullptr && f->isBool() && f->asBool();
}

TEST(ServedDaemon, RepeatAndFreshSaltRequestsReuseTheCompileEntry)
{
    std::string path = socketPath("compile-entry");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler = schedulerConfig(2, 8);
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    served::Client client(clientConfig(path));
    auto serve = [&](const JobSpec& spec) {
        Result<served::JobResponse> response = client.request(spec);
        EXPECT_TRUE(response.ok()) << response.error().message;
        if (!response.ok())
            return obs::json::Value{};
        EXPECT_EQ(response.value().status, "ok") << response.value().error;
        return response.value().result;
    };

    std::vector<std::pair<std::string, std::string>> circuits;
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec bench =
            circuits::buildBenchmark(name).take();
        circuits.push_back({name, printDot(bench.df_io)});
    }
    circuits.push_back({"gcd", gcdDot()});
    std::set<std::string> compiled;  // gsum-many and gsum-single share one
    std::uint64_t salt = 0;
    for (const auto& [name, dot] : circuits) {
        JobSpec spec = verifySpec(dot);
        obs::json::Value first = serve(spec);
        obs::json::Value repeat = serve(spec);
        ASSERT_NE(first.find("report"), nullptr) << name;
        ASSERT_NE(repeat.find("report"), nullptr) << name;
        EXPECT_EQ(flag(first, "compile_cache_hit"), compiled.count(dot) > 0)
            << name;
        compiled.insert(dot);
        EXPECT_TRUE(flag(repeat, "compile_cache_hit")) << name;
        EXPECT_TRUE(flag(repeat, "verify_cache_hit")) << name;
        EXPECT_EQ(withoutHitFields(repeat), withoutHitFields(first)) << name;

        // A fresh salt reuses the compile entry and runs only the
        // ladder, whose verdict is a store-less compile's.
        JobSpec salted = spec;
        salted.options.verify_budget.seed ^= ++salt;
        obs::json::Value fresh = serve(salted);
        EXPECT_TRUE(flag(fresh, "compile_cache_hit")) << name;
        EXPECT_FALSE(flag(fresh, "verify_cache_hit")) << name;
        Compiler storeless;
        CompileOptions options = salted.options;
        options.verify_cache = false;
        Result<CompileReport> reference = storeless.compileDot(dot, options);
        ASSERT_TRUE(reference.ok()) << reference.error().message;
        ASSERT_NE(fresh.find("verdict"), nullptr) << name;
        EXPECT_EQ(fresh.find("verdict")->dump(2),
                  reference.value().verdict.toJson().dump(2))
            << name;
        EXPECT_EQ(fresh.find("output_dot")->asString(),
                  reference.value().output_dot)
            << name;
    }

    // The stats verb shows compile lookups apart from verdict ones:
    // per distinct circuit one compile miss; every other request hit.
    obs::json::Value stats = daemon.statsJson();
    const obs::json::Value* store = stats.find("store");
    ASSERT_NE(store, nullptr);
    double requests = 3.0 * static_cast<double>(circuits.size());
    double distinct = static_cast<double>(compiled.size());
    EXPECT_EQ(store->find("compile_misses")->asNumber(), distinct);
    EXPECT_EQ(store->find("compile_hits")->asNumber(), requests - distinct);
    EXPECT_EQ(store->find("hits")->asNumber() +
                  store->find("misses")->asNumber(),
              requests);
    daemon.stop();
}

/** Send @p job as request @p id over a fresh connection to the daemon
 * at @p path; the "ok" response's result object. */
obs::json::Value
serveJob(const std::string& path, std::uint64_t id,
         const obs::json::Value& job)
{
    Result<net::Socket> socket = net::connectUnix(path);
    EXPECT_TRUE(socket.ok()) << socket.error().message;
    if (!socket.ok())
        return {};
    served::JobRequest request;
    request.id = id;
    request.job = job;
    EXPECT_TRUE(served::writeFrame(socket.value(),
                                   request.toJson().dump(), 5000)
                    .ok());
    std::string payload;
    Result<bool> got = served::readFrame(socket.value(), payload, 60000);
    EXPECT_TRUE(got.ok() && got.value());
    Result<obs::json::Value> parsed = obs::json::parse(payload);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    if (!parsed.ok())
        return {};
    Result<served::JobResponse> response =
        served::jobResponseFromJson(parsed.value());
    EXPECT_TRUE(response.ok()) << response.error().message;
    if (!response.ok())
        return {};
    EXPECT_EQ(response.value().status, "ok") << response.value().error;
    return response.value().result;
}

/** @p job with @p field set to @p value inside its options (or, with
 * @p in_budget, inside options.budget). */
obs::json::Value
withLegacyField(obs::json::Value job, bool in_budget, const char* field,
                obs::json::Value value)
{
    obs::json::Value options = *job.find("options");
    if (in_budget) {
        obs::json::Value budget = *options.find("budget");
        EXPECT_EQ(budget.find(field), nullptr);
        budget.set(field, std::move(value));
        options.set("budget", std::move(budget));
    } else {
        EXPECT_EQ(options.find(field), nullptr);
        options.set(field, std::move(value));
    }
    job.set("options", std::move(options));
    return job;
}

TEST(ServedDaemon, RetiredThreadsOptionIsIgnoredOnTheWire)
{
    // Older clients still send options.threads; unknown option keys
    // are ignored, so the field parses and changes nothing.
    std::string path = socketPath("retired-threads");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler = schedulerConfig(1, 4);
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    JobSpec spec = verifySpec(gcdDot());
    spec.options.verify_cache = false;
    obs::json::Value job = spec.toJson();
    obs::json::Value legacy_job = withLegacyField(job, false, "threads", 8);
    obs::json::Value fresh = serveJob(path, 1, job);
    obs::json::Value legacy = serveJob(path, 2, legacy_job);
    ASSERT_NE(fresh.find("verdict"), nullptr);
    ASSERT_NE(legacy.find("verdict"), nullptr);
    EXPECT_EQ(legacy.find("verdict")->dump(2),
              fresh.find("verdict")->dump(2));
    daemon.stop();
}

TEST(ServedDaemon, RetiredSpillBytesBudgetFieldIsIgnoredOnTheWire)
{
    // Older clients may still send the retired frontier spill cap in
    // options.budget; it parses, and the verdict JSON and the verify
    // cache key are byte-identical to the same request without it.
    std::string path = socketPath("retired-spill");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler = schedulerConfig(1, 4);
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    JobSpec spec = verifySpec(gcdDot());
    spec.options.verify_cache = false;
    obs::json::Value job = spec.toJson();
    obs::json::Value legacy_job =
        withLegacyField(job, true, "spill_bytes", 1 << 20);
    Result<JobSpec> parsed = jobSpecFromJson(legacy_job);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(compileOptionsToJson(parsed.value().options).dump(),
              compileOptionsToJson(spec.options).dump());

    obs::json::Value fresh = serveJob(path, 1, job);
    obs::json::Value legacy = serveJob(path, 2, legacy_job);
    for (const char* key : {"verdict", "verify_cache_key"}) {
        ASSERT_NE(fresh.find(key), nullptr) << key;
        ASSERT_NE(legacy.find(key), nullptr) << key;
        EXPECT_EQ(legacy.find(key)->dump(2), fresh.find(key)->dump(2))
            << key;
    }
    daemon.stop();
}

TEST(ServedDaemon, MisbehavingClientsDoNotStarveHealthyOnes)
{
    std::string path = socketPath("misbehave");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler = schedulerConfig(1, 4);
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    const std::string dot = gcdDot();
    JobSpec spec = verifySpec(dot);
    served::JobRequest request;
    request.id = 1;
    request.job = spec.toJson();
    std::string frame = served::encodeFrame(request.toJson().dump());

    {  // Half-written frame, then hang up.
        Result<net::Socket> raw = net::connectUnix(path);
        ASSERT_TRUE(raw.ok());
        net::writeAll(raw.value(), frame.substr(0, frame.size() / 2),
                      1000);
    }
    {  // Junk payload behind a valid length prefix.
        Result<net::Socket> raw = net::connectUnix(path);
        ASSERT_TRUE(raw.ok());
        net::writeAll(raw.value(), served::encodeFrame("Z}junk!{"),
                      1000);
        std::string reply;
        Result<bool> got = served::readFrame(raw.value(), reply, 5000);
        // A structured error response comes back before the drop.
        ASSERT_TRUE(got.ok() && got.value());
        Result<served::JobResponse> parsed = served::jobResponseFromJson(
            obs::json::parse(reply).take());
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value().status, "error");
    }
    {  // Full request, vanish before the response.
        Result<net::Socket> raw = net::connectUnix(path);
        ASSERT_TRUE(raw.ok());
        net::writeAll(raw.value(), frame, 1000);
    }

    // The healthy client still gets served.
    served::Client client(clientConfig(path));
    Result<bool> pong = client.ping();
    ASSERT_TRUE(pong.ok()) << pong.error().message;
    EXPECT_TRUE(pong.value());
    Result<served::JobResponse> response = client.request(spec);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_EQ(response.value().status, "ok")
        << response.value().error;
    EXPECT_GE(daemon.connectionsAccepted(), 4u);
    daemon.stop();
}

TEST(ServedDaemon, KillThenRestartServesEveryCommittedVerdict)
{
    std::string path = socketPath("crash-recovery");
    std::string store_dir = tempPath("served-crash-store");
    // A previous run's store would turn the "fresh" request into a
    // hit; this test owns the directory.
    std::filesystem::remove_all(store_dir);
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler = schedulerConfig(1, 4);
    config.scheduler.store.dir = store_dir;

    const std::string dot = gcdDot();
    std::string committed_verdict;
    {
        served::Daemon daemon(config);
        ASSERT_TRUE(daemon.start().ok());
        served::Client client(clientConfig(path));
        Result<served::JobResponse> first =
            client.request(verifySpec(dot));
        ASSERT_TRUE(first.ok()) << first.error().message;
        ASSERT_EQ(first.value().status, "ok") << first.value().error;
        EXPECT_FALSE(
            first.value().result.find("verify_cache_hit")->asBool());
        committed_verdict =
            first.value().result.find("verdict")->dump(2);
        // Crash drill: no graceful persistence pass. Everything the
        // store committed write-through must already be on disk.
        daemon.kill();
    }
    {
        served::Daemon daemon(config);
        ASSERT_TRUE(daemon.start().ok());
        served::Client client(clientConfig(path));
        Result<served::JobResponse> again =
            client.request(verifySpec(dot));
        ASSERT_TRUE(again.ok()) << again.error().message;
        ASSERT_EQ(again.value().status, "ok") << again.value().error;
        EXPECT_TRUE(
            again.value().result.find("verify_cache_hit")->asBool())
            << "pre-kill verdict was lost across the restart";
        EXPECT_EQ(again.value().result.find("verdict")->dump(2),
                  committed_verdict);
        daemon.stop();
    }
}

TEST(ServedDaemon, LoopbackTcpServesTheSameProtocol)
{
    std::string path = socketPath("tcp");
    served::DaemonConfig config;
    config.socket_path = path;
    config.tcp_port = 0;  // ephemeral
    config.scheduler = schedulerConfig(1, 4);
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    served::ClientConfig cc;
    cc.tcp_port = daemon.tcpPort();
    cc.sleep_between_retries = false;
    served::Client client(cc);
    Result<bool> pong = client.ping();
    ASSERT_TRUE(pong.ok()) << pong.error().message;
    EXPECT_TRUE(pong.value());
    daemon.stop();
}

TEST(ServedScheduler, InstrumentedSchedulerOverheadUnderTwoTimes)
{
    // The service-plane twin of ObsGcd.OverheadUnderTwoTimes: a
    // scheduler always carries the full observability plane (journal
    // events and spans, per-verb reservoirs, per-job metric scopes),
    // so its p50 request latency must stay within 2x of running the
    // same jobs straight on a fresh Compiler, with no scheduler.
    const std::string dot = gcdDot();
    served::Scheduler scheduler(schedulerConfig(1, 8));
    ASSERT_TRUE(scheduler.start().ok());
    auto timeMs = [](const auto& run) {
        auto start = std::chrono::steady_clock::now();
        run();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    // Interleaved, so a load spike on a shared host hits both sides.
    obs::LatencyReservoir bare, scheduled;
    for (std::size_t r = 0; r < 13; ++r) {
        JobSpec spec = verifySpec(dot);
        spec.options.verify_cache = false;  // real work each time
        spec.options.verify_budget.seed = 4200 + r;
        double bare_ms = timeMs([&] {
            Compiler compiler;
            Result<obs::json::Value> run = runJob(compiler, spec);
            EXPECT_TRUE(run.ok()) << run.error().message;
        });
        double scheduled_ms = timeMs([&] {
            served::JobOutcome outcome =
                scheduler.submitAndWait("overhead", spec);
            EXPECT_EQ(outcome.status, "ok") << outcome.error;
        });
        if (r >= 2) {  // skip warmup (allocator, first-touch)
            bare.record(bare_ms);
            scheduled.record(scheduled_ms);
        }
    }
    scheduler.stop();
    double plain = bare.percentile(50);
    double observed = scheduled.percentile(50);
    EXPECT_LT(observed, plain * 2.0)
        << "observability overhead " << observed / plain
        << "x (bare compiler p50 " << plain << "ms, scheduled p50 "
        << observed << "ms)";
}

}  // namespace
}  // namespace graphiti

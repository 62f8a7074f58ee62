/**
 * @file
 * Tests of the service observability plane (label: obs).
 *
 * The contracts under test (docs/service_observability.md):
 *   - the journal: two bounded lanes (events, spans) counting their
 *     own evictions, events in time order under concurrent writers,
 *     the JSON-lines mirror, spans forwarded to one PerfettoTraceSink,
 *     an atomic dump of the newest events, and a crash path that
 *     never deadlocks on the journal's own lock;
 *   - correlation: the id minted client-side rides every retry of one
 *     logical request, survives shed-then-resubmit, and comes back on
 *     every JobResponse — and the daemon's journal stitches the shed
 *     and the eventual completion into one story, with exactly one
 *     admit and one done event per job;
 *   - introspection: stats / jobs / health round-trip over the wire,
 *     including a live running-job entry with deadline remaining;
 *   - neutrality: verdicts are byte-identical with a caller's
 *     observer, with the scheduler's own, and against the one-shot
 *     compiler;
 *   - under fire: concurrent stats/jobs/health polling during a
 *     misbehaving-client soak stays answered (and TSan-clean when the
 *     suite runs under TSan).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "core/job.hpp"
#include "dot/dot.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "served/client.hpp"
#include "served/daemon.hpp"
#include "served/observe.hpp"
#include "served/scheduler.hpp"

namespace graphiti {
namespace {

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + std::to_string(::getpid()) + "-" + name;
}

std::string
socketPath(const std::string& tag)
{
    return "/tmp/graphiti-obs-" + tag + "-" +
           std::to_string(::getpid()) + ".sock";
}

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

std::string
gcdDot()
{
    return printDot(circuits::buildGcdInOrder());
}

JobSpec
verifySpec(const std::string& dot)
{
    JobSpec spec;
    spec.kind = "verify";
    spec.circuit_dot = dot;
    spec.options = tightOptions();
    spec.options.num_tags = 4;
    return spec;
}

/** A job that cannot finish before its deadline: an effectively
 * unbounded exploration, cut off by the per-job StopToken. Used to
 * pin the single worker (and the queue slot) for a known duration. */
JobSpec
blockerSpec(const std::string& dot, std::uint64_t salt)
{
    JobSpec spec = verifySpec(dot);
    spec.options.verify_cache = false;
    spec.options.verify_budget.max_states = 100'000'000;
    spec.options.verify_budget.partial_max_states = 100'000'000;
    spec.options.verify_budget.input_budget = 4;
    spec.options.verify_budget.seed = salt;
    return spec;
}

served::ClientConfig
clientConfig(const std::string& socket_path)
{
    served::ClientConfig config;
    config.socket_path = socket_path;
    config.sleep_between_retries = false;
    return config;
}

// ---------------------------------------------------------------------
// The journal: one lock, two bounded lanes, one dump.
// ---------------------------------------------------------------------

TEST(ObsServiceLog, RingKeepsTheNewestAndCountsEvictions)
{
    obs::Journal journal(/*dump_events=*/2, /*event_capacity=*/3,
                         /*span_capacity=*/4);
    for (int i = 0; i < 7; ++i)
        journal.event(obs::LogLevel::Info, "job-" + std::to_string(i),
                      "event", obs::eventFields("i", i));
    EXPECT_EQ(journal.events().recorded(), 7u);
    EXPECT_EQ(journal.events().dropped(), 4u);
    EXPECT_EQ(journal.spans().recorded(), 0u);  // lanes are separate

    std::vector<obs::EventRecord> tail = journal.events().tail(10);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail.front().job_id, "job-4");  // oldest survivor
    EXPECT_EQ(tail.back().job_id, "job-6");
    // Monotonic timestamps on the journal's one clock.
    EXPECT_LE(tail.front().t_ms, tail.back().t_ms);

    obs::json::Value occupancy = journal.occupancyJson();
    const obs::json::Value* events = occupancy.find("events");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->find("capacity")->asNumber(), 3);
    EXPECT_EQ(events->find("recorded")->asNumber(), 7);
    EXPECT_EQ(events->find("dropped")->asNumber(), 4);
    EXPECT_EQ(occupancy.find("spans")->find("capacity")->asNumber(), 4);
    EXPECT_EQ(occupancy.find("spans")->find("recorded")->asNumber(), 0);
}

TEST(ObsServiceJournal, EventLaneEvictsAndTheFileMirrorKeepsAll)
{
    std::string path = tempPath("obs-service-journal.jsonl");
    std::remove(path.c_str());

    obs::Journal journal(/*dump_events=*/2, /*event_capacity=*/3,
                         /*span_capacity=*/4);
    ASSERT_TRUE(journal.openFile(path).ok());
    for (int i = 0; i < 6; ++i)
        journal.event(obs::LogLevel::Info, "job-" + std::to_string(i),
                      "event", obs::eventFields("i", i));
    journal.event(obs::LogLevel::Error, "", "loud.event",
                  obs::eventFields("reason", "wedge"));
    EXPECT_EQ(journal.events().recorded(), 7u);
    EXPECT_EQ(journal.events().dropped(), 4u);
    std::vector<obs::EventRecord> tail = journal.events().tail(10);
    ASSERT_EQ(tail.size(), 3u);

    // The JSON-lines mirror keeps what the ring evicted, each line
    // the record's own JSON.
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 7u);
    for (int i = 0; i < 6; ++i) {
        Result<obs::json::Value> line = obs::json::parse(lines[i]);
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_EQ(line.value().find("job_id")->asString(),
                  "job-" + std::to_string(i));
    }
    EXPECT_EQ(lines[6], tail.back().toJson().dump());
    Result<obs::json::Value> parsed = obs::json::parse(lines[6]);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().find("event")->asString(), "loud.event");
    EXPECT_EQ(parsed.value().find("level")->asString(), "error");
    EXPECT_EQ(parsed.value().find("job_id"), nullptr);  // service-level
    EXPECT_EQ(
        parsed.value().find("fields")->find("reason")->asString(),
        "wedge");
    std::remove(path.c_str());
}

TEST(ObsServiceJournal, SpansForwardToThePerfettoSink)
{
    auto sink = std::make_shared<obs::PerfettoTraceSink>();
    obs::Journal journal(8, 8, 8);
    journal.attachSink(sink);

    journal.span("job-1", "queue-wait", 1.0, 3.0);
    journal.span("job-1", "execute", 3.0, 10.0);
    journal.span("job-2", "execute", 4.0, 6.0);

    EXPECT_EQ(journal.spans().recorded(), 3u);
    EXPECT_EQ(journal.events().recorded(), 0u);
    std::vector<obs::SpanRecord> tail = journal.spans().tail(10);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail[0].track, "job-1");
    EXPECT_EQ(tail[0].name, "queue-wait");
    EXPECT_DOUBLE_EQ(tail[1].duration_ms, 7.0);

    // The sink saw the same spans, grouped by track.
    std::string trace = sink->toJson().dump();
    EXPECT_NE(trace.find("queue-wait"), std::string::npos);
    EXPECT_NE(trace.find("execute"), std::string::npos);
    EXPECT_NE(trace.find("job-1"), std::string::npos);
    EXPECT_NE(trace.find("job-2"), std::string::npos);
}

TEST(ObsServiceJournal, ConcurrentRecordingIsLossBoundedAndOrdered)
{
    obs::Journal journal(16, 64, 32);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&journal, t] {
            std::string track = "t" + std::to_string(t);
            for (int i = 0; i < 100; ++i) {
                journal.event(obs::LogLevel::Info, track, "op",
                              obs::eventFields("i", i));
                journal.span(track, "op", i * 1.0, i * 1.0 + 0.5);
            }
        });
    for (std::thread& thread : threads)
        thread.join();

    // Each lane counts and evicts on its own.
    EXPECT_EQ(journal.events().recorded(), 400u);
    EXPECT_EQ(journal.events().dropped(), 400u - 64u);
    EXPECT_EQ(journal.spans().recorded(), 400u);
    EXPECT_EQ(journal.spans().dropped(), 400u - 32u);
    EXPECT_EQ(journal.spans().tail(1000).size(), 32u);

    // Stamped under the lock: the ring is in time order.
    std::vector<obs::EventRecord> tail = journal.events().tail(1000);
    ASSERT_EQ(tail.size(), 64u);
    for (std::size_t i = 1; i < tail.size(); ++i)
        EXPECT_LE(tail[i - 1].t_ms, tail[i].t_ms) << "at " << i;
}

TEST(ObsServiceFlight, DeterministicRingTruncation)
{
    std::string path = tempPath("obs-service-truncation.json");
    std::remove(path.c_str());

    // The dump window (4) is narrower than the event lane (8).
    obs::Journal journal(4, 8, 8);
    for (int i = 0; i < 10; ++i)
        journal.event(obs::LogLevel::Info, "j-" + std::to_string(i),
                      i % 2 == 0 ? "job.done" : "job.shed",
                      obs::eventFields("i", i));
    journal.span("j-9", "execute", 0.0, 1.0);
    EXPECT_EQ(journal.events().recorded(), 10u);
    EXPECT_EQ(journal.events().dropped(), 2u);
    ASSERT_TRUE(journal.dumpTo(path).ok());

    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<obs::json::Value> parsed = obs::json::parse(buffer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const obs::json::Value& doc = parsed.value();
    EXPECT_EQ(doc.find("capacity")->asNumber(), 4);
    EXPECT_EQ(doc.find("recorded")->asNumber(), 10);
    EXPECT_EQ(doc.find("dropped")->asNumber(), 6);
    const obs::json::Value* records = doc.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->asArray().size(), 4u);
    // Exactly the last four events, in order; spans stay out.
    for (int k = 0; k < 4; ++k) {
        const obs::json::Value& record = records->asArray()[k];
        EXPECT_EQ(record.find("fields")->find("i")->asNumber(), 6 + k);
        EXPECT_EQ(record.find("event")->asString(),
                  (6 + k) % 2 == 0 ? "job.done" : "job.shed");
        EXPECT_EQ(record.find("job_id")->asString(),
                  "j-" + std::to_string(6 + k));
        EXPECT_NE(record.find("t_ms"), nullptr);
    }
    std::remove(path.c_str());
}

TEST(ObsServiceFlight, DumpIsAtomicAndParsesBack)
{
    std::string path = tempPath("obs-service-journal.json");
    std::remove(path.c_str());

    obs::Journal journal(8, 8, 8);
    journal.event(obs::LogLevel::Warn, "j-1", "job.shed",
                  obs::eventFields("reason", "queue full"));
    journal.event(obs::LogLevel::Info, "j-1", "job.done",
                  obs::eventFields("status", "ok"));
    // dump() without a configured path is a structured error.
    EXPECT_FALSE(journal.dump().ok());
    EXPECT_FALSE(std::ifstream(path).good());

    journal.setDumpPath(path);
    ASSERT_TRUE(journal.dump().ok());
    // Atomic discipline: no temp file left behind.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());

    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<obs::json::Value> parsed = obs::json::parse(buffer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const obs::json::Value& doc = parsed.value();
    EXPECT_EQ(doc.find("recorded")->asNumber(), 2);
    EXPECT_EQ(doc.find("dropped")->asNumber(), 0);
    const obs::json::Value* records = doc.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->asArray().size(), 2u);
    const obs::json::Value& shed = records->asArray()[0];
    EXPECT_EQ(shed.find("event")->asString(), "job.shed");
    EXPECT_EQ(shed.find("level")->asString(), "warn");
    EXPECT_EQ(shed.find("fields")->find("reason")->asString(),
              "queue full");
    const obs::json::Value& done = records->asArray()[1];
    EXPECT_EQ(done.find("job_id")->asString(), "j-1");
    EXPECT_EQ(done.find("fields")->find("status")->asString(), "ok");
    std::remove(path.c_str());
}

/** A sink whose span() calls the crash-dump entry point with the
 * journal lock held by the calling thread: the shape of a fatal
 * signal raised mid-record. */
struct CrashingSink : obs::TraceSink
{
    const obs::Journal* journal = nullptr;
    std::atomic<bool> called{false};
    std::atomic<bool> dumped{false};

    void event(const obs::TraceRecord&) override {}
    void span(const std::string&, const std::string&, double,
              double) override
    {
        dumped = journal->crashDump();
        called = true;
    }
};

TEST(ObsServiceJournal, CrashDumpInsideARecordReturnsWithoutWriting)
{
    std::string path = tempPath("obs-service-crash.json");
    std::remove(path.c_str());

    auto journal = std::make_shared<obs::Journal>(8, 8, 8);
    journal->setDumpPath(path);
    journal->event(obs::LogLevel::Info, "j-1", "job.admit");
    auto sink = std::make_shared<CrashingSink>();
    sink->journal = journal.get();
    journal->attachSink(sink);

    // The writer owns references to everything it touches, so a
    // writer that deadlocked can be detached without dangling.
    auto finished = std::make_shared<std::promise<void>>();
    std::future<void> done = finished->get_future();
    std::thread writer([journal, finished] {
        journal->span("j-1", "execute", 0.0, 1.0);
        finished->set_value();
    });
    bool returned = done.wait_for(std::chrono::seconds(10)) ==
                    std::future_status::ready;
    if (returned)
        writer.join();
    else
        writer.detach();  // blocked for good: joining would hang
    ASSERT_TRUE(returned)
        << "the crash path blocked on the journal's own lock";
    EXPECT_TRUE(sink->called.load());
    EXPECT_FALSE(sink->dumped.load());
    EXPECT_FALSE(std::ifstream(path).good());

    // Outside the lock the same entry point does write.
    EXPECT_TRUE(journal->crashDump());
    EXPECT_TRUE(std::ifstream(path).good());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Per-verb accounting.
// ---------------------------------------------------------------------

TEST(ObsServiceVerbs, ReservoirsAreKeyedByVerbAndSplitByPhase)
{
    served::ServiceObserver observer;
    // A cheap verb and an expensive verb must never share a window —
    // the regression this fixes: one reservoir for all kinds let ping
    // traffic mask a slow verify p99.
    for (int i = 0; i < 10; ++i)
        observer.recordVerb("ping", "ok", 0.1, 0.2);
    for (int i = 0; i < 10; ++i)
        observer.recordVerb("verify", "ok", 5.0, 50.0);
    observer.recordVerb("verify", "rejected", 0.0, 0.0);
    observer.recordVerb("verify", "error", 1.0, 2.0);
    observer.recordVerb("verify", "cancelled", 1.0, 2.0);

    obs::json::Value verbs = observer.verbsJson();
    const obs::json::Value* ping = verbs.find("ping");
    const obs::json::Value* verify = verbs.find("verify");
    ASSERT_NE(ping, nullptr);
    ASSERT_NE(verify, nullptr);

    EXPECT_EQ(ping->find("requests")->asNumber(), 10);
    EXPECT_EQ(verify->find("requests")->asNumber(), 13);
    EXPECT_EQ(verify->find("ok")->asNumber(), 10);
    EXPECT_EQ(verify->find("shed")->asNumber(), 1);
    EXPECT_EQ(verify->find("errors")->asNumber(), 1);
    EXPECT_EQ(verify->find("cancelled")->asNumber(), 1);

    // The split: ping p50 stays sub-millisecond, verify p50 stays
    // honest, and the shed request contributed to no window (it never
    // queued or ran).
    EXPECT_LT(ping->find("execute")->find("p50")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(
        verify->find("execute")->find("p50")->asNumber(), 50.0);
    EXPECT_DOUBLE_EQ(
        verify->find("queue_wait")->find("p50")->asNumber(), 5.0);
    EXPECT_EQ(verify->find("execute")->find("count")->asNumber(), 12);
}

// ---------------------------------------------------------------------
// Correlation ids across retry and shed-then-resubmit.
// ---------------------------------------------------------------------

TEST(ObsServiceDaemon, CorrelationIdRidesEveryResponse)
{
    std::string path = socketPath("corr-basic");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler.workers = 1;
    config.scheduler.queue_capacity = 4;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    served::Client client(clientConfig(path));
    JobSpec ping;
    ping.kind = "ping";

    // Client-minted id comes back verbatim.
    Result<served::JobResponse> first = client.request(ping);
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_EQ(first.value().job_id, client.lastJobId());
    EXPECT_FALSE(first.value().job_id.empty());
    EXPECT_EQ(first.value().job_id.substr(0, 2), "c-");

    // A caller-provided id wins over minting.
    Result<served::JobResponse> named =
        client.request(ping, 0.0, "req-42");
    ASSERT_TRUE(named.ok()) << named.error().message;
    EXPECT_EQ(named.value().job_id, "req-42");
    EXPECT_EQ(client.lastJobId(), "req-42");

    // Distinct logical requests get distinct minted ids.
    Result<served::JobResponse> second = client.request(ping);
    ASSERT_TRUE(second.ok());
    EXPECT_NE(second.value().job_id, first.value().job_id);
    daemon.stop();
}

TEST(ObsServiceDaemon, CorrelationIdSurvivesShedThenResubmit)
{
    std::string path = socketPath("corr-shed");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler.workers = 1;
    config.scheduler.queue_capacity = 1;
    auto observer = std::make_shared<served::ServiceObserver>();
    config.scheduler.observer = observer;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    const std::string dot = gcdDot();

    // Pin the single worker and fill the one queue slot with jobs
    // that cannot finish before their deadlines. A blocker that
    // arrives while the other still waits in the queue is shed, so
    // blockers retry with sleeps until admitted. jthreads join on
    // every exit path, failed assertions included.
    std::vector<std::jthread> blockers;
    served::ClientConfig blocker_config = clientConfig(path);
    blocker_config.sleep_between_retries = true;
    blocker_config.backoff.base_ms = 5.0;
    blocker_config.backoff.cap_ms = 20.0;
    blocker_config.backoff.max_attempts = 50;
    for (std::uint64_t b = 0; b < 2; ++b)
        blockers.emplace_back([&, b] {
            // Named ids: clients of one seed mint the same series.
            served::Client blocker(blocker_config);
            (void)blocker.request(blockerSpec(dot, 7000 + b), 2.5,
                                  "blocker-" + std::to_string(b));
        });

    // Wait until the daemon reports worker busy + queue full; the
    // introspection verbs bypass the queue, so this works under load.
    served::Client prober(clientConfig(path));
    bool saturated = false;
    auto give_up = std::chrono::steady_clock::now() +
                   std::chrono::seconds(10);
    while (!saturated && std::chrono::steady_clock::now() < give_up) {
        Result<obs::json::Value> jobs = prober.serviceJobs();
        ASSERT_TRUE(jobs.ok()) << jobs.error().message;
        saturated = jobs.value().find("running")->asNumber() == 1 &&
                    jobs.value().find("queued")->asNumber() == 1;
        if (!saturated)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(saturated) << "blockers never saturated the daemon";

    // Now the real request: first attempt is shed, the retries carry
    // the SAME correlation id, and once the blockers' deadlines fire
    // it is admitted and answered under that id.
    served::ClientConfig cc = clientConfig(path);
    cc.sleep_between_retries = true;
    cc.backoff.base_ms = 20.0;
    cc.backoff.cap_ms = 100.0;
    cc.backoff.max_attempts = 200;
    served::Client client(cc);
    JobSpec spec = verifySpec(dot);
    Result<served::JobResponse> response = client.request(spec);
    ASSERT_TRUE(response.ok()) << response.error().message;
    EXPECT_EQ(response.value().status, "ok")
        << response.value().error;
    std::string id = client.lastJobId();
    EXPECT_EQ(response.value().job_id, id);
    EXPECT_GE(client.stats().sheds_seen, 1u)
        << "the saturated daemon should have shed at least once";

    daemon.stop();
    blockers.clear();

    // The journal stitched the story: the same id appears on a
    // job.shed event AND on the job.done event of the completion.
    // However often a job was shed and retried, it was admitted and
    // finished exactly once.
    bool shed_seen = false;
    const obs::EventRecord* done = nullptr;
    std::map<std::string, int> admits, dones;
    std::vector<obs::EventRecord> events =
        observer->journal().events().tail(1024);
    for (const obs::EventRecord& record : events) {
        if (record.event == "job.admit")
            admits[record.job_id] += 1;
        if (record.event == "job.done")
            dones[record.job_id] += 1;
        if (record.job_id != id)
            continue;
        if (record.event == "job.shed") {
            shed_seen = true;
            EXPECT_FALSE(
                record.fields.find("reason")->asString().empty());
        }
        if (record.event == "job.done")
            done = &record;
    }
    EXPECT_TRUE(shed_seen) << "no job.shed event under id " << id;
    ASSERT_NE(done, nullptr) << "no job.done event under id " << id;
    EXPECT_EQ(done->fields.find("status")->asString(), "ok");
    for (const char* key :
         {"client", "verb", "status", "queue_wait_ms", "execute_ms",
          "states", "verification_level", "verify_cache_hit"})
        EXPECT_NE(done->fields.find(key), nullptr) << key;
    EXPECT_EQ(admits.size(), 3u) << "two blockers and the request";
    EXPECT_EQ(dones.size(), 3u);
    for (const auto& [job_id, count] : admits) {
        EXPECT_EQ(count, 1) << job_id;
        EXPECT_EQ(dones[job_id], 1) << job_id;
    }
}

// ---------------------------------------------------------------------
// Introspection round-trips.
// ---------------------------------------------------------------------

TEST(ObsServiceDaemon, StatsJobsHealthRoundTripOnTheWire)
{
    std::string path = socketPath("introspect");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler.workers = 2;
    config.scheduler.queue_capacity = 4;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    served::Client client(clientConfig(path));

    JobSpec ping;
    ping.kind = "ping";
    ASSERT_TRUE(client.request(ping).ok());

    // stats: connection counters, per-verb windows, scheduler totals.
    Result<obs::json::Value> stats = client.serviceStats();
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_GT(stats.value().find("uptime_seconds")->asNumber(), 0.0);
    const obs::json::Value* connections =
        stats.value().find("connections");
    ASSERT_NE(connections, nullptr);
    EXPECT_GE(connections->find("accepted")->asNumber(), 1);
    EXPECT_EQ(connections->find("malformed_frames")->asNumber(), 0);
    const obs::json::Value* verbs = stats.value().find("verbs");
    ASSERT_NE(verbs, nullptr);
    const obs::json::Value* ping_stats = verbs->find("ping");
    ASSERT_NE(ping_stats, nullptr);
    EXPECT_EQ(ping_stats->find("ok")->asNumber(), 1);
    ASSERT_NE(ping_stats->find("queue_wait"), nullptr);
    ASSERT_NE(ping_stats->find("execute"), nullptr);

    // health: lanes alive, store shape, listener identity. Each lane
    // counts itself alive from its own thread, so give both a moment
    // to come up before reading the verdict.
    Result<obs::json::Value> health = client.serviceHealth();
    for (int i = 0; i < 200 && health.ok() &&
                    health.value()
                            .find("scheduler")
                            ->find("workers_alive")
                            ->asNumber() < 2;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        health = client.serviceHealth();
    }
    ASSERT_TRUE(health.ok()) << health.error().message;
    EXPECT_EQ(health.value().find("status")->asString(), "ok");
    const obs::json::Value* sched_health =
        health.value().find("scheduler");
    ASSERT_NE(sched_health, nullptr);
    EXPECT_TRUE(sched_health->find("accepting")->asBool());
    EXPECT_EQ(sched_health->find("workers_alive")->asNumber(), 2);
    EXPECT_EQ(sched_health->find("workers_configured")->asNumber(), 2);
    EXPECT_EQ(
        health.value().find("listeners")->find("socket_path")
            ->asString(),
        path);

    // jobs: empty when idle...
    Result<obs::json::Value> idle = client.serviceJobs();
    ASSERT_TRUE(idle.ok());
    EXPECT_EQ(idle.value().find("running")->asNumber(), 0);
    EXPECT_EQ(idle.value().find("jobs")->asArray().size(), 0u);

    // ...and a live entry, with deadline remaining and a phase, while
    // a deadlined blocker runs.
    std::thread blocker([&] {
        served::Client inner(clientConfig(path));
        (void)inner.request(blockerSpec(gcdDot(), 9100), 1.5);
    });
    bool seen_running = false;
    for (int i = 0; i < 400 && !seen_running; ++i) {
        Result<obs::json::Value> jobs = client.serviceJobs();
        ASSERT_TRUE(jobs.ok());
        for (const obs::json::Value& job :
             jobs.value().find("jobs")->asArray()) {
            if (job.find("phase")->asString() != "running")
                continue;
            seen_running = true;
            EXPECT_EQ(job.find("verb")->asString(), "verify");
            EXPECT_FALSE(job.find("job_id")->asString().empty());
            const obs::json::Value* remaining =
                job.find("deadline_remaining_ms");
            ASSERT_NE(remaining, nullptr);
            EXPECT_GT(remaining->asNumber(), 0.0);
            EXPECT_LE(remaining->asNumber(), 1500.0);
            ASSERT_NE(job.find("verify_rungs"), nullptr);
        }
        if (!seen_running)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(seen_running)
        << "the running blocker never showed in the job table";
    blocker.join();

    // stats after one governed verify: the job's exploration folded
    // into the service registry, and the scheduler counted it.
    Result<served::JobResponse> verified =
        client.request(verifySpec(gcdDot()));
    ASSERT_TRUE(verified.ok()) << verified.error().message;
    ASSERT_EQ(verified.value().status, "ok") << verified.value().error;
    Result<obs::json::Value> after = client.serviceStats();
    ASSERT_TRUE(after.ok()) << after.error().message;
    const obs::json::Value* metrics = after.value().find("metrics");
    ASSERT_NE(metrics, nullptr);
    const obs::json::Value* states =
        metrics->find("counters")->find("refine.states");
    ASSERT_NE(states, nullptr) << metrics->dump(2);
    EXPECT_GT(states->asNumber(), 0.0);
    // guard.verify.peak_bytes.total rolls up only on a winning rung;
    // refine.peak_bytes covers explorations that blew their budget.
    double peak_bytes = 0.0;
    for (const char* gauge :
         {"guard.verify.peak_bytes.total", "refine.peak_bytes"})
        if (const obs::json::Value* g =
                metrics->find("gauges")->find(gauge))
            peak_bytes = std::max(peak_bytes, g->asNumber());
    EXPECT_GT(peak_bytes, 0.0) << metrics->dump(2);
    EXPECT_GE(after.value().find("scheduler")->find("completed")
                  ->asNumber(),
              1);
    daemon.stop();
}

TEST(ObsServiceDaemon, ConnectionCountersNameEveryDropCause)
{
    std::string path = socketPath("conn-counters");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler.workers = 1;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());

    // One junk frame (parses as no JSON), one malformed request (JSON
    // but not a JobRequest), one clean EOF.
    {
        net::Socket raw = net::connectUnix(path).take();
        ASSERT_TRUE(
            net::writeAll(raw, served::encodeFrame("]junk["), 1000)
                .ok());
        std::string response;
        (void)served::readFrame(raw, response, 2000);
    }
    {
        net::Socket raw = net::connectUnix(path).take();
        ASSERT_TRUE(net::writeAll(
                        raw, served::encodeFrame("{\"not\":\"a request\"}"),
                        1000)
                        .ok());
        std::string response;
        (void)served::readFrame(raw, response, 2000);
    }
    {
        net::Socket raw = net::connectUnix(path).take();
        raw.close();  // connect then hang up: a clean EOF
    }

    // Two well-formed requests of unknown kinds (one of them the
    // retired text-exposition verb): each is refused by name and
    // counted as malformed, never answered as an introspection verb.
    served::Client client(clientConfig(path));
    for (const char* kind : {"metricsz", "nope"}) {
        JobSpec spec;
        spec.kind = kind;
        Result<served::JobResponse> response = client.request(spec);
        ASSERT_TRUE(response.ok()) << response.error().message;
        EXPECT_EQ(response.value().status, "error");
        EXPECT_NE(response.value().error.find(
                      "unknown job kind \"" + std::string(kind) + "\""),
                  std::string::npos)
            << response.value().error;
        EXPECT_EQ(response.value().result.find("health"), nullptr);
    }

    // Poll: the daemon counts asynchronously to the close.
    bool counted = false;
    obs::json::Value last;
    for (int i = 0; i < 200 && !counted; ++i) {
        Result<obs::json::Value> stats = client.serviceStats();
        ASSERT_TRUE(stats.ok());
        last = *stats.value().find("connections");
        counted = last.find("malformed_frames")->asNumber() >= 1 &&
                  last.find("malformed_requests")->asNumber() >= 3 &&
                  last.find("clean_eofs")->asNumber() >= 1;
        if (!counted)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(counted) << last.dump(2);
    // The junk-free request without a job, and both unknown kinds.
    EXPECT_EQ(last.find("malformed_requests")->asNumber(), 3);
    daemon.stop();
}

// ---------------------------------------------------------------------
// Neutrality: the plane must not touch verdicts.
// ---------------------------------------------------------------------

TEST(ObsServiceDaemon, VerdictsByteIdenticalWithObserverOnAndOff)
{
    const std::string dot = gcdDot();
    JobSpec spec = verifySpec(dot);
    spec.options.verify_cache = false;

    // One-shot baseline.
    Compiler compiler;
    CompileOptions options = spec.options;
    Result<CompileReport> oneshot =
        compiler.compileDot(spec.circuit_dot, options);
    ASSERT_TRUE(oneshot.ok()) << oneshot.error().message;
    std::string baseline = oneshot.value().verdict.toJson().dump(2);

    for (bool observed : {true, false}) {
        served::SchedulerConfig config;
        config.workers = 2;
        config.queue_capacity = 8;
        if (observed)
            config.observer = std::make_shared<served::ServiceObserver>();
        served::Scheduler scheduler(config);
        ASSERT_TRUE(scheduler.start().ok());
        served::JobOutcome outcome = scheduler.submitAndWait("t", spec);
        ASSERT_EQ(outcome.status, "ok") << outcome.error;
        const obs::json::Value* verdict = outcome.result.find("verdict");
        ASSERT_NE(verdict, nullptr);
        EXPECT_EQ(verdict->dump(2), baseline)
            << "observer " << (observed ? "caller's" : "scheduler's own");
        scheduler.stop();
    }
}

// ---------------------------------------------------------------------
// Introspection under fire.
// ---------------------------------------------------------------------

TEST(ObsServiceDaemon, StatsPollingStaysAnsweredDuringHostileSoak)
{
    std::string path = socketPath("soak");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler.workers = 2;
    config.scheduler.queue_capacity = 2;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    const std::string dot = gcdDot();

    std::atomic<bool> done{false};
    std::atomic<std::size_t> polls_answered{0};

    // Three pollers hammer the introspection verbs concurrently.
    std::vector<std::thread> pollers;
    for (int p = 0; p < 3; ++p)
        pollers.emplace_back([&, p] {
            served::Client poller(clientConfig(path));
            while (!done.load()) {
                Result<obs::json::Value> answer =
                    p == 0   ? poller.serviceStats()
                    : p == 1 ? poller.serviceJobs()
                             : poller.serviceHealth();
                if (answer.ok())
                    polls_answered.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        });

    // Meanwhile: hostile traffic + real load.
    std::vector<std::thread> hostiles;
    for (int h = 0; h < 2; ++h)
        hostiles.emplace_back([&, h] {
            for (int i = 0; i < 12; ++i) {
                switch ((h + i) % 3) {
                    case 0: {  // junk payload
                        Result<net::Socket> raw =
                            net::connectUnix(path);
                        if (raw.ok())
                            (void)net::writeAll(
                                raw.value(),
                                served::encodeFrame("Z}no!{"),
                                500);
                        break;
                    }
                    case 1: {  // half a frame, then vanish
                        Result<net::Socket> raw =
                            net::connectUnix(path);
                        if (raw.ok()) {
                            std::string frame =
                                served::encodeFrame("{\"id\":1}");
                            (void)net::writeAll(
                                raw.value(),
                                frame.substr(0, frame.size() / 2),
                                500);
                        }
                        break;
                    }
                    default: {  // a real (tiny) job
                        served::Client worker(clientConfig(path));
                        JobSpec spec = verifySpec(dot);
                        spec.options.verify_budget.seed =
                            9000 + h * 100 + i;
                        (void)worker.request(spec, 2.0);
                        break;
                    }
                }
            }
        });
    for (std::thread& hostile : hostiles)
        hostile.join();
    done.store(true);
    for (std::thread& poller : pollers)
        poller.join();

    EXPECT_GT(polls_answered.load(), 0u);

    // The daemon is still healthy after the soak.
    served::Client client(clientConfig(path));
    Result<obs::json::Value> health = client.serviceHealth();
    ASSERT_TRUE(health.ok()) << health.error().message;
    EXPECT_EQ(health.value().find("status")->asString(), "ok");
    daemon.stop();
}

}  // namespace
}  // namespace graphiti

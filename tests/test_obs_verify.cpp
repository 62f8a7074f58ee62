/**
 * @file
 * Verification-engine telemetry
 * (docs/verification_observability.md): the live progress probe, the
 * resource accounting, the pool-occupancy counters and the exposition
 * endpoint — and, above all, their neutrality: verdicts must be
 * byte-identical with probes attached or absent, at any thread
 * count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <vector>

#include "bench_circuits/gcd.hpp"
#include "dot/dot.hpp"
#include "obs/expose.hpp"
#include "obs/scope.hpp"
#include "obs/vprobe.hpp"
#include "refine/refinement.hpp"
#include "served/client.hpp"
#include "served/daemon.hpp"
#include "support/thread_pool.hpp"

namespace graphiti {
namespace {

std::vector<Token>
gcdPairs()
{
    return {Token(Value::tuple(Value(3), Value(2))),
            Token(Value::tuple(Value(4), Value(2)))};
}

/** One theorem-5.3 refinement check (ooo gcd vs sequential gcd) at
 * @p threads lanes, run inside @p scope when non-null. */
RefinementReport
runGcdCheck(std::size_t threads, obs::Scope* scope)
{
    obs::ScopedInstall install(scope);
    Environment env(4);
    ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
    ExprHigh ooo = circuits::buildGcdOutOfOrder(env.functions(), 2);
    Result<RefinementReport> report = checkGraphRefinement(
        ooo, seq, env, gcdPairs(),
        {.max_states = 200000, .input_budget = 2, .threads = threads});
    EXPECT_TRUE(report.ok()) << report.error().message;
    return report.ok() ? report.take() : RefinementReport{};
}

/** The buffer module of the state-space tests: tiny, deterministic. */
DenotedModule
bufferModule(Environment& env)
{
    ExprHigh g;
    g.addNode("b", "buffer");
    g.bindInput(0, PortRef{"b", "in0"});
    g.bindOutput(0, PortRef{"b", "out0"});
    return DenotedModule::denote(lowerToExprLow(g).value(), env).take();
}

// ---------------------------------------------------------------------
// The probe itself: lock-free publish/snapshot, sorted JSON.

TEST(VerifyProbe, SnapshotReflectsPublishes)
{
    obs::VerifyProbe probe;
    EXPECT_EQ(probe.snapshot().samples, 0u);

    probe.beginPhase(obs::VerifyPhase::Explore, "full");
    probe.publishExplore(100, 7, 2500.0, 12.5);
    probe.notePeakBytes(4096);
    obs::VerifyProgress p = probe.snapshot();
    EXPECT_EQ(p.phase, obs::VerifyPhase::Explore);
    EXPECT_STREQ(p.rung, "full");
    EXPECT_EQ(p.states, 100u);
    EXPECT_EQ(p.frontier, 7u);
    EXPECT_DOUBLE_EQ(p.states_per_second, 2500.0);
    EXPECT_EQ(p.peak_bytes, 4096u);
    EXPECT_GE(p.samples, 1u);

    probe.beginPhase(obs::VerifyPhase::Game, "full");
    probe.publishGame(42, 3, 40);
    p = probe.snapshot();
    EXPECT_EQ(p.phase, obs::VerifyPhase::Game);
    EXPECT_EQ(p.pairs, 42u);
    EXPECT_EQ(p.round, 3u);
    EXPECT_EQ(p.alive, 40u);
    // The peak survives phase changes (it is a per-job high water).
    EXPECT_EQ(p.peak_bytes, 4096u);
    probe.notePeakBytes(100);  // lower: must not regress the max
    EXPECT_EQ(probe.peakBytes(), 4096u);
}

TEST(VerifyProbe, ProgressJsonKeysAreSorted)
{
    obs::VerifyProbe probe;
    probe.beginPhase(obs::VerifyPhase::Explore, "bounded-partial");
    probe.publishExplore(5, 1, 10.0, 1.0);
    std::string dump = probe.snapshot().toJson().dump();
    // Deterministic key ordering: every metrics/stats snapshot emits
    // sorted keys so byte-comparison of equal snapshots always works.
    std::vector<std::string> keys = {
        "alive",      "deadline_remaining_s",
        "frontier",   "pairs",
        "parks",      "peak_bytes",
        "phase",      "resumes",
        "round",      "rung",
        "samples",    "states",
        "states_cap_pct", "states_per_second"};
    std::size_t pos = 0;
    for (const std::string& key : keys) {
        std::size_t at = dump.find("\"" + key + "\"");
        ASSERT_NE(at, std::string::npos) << key;
        EXPECT_GE(at, pos) << key << " out of order in " << dump;
        pos = at;
    }
}

// ---------------------------------------------------------------------
// Probe threading through the verification core.

TEST(VerifyTelemetry, ProbeSeesExploreAndGame)
{
    auto scope = std::make_shared<obs::Scope>();
    auto probe = std::make_shared<obs::VerifyProbe>();
    scope->attachVerifyProbe(probe);

    RefinementReport report = runGcdCheck(1, scope.get());
    EXPECT_TRUE(report.refines);

    obs::VerifyProgress p = probe->snapshot();
    EXPECT_GT(p.samples, 0u) << "the verify core never published";
    // The final explore publish reports the completed spec space; the
    // game publishes after every discovery level and fixpoint round.
    EXPECT_GT(p.states, 0u);
    EXPECT_EQ(p.pairs, report.reachable_pairs);
    EXPECT_GT(p.round, 0u);
    EXPECT_GT(p.peak_bytes, 0u);
    // Phases (and rungs) are Governor business; a direct refinement
    // check publishes readings without relabeling the phase.
    EXPECT_EQ(p.phase, obs::VerifyPhase::Idle);
}

TEST(VerifyTelemetry, VerdictByteIdenticalAcrossThreadsAndProbes)
{
    // The telemetry-neutrality contract at the heart of this plane:
    // same verdict-relevant fields with a probe attached, with a bare
    // scope, and with no scope at all, at 1, 2 and 8 lanes.
    RefinementReport baseline = runGcdCheck(1, nullptr);
    ASSERT_TRUE(baseline.refines);

    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
        for (bool with_probe : {false, true}) {
            auto scope = std::make_shared<obs::Scope>();
            if (with_probe)
                scope->attachVerifyProbe(
                    std::make_shared<obs::VerifyProbe>());
            RefinementReport report =
                runGcdCheck(threads, scope.get());
            EXPECT_EQ(report.refines, baseline.refines);
            EXPECT_EQ(report.counterexample, baseline.counterexample);
            EXPECT_EQ(report.impl_states, baseline.impl_states);
            EXPECT_EQ(report.spec_states, baseline.spec_states);
            EXPECT_EQ(report.reachable_pairs,
                      baseline.reachable_pairs);
            EXPECT_EQ(report.fixpoint_iterations,
                      baseline.fixpoint_iterations);
        }
    }
}

TEST(VerifyTelemetry, PeakBytesStableAcrossRunsAndThreads)
{
    RefinementReport first = runGcdCheck(1, nullptr);
    RefinementReport again = runGcdCheck(1, nullptr);
    // Size-based estimates are pure functions of the explored space,
    // so two identical runs agree exactly...
    EXPECT_EQ(first.explore_peak_bytes, again.explore_peak_bytes);
    EXPECT_EQ(first.peak_bytes, again.peak_bytes);
    // ...and so does any thread count (the tables grow to the same
    // final content through the same deterministic insertions).
    RefinementReport wide = runGcdCheck(8, nullptr);
    EXPECT_EQ(wide.explore_peak_bytes, first.explore_peak_bytes);
    EXPECT_EQ(wide.peak_bytes, first.peak_bytes);
    EXPECT_GT(first.explore_peak_bytes, 0u);
    EXPECT_GT(first.peak_bytes, 0u);
}

TEST(VerifyTelemetry, ParkAndResumeReachTheProbe)
{
    auto scope = std::make_shared<obs::Scope>();
    auto probe = std::make_shared<obs::VerifyProbe>();
    scope->attachVerifyProbe(probe);
    obs::ScopedInstall install(scope.get());

    Environment env(4);
    DenotedModule mod = bufferModule(env);
    InputDomain domain = InputDomain::uniform(
        mod, {Token(Value(1)), Token(Value(2))});
    // Cap well below the full space: the exploration parks.
    Result<StateSpace> parked = StateSpace::explorePartial(
        mod, domain, {.max_states = 4, .input_budget = 3});
    ASSERT_TRUE(parked.ok()) << parked.error().message;
    ASSERT_FALSE(parked.value().complete());

    obs::VerifyProgress at_park = probe->snapshot();
    StateSpace space = parked.take();
    ASSERT_TRUE(space.resume(mod, 100000).ok());
    EXPECT_TRUE(space.complete());
    obs::VerifyProgress at_resume = probe->snapshot();

    // The park -> resume transition a `--watch-job` poller tails.
    EXPECT_EQ(at_park.parks, 1u);
    EXPECT_EQ(at_park.resumes, 0u);
    EXPECT_EQ(at_resume.parks, 1u);
    EXPECT_EQ(at_resume.resumes, 1u);
    EXPECT_GT(at_resume.states, at_park.states);
}

// ---------------------------------------------------------------------
// Pool occupancy.

TEST(PoolOccupancy, LaneChunksSumToSubmitted)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{4}}) {
        ThreadPool pool(threads);
        std::atomic<std::uint64_t> touched{0};
        for (int batch = 0; batch < 5; ++batch)
            pool.parallelFor(257, [&](std::size_t) {
                touched.fetch_add(1, std::memory_order_relaxed);
            });
        EXPECT_EQ(touched.load(), 5u * 257u);

        ThreadPool::PoolStats stats = pool.stats();
        std::uint64_t lane_chunks = 0;
        for (const ThreadPool::LaneStats& lane : stats.lanes)
            lane_chunks += lane.chunks;
        // Work stealing moves chunks between lanes; it never loses or
        // duplicates one.
        EXPECT_EQ(lane_chunks, stats.chunks_submitted);
        EXPECT_EQ(stats.batches, 5u);
        EXPECT_EQ(stats.lanes.size(), pool.size());
    }
}

// ---------------------------------------------------------------------
// Exposition format: render -> parse round trip.

TEST(Exposition, RegistryRoundTripsThroughLineParser)
{
    obs::MetricsRegistry registry;
    registry.add("refine.states", 1234);
    registry.add("guard.verify.cache_hits", 3);
    registry.set("guard.verify.peak_bytes.total", 65536.0);

    obs::expo::TextExposition text;
    std::size_t emitted = obs::expo::renderRegistry(registry, text);
    EXPECT_GT(emitted, 0u);

    Result<std::vector<obs::expo::Sample>> parsed =
        obs::expo::parseExposition(text.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    auto value = [&](const std::string& name) -> double {
        for (const obs::expo::Sample& s : parsed.value())
            if (s.name == name)
                return s.value;
        ADD_FAILURE() << name << " missing from:\n" << text.str();
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(value("graphiti_refine_states_total"), 1234.0);
    EXPECT_DOUBLE_EQ(value("graphiti_guard_verify_cache_hits_total"),
                     3.0);
    EXPECT_DOUBLE_EQ(value("graphiti_guard_verify_peak_bytes_total"),
                     65536.0);
}

TEST(Exposition, RenderingIsSortedAndDeterministic)
{
    obs::MetricsRegistry a;
    a.add("z.last", 1);
    a.add("a.first", 2);
    a.set("m.middle", 3.0);
    obs::MetricsRegistry b;
    b.set("m.middle", 3.0);
    b.add("a.first", 2);
    b.add("z.last", 1);

    obs::expo::TextExposition ta, tb;
    obs::expo::renderRegistry(a, ta);
    obs::expo::renderRegistry(b, tb);
    // Insertion order must not leak into the document.
    EXPECT_EQ(ta.str(), tb.str());
    EXPECT_LT(ta.str().find("graphiti_a_first"),
              ta.str().find("graphiti_m_middle"));
    EXPECT_LT(ta.str().find("graphiti_m_middle"),
              ta.str().find("graphiti_z_last"));
}

// ---------------------------------------------------------------------
// The service surface: metricsz verb and the --expose endpoint.

std::string
socketPath(const std::string& tag)
{
    return "/tmp/graphiti-obsv-" + tag + "-" +
           std::to_string(::getpid()) + ".sock";
}

served::ClientConfig
clientConfig(const std::string& socket_path)
{
    served::ClientConfig config;
    config.socket_path = socket_path;
    config.sleep_between_retries = false;
    return config;
}

TEST(Metricsz, VerbAnswersWithAliasFamilies)
{
    std::string path = socketPath("metricsz");
    served::DaemonConfig config;
    config.socket_path = path;
    config.scheduler.workers = 1;
    config.scheduler.queue_capacity = 4;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    served::Client client(clientConfig(path));

    Result<std::string> before = client.serviceMetricsText();
    ASSERT_TRUE(before.ok()) << before.error().message;
    Result<std::vector<obs::expo::Sample>> parsed =
        obs::expo::parseExposition(before.value());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    auto find = [](const std::vector<obs::expo::Sample>& samples,
                   const std::string& name)
        -> const obs::expo::Sample* {
        for (const obs::expo::Sample& s : samples)
            if (s.name == name)
                return &s;
        return nullptr;
    };
    // The scrape contract: both alias families answer from the first
    // request on — zeros before any job.
    const obs::expo::Sample* states =
        find(parsed.value(), "graphiti_verify_states_total");
    const obs::expo::Sample* peak =
        find(parsed.value(), "graphiti_verify_peak_bytes");
    ASSERT_NE(states, nullptr) << before.value();
    ASSERT_NE(peak, nullptr) << before.value();
    EXPECT_EQ(states->value, 0.0);
    EXPECT_EQ(peak->value, 0.0);

    // One governed verify, then the families must move (OBS on).
    Environment env(4);
    ExprHigh gcd = circuits::buildGcdInOrder();
    JobSpec spec;
    spec.kind = "verify";
    spec.circuit_dot = printDot(gcd);
    spec.options.governed_verify = true;
    spec.options.num_tags = 4;
    spec.options.verify_budget.max_states = 800;
    spec.options.verify_budget.partial_max_states = 300;
    spec.options.verify_budget.input_budget = 1;
    spec.options.verify_budget.trace_walks = 2;
    spec.options.verify_budget.trace.max_steps = 60;
    spec.options.verify_budget.trace.max_inputs = 2;
    Result<served::JobResponse> response = client.request(spec);
    ASSERT_TRUE(response.ok()) << response.error().message;
    ASSERT_EQ(response.value().status, "ok")
        << response.value().error;

    Result<std::string> after = client.serviceMetricsText();
    ASSERT_TRUE(after.ok()) << after.error().message;
    Result<std::vector<obs::expo::Sample>> reparsed =
        obs::expo::parseExposition(after.value());
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    const obs::expo::Sample* states_after =
        find(reparsed.value(), "graphiti_verify_states_total");
    const obs::expo::Sample* peak_after =
        find(reparsed.value(), "graphiti_verify_peak_bytes");
    ASSERT_NE(states_after, nullptr);
    ASSERT_NE(peak_after, nullptr);
    EXPECT_GT(states_after->value, 0.0) << after.value();
    EXPECT_GT(peak_after->value, 0.0) << after.value();
    // Service-plane counters ride along.
    const obs::expo::Sample* completed =
        find(reparsed.value(), "graphiti_jobs_completed_total");
    ASSERT_NE(completed, nullptr);
    EXPECT_GE(completed->value, 1.0);
    daemon.stop();
}

TEST(Metricsz, ExposeEndpointServesTheSameDocument)
{
    std::string path = socketPath("expose");
    served::DaemonConfig config;
    config.socket_path = path;
    config.expose_port = 0;  // ephemeral loopback
    config.scheduler.workers = 1;
    served::Daemon daemon(config);
    ASSERT_TRUE(daemon.start().ok());
    ASSERT_GT(daemon.exposePort(), 0);

    // Scrape exactly as curl would: HTTP/1.0, any path.
    Result<net::Socket> conn = net::connectTcp(daemon.exposePort());
    ASSERT_TRUE(conn.ok()) << conn.error().message;
    ASSERT_TRUE(net::writeAll(conn.value(),
                              "GET /metricsz HTTP/1.0\r\n\r\n", 2000)
                    .ok());
    std::string response;
    while (true) {
        Result<bool> readable = net::waitReadable(conn.value(), 2000);
        if (!readable.ok() || !readable.value())
            break;
        std::string chunk;
        Result<std::size_t> got =
            net::readSome(conn.value(), chunk, 1 << 16, 2000);
        if (!got.ok() || got.value() == 0)
            break;
        response += chunk;
    }
    EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
    std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    std::string body = response.substr(body_at + 4);
    Result<std::vector<obs::expo::Sample>> parsed =
        obs::expo::parseExposition(body);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    bool has_states = false;
    for (const obs::expo::Sample& s : parsed.value())
        if (s.name == "graphiti_verify_states_total")
            has_states = true;
    EXPECT_TRUE(has_states) << body;
    EXPECT_GE(daemon.exposePort(), 1u);
    daemon.stop();
}

}  // namespace
}  // namespace graphiti

/**
 * @file
 * Tests for token provenance and critical-path attribution
 * (src/obs/provenance.*, src/obs/critpath.*): the exact attribution
 * identity on the gcd workload, reorder-histogram shape on the
 * sequential vs transformed circuit, byte-identical determinism under
 * a fault plan, bounded-ring truncation, the TraceSink ring buffer
 * (satellite of the same PR), and stress-harness failure artifacts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "faults/fault_plan.hpp"
#include "faults/stress.hpp"
#include "obs/critpath.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace graphiti {
namespace {

namespace json = obs::json;

std::vector<Token>
intStream(std::initializer_list<std::int64_t> values)
{
    std::vector<Token> out;
    for (std::int64_t v : values)
        out.emplace_back(Value(v));
    return out;
}

/** The figure-2 gcd workload: three (a, b) streams, three outputs. */
faults::Workload
gcdWorkload()
{
    faults::Workload w;
    w.inputs = {intStream({1071, 987, 864}), intStream({462, 610, 528})};
    w.expected_outputs = 3;
    return w;
}

/** Compile the in-order gcd through the verified pipeline. */
Result<CompileReport>
compileGcd(Compiler& compiler)
{
    CompileOptions options;
    options.num_tags = 8;
    return compiler.compileGraph(circuits::buildGcdInOrder(), options);
}

void
expectAttributionExact(const obs::CritPathReport& report)
{
    obs::CycleAttribution sum;
    std::size_t complete = 0;
    for (const obs::TokenProfile& t : report.tokens) {
        if (t.truncated)
            continue;
        ++complete;
        EXPECT_EQ(t.attribution.total(), t.latency)
            << "port " << t.port << " ordinal " << t.ordinal;
        EXPECT_EQ(t.completion_cycle - t.birth_cycle, t.latency);
        sum += t.attribution;
    }
    EXPECT_GT(complete, 0u);
    EXPECT_EQ(sum.compute, report.totals.compute);
    EXPECT_EQ(sum.queue_wait, report.totals.queue_wait);
    EXPECT_EQ(sum.backpressure, report.totals.backpressure);
}

TEST(ProvGcd, AttributionSumsToLatency)
{
    Compiler compiler;
    Result<CompileReport> compiled = compileGcd(compiler);
    ASSERT_TRUE(compiled.ok()) << compiled.error().message;

    const ExprHigh sequential = circuits::buildGcdInOrder();
    const ExprHigh& transformed = compiled.value().graph;
    for (const ExprHigh* graph : {&sequential, &transformed}) {
        Result<ProfileBundle> bundle =
            compiler.profileRun(*graph, gcdWorkload());
        ASSERT_TRUE(bundle.ok()) << bundle.error().message;
        EXPECT_EQ(bundle.value().report.truncated_tokens, 0u);
        expectAttributionExact(bundle.value().report);
        // Every output token was profiled.
        EXPECT_EQ(bundle.value().report.tokens.size(), 3u);
    }
}

TEST(ProvGcd, SequentialReorderDegenerate)
{
    Compiler compiler;
    Result<ProfileBundle> bundle =
        compiler.profileRun(circuits::buildGcdInOrder(), gcdWorkload());
    ASSERT_TRUE(bundle.ok()) << bundle.error().message;
    const obs::CritPathReport& report = bundle.value().report;
    // No tagger in the sequential circuit, FIFO completions: every
    // reorder sample is zero.
    EXPECT_EQ(report.tag_returns, 0u);
    EXPECT_TRUE(report.reorder.degenerate());
    EXPECT_FALSE(report.completion_latency.degenerate());
}

TEST(ProvGcd, TransformedReorderNonDegenerate)
{
    Compiler compiler;
    Result<CompileReport> compiled = compileGcd(compiler);
    ASSERT_TRUE(compiled.ok()) << compiled.error().message;
    Result<ProfileBundle> bundle =
        compiler.profileRun(compiled.value().graph, gcdWorkload());
    ASSERT_TRUE(bundle.ok()) << bundle.error().message;
    const obs::CritPathReport& report = bundle.value().report;
    // The 14-iteration stream (987, 610) is overtaken by its 3- and
    // 5-iteration neighbours, so tagged returns come back out of
    // program order.
    EXPECT_GT(report.tag_returns, 0u);
    EXPECT_FALSE(report.reorder.degenerate());
    // Bottlenecks are ranked and reference real channels.
    ASSERT_FALSE(report.bottleneck_channels.empty());
    for (int ch : report.bottleneck_channels) {
        ASSERT_GE(ch, 0);
        ASSERT_LT(static_cast<std::size_t>(ch), report.channels.size());
    }
}

TEST(ProvDeterminism, ByteIdenticalUnderFaultPlan)
{
    Compiler compiler;
    Result<CompileReport> compiled = compileGcd(compiler);
    ASSERT_TRUE(compiled.ok()) << compiled.error().message;

    auto profile = [&](std::uint64_t seed) {
        ProfileOptions options;
        options.sim.faults = std::make_shared<faults::FaultPlan>(
            faults::FaultPlan::random(seed));
        Result<ProfileBundle> bundle = compiler.profileRun(
            compiled.value().graph, gcdWorkload(), options);
        EXPECT_TRUE(bundle.ok()) << bundle.error().message;
        return std::pair{bundle.value().log.toJson().dump(),
                         bundle.value().report.toJson().dump()};
    };

    auto [log_a, report_a] = profile(0xfeedULL);
    auto [log_b, report_b] = profile(0xfeedULL);
    EXPECT_EQ(log_a, log_b);        // byte-identical hop log
    EXPECT_EQ(report_a, report_b);  // byte-identical analysis
    // ... and a different plan really does change the log.
    auto [log_c, report_c] = profile(0xbeefULL);
    EXPECT_NE(log_a, log_c);
    (void)report_c;
}

TEST(ProvRing, EvictionTruncatesInsteadOfMisattributing)
{
    Compiler compiler;
    ProfileOptions options;
    options.provenance.max_firings = 32;  // far below the ~1000 firings
    Result<ProfileBundle> bundle = compiler.profileRun(
        circuits::buildGcdInOrder(), gcdWorkload(), options);
    ASSERT_TRUE(bundle.ok()) << bundle.error().message;
    const obs::ProvenanceLog& log = bundle.value().log;
    EXPECT_LE(log.firings.size(), 32u);
    EXPECT_GT(log.dropped_firings, 0u);
    // Early tokens crossed the evicted window: flagged, not guessed.
    EXPECT_GT(bundle.value().report.truncated_tokens, 0u);
    // Whatever still walks to a birth keeps the exact identity.
    for (const obs::TokenProfile& t : bundle.value().report.tokens) {
        if (t.truncated)
            continue;
        EXPECT_EQ(t.attribution.total(), t.latency);
    }
}

// -------------------------------------------- TraceSink ring buffer

obs::TraceRecord
fireRecord(std::size_t cycle)
{
    obs::TraceRecord rec;
    rec.cycle = cycle;
    rec.node = "n";
    rec.kind = obs::EventKind::Fire;
    return rec;
}

TEST(TraceSinkRing, UnboundedByDefault)
{
    obs::PerfettoTraceSink sink;
    for (std::size_t i = 0; i < 100; ++i)
        sink.event(fireRecord(i));
    EXPECT_EQ(sink.droppedEvents(), 0u);
    // 100 events + 1 thread_name metadata record.
    EXPECT_EQ(sink.numEvents(), 101u);
}

TEST(TraceSinkRing, CapacityDropsOldest)
{
    obs::PerfettoTraceSink sink;
    sink.setCapacity(8);
    for (std::size_t i = 0; i < 100; ++i)
        sink.event(fireRecord(i));
    EXPECT_EQ(sink.numEvents(), 8u);
    EXPECT_EQ(sink.droppedEvents(), 93u);  // 101 buffered - 8 kept
    json::Value doc = sink.toJson();
    const json::Value* dropped = doc.find("droppedEvents");
    ASSERT_NE(dropped, nullptr);
    // The newest events survive.
    std::string dump = doc.dump();
    EXPECT_NE(dump.find("\"ts\":99"), std::string::npos);
}

// ------------------------------------- stress failure artifacts

TEST(StressArtifact, RendersDiagnosisMetricsAndHopTail)
{
    // Drive the in-order gcd into a watchdog verdict directly: demand
    // a fourth output the three input streams can never produce.
    Environment env;
    auto scope = std::make_shared<obs::Scope>();
    scope->attachProvenance(std::make_shared<obs::ProvenanceTracker>());
    sim::SimConfig config;
    config.obs = scope;
    Result<sim::Simulator> built = sim::Simulator::build(
        circuits::buildGcdInOrder(), env.functionsPtr(), config);
    ASSERT_TRUE(built.ok()) << built.error().message;
    sim::Simulator simulator = built.take();
    faults::Workload w = gcdWorkload();
    Result<sim::SimResult> run =
        simulator.run(w.inputs, w.expected_outputs + 1);
    ASSERT_FALSE(run.ok());
    ASSERT_TRUE(simulator.lastDiagnosis().has_value());

    std::string artifact = faults::failureArtifact(
        &*simulator.lastDiagnosis(), run.error().message, *scope, 16);
    Result<json::Value> doc = json::parse(artifact);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    ASSERT_NE(doc.value().find("error"), nullptr);
    ASSERT_NE(doc.value().find("diagnosis"), nullptr);
    ASSERT_NE(doc.value().find("metrics"), nullptr);
    const json::Value* prov = doc.value().find("provenance");
    ASSERT_NE(prov, nullptr);
    // The hop-log tail carries the firings leading up to the stall.
    const json::Value* tail = prov->find("tail");
    ASSERT_NE(tail, nullptr);
    ASSERT_TRUE(tail->isArray());
    EXPECT_GT(tail->asArray().size(), 0u);
}

TEST(StressArtifact, HarnessAttachesArtifactToFailedPlan)
{
    // A cycle budget the fault-free baseline meets comfortably but
    // adversarial plans blow through: failed plans must carry a
    // reproduced post-mortem artifact.
    Environment env;
    faults::Workload w = gcdWorkload();
    sim::SimConfig probe;
    Result<sim::Simulator> built = sim::Simulator::build(
        circuits::buildGcdInOrder(), env.functionsPtr(), probe);
    ASSERT_TRUE(built.ok()) << built.error().message;
    sim::Simulator simulator = built.take();
    Result<sim::SimResult> baseline =
        simulator.run(w.inputs, w.expected_outputs);
    ASSERT_TRUE(baseline.ok()) << baseline.error().message;

    faults::StressOptions options;
    options.random_plans = 0;
    options.structured = true;
    options.max_starve_plans = 0;
    options.sim.max_cycles = baseline.value().cycles + 8;
    options.artifact_tail_firings = 16;
    faults::StressHarness harness(options);
    Result<faults::StressReport> report = harness.run(
        circuits::buildGcdInOrder(), env.functionsPtr(), w);
    ASSERT_TRUE(report.ok()) << report.error().message;

    std::size_t failed = 0, with_artifact = 0;
    for (const faults::PlanOutcome& o : report.value().outcomes) {
        if (o.completed)
            continue;
        ++failed;
        if (o.failure_artifact.empty())
            continue;
        ++with_artifact;
        Result<json::Value> doc = json::parse(o.failure_artifact);
        ASSERT_TRUE(doc.ok()) << doc.error().message;
        EXPECT_NE(doc.value().find("error"), nullptr);
        EXPECT_NE(doc.value().find("provenance"), nullptr);
    }
    ASSERT_GT(failed, 0u) << "expected the max-backpressure plan to "
                             "exceed the cycle budget";
    EXPECT_EQ(with_artifact, failed);
}

}  // namespace
}  // namespace graphiti

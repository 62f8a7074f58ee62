/**
 * @file
 * Tests for the observability subsystem (src/obs): metrics registry
 * semantics, JSON snapshot round-trips, Perfetto trace validity, VCD
 * header correctness, and the end-to-end gcd smoke test asserting
 * that one observed compile+verify+simulate run populates counters
 * from all three instrumented layers (rewrite/egraph, refine, sim).
 */

#include <gtest/gtest.h>

#include <thread>

#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "refine/refinement.hpp"
#include "sim/sim.hpp"

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

// ---------------------------------------------------------------- JSON

TEST(ObsJson, DumpAndParseRoundTrip)
{
    json::Value doc{json::Object{}};
    doc.set("name", "gcd \"quoted\" \n tab\t");
    doc.set("count", 42);
    doc.set("ratio", 1.5);
    doc.set("flag", true);
    doc.set("nothing", nullptr);
    json::Value arr{json::Array{}};
    arr.push(1);
    arr.push("two");
    arr.push(json::Value{json::Object{}});
    doc.set("items", std::move(arr));

    Result<json::Value> parsed = json::parse(doc.dump());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value(), doc);

    // Pretty-printed output parses back to the same document too.
    Result<json::Value> pretty = json::parse(doc.dump(2));
    ASSERT_TRUE(pretty.ok()) << pretty.error().message;
    EXPECT_EQ(pretty.value(), doc);
}

TEST(ObsJson, IntegersRenderWithoutFraction)
{
    EXPECT_EQ(json::Value(42).dump(), "42");
    EXPECT_EQ(json::Value(-7).dump(), "-7");
    EXPECT_EQ(json::Value(1.5).dump(), "1.5");
}

TEST(ObsJson, ParseRejectsMalformed)
{
    EXPECT_FALSE(json::parse("{\"a\": }").ok());
    EXPECT_FALSE(json::parse("[1, 2,]").ok());
    EXPECT_FALSE(json::parse("").ok());
    EXPECT_FALSE(json::parse("{} trailing").ok());
}

// ------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterSemantics)
{
    obs::MetricsRegistry m;
    EXPECT_EQ(m.counter("x"), 0);
    m.add("x");
    m.add("x", 4);
    EXPECT_EQ(m.counter("x"), 5);
    m.clear();
    EXPECT_EQ(m.counter("x"), 0);
}

TEST(ObsMetrics, GaugeAndHighWaterMark)
{
    obs::MetricsRegistry m;
    EXPECT_FALSE(m.gauge("g").has_value());
    m.set("g", 3.0);
    EXPECT_DOUBLE_EQ(*m.gauge("g"), 3.0);
    m.setMax("g", 1.0);  // lower: ignored
    EXPECT_DOUBLE_EQ(*m.gauge("g"), 3.0);
    m.setMax("g", 9.0);  // higher: taken
    EXPECT_DOUBLE_EQ(*m.gauge("g"), 9.0);
}

TEST(ObsMetrics, TimerRecordsOnDestructionAndStop)
{
    obs::MetricsRegistry m;
    {
        obs::ScopedTimer t = m.timer("t");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::optional<obs::TimerStats> stats = m.timerStats("t");
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->count, 1u);
    EXPECT_GT(stats->total_seconds, 0.0);

    obs::ScopedTimer t2 = m.timer("t");
    double elapsed = t2.stop();
    EXPECT_GE(elapsed, 0.0);
    // stop() already recorded; destruction must not double-count.
    t2 = obs::ScopedTimer{};
    EXPECT_EQ(m.timerStats("t")->count, 2u);

    // A default-constructed timer (what the timer macro yields with no
    // scope installed) is inert.
    { obs::ScopedTimer inert; }
    EXPECT_EQ(m.timerStats("t")->count, 2u);
}

TEST(ObsMetrics, SnapshotRoundTrip)
{
    obs::MetricsRegistry m;
    m.add("sim.fires", 7);
    m.set("sim.channels", 12.0);
    m.observe("compile.seconds", 0.25);

    Result<json::Value> parsed = json::parse(m.toJson().dump());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value& doc = parsed.value();
    ASSERT_NE(doc.find("counters"), nullptr);
    EXPECT_DOUBLE_EQ(doc.find("counters")->find("sim.fires")->asNumber(),
                     7.0);
    EXPECT_DOUBLE_EQ(
        doc.find("gauges")->find("sim.channels")->asNumber(), 12.0);
    const json::Value* timer =
        doc.find("timers")->find("compile.seconds");
    ASSERT_NE(timer, nullptr);
    EXPECT_DOUBLE_EQ(timer->find("count")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(timer->find("total_seconds")->asNumber(), 0.25);
}

// --------------------------------------------------------------- scope

TEST(ObsScope, InstallAndRestore)
{
    EXPECT_EQ(obs::current(), nullptr);
    obs::Scope outer;
    {
        obs::ScopedInstall a(&outer);
        EXPECT_EQ(obs::current(), &outer);
        obs::Scope inner;
        {
            obs::ScopedInstall b(&inner);
            EXPECT_EQ(obs::current(), &inner);
        }
        EXPECT_EQ(obs::current(), &outer);
    }
    EXPECT_EQ(obs::current(), nullptr);
}

TEST(ObsScope, MacrosRecordIntoCurrentScope)
{
    obs::Scope scope;
    obs::ScopedInstall install(&scope);
    GRAPHITI_OBS_COUNT("m.count", 2);
    GRAPHITI_OBS_GAUGE("m.gauge", 5);
    GRAPHITI_OBS_GAUGE_MAX("m.gauge", 3);
    EXPECT_EQ(scope.metrics().counter("m.count"), 2);
    EXPECT_DOUBLE_EQ(*scope.metrics().gauge("m.gauge"), 5.0);
}

TEST(ObsScope, MacrosAreSafeWithoutScope)
{
    // No scope installed: every macro must be a no-op, not a crash.
    GRAPHITI_OBS_COUNT("nobody", 1);
    GRAPHITI_OBS_GAUGE("nobody", 1);
    GRAPHITI_OBS_TRACK("nobody", 0, 1);
    GRAPHITI_OBS_TIMER(t, "nobody");
}

// ------------------------------------------------------------ perfetto

TEST(ObsTrace, PerfettoJsonIsValidAndTyped)
{
    obs::PerfettoTraceSink sink;
    obs::TraceRecord rec;
    rec.cycle = 10;
    rec.node = "mod0";
    rec.kind = obs::EventKind::Fire;
    rec.detail = "accept";
    sink.event(rec);
    sink.span("mod0", "stall", 3, 4);
    sink.counter("occupancy ch0", 5, 2);

    Result<json::Value> parsed = json::parse(sink.dump());
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const json::Value* events = parsed.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Every record has the trace_event essentials; the three payload
    // events carry ph "i" / "X" / "C", plus thread_name metadata.
    std::map<std::string, int> phases;
    for (const json::Value& ev : events->asArray()) {
        ASSERT_NE(ev.find("ph"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        ++phases[ev.find("ph")->asString()];
    }
    EXPECT_EQ(phases["i"], 1);
    EXPECT_EQ(phases["X"], 1);
    EXPECT_EQ(phases["C"], 1);
    EXPECT_GE(phases["M"], 1);
}

TEST(ObsTrace, TraceRecordSchemaIsStable)
{
    // The shared schema satellite: sim::TraceEvent IS obs::TraceRecord.
    static_assert(
        std::is_same_v<sim::TraceEvent, obs::TraceRecord>,
        "sim trace events and obs trace records must share one schema");
    obs::TraceRecord rec{42, "node_a", 3, obs::EventKind::Output, "tok"};
    json::Value v = rec.toJson();
    EXPECT_DOUBLE_EQ(v.find("cycle")->asNumber(), 42.0);
    EXPECT_EQ(v.find("node")->asString(), "node_a");
    EXPECT_DOUBLE_EQ(v.find("channel")->asNumber(), 3.0);
    EXPECT_EQ(v.find("kind")->asString(), "output");
    EXPECT_EQ(v.find("detail")->asString(), "tok");
}

// ----------------------------------------------------------------- vcd

TEST(ObsVcd, HeaderAndTimescale)
{
    obs::VcdWriter vcd("gcd", "1ns");
    int a = vcd.wire("ch0_valid");
    int d = vcd.wire("ch0_data", 64);
    vcd.begin();
    vcd.sample(0, a, 1);
    vcd.sample(0, d, 21);
    vcd.sample(3, a, 0);
    // Change-only: re-sampling the same value emits nothing new.
    std::size_t before = vcd.str().size();
    vcd.sample(4, a, 0);
    EXPECT_EQ(vcd.str().size(), before);

    const std::string& text = vcd.str();
    EXPECT_NE(text.find("$timescale 1ns $end"), std::string::npos);
    EXPECT_NE(text.find("$scope module gcd $end"), std::string::npos);
    EXPECT_NE(text.find("$var wire 1"), std::string::npos);
    EXPECT_NE(text.find("$var wire 64"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
    EXPECT_NE(text.find("#3"), std::string::npos);
    // 21 = 0b10101.
    EXPECT_NE(text.find("b10101"), std::string::npos);
}

// ------------------------------------------------- end-to-end (gcd)

TEST(ObsGcd, AllThreeLayersRecordOnOneRun)
{
    auto scope = std::make_shared<obs::Scope>();
    auto perfetto = std::make_shared<obs::PerfettoTraceSink>();
    auto vcd = std::make_shared<obs::VcdWriter>("gcd");
    scope->attachTrace(perfetto);
    scope->attachVcd(vcd);

    // Layer 1+2 (rewrite + egraph): the verified pipeline on gcd.
    Compiler compiler;
    CompileOptions options;
    options.obs = scope;
    Result<CompileReport> compiled =
        compiler.compileGraph(circuits::buildGcdInOrder(), options);
    ASSERT_TRUE(compiled.ok()) << compiled.error().message;

    // Layer 3 (refine): one bounded refinement check, transformed
    // against itself (cheap, and exercises explore + the game).
    obs::ScopedInstall install(scope.get());
    Result<RefinementReport> refined = checkGraphRefinement(
        circuits::buildGcdInOrder(), circuits::buildGcdInOrder(),
        Environment(3, compiler.environment().functionsPtr()),
        {Token(Value(6)), Token(Value(4))},
        {.max_states = 50000, .input_budget = 1});
    ASSERT_TRUE(refined.ok()) << refined.error().message;
    EXPECT_TRUE(refined.value().refines);

    // Layer 1 (sim): run the transformed circuit.
    sim::SimConfig config;
    config.obs = scope;
    sim::Simulator simulator =
        sim::Simulator::build(compiled.value().graph,
                              compiler.environment().functionsPtr(),
                              config)
            .take();
    Result<sim::SimResult> ran = simulator.run(
        {intStream({1071, 987}), intStream({462, 610})}, 2);
    ASSERT_TRUE(ran.ok()) << ran.error().message;
    EXPECT_EQ(ran.value().outputs[0][0].value.asInt(), 21);

    // Nonzero counters from every layer.
    const obs::MetricsRegistry& m = scope->metrics();
    EXPECT_GT(m.counter("rewrite.applied"), 0);
    EXPECT_GT(m.counter("rewrite.match_attempts"), 0);
    EXPECT_GT(m.counter("egraph.saturations"), 0);
    EXPECT_GT(m.counter("egraph.iterations"), 0);
    EXPECT_GT(m.counter("refine.checks"), 0);
    EXPECT_GT(m.counter("refine.states"), 0);
    EXPECT_GT(m.counter("refine.pairs"), 0);
    EXPECT_GT(m.counter("sim.runs"), 0);
    EXPECT_GT(m.counter("sim.fires"), 0);
    EXPECT_GT(m.counter("sim.cycles"), 0);
    ASSERT_TRUE(m.timerStats("compile.seconds").has_value());
    ASSERT_TRUE(m.timerStats("refine.check_seconds").has_value());

    // The snapshot, the Perfetto trace and the VCD all round-trip.
    Result<json::Value> metrics_doc = json::parse(m.toJson().dump());
    ASSERT_TRUE(metrics_doc.ok()) << metrics_doc.error().message;
    Result<json::Value> trace_doc = json::parse(perfetto->dump());
    ASSERT_TRUE(trace_doc.ok()) << trace_doc.error().message;
    EXPECT_GT(trace_doc.value().find("traceEvents")->asArray().size(),
              10u);
    EXPECT_GT(vcd->numSignals(), 0u);
    EXPECT_NE(vcd->str().find("$enddefinitions"), std::string::npos);
}

TEST(ObsGcd, GoldenTraceSmoke)
{
    // The figure-2d workload through the in-order gcd circuit: the
    // observed run must (a) agree with the unobserved run cycle for
    // cycle, and (b) emit a Fire event for every simulator move.
    ExprHigh g = circuits::buildGcdInOrder();
    auto registry = std::make_shared<FnRegistry>();
    auto inputs_a = intStream({1071});
    auto inputs_b = intStream({462});

    sim::Simulator plain =
        sim::Simulator::build(g, registry).take();
    Result<sim::SimResult> base = plain.run({inputs_a, inputs_b}, 1);
    ASSERT_TRUE(base.ok()) << base.error().message;

    auto scope = std::make_shared<obs::Scope>();
    auto perfetto = std::make_shared<obs::PerfettoTraceSink>();
    scope->attachTrace(perfetto);
    sim::SimConfig config;
    config.obs = scope;
    sim::Simulator observed =
        sim::Simulator::build(g, registry, config).take();
    Result<sim::SimResult> traced =
        observed.run({inputs_a, inputs_b}, 1);
    ASSERT_TRUE(traced.ok()) << traced.error().message;

    EXPECT_EQ(traced.value().cycles, base.value().cycles);
    EXPECT_EQ(traced.value().outputs[0][0].value.asInt(), 21);
    EXPECT_GT(scope->metrics().counter("sim.fires"), 50);
    EXPECT_GT(perfetto->numEvents(), 50u);
}

TEST(ObsGcd, StressMetricsSurface)
{
    // Satellite: the stress harness reports plans/sec and worst-case
    // cycle inflation, and mirrors them into the ambient registry.
    obs::Scope scope;
    obs::ScopedInstall install(&scope);

    ExprHigh g = circuits::buildGcdInOrder();
    faults::StressOptions options;
    options.random_plans = 2;
    options.max_starve_plans = 2;
    faults::StressHarness harness(options);
    faults::Workload workload;
    workload.inputs = {intStream({48, 27}), intStream({36, 18})};
    workload.expected_outputs = 2;
    Result<faults::StressReport> report =
        harness.run(g, std::make_shared<FnRegistry>(), workload);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_TRUE(report.value().invariant_holds);
    EXPECT_GT(report.value().seconds, 0.0);
    EXPECT_GE(report.value().worst_inflation, 1.0);
    EXPECT_GT(report.value().plansPerSecond(), 0.0);

    EXPECT_EQ(scope.metrics().counter("stress.runs"), 1);
    EXPECT_EQ(
        static_cast<std::size_t>(scope.metrics().counter("stress.plans")),
        report.value().plansRun());
    EXPECT_GE(*scope.metrics().gauge("stress.worst_inflation"), 1.0);
}

TEST(ObsGcd, OverheadUnderTwoTimes)
{
    // The CI gate: an instrumented gcd simulation (metrics only, no
    // sinks) must stay under 2x the fault-free uninstrumented run.
    // Median of 5 to keep scheduler noise out of the verdict.
    ExprHigh g = circuits::buildGcdInOrder();
    auto registry = std::make_shared<FnRegistry>();
    auto inputs_a = intStream({1071, 987, 864});
    auto inputs_b = intStream({462, 610, 528});

    auto median_run = [&](const sim::SimConfig& config) {
        std::vector<double> times;
        for (int i = 0; i < 5; ++i) {
            sim::Simulator simulator =
                sim::Simulator::build(g, registry, config).take();
            auto start = std::chrono::steady_clock::now();
            Result<sim::SimResult> r =
                simulator.run({inputs_a, inputs_b}, 3);
            times.push_back(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count());
            EXPECT_TRUE(r.ok());
        }
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };

    double plain = median_run(sim::SimConfig{});
    sim::SimConfig observed_config;
    observed_config.obs = std::make_shared<obs::Scope>();
    double observed = median_run(observed_config);
    EXPECT_LT(observed, plain * 2.0)
        << "instrumentation overhead " << observed / plain << "x";
}

}  // namespace
}  // namespace graphiti

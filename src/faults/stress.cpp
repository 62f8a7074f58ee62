#include "faults/stress.hpp"

#include <algorithm>
#include <chrono>

#include "obs/scope.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace graphiti::faults {

namespace {

/** Run one simulation of @p graph under @p injector. */
Result<sim::SimResult>
simulate(const ExprHigh& graph, std::shared_ptr<FnRegistry> functions,
         const Workload& workload, const sim::SimConfig& base_config,
         std::shared_ptr<sim::FaultInjector> injector)
{
    sim::SimConfig config = base_config;
    config.faults = std::move(injector);
    Result<sim::Simulator> built =
        sim::Simulator::build(graph, std::move(functions), config);
    if (!built.ok())
        return built.error();
    sim::Simulator simulator = built.take();
    for (const auto& [name, data] : workload.memories)
        simulator.setMemory(name, data);
    return simulator.run(workload.inputs, workload.expected_outputs,
                         workload.serial_io);
}

/**
 * First difference between two runs' observable behavior (output
 * token sequences per port, then final memories); empty when equal.
 */
std::string
firstDifference(const sim::SimResult& got, const sim::SimResult& want)
{
    if (got.outputs.size() != want.outputs.size())
        return "output port count differs";
    for (std::size_t p = 0; p < got.outputs.size(); ++p) {
        const auto& a = got.outputs[p];
        const auto& b = want.outputs[p];
        std::size_t n = std::min(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
            if (!(a[i] == b[i]))
                return "output#" + std::to_string(p) + "[" +
                       std::to_string(i) + "]: got " + a[i].toString() +
                       ", baseline " + b[i].toString();
        }
        if (a.size() != b.size())
            return "output#" + std::to_string(p) + " length: got " +
                   std::to_string(a.size()) + ", baseline " +
                   std::to_string(b.size());
    }
    for (const auto& [name, data] : want.memories) {
        auto it = got.memories.find(name);
        if (it == got.memories.end())
            return "memory " + name + " missing";
        for (std::size_t i = 0; i < data.size(); ++i)
            if (i >= it->second.size() || it->second[i] != data[i])
                return "memory " + name + "[" + std::to_string(i) +
                       "] differs";
    }
    return {};
}

/** Flush one report's aggregate metrics into the ambient registry. */
void
recordStressMetrics(const StressReport& report)
{
    obs::Scope* scope = obs::current();
    if (scope == nullptr)
        return;
    obs::MetricsRegistry& m = scope->metrics();
    m.add("stress.runs");
    m.add("stress.plans",
          static_cast<std::int64_t>(report.plansRun()));
    for (const PlanOutcome& o : report.outcomes) {
        if (!o.completed)
            m.add("stress.plan_errors");
        else if (!o.matched)
            m.add("stress.violations");
    }
    m.setMax("stress.worst_inflation", report.worst_inflation);
    m.setMax("stress.plans_per_second", report.plansPerSecond());
    if (obs::TraceSink* sink = scope->trace()) {
        for (const PlanOutcome& o : report.outcomes) {
            if (o.matched)
                continue;
            obs::TraceRecord rec;
            rec.cycle = o.cycles;
            rec.node = o.plan;
            rec.kind = obs::EventKind::Fault;
            rec.detail = o.detail;
            sink->event(rec);
        }
    }
}

/**
 * Reproduce a failing plan with observation attached so the artifact
 * can include metrics and the provenance tail. Plans are pure
 * functions of (seed, cycle, channel), so the re-run hits the same
 * stuck state the first run did.
 */
std::string
captureFailureArtifact(const ExprHigh& graph,
                       std::shared_ptr<FnRegistry> functions,
                       const Workload& workload,
                       const StressOptions& options,
                       std::shared_ptr<FaultPlan> plan)
{
    auto scope = std::make_shared<obs::Scope>();
    obs::ProvenanceConfig prov_config;
    prov_config.max_firings =
        std::max<std::size_t>(256, options.artifact_tail_firings * 4);
    prov_config.max_births = 4096;
    prov_config.max_tag_events = 4096;
    prov_config.max_series_points = 256;
    scope->attachProvenance(
        std::make_shared<obs::ProvenanceTracker>(prov_config));

    sim::SimConfig config = options.sim;
    config.faults = plan;
    config.obs = scope;
    Result<sim::Simulator> built =
        sim::Simulator::build(graph, std::move(functions), config);
    if (!built.ok())
        return {};
    sim::Simulator simulator = built.take();
    for (const auto& [name, data] : workload.memories)
        simulator.setMemory(name, data);
    Result<sim::SimResult> rerun = simulator.run(
        workload.inputs, workload.expected_outputs, workload.serial_io);
    if (rerun.ok())
        return {};  // did not reproduce; nothing trustworthy to dump

    const sim::StuckDiagnosis* diagnosis =
        simulator.lastDiagnosis() ? &*simulator.lastDiagnosis()
                                  : nullptr;
    return failureArtifact(diagnosis, rerun.error().message, *scope,
                           options.artifact_tail_firings);
}

}  // namespace

std::string
failureArtifact(const sim::StuckDiagnosis* diagnosis,
                const std::string& error, const obs::Scope& scope,
                std::size_t tail_firings)
{
    obs::json::Value doc;
    doc.set("error", error);
    if (diagnosis != nullptr) {
        obs::json::Value d;
        d.set("kind", sim::toString(diagnosis->kind));
        d.set("cycle", diagnosis->cycle);
        d.set("last_progress_cycle", diagnosis->last_progress_cycle);
        d.set("last_output_cycle", diagnosis->last_output_cycle);
        d.set("rendered", diagnosis->toString());
        doc.set("diagnosis", std::move(d));
    }
    doc.set("metrics", scope.metrics().toJson());
    if (const obs::ProvenanceTracker* tracker = scope.provenance())
        doc.set("provenance", tracker->log().tailJson(tail_firings));
    return doc.dump(2);
}

std::vector<std::shared_ptr<FaultPlan>>
StressHarness::buildPlans(const ExprHigh& graph) const
{
    std::vector<std::shared_ptr<FaultPlan>> plans;
    for (std::size_t i = 0; i < options_.random_plans; ++i) {
        // (name, index)-derived seeds: adding another plan family can
        // never shift or collide with the random plans' schedules.
        std::uint64_t seed =
            derivePlanSeed(options_.base_seed, "random", i);
        plans.push_back(std::make_shared<FaultPlan>(
            FaultPlan::random(seed, options_.plan_config)));
    }
    if (options_.structured) {
        plans.push_back(
            std::make_shared<FaultPlan>(FaultPlan::singleSlot()));
        plans.push_back(std::make_shared<FaultPlan>(
            FaultPlan::maxBackpressure(options_.plan_config.horizon)));
        std::size_t channels = sim::Simulator::channelCount(graph);
        std::size_t starves =
            std::min(channels, options_.max_starve_plans);
        for (std::size_t k = 0; k < starves; ++k) {
            // Sample channel indices evenly across the circuit.
            std::size_t ch = starves == 0 ? 0 : k * channels / starves;
            plans.push_back(std::make_shared<FaultPlan>(
                FaultPlan::starveChannel(
                    ch, options_.plan_config.horizon / 4)));
        }
    }
    return plans;
}

Result<StressReport>
StressHarness::run(const ExprHigh& graph,
                   std::shared_ptr<FnRegistry> functions,
                   const Workload& workload) const
{
    GRAPHITI_OBS_TIMER(obs_timer, "stress.run_seconds");
    auto start = std::chrono::steady_clock::now();
    Result<sim::SimResult> baseline =
        simulate(graph, functions, workload, options_.sim, nullptr);
    if (!baseline.ok())
        return baseline.error().context("stress baseline run");

    StressReport report;
    report.baseline_cycles = baseline.value().cycles;

    // Plans are independent deterministic simulations: fan them out
    // across the pool (slot per plan), then aggregate in plan order so
    // first_violation and the outcome list match the sequential run.
    std::vector<std::shared_ptr<FaultPlan>> plans = buildPlans(graph);
    std::vector<PlanOutcome> outcomes(plans.size());
    ThreadPool pool(ThreadPool::resolveThreads(options_.threads));
    pool.parallelFor(plans.size(), [&](std::size_t i) {
        const std::shared_ptr<FaultPlan>& plan = plans[i];
        PlanOutcome& outcome = outcomes[i];
        outcome.plan = plan->describe();
        outcome.seed = plan->seed();
        Result<sim::SimResult> run =
            simulate(graph, functions, workload, options_.sim, plan);
        if (run.ok()) {
            outcome.completed = true;
            outcome.cycles = run.value().cycles;
            outcome.detail =
                firstDifference(run.value(), baseline.value());
            outcome.matched = outcome.detail.empty();
        } else {
            outcome.detail = run.error().message;
            if (options_.capture_failure_artifacts)
                outcome.failure_artifact = captureFailureArtifact(
                    graph, functions, workload, options_, plan);
        }
    });
    for (PlanOutcome& outcome : outcomes) {
        if (outcome.completed && report.baseline_cycles > 0)
            report.worst_inflation = std::max(
                report.worst_inflation,
                static_cast<double>(outcome.cycles) /
                    static_cast<double>(report.baseline_cycles));
        if (!outcome.matched && report.first_violation.empty()) {
            report.invariant_holds = false;
            report.first_violation =
                outcome.plan + ": " + outcome.detail;
        }
        report.outcomes.push_back(std::move(outcome));
    }
    report.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    recordStressMetrics(report);
    return report;
}

Result<StressReport>
StressHarness::runPair(const ExprHigh& original,
                       const ExprHigh& transformed,
                       std::shared_ptr<FnRegistry> functions,
                       const Workload& workload) const
{
    Result<StressReport> orig = run(original, functions, workload);
    if (!orig.ok())
        return orig.error().context("stress original");
    Result<StressReport> ooo = run(transformed, functions, workload);
    if (!ooo.ok())
        return ooo.error().context("stress transformed");

    StressReport merged;
    merged.invariant_holds = orig.value().invariant_holds &&
                             ooo.value().invariant_holds;
    merged.baseline_cycles = orig.value().baseline_cycles;
    merged.seconds = orig.value().seconds + ooo.value().seconds;
    merged.worst_inflation = std::max(orig.value().worst_inflation,
                                      ooo.value().worst_inflation);
    merged.first_violation = !orig.value().first_violation.empty()
                                 ? "orig: " + orig.value().first_violation
                                 : ooo.value().first_violation.empty()
                                       ? std::string()
                                       : "ooo: " +
                                             ooo.value().first_violation;
    for (PlanOutcome& o : orig.value().outcomes) {
        o.plan = "orig: " + o.plan;
        merged.outcomes.push_back(std::move(o));
    }
    for (PlanOutcome& o : ooo.value().outcomes) {
        o.plan = "ooo: " + o.plan;
        merged.outcomes.push_back(std::move(o));
    }

    // Cross-check: the rewritten circuit's fault-free behavior must
    // match the original's in program order.
    Result<sim::SimResult> base_orig =
        simulate(original, functions, workload, options_.sim, nullptr);
    Result<sim::SimResult> base_ooo = simulate(
        transformed, functions, workload, options_.sim, nullptr);
    if (base_orig.ok() && base_ooo.ok()) {
        std::string diff =
            firstDifference(base_ooo.value(), base_orig.value());
        if (!diff.empty()) {
            merged.invariant_holds = false;
            if (merged.first_violation.empty())
                merged.first_violation =
                    "transformed baseline diverges: " + diff;
        }
    }
    return merged;
}

}  // namespace graphiti::faults

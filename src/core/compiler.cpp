#include "core/compiler.hpp"

#include <chrono>
#include <optional>

#include "dot/dot.hpp"
#include "graph/typecheck.hpp"
#include "guard/transaction.hpp"
#include "rewrite/catalog_verify.hpp"

namespace graphiti {

obs::json::Value
CompileReport::toJson() const
{
    namespace json = obs::json;
    json::Value out{json::Object{}};
    out.set("nodes", graph.numNodes());
    out.set("seconds", seconds);
    out.set("rewrites", rewrites.toJson());
    out.set("loops", guard::loopsToJson(loops));
    out.set("validation", validation.toJson());
    out.set("rollbacks", guard::rollbacksToJson(rollbacks));
    out.set("verification_level", verification_level);
    if (!degradation_reason.empty())
        out.set("degradation_reason", degradation_reason);
    if (verification_level != "not-run") {
        out.set("verification", verdict.toJson());
        out.set("verify_cache_hit", verify_cache_hit);
        out.set("compile_cache_hit", compile_cache_hit);
        out.set("verify_cache_key", verify_cache_key);
        json::Value peak{json::Object{}};
        peak.set("explore", verify_explore_peak_bytes);
        peak.set("game", verify_game_peak_bytes);
        peak.set("total",
                 verify_explore_peak_bytes + verify_game_peak_bytes);
        out.set("verify_peak_bytes", std::move(peak));
    }
    return out;
}

Result<CompileReport>
Compiler::compileDot(const std::string& dot_text,
                     const CompileOptions& options)
{
    Result<ExprHigh> parsed = parseDot(dot_text);
    if (!parsed.ok())
        return parsed.error().context("compileDot");
    return compileGraph(parsed.value(), options);
}

Result<CompileReport>
Compiler::rewriteGraph(const ExprHigh& graph,
                       const CompileOptions& options)
{
    // Well-typedness (section 6.3): every wire must carry one
    // consistent type before we reason about rewrites.
    Result<TypeReport> typed = checkWellTyped(graph);
    if (!typed.ok())
        return typed.error().context("compileGraph");

    // Guarded mode: reject malformed inputs with structured
    // diagnostics before any rewrite can trip over them.
    if (options.validate) {
        guard::ValidationReport pre = guard::validateCircuit(graph);
        if (!pre.ok())
            return err("compileGraph: input circuit failed validation\n" +
                       pre.render());
    }

    if (options.verify_rewrites) {
        Result<CatalogVerification> catalog = verifyCatalog();
        if (!catalog.ok())
            return catalog.error().context("compileGraph");
        if (!catalog.value().all_ok)
            return err("catalog verification failed: " +
                       catalog.value().first_failure);
    }

    auto start = std::chrono::steady_clock::now();
    PipelineOptions popts;
    popts.num_tags = options.num_tags;
    popts.reexpand = options.reexpand;
    if (options.validate) {
        // Transactional rewriting: every rule application must leave a
        // structurally valid fragment or it is rolled back.
        popts.post_check = guard::validatorPostCheck();
    }
    Result<PipelineResult> pipeline = runOooPipeline(graph, env_, popts);
    if (!pipeline.ok())
        return pipeline.error().context("compileGraph");
    auto end = std::chrono::steady_clock::now();

    CompileReport report;
    report.graph = std::move(pipeline.value().graph);
    report.output_dot = printDot(report.graph);
    report.loops = std::move(pipeline.value().loops);
    report.rewrites = pipeline.value().stats;
    report.rollbacks = std::move(pipeline.value().rollbacks);
    report.seconds =
        std::chrono::duration<double>(end - start).count();

    if (options.validate) {
        report.validation = guard::validateCircuit(report.graph);
        if (!report.validation.ok())
            return err(
                "compileGraph: transformed circuit failed validation "
                "(compiler bug)\n" +
                report.validation.render());
    }
    return report;
}

namespace {

/** True when @p graph holds a `pure` node: its function lives only in
 * the compiling Compiler's registry, so such a circuit is not a
 * function of its dot text alone. */
bool
holdsPure(const ExprHigh& graph)
{
    for (const NodeDecl& node : graph.nodes())
        if (node.type == "pure")
            return true;
    return false;
}

}  // namespace

Result<CompileReport>
Compiler::compileGraph(const ExprHigh& graph,
                       const CompileOptions& options)
{
    // Route the whole compilation (typecheck, catalog verification,
    // pipeline) through the caller's scope when one is given; with no
    // explicit scope, inherit whatever the calling thread installed —
    // the served worker installs the per-job scope this way, and the
    // jobs verb reads its probe live.
    obs::ScopedInstall obs_install(
        options.obs != nullptr ? options.obs.get() : obs::current());
    GRAPHITI_OBS_TIMER(obs_timer, "compile.seconds");
    GRAPHITI_OBS_COUNT("compile.runs", 1);

    // A store-backed governed compile looks up its compile entry
    // first: the pipeline's output is a function of the canonical
    // input, the options hashed into the key and the rule catalog, so
    // a known input skips typecheck, validation and rewriting.
    bool memoize = options.governed_verify && options.verify_cache &&
                   !options.verify_rewrites && !holdsPure(graph);
    std::string input_dot;
    std::uint64_t compile_key = 0;
    std::optional<guard::CompileEntry> memo;
    if (options.governed_verify)
        input_dot = printDot(graph);
    if (memoize) {
        compile_key = guard::compileCacheKey(
            input_dot, options.num_tags, options.reexpand,
            options.validate, guard::catalogFingerprint());
        memo = verdict_store_->lookupCompile(compile_key);
    }
    // An entry whose circuit no longer parses is recompiled (and
    // overwritten) like a miss.
    Result<ExprHigh> memo_graph =
        memo ? parseDot(memo->output_dot) : err("no compile entry");

    CompileReport report;
    if (memo_graph.ok()) {
        GRAPHITI_OBS_COUNT("compile.cache_hits", 1);
        report.graph = memo_graph.take();
        report.output_dot = std::move(memo->output_dot);
        report.loops = std::move(memo->loops);
        report.rewrites = std::move(memo->rewrites);
        report.rollbacks = std::move(memo->rollbacks);
        report.validation = std::move(memo->validation);
        report.compile_cache_hit = true;
    } else {
        Result<CompileReport> rewritten = rewriteGraph(graph, options);
        if (!rewritten.ok())
            return rewritten.error();
        report = rewritten.take();
    }

    std::optional<std::string> violation;
    if (options.governed_verify) {
        const guard::VerificationBudget& budget = options.verify_budget;
        std::vector<Token> tokens = options.verify_tokens;
        if (tokens.empty())
            tokens = {Token(Value(0)), Token(Value(1))};
        std::uint64_t key = guard::verificationCacheKey(
            report.output_dot, input_dot, budget, tokens);
        report.verify_cache_key = guard::formatCacheKey(key);
        bool cacheable =
            options.verify_cache && guard::isCacheable(budget);
        std::optional<guard::VerificationVerdict> cached;
        if (cacheable)
            cached = verdict_store_->lookup(key);
        if (cached) {
            report.verdict = *cached;
            report.verify_cache_hit = true;
            GRAPHITI_OBS_COUNT("guard.verify.cache_hits", 1);
        } else {
            if (cacheable)
                GRAPHITI_OBS_COUNT("guard.verify.cache_misses", 1);
            guard::Governor governor(budget, options.stop);
            // Bounded-queue environment sharing this compiler's
            // registry, sized like verifyCompilation's.
            Environment bounded(budget.input_budget + 2,
                                env_.functionsPtr());
            report.verdict = governor.verifyGraphs(report.graph, graph,
                                                   bounded, tokens);
            // A verdict computed after the caller's token fired is a
            // wall-clock artifact (the ladder degraded because of the
            // cancellation) — committing it would poison the cache
            // for every future deterministic request.
            if (cacheable && options.stop.stopRequested())
                cacheable = false;
            if (cacheable)
                verdict_store_->store(key, report.verdict);
        }
        report.verification_level =
            guard::toString(report.verdict.level);
        report.degradation_reason = report.verdict.degradation_reason;
        // Per-phase peak bytes, 0 on a cache hit: nothing explored.
        // (The stored verdict keeps the first run's figures.)
        if (!report.verify_cache_hit) {
            report.verify_explore_peak_bytes =
                report.verdict.explore_peak_bytes;
            report.verify_game_peak_bytes =
                report.verdict.report.peak_bytes;
        }
        GRAPHITI_OBS_GAUGE("guard.verify.peak_bytes.cache",
                           verdict_store_->approxBytes());
        // A counterexample on any rung is a genuine violation and
        // fails the compilation; level "none" without one just means
        // the budget bought no assurance — the report says so.
        if (!report.verdict.ok && !report.verdict.counterexample.empty())
            violation = "compileGraph: governed verification found a "
                        "violation at level " +
                        report.verification_level + ":\n" +
                        report.verdict.counterexample;
    }

    // Nothing is committed from a job whose token fired, and no entry
    // is written for an output holding a `pure` node (reexpand off):
    // its functions live only in this compiler's registry.
    if (memoize && !report.compile_cache_hit &&
        !options.stop.stopRequested() && !holdsPure(report.graph))
        verdict_store_->storeCompile(
            compile_key,
            guard::CompileEntry{report.output_dot, report.loops,
                                report.rewrites, report.rollbacks,
                                report.validation});
    if (violation)
        return err(*violation);
    return report;
}

Result<RefinementReport>
Compiler::verifyCompilation(const ExprHigh& original,
                            const ExprHigh& transformed,
                            const std::vector<Token>& tokens,
                            const ExplorationLimits& limits)
{
    // Bounded-queue environment sharing this compiler's registry (the
    // transformed graph references pure functions registered during
    // compilation).
    Environment bounded(limits.input_budget + 2, env_.functionsPtr());
    return checkGraphRefinement(transformed, original, bounded, tokens,
                                limits);
}

Result<faults::StressReport>
Compiler::stressCompilation(const ExprHigh& original,
                            const ExprHigh& transformed,
                            const faults::Workload& workload,
                            const faults::StressOptions& options)
{
    faults::StressHarness harness(options);
    return harness.runPair(original, transformed, env_.functionsPtr(),
                           workload);
}

Result<ProfileBundle>
Compiler::profileRun(const ExprHigh& graph,
                     const faults::Workload& workload,
                     const ProfileOptions& options)
{
    auto scope = std::make_shared<obs::Scope>();
    auto tracker =
        std::make_shared<obs::ProvenanceTracker>(options.provenance);
    scope->attachProvenance(tracker);

    sim::SimConfig config = options.sim;
    config.obs = scope;
    Result<sim::Simulator> built =
        sim::Simulator::build(graph, env_.functionsPtr(), config);
    if (!built.ok())
        return built.error().context("profileRun");
    sim::Simulator simulator = built.take();
    for (const auto& [name, data] : workload.memories)
        simulator.setMemory(name, data);
    Result<sim::SimResult> run = simulator.run(
        workload.inputs, workload.expected_outputs, workload.serial_io);
    if (!run.ok())
        return run.error().context("profileRun");

    ProfileBundle bundle;
    bundle.log = tracker->log();
    bundle.report = obs::analyzeCriticalPaths(bundle.log,
                                              options.critpath);
    bundle.sim = run.take();
    return bundle;
}

}  // namespace graphiti

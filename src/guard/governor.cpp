#include "guard/governor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/scope.hpp"

namespace graphiti::guard {

const char*
toString(VerificationLevel level)
{
    switch (level) {
        case VerificationLevel::None: return "none";
        case VerificationLevel::TraceInclusion: return "trace-inclusion";
        case VerificationLevel::BoundedPartial: return "bounded-partial";
        case VerificationLevel::Full: return "full";
    }
    return "unknown";
}

obs::json::Value
VerificationVerdict::toJson() const
{
    namespace json = obs::json;
    json::Value out{json::Object{}};
    out.set("level", guard::toString(level));
    out.set("ok", ok);
    out.set("refines", refines);
    if (!degradation_reason.empty())
        out.set("degradation_reason", degradation_reason);
    if (!counterexample.empty())
        out.set("counterexample", counterexample);
    if (level == VerificationLevel::Full ||
        level == VerificationLevel::BoundedPartial) {
        json::Value game{json::Object{}};
        game.set("impl_states", report.impl_states);
        game.set("spec_states", report.spec_states);
        game.set("reachable_pairs", report.reachable_pairs);
        game.set("fixpoint_iterations", report.fixpoint_iterations);
        out.set("game", std::move(game));
    }
    if (level == VerificationLevel::TraceInclusion)
        out.set("trace_walks_run", trace_walks_run);
    return out;
}

Governor::Governor(VerificationBudget budget) : budget_(budget)
{
    if (budget_.deadline_seconds > 0)
        stop_ = StopToken::withDeadline(budget_.deadline_seconds);
}

Governor::Governor(VerificationBudget budget, StopToken external)
    : Governor(budget)
{
    if (external.armed())
        stop_ = std::move(external);
}

namespace {

std::string
renderTrace(const IoTrace& trace)
{
    std::ostringstream os;
    for (const IoEvent& ev : trace)
        os << "  " << ev.toString() << "\n";
    return os.str();
}

}  // namespace

VerificationVerdict
Governor::verify(const DenotedModule& impl, const DenotedModule& spec,
                 const InputDomain& domain,
                 const std::vector<Token>& input_pool) const
{
    GRAPHITI_OBS_TIMER(obs_timer, "guard.verify_seconds");
    VerificationVerdict verdict;
    std::ostringstream why;

    auto verify_start = std::chrono::steady_clock::now();
    // Mark a rung/phase transition on the job's progress probe (and
    // refresh the deadline headroom). Observation only — the ladder's
    // control flow never reads the probe.
    auto obs_rung = [&](obs::VerifyPhase phase, const char* rung) {
        if (obs::Scope* scope = obs::current()) {
            if (obs::VerifyProbe* probe = scope->verifyProbe()) {
                probe->beginPhase(phase, rung);
                if (budget_.deadline_seconds > 0) {
                    double elapsed =
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            verify_start)
                            .count();
                    probe->setDeadlineRemaining(std::max(
                        0.0, budget_.deadline_seconds - elapsed));
                }
            }
        }
    };
    // Roll a winning rung's high-water bytes into the scope gauges.
    auto obs_peaks = [&](std::size_t explore_bytes,
                         std::size_t game_bytes) {
        GRAPHITI_OBS_GAUGE_MAX("guard.verify.peak_bytes.explore",
                               explore_bytes);
        GRAPHITI_OBS_GAUGE_MAX("guard.verify.peak_bytes.game",
                               game_bytes);
        GRAPHITI_OBS_GAUGE_MAX("guard.verify.peak_bytes.total",
                               explore_bytes + game_bytes);
        GRAPHITI_OBS_VPROBE(notePeakBytes(explore_bytes + game_bytes));
    };

    // Rung 1: full exploration + exact game.
    if (budget_.max_states == 0) {
        why << "full check skipped (max_states = 0)";
    } else {
        ExplorationLimits limits;
        limits.max_states = budget_.max_states;
        limits.input_budget = budget_.input_budget;
        limits.threads = budget_.threads;
        limits.spill_bytes = budget_.spill_bytes;
        limits.stop = stop_;
        obs_rung(obs::VerifyPhase::Explore, "full");
        Result<StateSpace> impl_space =
            StateSpace::explore(impl, domain, limits);
        Result<StateSpace> spec_space =
            impl_space.ok() ? StateSpace::explore(spec, domain, limits)
                            : err("skipped");
        if (impl_space.ok() && spec_space.ok()) {
            obs_rung(obs::VerifyPhase::Game, "full");
            Result<RefinementReport> played = checkRefinementOnSpaces(
                impl_space.value(), spec_space.value(),
                /*optimistic_frontier=*/false, stop_,
                budget_.threads);
            if (played.ok()) {
                verdict.level = VerificationLevel::Full;
                verdict.report = played.take();
                verdict.refines = verdict.report.refines;
                verdict.ok = verdict.refines;
                verdict.counterexample = verdict.report.counterexample;
                verdict.explore_peak_bytes =
                    impl_space.value().peakBytes() +
                    spec_space.value().peakBytes();
                obs_peaks(verdict.explore_peak_bytes,
                          verdict.report.peak_bytes);
                GRAPHITI_OBS_COUNT("guard.verify.full", 1);
                return verdict;
            }
            why << "full game: " << played.error().message;
        } else if (!impl_space.ok()) {
            why << "full explore (impl): "
                << impl_space.error().message;
        } else {
            why << "full explore (spec): "
                << spec_space.error().message;
        }
    }

    // Rung 2: memory-bounded partial exploration + optimistic game.
    // A counterexample here is genuine; a pass only means "none within
    // the explored bound".
    if (budget_.partial_max_states == 0) {
        why << "; partial check skipped (partial_max_states = 0)";
    } else {
        ExplorationLimits limits;
        limits.max_states = budget_.partial_max_states;
        limits.input_budget = budget_.input_budget;
        limits.threads = budget_.threads;
        limits.spill_bytes = budget_.spill_bytes;
        limits.stop = stop_;
        obs_rung(obs::VerifyPhase::Explore, "bounded-partial");
        Result<StateSpace> impl_space =
            StateSpace::explorePartial(impl, domain, limits);
        Result<StateSpace> spec_space =
            impl_space.ok()
                ? StateSpace::explorePartial(spec, domain, limits)
                : err("skipped");
        if (impl_space.ok() && spec_space.ok()) {
            obs_rung(obs::VerifyPhase::Game, "bounded-partial");
            Result<RefinementReport> played = checkRefinementOnSpaces(
                impl_space.value(), spec_space.value(),
                /*optimistic_frontier=*/true, stop_,
                budget_.threads);
            if (played.ok()) {
                verdict.level = VerificationLevel::BoundedPartial;
                verdict.report = played.take();
                verdict.refines = false;  // bounded verdict, not a proof
                verdict.ok = verdict.report.refines;
                verdict.counterexample = verdict.report.counterexample;
                verdict.degradation_reason = why.str();
                verdict.explore_peak_bytes =
                    impl_space.value().peakBytes() +
                    spec_space.value().peakBytes();
                obs_peaks(verdict.explore_peak_bytes,
                          verdict.report.peak_bytes);
                GRAPHITI_OBS_COUNT("guard.verify.bounded_partial", 1);
                return verdict;
            }
            why << "; partial game: " << played.error().message;
        } else if (!impl_space.ok()) {
            why << "; partial explore (impl): "
                << impl_space.error().message;
        } else {
            why << "; partial explore (spec): "
                << spec_space.error().message;
        }
    }

    // Rung 3: seeded randomized trace-inclusion testing. Every walk
    // derives its own rng from (seed, walk index), so the walks fan
    // out across the pool independently; the per-walk outcomes are
    // then scanned in walk order, replaying the sequential control
    // flow — lowest failing walk wins — so the verdict is identical
    // at any thread count.
    {
        obs_rung(obs::VerifyPhase::TraceWalks, "trace-inclusion");
        // Replaying one linear trace is cheap; when the exhaustive
        // rungs were skipped (caps of 0) fall back to a cap that still
        // lets the walk run.
        std::size_t replay_cap =
            std::max({budget_.max_states, budget_.partial_max_states,
                      std::size_t{100000}});
        struct Walk
        {
            enum class Outcome : std::uint8_t
            {
                Cancelled,
                Pass,
                Fail,
                Error,
            };
            Outcome outcome = Outcome::Cancelled;
            std::string error;
            IoTrace trace;
        };
        std::vector<Walk> results(budget_.trace_walks);
        ThreadPool pool(ThreadPool::resolveThreads(budget_.threads));
        pool.parallelFor(results.size(), [&](std::size_t w) {
            if (stop_.stopRequested())
                return;  // stays Cancelled
            Rng rng(budget_.seed ^
                    ((w + 1) * 0x9e3779b97f4a7c15ULL));
            IoTrace trace =
                randomTrace(impl, input_pool, rng, budget_.trace);
            Result<bool> admitted =
                admitsTrace(spec, trace, replay_cap);
            if (!admitted.ok()) {
                results[w].outcome = Walk::Outcome::Error;
                results[w].error = admitted.error().message;
            } else if (admitted.value()) {
                results[w].outcome = Walk::Outcome::Pass;
            } else {
                results[w].outcome = Walk::Outcome::Fail;
                results[w].trace = std::move(trace);
            }
        });
        std::size_t walks = 0;
        for (std::size_t w = 0; w < results.size(); ++w) {
            Walk& r = results[w];
            if (r.outcome == Walk::Outcome::Cancelled) {
                why << "; trace walks: cancelled (" << stop_.reason()
                    << ")";
                break;
            }
            if (r.outcome == Walk::Outcome::Error) {
                why << "; trace walk " << w << ": " << r.error;
                break;
            }
            ++walks;
            if (r.outcome == Walk::Outcome::Fail) {
                verdict.level = VerificationLevel::TraceInclusion;
                verdict.ok = false;
                verdict.trace_walks_run = walks;
                verdict.degradation_reason = why.str();
                verdict.counterexample =
                    "impl trace the spec cannot replay:\n" +
                    renderTrace(r.trace);
                GRAPHITI_OBS_COUNT("guard.verify.trace_failures", 1);
                return verdict;
            }
        }
        if (walks > 0) {
            verdict.level = VerificationLevel::TraceInclusion;
            verdict.ok = true;
            verdict.trace_walks_run = walks;
            verdict.degradation_reason = why.str();
            GRAPHITI_OBS_COUNT("guard.verify.trace_inclusion", 1);
            return verdict;
        }
    }

    verdict.level = VerificationLevel::None;
    verdict.ok = false;
    verdict.degradation_reason = why.str();
    GRAPHITI_OBS_COUNT("guard.verify.none", 1);
    return verdict;
}

VerificationVerdict
Governor::verifyGraphs(const ExprHigh& impl, const ExprHigh& spec,
                       const Environment& env,
                       const std::vector<Token>& tokens) const
{
    auto fail = [](const std::string& reason) {
        VerificationVerdict verdict;
        verdict.level = VerificationLevel::None;
        verdict.degradation_reason = reason;
        return verdict;
    };
    Result<ExprLow> impl_low = lowerToExprLow(impl);
    if (!impl_low.ok())
        return fail("lower impl: " + impl_low.error().message);
    Result<ExprLow> spec_low = lowerToExprLow(spec);
    if (!spec_low.ok())
        return fail("lower spec: " + spec_low.error().message);
    Result<DenotedModule> impl_mod =
        DenotedModule::denote(impl_low.value(), env);
    if (!impl_mod.ok())
        return fail("denote impl: " + impl_mod.error().message);
    Result<DenotedModule> spec_mod =
        DenotedModule::denote(spec_low.value(), env);
    if (!spec_mod.ok())
        return fail("denote spec: " + spec_mod.error().message);
    return verify(impl_mod.value(), spec_mod.value(),
                  InputDomain::uniform(impl_mod.value(), tokens),
                  tokens);
}

}  // namespace graphiti::guard

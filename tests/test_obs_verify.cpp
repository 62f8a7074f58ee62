/**
 * @file
 * Verification-engine telemetry
 * (docs/verification_observability.md): the live progress probe and
 * the resource accounting — and, above all, their neutrality:
 * verdicts must be byte-identical with probes attached or absent.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_circuits/gcd.hpp"
#include "obs/scope.hpp"
#include "obs/vprobe.hpp"
#include "refine/refinement.hpp"

namespace graphiti {
namespace {

std::vector<Token>
gcdPairs()
{
    return {Token(Value::tuple(Value(3), Value(2))),
            Token(Value::tuple(Value(4), Value(2)))};
}

/** One theorem-5.3 refinement check (ooo gcd vs sequential gcd), run
 * inside @p scope when non-null. */
RefinementReport
runGcdCheck(obs::Scope* scope)
{
    obs::ScopedInstall install(scope);
    Environment env(4);
    ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
    ExprHigh ooo = circuits::buildGcdOutOfOrder(env.functions(), 2);
    Result<RefinementReport> report = checkGraphRefinement(
        ooo, seq, env, gcdPairs(),
        {.max_states = 200000, .input_budget = 2});
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
        "phase",      "round",
        "rung",       "samples",
        "states",     "states_cap_pct",
        "states_per_second"};
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

    RefinementReport report = runGcdCheck(scope.get());
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

TEST(VerifyTelemetry, VerdictByteIdenticalAcrossProbes)
{
    // The telemetry-neutrality contract at the heart of this plane:
    // same verdict-relevant fields with a probe attached, with a bare
    // scope, and with no scope at all.
    RefinementReport baseline = runGcdCheck(nullptr);
    ASSERT_TRUE(baseline.refines);

    for (bool with_probe : {false, true}) {
        auto scope = std::make_shared<obs::Scope>();
        if (with_probe)
            scope->attachVerifyProbe(std::make_shared<obs::VerifyProbe>());
        RefinementReport report = runGcdCheck(scope.get());
        EXPECT_EQ(report.refines, baseline.refines);
        EXPECT_EQ(report.counterexample, baseline.counterexample);
        EXPECT_EQ(report.impl_states, baseline.impl_states);
        EXPECT_EQ(report.spec_states, baseline.spec_states);
        EXPECT_EQ(report.reachable_pairs, baseline.reachable_pairs);
        EXPECT_EQ(report.fixpoint_iterations,
                  baseline.fixpoint_iterations);
    }
}

TEST(VerifyTelemetry, PeakBytesStableAcrossRuns)
{
    RefinementReport first = runGcdCheck(nullptr);
    RefinementReport again = runGcdCheck(nullptr);
    // Size-based estimates are pure functions of the explored space,
    // so two identical runs agree exactly.
    EXPECT_EQ(first.explore_peak_bytes, again.explore_peak_bytes);
    EXPECT_EQ(first.peak_bytes, again.peak_bytes);
    EXPECT_GT(first.explore_peak_bytes, 0u);
    EXPECT_GT(first.peak_bytes, 0u);
}

TEST(VerifyTelemetry, ParkReachesTheProbe)
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

    // The park a `--watch-job` poller tails: counted once, with the
    // parked space's final state and frontier sizes.
    obs::VerifyProgress at_park = probe->snapshot();
    EXPECT_EQ(at_park.parks, 1u);
    EXPECT_EQ(at_park.states, parked.value().numStates());
    EXPECT_EQ(at_park.frontier, parked.value().pendingFrontier().size());

    // A complete exploration publishes more states and parks nothing.
    Result<StateSpace> full = StateSpace::explorePartial(
        mod, domain, {.max_states = 100000, .input_budget = 3});
    ASSERT_TRUE(full.ok()) << full.error().message;
    ASSERT_TRUE(full.value().complete());
    obs::VerifyProgress at_full = probe->snapshot();
    EXPECT_EQ(at_full.parks, 1u);
    EXPECT_EQ(at_full.frontier, 0u);
    EXPECT_GT(at_full.states, at_park.states);
}

}  // namespace
}  // namespace graphiti

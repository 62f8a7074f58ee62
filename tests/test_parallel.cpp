/**
 * @file
 * Determinism tests of the verification core (label: par).
 *
 * The contract under test (docs/parallelism.md): the simulation game,
 * which settles the fixpoint's first round during discovery, returns
 * exactly the report — counterexample text included — of a reference
 * copy of the round-by-round game it replaced, on gcd, on every
 * benchmark's governed verdict, on optimistic partial spaces and on
 * instances that need several kill rounds. Plus the verification
 * cache (hit on an unchanged circuit, miss after mutating one node,
 * JSON file persistence), capped or StopToken-parked spaces being
 * exact prefixes of the one-shot space, cancellation fired from
 * another thread, and the simulator worklist against the full sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "core/compiler.hpp"
#include "core/job.hpp"
#include "dot/dot.hpp"
#include "faults/stress.hpp"
#include "guard/governor.hpp"
#include "guard/verdict_store.hpp"
#include "obs/vprobe.hpp"
#include "refine/refinement.hpp"
#include "rewrite/catalog.hpp"
#include "rewrite/ooo_pipeline.hpp"
#include "sim/sim.hpp"

namespace graphiti {
namespace {

std::vector<Token>
gcdPairs()
{
    return {Token(Value::tuple(Value(6), Value(4))),
            Token(Value::tuple(Value(9), Value(6)))};
}

/** The gcd refinement instance used across the determinism tests. */
struct GcdInstance
{
    Environment env{4};
    ExprHigh seq;
    ExprHigh ooo;
    DenotedModule impl;
    DenotedModule spec;

    GcdInstance()
        : seq(circuits::buildGcdNormalizedLoop(env.functions())),
          ooo(circuits::buildGcdOutOfOrder(env.functions(), 2)),
          impl(DenotedModule::denote(lowerToExprLow(ooo).value(), env)
                   .take()),
          spec(DenotedModule::denote(lowerToExprLow(seq).value(), env)
                   .take())
    {
    }
};

// ---------------------------------------------------------------------
// The reference game: the round-by-round fixpoint the simulation game
// used before its first round moved into discovery. Discover every
// pair, then scan every alive pair each round against the round's
// alive set until a round kills nothing. Test-only; the differential
// tests below hold the production game to its reports byte for byte.
// ---------------------------------------------------------------------

using PairKey = std::uint64_t;

PairKey
pairKey(std::uint32_t impl_state, std::uint32_t spec_state)
{
    return (static_cast<std::uint64_t>(impl_state) << 32) | spec_state;
}

class ReferenceGame
{
  public:
    ReferenceGame(const StateSpace& impl, const StateSpace& spec,
                  bool optimistic)
        : impl_(impl), spec_(spec), optimistic_(optimistic)
    {
        for (std::uint32_t s : spec.pendingFrontier())
            spec_frontier_.insert(s);
        touches_.assign(spec_.numStates(), -1);
    }

    RefinementReport
    run()
    {
        discover();
        prune();
        RefinementReport report;
        report.impl_states = impl_.numStates();
        report.spec_states = spec_.numStates();
        report.reachable_pairs = alive_.size() + dead_.size();
        report.fixpoint_iterations = iterations_;
        publish();
        report.peak_bytes = peak_bytes_;
        PairKey at = pairKey(impl_.initialState(), spec_.initialState());
        report.refines = alive_.count(at) > 0;
        if (report.refines)
            return report;
        std::ostringstream os;
        for (int depth = 0; depth < 32; ++depth) {
            auto why = reason_.find(at);
            if (why == reason_.end()) {
                os << "  (pair not reachable in the game)\n";
                break;
            }
            os << "  step " << depth << ": " << why->second << "\n";
            auto next = descend_.find(at);
            if (next == descend_.end())
                break;
            at = next->second;
        }
        report.counterexample = os.str();
        return report;
    }

  private:
    template <typename Fn>
    void
    forEachAttackerMove(std::uint32_t s, std::uint32_t t, Fn on_move) const
    {
        for (std::uint32_t s_next : impl_.internalEdges(s)) {
            std::vector<PairKey> responses;
            for (std::uint32_t t_next : spec_.internalClosure(t))
                responses.push_back(pairKey(s_next, t_next));
            on_move(responses, [&] {
                return "internal step of impl (" + std::to_string(s) +
                       " -> " + std::to_string(s_next) + ")";
            });
        }
        for (const StateSpace::InputEdge& edge : impl_.inputEdges(s)) {
            std::vector<PairKey> responses;
            for (const StateSpace::InputEdge& spec_edge :
                 spec_.inputEdges(t)) {
                if (spec_edge.port_idx != edge.port_idx ||
                    spec_edge.token_idx != edge.token_idx)
                    continue;
                for (std::uint32_t t_next :
                     spec_.internalClosure(spec_edge.dst))
                    responses.push_back(pairKey(edge.dst, t_next));
            }
            on_move(responses, [&] {
                return "input of " +
                       impl_.domainTokens(edge.port_idx)[edge.token_idx]
                           .toString() +
                       " at " +
                       impl_.inputPorts()[edge.port_idx].toString();
            });
        }
        for (const StateSpace::OutputEdge& edge : impl_.outputEdges(s)) {
            std::vector<PairKey> responses;
            for (std::uint32_t t_mid : spec_.internalClosure(t)) {
                for (const StateSpace::OutputEdge& spec_edge :
                     spec_.outputEdges(t_mid)) {
                    if (spec_edge.port_idx == edge.port_idx &&
                        spec_edge.token == edge.token)
                        responses.push_back(
                            pairKey(edge.dst, spec_edge.dst));
                }
            }
            on_move(responses, [&] {
                return "output of " + edge.token.toString() + " at " +
                       impl_.outputPorts()[edge.port_idx].toString();
            });
        }
    }

    bool
    closureTouchesFrontier(std::uint32_t t) const
    {
        if (spec_frontier_.empty())
            return false;
        if (touches_[t] < 0) {
            touches_[t] = 0;
            for (std::uint32_t u : spec_.internalClosure(t))
                if (spec_frontier_.count(u) > 0)
                    touches_[t] = 1;
        }
        return touches_[t] != 0;
    }

    void
    discover()
    {
        PairKey initial =
            pairKey(impl_.initialState(), spec_.initialState());
        alive_.insert(initial);
        std::vector<PairKey> level{initial};
        while (!level.empty()) {
            std::vector<PairKey> next;
            for (PairKey key : level) {
                forEachAttackerMove(
                    static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key),
                    [&](const std::vector<PairKey>& rs, auto) {
                        for (PairKey r : rs)
                            if (alive_.insert(r).second)
                                next.push_back(r);
                    });
            }
            level = std::move(next);
            publish();
        }
    }

    void
    prune()
    {
        struct Verdict
        {
            bool losing = false;
            std::string why;
            std::optional<PairKey> dead_response;
        };
        bool changed = true;
        while (changed) {
            changed = false;
            ++iterations_;
            std::vector<PairKey> keys(alive_.begin(), alive_.end());
            std::vector<Verdict> verdicts(keys.size());
            for (std::size_t i = 0; i < keys.size(); ++i) {
                std::uint32_t t = static_cast<std::uint32_t>(keys[i]);
                if (optimistic_ && closureTouchesFrontier(t))
                    continue;
                Verdict& out = verdicts[i];
                forEachAttackerMove(
                    static_cast<std::uint32_t>(keys[i] >> 32), t,
                    [&](const std::vector<PairKey>& rs, auto label) {
                        if (out.losing)
                            return;
                        for (PairKey r : rs)
                            if (alive_.count(r) > 0)
                                return;
                        out.losing = true;
                        out.why = label();
                        if (!rs.empty())
                            out.dead_response = rs.front();
                    });
            }
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (!verdicts[i].losing)
                    continue;
                PairKey key = keys[i];
                alive_.erase(key);
                dead_.insert(key);
                reason_[key] =
                    "impl move unmatched by spec: " + verdicts[i].why +
                    " [impl state " + std::to_string(key >> 32) +
                    ", spec state " +
                    std::to_string(static_cast<std::uint32_t>(key)) + "]";
                if (verdicts[i].dead_response)
                    descend_[key] = *verdicts[i].dead_response;
                changed = true;
            }
            publish();
        }
    }

    /** The production game's byte estimate, term for term. */
    void
    publish()
    {
        constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
        std::size_t bytes = 0;
        bytes += alive_.size() * (sizeof(PairKey) + kNodeOverhead) +
                 alive_.bucket_count() * sizeof(void*);
        bytes += dead_.size() * (sizeof(PairKey) + kNodeOverhead) +
                 dead_.bucket_count() * sizeof(void*);
        for (const auto& [key, why] : reason_) {
            (void)key;
            bytes += sizeof(std::pair<const PairKey, std::string>) +
                     why.size() + kNodeOverhead;
        }
        bytes += reason_.bucket_count() * sizeof(void*);
        bytes += descend_.size() *
                     (sizeof(std::pair<const PairKey, PairKey>) +
                      kNodeOverhead) +
                 descend_.bucket_count() * sizeof(void*);
        bytes += touches_.size() * sizeof(std::int8_t);
        bytes += spec_frontier_.size() *
                 (sizeof(std::uint32_t) + kNodeOverhead);
        peak_bytes_ = std::max(peak_bytes_, bytes);
    }

    const StateSpace& impl_;
    const StateSpace& spec_;
    bool optimistic_ = false;
    std::unordered_set<std::uint32_t> spec_frontier_;
    mutable std::vector<std::int8_t> touches_;
    std::unordered_set<PairKey> alive_;
    std::unordered_set<PairKey> dead_;
    std::unordered_map<PairKey, std::string> reason_;
    std::unordered_map<PairKey, PairKey> descend_;
    std::size_t iterations_ = 0;
    std::size_t peak_bytes_ = 0;
};

/** Play the production game and the reference game on the same
 * spaces and require identical reports; returns the production one. */
RefinementReport
expectGameMatchesReference(const StateSpace& impl, const StateSpace& spec,
                           bool optimistic, const std::string& what)
{
    Result<RefinementReport> played =
        checkRefinementOnSpaces(impl, spec, optimistic);
    EXPECT_TRUE(played.ok()) << what << ": " << played.error().message;
    if (!played.ok())
        return {};
    RefinementReport got = played.take();
    RefinementReport want = ReferenceGame(impl, spec, optimistic).run();
    EXPECT_EQ(got.refines, want.refines) << what;
    EXPECT_EQ(got.counterexample, want.counterexample) << what;
    EXPECT_EQ(got.impl_states, want.impl_states) << what;
    EXPECT_EQ(got.spec_states, want.spec_states) << what;
    EXPECT_EQ(got.reachable_pairs, want.reachable_pairs) << what;
    EXPECT_EQ(got.fixpoint_iterations, want.fixpoint_iterations) << what;
    EXPECT_EQ(got.peak_bytes, want.peak_bytes) << what;
    return got;
}

/** Denote two graphs and explore both completely. */
struct ExploredPair
{
    StateSpace impl;
    StateSpace spec;
};

ExploredPair
exploreBoth(const ExprHigh& impl, const ExprHigh& spec,
            const Environment& env, const std::vector<Token>& tokens,
            std::size_t input_budget)
{
    DenotedModule impl_mod =
        DenotedModule::denote(lowerToExprLow(impl).value(), env).take();
    DenotedModule spec_mod =
        DenotedModule::denote(lowerToExprLow(spec).value(), env).take();
    InputDomain domain = InputDomain::uniform(impl_mod, tokens);
    ExplorationLimits limits;
    limits.max_states = 2000000;
    limits.input_budget = input_budget;
    return {StateSpace::explore(impl_mod, domain, limits).take(),
            StateSpace::explore(spec_mod, domain, limits).take()};
}

/** A gcd graph without the Tagger/Untagger: results leave in
 * completion order, which the sequential loop cannot match. */
ExprHigh
untaggedGcdLoop(Environment& env)
{
    circuits::registerGcdBody(env.functions());
    ExprHigh ooo;
    ooo.addNode("merge", "merge");
    ooo.addNode("body", "pure", {{"fn", "gcd_body"}});
    ooo.addNode("split", "split");
    ooo.addNode("branch", "branch");
    ooo.bindInput(0, PortRef{"merge", "in1"});
    ooo.bindOutput(0, PortRef{"branch", "out1"});
    ooo.connect("branch", "out0", "merge", "in0");
    ooo.connect("merge", "out0", "body", "in0");
    ooo.connect("body", "out0", "split", "in0");
    ooo.connect("split", "out0", "branch", "in0");
    ooo.connect("split", "out1", "branch", "in1");
    return ooo;
}

/** The pairs of the theorem 5.3 benchmark instance. */
std::vector<Token>
benchGcdPairs()
{
    return {Token(Value::tuple(Value(3), Value(2))),
            Token(Value::tuple(Value(4), Value(2)))};
}

// ---------------------------------------------------------------------
// Exploration: a parked space is a prefix of the one-shot space.
// ---------------------------------------------------------------------

/**
 * @p part must be the one-shot space @p full cut at part.numStates():
 * same budgets and pool-id rows for every state, identical internal,
 * input and output edges for every expanded state, no edges on the
 * rest, and that rest — [expanded, numStates()) — as its pending
 * frontier. A space parked by the cap (not the stop token) must also
 * have stopped exactly where the next expansion needed a new state.
 */
void
expectPrefixOf(const StateSpace& part, const StateSpace& full,
               const std::string& what)
{
    ASSERT_TRUE(full.complete()) << what;
    ASSERT_LE(part.numStates(), full.numStates()) << what;
    const auto n = static_cast<std::uint32_t>(part.numStates());
    const auto expanded =
        n - static_cast<std::uint32_t>(part.pendingFrontier().size());
    for (std::uint32_t s = 0; s < n; ++s) {
        ASSERT_EQ(part.budget(s), full.budget(s)) << what << " " << s;
        ASSERT_EQ(part.encodedRow(s), full.encodedRow(s))
            << what << " " << s;
        if (s >= expanded) {
            EXPECT_TRUE(part.internalEdges(s).empty() &&
                        part.inputEdges(s).empty() &&
                        part.outputEdges(s).empty())
                << what << " pending " << s;
            continue;
        }
        auto ints = part.internalEdges(s);
        auto full_ints = full.internalEdges(s);
        ASSERT_TRUE(std::equal(ints.begin(), ints.end(),
                               full_ints.begin(), full_ints.end()))
            << what << " internal edges of " << s;
        auto ins = part.inputEdges(s);
        auto full_ins = full.inputEdges(s);
        ASSERT_EQ(ins.size(), full_ins.size()) << what << " " << s;
        for (std::size_t e = 0; e < ins.size(); ++e)
            ASSERT_TRUE(ins[e].port_idx == full_ins[e].port_idx &&
                        ins[e].token_idx == full_ins[e].token_idx &&
                        ins[e].dst == full_ins[e].dst)
                << what << " input edge " << e << " of " << s;
        auto outs = part.outputEdges(s);
        auto full_outs = full.outputEdges(s);
        ASSERT_EQ(outs.size(), full_outs.size()) << what << " " << s;
        for (std::size_t e = 0; e < outs.size(); ++e)
            ASSERT_TRUE(outs[e].port_idx == full_outs[e].port_idx &&
                        outs[e].token == full_outs[e].token &&
                        outs[e].dst == full_outs[e].dst)
                << what << " output edge " << e << " of " << s;
    }
    std::vector<std::uint32_t> pending;
    for (std::uint32_t s = expanded; s < n; ++s)
        pending.push_back(s);
    EXPECT_EQ(part.pendingFrontier(), pending) << what;
    if (!part.stopped() && !part.complete()) {
        // The cap fired on the first pending state: one of its
        // successors is a state the partial space had no room for.
        bool needs_new_state = false;
        for (std::uint32_t dst : full.internalEdges(expanded))
            needs_new_state |= dst >= n;
        for (const auto& e : full.inputEdges(expanded))
            needs_new_state |= e.dst >= n;
        for (const auto& e : full.outputEdges(expanded))
            needs_new_state |= e.dst >= n;
        EXPECT_TRUE(needs_new_state) << what;
    }
}

TEST(ParallelExplore, ParkedFrontierResumesToTheOneShotSpace)
{
    // A space parked at a cap is the one-shot space cut at the cap,
    // so exploring again with more room carries its frontier on to
    // exactly the one-shot space.
    GcdInstance gcd;
    for (const DenotedModule* mod : {&gcd.impl, &gcd.spec}) {
        const std::string side = mod == &gcd.impl ? "impl" : "spec";
        InputDomain domain = InputDomain::uniform(*mod, gcdPairs());
        ExplorationLimits one_shot;
        one_shot.max_states = 400000;
        one_shot.input_budget = 2;
        Result<StateSpace> full =
            StateSpace::explore(*mod, domain, one_shot);
        ASSERT_TRUE(full.ok()) << full.error().message;

        for (std::size_t cap : {1, 4, 90}) {
            ExplorationLimits capped = one_shot;
            capped.max_states = cap;
            Result<StateSpace> partial =
                StateSpace::explorePartial(*mod, domain, capped);
            ASSERT_TRUE(partial.ok()) << partial.error().message;
            ASSERT_FALSE(partial.value().complete());
            EXPECT_EQ(partial.value().numStates(), cap);
            ASSERT_FALSE(partial.value().pendingFrontier().empty());
            expectPrefixOf(partial.value(), full.value(),
                           side + " cap " + std::to_string(cap));
        }

        Result<StateSpace> roomier =
            StateSpace::explorePartial(*mod, domain, one_shot);
        ASSERT_TRUE(roomier.ok()) << roomier.error().message;
        ASSERT_TRUE(roomier.value().complete()) << side;
        EXPECT_EQ(roomier.value().numStates(), full.value().numStates())
            << side;
        EXPECT_EQ(roomier.value().fingerprint(),
                  full.value().fingerprint())
            << side;
    }
}

TEST(ParallelExplore, StopTokenParksResumableFrontier)
{
    GcdInstance gcd;
    for (const DenotedModule* mod : {&gcd.impl, &gcd.spec}) {
        const std::string side = mod == &gcd.impl ? "impl" : "spec";
        InputDomain domain = InputDomain::uniform(*mod, gcdPairs());
        ExplorationLimits one_shot;
        one_shot.max_states = 400000;
        one_shot.input_budget = 2;

        StopToken stop;
        stop.requestStop("test cancellation");
        ExplorationLimits stopped = one_shot;
        stopped.stop = stop;
        Result<StateSpace> parked =
            StateSpace::explorePartial(*mod, domain, stopped);
        ASSERT_TRUE(parked.ok()) << parked.error().message;
        ASSERT_TRUE(parked.value().stopped());
        EXPECT_EQ(parked.value().stopReason(), "test cancellation");
        // A token fired before the first expansion parks the initial
        // state, un-expanded, as the whole frontier.
        EXPECT_EQ(parked.value().numStates(), 1u);
        ASSERT_FALSE(parked.value().pendingFrontier().empty());

        // With the token cleared, the same exploration runs from that
        // frontier to the one-shot space, of which the parked space
        // is a prefix.
        Result<StateSpace> full =
            StateSpace::explore(*mod, domain, one_shot);
        ASSERT_TRUE(full.ok()) << full.error().message;
        EXPECT_FALSE(full.value().stopped()) << side;
        expectPrefixOf(parked.value(), full.value(), side + " stopped");
    }
}

// ---------------------------------------------------------------------
// The simulation game against the reference game (both polarities).
// ---------------------------------------------------------------------

TEST(GameDifferential, GcdReportMatchesReferenceAtBudgetsOneToThree)
{
    Environment env(4);
    ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
    ExprHigh ooo = circuits::buildGcdOutOfOrder(env.functions(), 2);
    for (std::size_t budget : {1, 2, 3}) {
        ExploredPair spaces =
            exploreBoth(ooo, seq, env, benchGcdPairs(), budget);
        RefinementReport report = expectGameMatchesReference(
            spaces.impl, spaces.spec, false,
            "budget " + std::to_string(budget));
        EXPECT_TRUE(report.refines) << "budget " << budget;
        if (budget == 3) {
            // The instance ci/par_gate.sh ratchets.
            EXPECT_EQ(report.reachable_pairs, 147186u);
            EXPECT_EQ(report.fixpoint_iterations, 1u);
        }
    }
}

TEST(GameDifferential, CounterexampleTextMatchesReferenceOverKillRounds)
{
    // constant(7) does not refine a buffer on tokens {0, 1}. The pair
    // after an input dies in round 1 (its output has no response);
    // the initial pair dies only in round 2, so the scanning rounds
    // run.
    Environment env(4);
    ExprHigh spec;
    spec.addNode("b", "buffer");
    spec.bindInput(0, PortRef{"b", "in0"});
    spec.bindOutput(0, PortRef{"b", "out0"});
    ExprHigh impl;
    impl.addNode("c", "constant", {{"value", "7"}});
    impl.bindInput(0, PortRef{"c", "in0"});
    impl.bindOutput(0, PortRef{"c", "out0"});

    ExploredPair spaces = exploreBoth(
        impl, spec, env, {Token(Value(0)), Token(Value(1))}, 2);
    RefinementReport report = expectGameMatchesReference(
        spaces.impl, spaces.spec, false, "constant vs buffer");
    EXPECT_FALSE(report.refines);
    EXPECT_FALSE(report.counterexample.empty());
    EXPECT_GE(report.fixpoint_iterations, 3u);
}

TEST(GameDifferential, FirstUnmatchedMoveNamesTheCounterexample)
{
    // Two init registers emit their initial token at out0 and out1
    // before any input; two buffers cannot. The initial pair has two
    // moves without responses, and the counterexample must name the
    // first, out0, as the round-by-round game did.
    Environment env(4);
    ExprHigh impl;
    ExprHigh spec;
    for (int i = 0; i < 2; ++i) {
        std::string n = "n" + std::to_string(i);
        impl.addNode(n, "init", {{"value", "false"}});
        spec.addNode(n, "buffer");
        for (ExprHigh* g : {&impl, &spec}) {
            g->bindInput(i, PortRef{n, "in0"});
            g->bindOutput(i, PortRef{n, "out0"});
        }
    }
    ExploredPair spaces = exploreBoth(
        impl, spec, env, {Token(Value(false)), Token(Value(true))}, 1);
    RefinementReport report = expectGameMatchesReference(
        spaces.impl, spaces.spec, false, "init vs buffer");
    EXPECT_FALSE(report.refines);
    EXPECT_NE(report.counterexample.find("output of false"),
              std::string::npos)
        << report.counterexample;
}

TEST(GameDifferential, UntaggedOutOfOrderCounterexampleMatchesReference)
{
    Environment env(4);
    ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
    ExprHigh ooo = untaggedGcdLoop(env);
    ExploredPair spaces = exploreBoth(ooo, seq, env, benchGcdPairs(), 2);
    RefinementReport report = expectGameMatchesReference(
        spaces.impl, spaces.spec, false, "untagged gcd");
    EXPECT_FALSE(report.refines);
}

TEST(GameDifferential, OptimisticPartialSpacesMatchReference)
{
    // Partial spaces played optimistically: frontier pairs are
    // protected in every round, round 1 included. The last case needs
    // scanning rounds that meet protected pairs.
    struct Case
    {
        bool tagged;
        std::size_t input_budget;
        std::size_t cap;
    };
    for (Case c : {Case{true, 2, 20}, Case{true, 2, 120},
                   Case{false, 2, 20}, Case{false, 2, 120},
                   Case{false, 3, 1500}}) {
        Environment env(4);
        ExprHigh seq = circuits::buildGcdNormalizedLoop(env.functions());
        ExprHigh ooo = c.tagged
                           ? circuits::buildGcdOutOfOrder(env.functions(), 2)
                           : untaggedGcdLoop(env);
        DenotedModule impl =
            DenotedModule::denote(lowerToExprLow(ooo).value(), env).take();
        DenotedModule spec =
            DenotedModule::denote(lowerToExprLow(seq).value(), env).take();
        InputDomain domain = InputDomain::uniform(impl, benchGcdPairs());
        ExplorationLimits limits;
        limits.max_states = c.cap;
        limits.input_budget = c.input_budget;
        StateSpace impl_space =
            StateSpace::explorePartial(impl, domain, limits).take();
        StateSpace spec_space =
            StateSpace::explorePartial(spec, domain, limits).take();
        std::string what = std::string(c.tagged ? "tagged" : "untagged") +
                           " budget " + std::to_string(c.input_budget) +
                           " cap " + std::to_string(c.cap);
        ASSERT_FALSE(spec_space.complete()) << what;
        expectGameMatchesReference(impl_space, spec_space, true, what);
    }
}

// ---------------------------------------------------------------------
// Governed verdict JSON against the reference game, on every
// benchmark.
// ---------------------------------------------------------------------

TEST(ParallelGovernor, VerdictJsonByteIdenticalOnEveryBenchmark)
{
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        Environment env;
        PipelineOptions popts;
        popts.num_tags = spec.num_tags;
        Result<PipelineResult> transformed =
            runOooPipeline(spec.df_io, env, popts);
        ASSERT_TRUE(transformed.ok()) << name;

        // Tight budgets: the benchmark circuits are large, so the full
        // rung is expected to degrade to the optimistic partial game.
        guard::VerificationBudget budget;
        budget.max_states = 800;
        budget.partial_max_states = 300;
        budget.input_budget = 1;
        budget.trace_walks = 2;
        budget.trace.max_steps = 60;
        budget.trace.max_inputs = 2;
        guard::Governor governor(budget);
        Environment bounded(budget.input_budget + 2, env.functionsPtr());
        std::vector<Token> tokens = {Token(Value(0)), Token(Value(1))};
        guard::VerificationVerdict verdict = governor.verifyGraphs(
            transformed.value().graph, spec.df_io, bounded, tokens);

        // Rebuild the winning rung's spaces and replay its game with
        // the reference game.
        bool full = verdict.level == guard::VerificationLevel::Full;
        ASSERT_TRUE(full || verdict.level ==
                                guard::VerificationLevel::BoundedPartial)
            << name << ": " << guard::toString(verdict.level);
        DenotedModule impl =
            DenotedModule::denote(
                lowerToExprLow(transformed.value().graph).value(), bounded)
                .take();
        DenotedModule orig =
            DenotedModule::denote(lowerToExprLow(spec.df_io).value(),
                                  bounded)
                .take();
        InputDomain domain = InputDomain::uniform(impl, tokens);
        ExplorationLimits limits;
        limits.max_states =
            full ? budget.max_states : budget.partial_max_states;
        limits.input_budget = budget.input_budget;
        StateSpace impl_space =
            StateSpace::explorePartial(impl, domain, limits).take();
        StateSpace spec_space =
            StateSpace::explorePartial(orig, domain, limits).take();
        RefinementReport want =
            ReferenceGame(impl_space, spec_space, !full).run();
        guard::VerificationVerdict reference = verdict;
        reference.report = want;
        reference.ok = want.refines;
        reference.refines = full && want.refines;
        reference.counterexample = want.counterexample;
        EXPECT_EQ(verdict.toJson().dump(2), reference.toJson().dump(2))
            << name;
        EXPECT_EQ(verdict.report.peak_bytes, want.peak_bytes) << name;
    }
}

// ---------------------------------------------------------------------
// Verification cache.
// ---------------------------------------------------------------------

CompileOptions
governedOptions()
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

TEST(VerifyCache, SecondCompileOfUnchangedCircuitHits)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    Compiler compiler;
    CompileOptions options = governedOptions();

    Result<CompileReport> first =
        compiler.compileGraph(gcd, options);
    ASSERT_TRUE(first.ok()) << first.error().message;
    EXPECT_FALSE(first.value().verify_cache_hit);
    EXPECT_EQ(compiler.verdictStore()->stats().hits, 0u);
    EXPECT_EQ(compiler.verdictStore()->stats().misses, 1u);

    Result<CompileReport> second =
        compiler.compileGraph(gcd, options);
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_TRUE(second.value().verify_cache_hit);
    EXPECT_EQ(compiler.verdictStore()->stats().hits, 1u);
    EXPECT_EQ(second.value().verify_cache_key,
              first.value().verify_cache_key);
    // The cached verdict is the stored verdict, byte for byte.
    EXPECT_EQ(second.value().verdict.toJson().dump(2),
              first.value().verdict.toJson().dump(2));
    // Nothing is explored on a hit: its peak bytes read 0, as a served
    // hit's do, while the first run's are its own.
    EXPECT_GT(first.value().verify_explore_peak_bytes, 0u);
    EXPECT_GT(first.value().verify_game_peak_bytes, 0u);
    EXPECT_EQ(second.value().verify_explore_peak_bytes, 0u);
    EXPECT_EQ(second.value().verify_game_peak_bytes, 0u);
}

TEST(VerifyCache, MutatingOneNodeMisses)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    Compiler compiler;
    CompileOptions options = governedOptions();

    Result<CompileReport> first =
        compiler.compileGraph(gcd, options);
    ASSERT_TRUE(first.ok()) << first.error().message;

    // Mutate one node: re-parse the printed circuit with one buffer's
    // worth of difference — append a buffer in front of output 0.
    ExprHigh mutated = gcd;
    auto out0 = mutated.outputs()[0];
    ASSERT_TRUE(out0.has_value());
    mutated.addNode("par_test_tap", "buffer");
    mutated.connect(*out0, PortRef{"par_test_tap", "in0"});
    mutated.bindOutput(0, PortRef{"par_test_tap", "out0"});

    Result<CompileReport> second =
        compiler.compileGraph(mutated, options);
    ASSERT_TRUE(second.ok()) << second.error().message;
    EXPECT_FALSE(second.value().verify_cache_hit);
    EXPECT_NE(second.value().verify_cache_key,
              first.value().verify_cache_key);
    EXPECT_EQ(compiler.verdictStore()->stats().misses, 2u);
}

TEST(VerifyCache, FilePersistenceRoundTrips)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    guard::VerdictStoreConfig config;
    config.dir = ::testing::TempDir() + "graphiti_verdict_store";
    std::filesystem::remove_all(config.dir);

    CompileOptions options = governedOptions();

    std::string first_json;
    {
        Compiler compiler;
        compiler.setVerdictStore(
            std::make_shared<guard::VerdictStore>(config));
        Result<CompileReport> first =
            compiler.compileGraph(gcd, options);
        ASSERT_TRUE(first.ok()) << first.error().message;
        EXPECT_FALSE(first.value().verify_cache_hit);
        first_json = first.value().verdict.toJson().dump(2);
    }
    {
        // A fresh compiler and store hit via the shard files.
        auto store = std::make_shared<guard::VerdictStore>(config);
        ASSERT_TRUE(store->load().ok());
        Compiler compiler;
        compiler.setVerdictStore(store);
        Result<CompileReport> second =
            compiler.compileGraph(gcd, options);
        ASSERT_TRUE(second.ok()) << second.error().message;
        EXPECT_TRUE(second.value().verify_cache_hit);
        EXPECT_EQ(second.value().verdict.toJson().dump(2), first_json);
    }
    std::filesystem::remove_all(config.dir);
}

TEST(VerifyCache, KeyTracksBudget)
{
    ExprHigh gcd = circuits::buildGcdInOrder();
    std::vector<Token> tokens = {Token(Value(0)), Token(Value(1))};
    guard::VerificationBudget a;
    EXPECT_EQ(
        guard::verificationCacheKey(gcd, gcd, a, tokens),
        guard::verificationCacheKey(gcd, gcd, a, tokens));

    guard::VerificationBudget c = a;
    c.max_states = a.max_states / 2;  // different assurance: new key
    EXPECT_NE(
        guard::verificationCacheKey(gcd, gcd, a, tokens),
        guard::verificationCacheKey(gcd, gcd, c, tokens));

    EXPECT_TRUE(guard::isCacheable(a));
    guard::VerificationBudget timed = a;
    timed.deadline_seconds = 1.0;  // nondeterministic: never cached
    EXPECT_FALSE(guard::isCacheable(timed));
}

/** One circuit of the compile-entry tests: the six paper benchmarks
 * and gcd, as the dot text a served verify carries. */
struct PaperCircuit
{
    std::string name;
    std::string dot;
    int num_tags = 8;
};

std::vector<PaperCircuit>
paperCircuits()
{
    std::vector<PaperCircuit> out;
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        out.push_back({name, printDot(spec.df_io), spec.num_tags});
    }
    out.push_back({"gcd", printDot(circuits::buildGcdInOrder()),
                   CompileOptions{}.num_tags});
    return out;
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
 * report.verify_peak_bytes (0 on a verdict hit: no exploration ran). */
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

TEST(VerifyCache, RepeatAndFreshSaltReuseTheCompileEntryOnEveryBenchmark)
{
    // A fresh Compiler per request on one store: the served daemon's
    // shape. One store per circuit, as gsum-many and gsum-single
    // share their circuit.
    std::shared_ptr<guard::VerdictStore> store;
    auto run = [&](const JobSpec& spec) {
        Compiler compiler;
        compiler.setVerdictStore(store);
        Result<obs::json::Value> result = runJob(compiler, spec);
        EXPECT_TRUE(result.ok()) << result.error().message;
        return result.ok() ? result.take() : obs::json::Value{};
    };
    for (const PaperCircuit& circuit : paperCircuits()) {
        store = std::make_shared<guard::VerdictStore>();
        JobSpec spec;
        spec.kind = "verify";
        spec.circuit_dot = circuit.dot;
        spec.options = governedOptions();
        spec.options.num_tags = circuit.num_tags;

        obs::json::Value first = run(spec);
        obs::json::Value repeat = run(spec);
        ASSERT_NE(first.find("report"), nullptr) << circuit.name;
        ASSERT_NE(repeat.find("report"), nullptr) << circuit.name;
        EXPECT_FALSE(flag(first, "compile_cache_hit")) << circuit.name;
        EXPECT_TRUE(flag(repeat, "compile_cache_hit")) << circuit.name;
        EXPECT_TRUE(flag(repeat, "verify_cache_hit")) << circuit.name;
        EXPECT_EQ(repeat.find("report")->find("seconds")->asNumber(), 0.0)
            << circuit.name;
        const obs::json::Value* peak =
            repeat.find("report")->find("verify_peak_bytes");
        ASSERT_NE(peak, nullptr) << circuit.name;
        EXPECT_EQ(peak->find("explore")->asNumber(), 0.0) << circuit.name;
        EXPECT_EQ(peak->find("game")->asNumber(), 0.0) << circuit.name;
        EXPECT_EQ(withoutHitFields(repeat), withoutHitFields(first))
            << circuit.name;

        // A fresh budget salt misses the verdict but not the compile;
        // its verdict is the one a store-less compile computes.
        JobSpec salted = spec;
        salted.options.verify_budget.seed ^= 1;
        obs::json::Value fresh = run(salted);
        EXPECT_TRUE(flag(fresh, "compile_cache_hit")) << circuit.name;
        EXPECT_FALSE(flag(fresh, "verify_cache_hit")) << circuit.name;
        Compiler storeless;
        CompileOptions options = salted.options;
        options.verify_cache = false;
        Result<CompileReport> reference =
            storeless.compileDot(circuit.dot, options);
        ASSERT_TRUE(reference.ok()) << reference.error().message;
        EXPECT_EQ(fresh.find("verdict")->dump(2),
                  reference.value().verdict.toJson().dump(2))
            << circuit.name;
        EXPECT_EQ(fresh.find("output_dot")->asString(),
                  reference.value().output_dot)
            << circuit.name;
        EXPECT_EQ(fresh.find("verify_cache_key")->asString(),
                  reference.value().verify_cache_key)
            << circuit.name;

        // Compile lookups have their own counters; hits and misses
        // count verdict lookups only.
        guard::VerdictStoreStats stats = store->stats();
        EXPECT_EQ(stats.compile_misses, 1u) << circuit.name;
        EXPECT_EQ(stats.compile_hits, 2u) << circuit.name;
        EXPECT_EQ(stats.misses, 2u) << circuit.name;
        EXPECT_EQ(stats.hits, 1u) << circuit.name;
        EXPECT_EQ(stats.entries, 3u) << circuit.name;
    }
}

TEST(VerifyCache, CatalogOptionAndInputEditsTurnACompileHitIntoAMiss)
{
    // A catalog with one RHS altered has another fingerprint.
    std::vector<RewriteDef> rules = catalog::allRewrites();
    ASSERT_FALSE(rules.empty());
    EXPECT_EQ(guard::catalogFingerprint(rules), guard::catalogFingerprint());
    std::vector<RewriteDef> altered = rules;
    altered.front().rhs.addNode("fingerprint_probe", "buffer");
    std::uint64_t fingerprint = guard::catalogFingerprint();
    std::uint64_t altered_fingerprint = guard::catalogFingerprint(altered);
    EXPECT_NE(altered_fingerprint, fingerprint);

    ExprHigh gcd = circuits::buildGcdInOrder();
    auto store = std::make_shared<guard::VerdictStore>();
    CompileOptions options = governedOptions();
    auto compileHits = [&](const ExprHigh& graph,
                           const CompileOptions& with) {
        Compiler compiler;
        compiler.setVerdictStore(store);
        Result<CompileReport> report = compiler.compileGraph(graph, with);
        EXPECT_TRUE(report.ok()) << report.error().message;
        return report.ok() && report.value().compile_cache_hit;
    };
    EXPECT_FALSE(compileHits(gcd, options));

    // The entry is filed under the process fingerprint's key; the
    // altered catalog's key for the same input misses.
    std::string dot = printDot(gcd);
    EXPECT_TRUE(store
                    ->lookupCompile(guard::compileCacheKey(
                        dot, options.num_tags, options.reexpand,
                        options.validate, fingerprint))
                    .has_value());
    EXPECT_FALSE(store
                     ->lookupCompile(guard::compileCacheKey(
                         dot, options.num_tags, options.reexpand,
                         options.validate, altered_fingerprint))
                     .has_value());

    CompileOptions tags = options;
    tags.num_tags = options.num_tags + 1;
    CompileOptions pure = options;
    pure.reexpand = false;
    CompileOptions unguarded = options;
    unguarded.validate = false;
    EXPECT_FALSE(compileHits(gcd, tags));
    EXPECT_FALSE(compileHits(gcd, pure));
    EXPECT_FALSE(compileHits(gcd, unguarded));

    // One node more: a buffer in front of output 0.
    ExprHigh mutated = gcd;
    auto out0 = mutated.outputs()[0];
    ASSERT_TRUE(out0.has_value());
    mutated.addNode("compile_key_tap", "buffer");
    mutated.connect(*out0, PortRef{"compile_key_tap", "in0"});
    mutated.bindOutput(0, PortRef{"compile_key_tap", "out0"});
    EXPECT_FALSE(compileHits(mutated, options));

    // The unedited request still hits.
    EXPECT_TRUE(compileHits(gcd, options));
}

TEST(VerifyCache, ProfileJobsSimulateTheSameOnAWarmStore)
{
    // With reexpand off the output keeps its `pure` body, whose
    // function only the compiling Compiler registered: no compile
    // entry may be written for it, or the next job's simulator would
    // not find the function.
    auto store = std::make_shared<guard::VerdictStore>();
    for (bool reexpand : {false, true}) {
        JobSpec spec;
        spec.kind = "profile";
        spec.circuit_dot = printDot(circuits::buildGcdInOrder());
        spec.options = governedOptions();
        spec.options.reexpand = reexpand;
        spec.workload.inputs = {{Token(Value(48)), Token(Value(100))},
                                {Token(Value(18)), Token(Value(75))}};
        spec.workload.expected_outputs = 2;

        Compiler storeless;
        JobSpec uncached = spec;
        uncached.options.verify_cache = false;
        Result<obs::json::Value> reference = runJob(storeless, uncached);
        ASSERT_TRUE(reference.ok()) << reference.error().message;
        for (int round = 0; round < 2; ++round) {
            Compiler compiler;
            compiler.setVerdictStore(store);
            Result<obs::json::Value> run = runJob(compiler, spec);
            ASSERT_TRUE(run.ok())
                << "reexpand " << reexpand << " round " << round << ": "
                << run.error().message;
            for (const char* key : {"output_dot", "cycles", "outputs"})
                EXPECT_EQ(run.value().find(key)->dump(),
                          reference.value().find(key)->dump())
                    << "reexpand " << reexpand << " round " << round
                    << ": " << key;
        }
    }
    // reexpand off wrote nothing, so both its rounds missed; reexpand
    // on missed once and then hit the entry its first round wrote.
    EXPECT_EQ(store->stats().compile_misses, 3u);
    EXPECT_EQ(store->stats().compile_hits, 1u);
}

// ---------------------------------------------------------------------
// Simulator schedule: the ready worklist reproduces, plan by plan, the
// results of the full sweep it replaced. Each row below was recorded
// by the full-sweep simulator on one benchmark circuit under the
// fault-free run followed by the default stress battery.
// ---------------------------------------------------------------------

sim::SimResult
simulateBenchmark(const ExprHigh& g,
                  const circuits::BenchmarkSpec& spec,
                  std::shared_ptr<FnRegistry> registry)
{
    sim::Simulator simulator = sim::Simulator::build(g, registry).take();
    for (const auto& [name, data] : spec.memories)
        simulator.setMemory(name, data);
    Result<sim::SimResult> r = simulator.run(
        spec.inputs, spec.expected_outputs, spec.serial_io);
    EXPECT_TRUE(r.ok()) << spec.name << ": " << r.error().message;
    return r.ok() ? r.take() : sim::SimResult{};
}

struct ScheduleDigest
{
    /** FNV-1a 64 over every plan's cycles, outputs and memories. */
    std::uint64_t digest = 0;
    /** Per-plan cycle counts, space separated ("x" = failed run). */
    std::string cycles;
};

ScheduleDigest
scheduleDigest(const ExprHigh& g, const circuits::BenchmarkSpec& spec,
               std::shared_ptr<FnRegistry> registry)
{
    // The fault-free run, then StressHarness's default plan battery.
    std::vector<std::shared_ptr<sim::FaultInjector>> plans = {nullptr};
    for (const auto& plan : faults::stressPlans({}, g))
        plans.push_back(plan);
    std::ostringstream text;
    ScheduleDigest out;
    for (const auto& plan : plans) {
        sim::SimConfig config;
        config.faults = plan;
        sim::Simulator s =
            sim::Simulator::build(g, registry, config).take();
        for (const auto& [name, data] : spec.memories)
            s.setMemory(name, data);
        Result<sim::SimResult> r =
            s.run(spec.inputs, spec.expected_outputs, spec.serial_io);
        if (!r.ok()) {
            text << "failed\n";
            out.cycles += " x";
            continue;
        }
        out.cycles += " " + std::to_string(r.value().cycles);
        text << r.value().cycles << "\n";
        for (const auto& port : r.value().outputs) {
            for (const Token& t : port)
                text << t.toString() << ",";
            text << "\n";
        }
        for (const auto& [name, data] : r.value().memories) {
            text << name << ":";
            for (double d : data)
                text << std::hexfloat << d << std::defaultfloat << ",";
            text << "\n";
        }
    }
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : text.str()) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    out.digest = h;
    out.cycles.erase(0, 1);
    return out;
}

struct ScheduleRow
{
    const char* benchmark;
    bool transformed;
    std::uint64_t digest;
    const char* cycles;
};

const ScheduleRow kFullSweepRows[] = {
    {"bicg", false, 0x78b61a9e62bfd303ULL,
     "9235 18895 10537 9820 18887 18882 10532 18438 10057 10256 10255 "
     "10213 10257 10254 10248 10238 10224 10224 10251 10244 9235"},
    {"bicg", true, 0x78b61a9e62bfd303ULL,
     "9235 18895 10537 9820 18887 18882 10532 18438 10057 10256 10255 "
     "10213 10257 10254 10248 10238 10224 10224 10251 10244 9235"},
    {"gemm", false, 0x31b59e6651cadd5cULL,
     "44093 57651 44961 57677 44808 44957 57756 57040 45287 45114 45108 "
     "45102 45096 45115 45113 45104 45106 45094 45107 45102 44180"},
    {"gemm", true, 0x9b443579a91ea6ebULL,
     "4972 6277 6338 6242 6271 6298 6283 5004 6206 5966 5944 5943 5968 "
     "5975 5968 5980 5950 5942 5988 5992 4993"},
    {"gsum-many", false, 0xd31d5b37dc216928ULL,
     "8029 8693 10785 8750 10723 8754 10761 9936 9280 9050 9050 9038 "
     "9038 9050 9048 9042 9041 9034 9046 9041 9038"},
    {"gsum-many", true, 0x2bcb1880ad717bfeULL,
     "3948 4655 4704 4689 4701 4655 4696 3955 5069 4957 4931 4930 4953 "
     "4936 4942 4944 4932 4928 4402 4970 4969"},
    {"gsum-single", false, 0x574a3168d66e3bbaULL,
     "9160 9724 11351 9798 11324 9775 11366 10560 10270 10181 10181 "
     "10169 10169 10181 10179 10173 10172 10165 10177 10172 10169"},
    {"gsum-single", true, 0x3b316772522eebffULL,
     "22840 23365 23433 23377 23365 23356 23412 22840 23970 23851 23825 "
     "23824 23847 23830 23836 23838 23826 23822 23296 23862 23861"},
    {"matvec", false, 0xcfa9ea40673b3eceULL,
     "7374 8069 10264 8021 10226 8042 10260 9521 8568 8395 8394 8383 "
     "8382 8395 8393 8387 8382 8390 8386 8382 7466"},
    {"matvec", true, 0xc170a8dca81a8008ULL,
     "994 1333 1428 1408 1397 1409 1371 1040 1410 1995 1974 1973 1995 "
     "1973 2007 1975 2010 1972 2013 2014 1070"},
    {"mvt", false, 0xbe50c13484266857ULL,
     "7384 10348 8205 10398 8160 10217 10300 9531 8578 8405 8373 8374 "
     "8392 8386 8402 8392 8402 8392 8401 8396 7477"},
    {"mvt", true, 0x61a3fac74df6e3d8ULL,
     "2122 2716 2737 2754 2728 2790 2782 2157 3086 3114 3092 3093 3126 "
     "3123 3091 3128 3115 3089 2122 3144 3141"},
};

void
expectMatchesFullSweep(bool transformed)
{
    for (const ScheduleRow& row : kFullSweepRows) {
        if (row.transformed != transformed)
            continue;
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(row.benchmark).take();
        Environment env;
        ExprHigh g = spec.df_io;
        if (transformed) {
            Result<PipelineResult> ooo = runOooPipeline(
                spec.df_io, env,
                {.num_tags = spec.num_tags, .reexpand = true});
            ASSERT_TRUE(ooo.ok()) << ooo.error().message;
            g = ooo.value().graph;
        }
        ScheduleDigest got = scheduleDigest(g, spec, env.functionsPtr());
        EXPECT_EQ(got.digest, row.digest)
            << row.benchmark << " per-plan cycles\n  got:  "
            << got.cycles << "\n  want: " << row.cycles;
    }
}

TEST(SimSchedule, DfIoMatchesFullSweepUnderStressBattery)
{
    expectMatchesFullSweep(false);
}

TEST(SimSchedule, TransformedMatchesFullSweepUnderStressBattery)
{
    expectMatchesFullSweep(true);
}

// Ten gcd loops side by side: 130+ nodes, so the wake set spans more
// than one 64-bit word and wakes cross word boundaries. The digests
// were recorded by the byte-per-node worklist simulator.
TEST(SimSchedule, WideFarmMatchesRecordedDigest)
{
    constexpr int kCopies = 10;
    circuits::BenchmarkSpec spec;
    spec.name = "gcd-farm";
    spec.df_io = circuits::buildGcdFarm(kCopies);
    ASSERT_GT(spec.df_io.numNodes(), 128u);
    const std::pair<int, int> pairs[] = {
        {48, 18}, {1071, 462}, {7, 13}, {90, 35}};
    spec.inputs.resize(2 * kCopies);
    for (int k = 0; k < kCopies; ++k) {
        for (auto [a, b] : pairs) {
            spec.inputs[2 * k].emplace_back(Value(a + k));
            spec.inputs[2 * k + 1].emplace_back(Value(b));
        }
    }
    spec.expected_outputs = std::size(pairs);
    PipelineOptions options;
    options.num_tags = 4;

    const ScheduleRow rows[] = {
        {"gcd-farm", false, 0xe8df03485d106353ULL,
         "275 330 351 315 357 328 326 275 422 1206 1067 1285 1259 1219 "
         "1247 1195 1142 1169 1195 1194 1207"},
        {"gcd-farm", true, 0x5215f6352b971639ULL,
         "93 142 117 124 131 119 149 96 148 1089 1104 1102 1092 1075 "
         "1114 1087 1105 1076 1115 1028 1088"},
    };
    for (const ScheduleRow& row : rows) {
        Environment env;
        ExprHigh g = spec.df_io;
        if (row.transformed) {
            Result<PipelineResult> ooo =
                runOooPipeline(spec.df_io, env, options);
            ASSERT_TRUE(ooo.ok()) << ooo.error().message;
            g = ooo.value().graph;
        }
        ScheduleDigest got = scheduleDigest(g, spec, env.functionsPtr());
        EXPECT_EQ(got.digest, row.digest)
            << row.benchmark << (row.transformed ? " transformed" : "")
            << " per-plan cycles\n  got:  " << got.cycles
            << "\n  want: " << row.cycles;
    }
}

// ---------------------------------------------------------------------
// Cancellation races: a second thread fires the token while the
// exploration / simulation is in flight. The staggered delays sweep
// the cancel point across the run; every landing spot must be clean —
// a parked prefix of the one-shot space or a structured "cancelled"
// error, never a crash, a hang, or a corrupted verdict afterwards.
// ---------------------------------------------------------------------

TEST(ParallelCancel, RacingCancelMidExploreParksAPrefixOfOneShot)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());

    ExplorationLimits one_shot;
    one_shot.max_states = 400000;
    one_shot.input_budget = 2;
    Result<StateSpace> full =
        StateSpace::explore(gcd.impl, domain, one_shot);
    ASSERT_TRUE(full.ok()) << full.error().message;

    for (int lag_us : {0, 30, 60, 120, 250, 500}) {
        StopToken stop = StopToken::manual();
        std::thread canceller([&stop, lag_us] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(lag_us));
            stop.requestStop("racing cancel");
        });
        ExplorationLimits limits = one_shot;
        limits.stop = stop;
        Result<StateSpace> raced =
            StateSpace::explorePartial(gcd.impl, domain, limits);
        canceller.join();
        ASSERT_TRUE(raced.ok())
            << "lag " << lag_us << ": " << raced.error().message;
        const StateSpace& space = raced.value();
        // Whether the cancel landed mid-flight or after the finish
        // line, the space is the one-shot space cut where the token
        // was seen — the whole of it when the token came too late.
        if (space.stopped())
            EXPECT_EQ(space.stopReason(), "racing cancel");
        else
            EXPECT_EQ(space.fingerprint(), full.value().fingerprint())
                << "lag " << lag_us;
        expectPrefixOf(space, full.value(),
                       "lag " + std::to_string(lag_us));
    }
}

TEST(ParallelCancel, StopDuringGameDiscoveryReturnsWithinAQuarterSecond)
{
    // matvec at input budget 1 with 2000-state partial spaces: the
    // game's discovery levels grow past 3 * 10^5 pairs, and one such
    // level takes longer than the bound, so the stop must be seen
    // inside a level, not between levels.
    circuits::BenchmarkSpec spec = circuits::buildBenchmark("matvec").take();
    Environment env;
    PipelineOptions popts;
    popts.num_tags = spec.num_tags;
    Result<PipelineResult> transformed =
        runOooPipeline(spec.df_io, env, popts);
    ASSERT_TRUE(transformed.ok()) << transformed.error().message;
    Environment bounded(3, env.functionsPtr());
    DenotedModule impl =
        DenotedModule::denote(
            lowerToExprLow(transformed.value().graph).value(), bounded)
            .take();
    DenotedModule orig =
        DenotedModule::denote(lowerToExprLow(spec.df_io).value(), bounded)
            .take();
    InputDomain domain =
        InputDomain::uniform(impl, {Token(Value(0)), Token(Value(1))});
    ExplorationLimits limits;
    limits.max_states = 2000;
    limits.input_budget = 1;
    StateSpace impl_space =
        StateSpace::explorePartial(impl, domain, limits).take();
    StateSpace spec_space =
        StateSpace::explorePartial(orig, domain, limits).take();

    obs::Scope scope;
    auto probe = std::make_shared<obs::VerifyProbe>();
    scope.attachVerifyProbe(probe);
    StopToken stop = StopToken::manual();
    std::atomic<bool> returned{false};
    std::chrono::steady_clock::time_point fired;
    obs::VerifyProgress at_fire;
    // Fire once discovery has published ~8 * 10^5 pairs: the level
    // then being discovered holds ~3 * 10^5 of them.
    std::thread canceller([&] {
        while (!returned.load() && probe->snapshot().pairs < 800000)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        at_fire = probe->snapshot();
        fired = std::chrono::steady_clock::now();
        stop.requestStop("discovery stop");
    });
    std::optional<Result<RefinementReport>> played;
    {
        obs::ScopedInstall install(&scope);
        played = checkRefinementOnSpaces(impl_space, spec_space,
                                         /*optimistic_frontier=*/true, stop);
    }
    auto done = std::chrono::steady_clock::now();
    returned.store(true);
    canceller.join();

    ASSERT_FALSE(played->ok()) << "the game finished before the stop";
    EXPECT_NE(played->error().message.find("discovery stop"),
              std::string::npos)
        << played->error().message;
    EXPECT_GE(at_fire.pairs, 800000u);
    EXPECT_EQ(at_fire.round, 0u) << "the stop fired after discovery";
    double latency = std::chrono::duration<double>(done - fired).count();
    EXPECT_LT(latency, 0.25) << "stop-to-return latency " << latency
                             << " s";
}

TEST(ParallelCancel, RacingCancelMidSimulationStaysStructured)
{
    circuits::BenchmarkSpec spec =
        circuits::buildBenchmark(circuits::benchmarkNames().front())
            .take();
    auto registry = std::make_shared<FnRegistry>();
    sim::SimResult baseline =
        simulateBenchmark(spec.df_io, spec, registry);
    ASSERT_GT(baseline.cycles, 0u);

    for (int lag_us : {0, 30, 60, 120, 250, 500}) {
        StopToken stop = StopToken::manual();
        sim::SimConfig config;
        config.stop = stop;
        sim::Simulator simulator =
            sim::Simulator::build(spec.df_io, registry, config).take();
        for (const auto& [name, data] : spec.memories)
            simulator.setMemory(name, data);
        std::thread canceller([&stop, lag_us] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(lag_us));
            stop.requestStop("racing sim cancel");
        });
        Result<sim::SimResult> raced = simulator.run(
            spec.inputs, spec.expected_outputs, spec.serial_io);
        canceller.join();
        if (raced.ok()) {
            // Cancel landed after the finish line: the full result.
            EXPECT_EQ(raced.value().cycles, baseline.cycles)
                << "lag " << lag_us;
        } else {
            // Mid-flight: a structured cancellation, not a crash.
            EXPECT_NE(raced.error().message.find("cancel"),
                      std::string::npos)
                << "lag " << lag_us << ": " << raced.error().message;
        }
        // Nothing leaked across runs: a fresh run reproduces the
        // baseline exactly.
        sim::SimResult after =
            simulateBenchmark(spec.df_io, spec, registry);
        EXPECT_EQ(after.cycles, baseline.cycles) << "lag " << lag_us;
    }
}

}  // namespace
}  // namespace graphiti

/**
 * @file
 * Equivalence tests of the compact state encoding (label: par).
 *
 * The exploration core stores interned pool-id rows + CSR edge tables
 * instead of deep GraphState copies. None of that may be observable:
 * this suite re-implements the pre-encoding deep-state sequential BFS
 * as a reference and asserts fingerprints are byte-identical to it on
 * the gcd instance and on every table-2 benchmark (parked frontiers
 * included); that describeState decodes the pool; and that the
 * TokenQueue head-index pop is invisible to ==/hash()/toString().
 */

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>

#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "refine/state_space.hpp"

namespace graphiti {
namespace {

std::vector<Token>
gcdPairs()
{
    return {Token(Value::tuple(Value(6), Value(4))),
            Token(Value::tuple(Value(9), Value(6)))};
}

/** The gcd refinement instance used across the equivalence tests. */
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
// Reference explorer: the pre-encoding deep-GraphState sequential BFS,
// fingerprinted in the exact same format as StateSpace::fingerprint.
// ---------------------------------------------------------------------

std::uint64_t
fnv64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv64(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct RefSpace
{
    struct InputEdge
    {
        std::uint32_t port_idx, token_idx, dst;
    };
    struct OutputEdge
    {
        std::uint32_t port_idx;
        Token token;
        std::uint32_t dst;
    };

    std::vector<std::vector<std::uint32_t>> internal;
    std::vector<std::vector<InputEdge>> inputs;
    std::vector<std::vector<OutputEdge>> outputs;
    std::vector<std::uint32_t> budget;
    std::vector<std::uint32_t> frontier;

    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        h = fnv64(h, budget.size());
        for (std::uint32_t s = 0; s < budget.size(); ++s) {
            h = fnv64(h, budget[s]);
            h = fnv64(h, internal[s].size());
            for (std::uint32_t dst : internal[s])
                h = fnv64(h, dst);
            h = fnv64(h, inputs[s].size());
            for (const InputEdge& e : inputs[s]) {
                h = fnv64(h, e.port_idx);
                h = fnv64(h, e.token_idx);
                h = fnv64(h, e.dst);
            }
            h = fnv64(h, outputs[s].size());
            for (const OutputEdge& e : outputs[s]) {
                h = fnv64(h, e.port_idx);
                h = fnv64(h, e.token.toString());
                h = fnv64(h, e.dst);
            }
        }
        h = fnv64(h, frontier.size());
        for (std::uint32_t s : frontier)
            h = fnv64(h, s);
        return h;
    }
};

/** Deep-state sequential worklist exploration, park-on-cap — the old
 * encoding's semantics, kept deliberately naive. */
RefSpace
referenceExplore(const DenotedModule& mod, const InputDomain& domain,
                 std::size_t max_states, std::size_t input_budget)
{
    RefSpace ref;
    std::vector<GraphState> concrete;
    std::vector<LowPortId> in_ports = mod.inputNames();
    std::vector<LowPortId> out_ports = mod.outputNames();
    std::vector<std::vector<Token>> domain_tokens;
    for (const LowPortId& port : in_ports) {
        auto it = domain.tokens.find(port);
        domain_tokens.push_back(it == domain.tokens.end()
                                    ? std::vector<Token>{}
                                    : it->second);
    }

    std::unordered_map<std::size_t, std::vector<std::uint32_t>> index;
    auto lookup = [&](const GraphState& state,
                      std::uint32_t b) -> std::optional<std::uint32_t> {
        auto it = index.find(state.hash() * 31 + b);
        if (it == index.end())
            return std::nullopt;
        for (std::uint32_t id : it->second) {
            if (ref.budget[id] == b && concrete[id] == state)
                return id;
        }
        return std::nullopt;
    };

    std::deque<std::uint32_t> frontier;
    bool capped = false;
    auto intern = [&](GraphState state,
                      std::uint32_t b) -> std::optional<std::uint32_t> {
        if (auto hit = lookup(state, b))
            return hit;
        if (concrete.size() >= max_states) {
            capped = true;
            return std::nullopt;
        }
        std::uint32_t id = static_cast<std::uint32_t>(concrete.size());
        index[state.hash() * 31 + b].push_back(id);
        concrete.push_back(std::move(state));
        ref.budget.push_back(b);
        ref.internal.emplace_back();
        ref.inputs.emplace_back();
        ref.outputs.emplace_back();
        frontier.push_back(id);
        return id;
    };

    intern(mod.initialState(),
           static_cast<std::uint32_t>(input_budget));
    while (!frontier.empty() && !capped) {
        std::uint32_t id = frontier.front();
        frontier.pop_front();
        const GraphState state = concrete[id];
        std::uint32_t b = ref.budget[id];
        bool parked = false;
        auto record = [&](std::optional<std::uint32_t> dst) {
            if (dst)
                return true;
            ref.internal[id].clear();
            ref.inputs[id].clear();
            ref.outputs[id].clear();
            ref.frontier.push_back(id);
            parked = true;
            return false;
        };
        for (GraphState& next : mod.internalSteps(state)) {
            auto dst = intern(std::move(next), b);
            if (!record(dst))
                break;
            ref.internal[id].push_back(*dst);
        }
        if (!parked && b > 0) {
            for (std::uint32_t p = 0;
                 p < in_ports.size() && !parked; ++p) {
                const auto& toks = domain_tokens[p];
                for (std::uint32_t t = 0;
                     t < toks.size() && !parked; ++t) {
                    for (GraphState& next :
                         mod.inputStep(state, in_ports[p], toks[t])) {
                        auto dst = intern(std::move(next), b - 1);
                        if (!record(dst))
                            break;
                        ref.inputs[id].push_back(
                            RefSpace::InputEdge{p, t, *dst});
                    }
                }
            }
        }
        if (!parked) {
            for (std::uint32_t p = 0;
                 p < out_ports.size() && !parked; ++p) {
                for (auto& [token, next] :
                     mod.outputStep(state, out_ports[p])) {
                    auto dst = intern(std::move(next), b);
                    if (!record(dst))
                        break;
                    ref.outputs[id].push_back(RefSpace::OutputEdge{
                        p, std::move(token), *dst});
                }
            }
        }
    }
    for (std::uint32_t id : frontier)
        ref.frontier.push_back(id);
    return ref;
}

// ---------------------------------------------------------------------
// Old-vs-new fingerprint equivalence.
// ---------------------------------------------------------------------

TEST(EncodingEquivalence, GcdMatchesDeepReferenceAndRepeats)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());
    for (const DenotedModule* mod : {&gcd.impl, &gcd.spec}) {
        RefSpace ref = referenceExplore(*mod, domain, 400000, 2);
        ASSERT_TRUE(ref.frontier.empty());
        std::size_t base_bytes = 0;
        for (int run = 0; run < 2; ++run) {
            ExplorationLimits limits;
            limits.max_states = 400000;
            limits.input_budget = 2;
            Result<StateSpace> space =
                StateSpace::explore(*mod, domain, limits);
            ASSERT_TRUE(space.ok()) << space.error().message;
            EXPECT_EQ(space.value().fingerprint(), ref.fingerprint())
                << "run " << run;
            // Size-based accounting: capacity-independent, so equal
            // on every run.
            if (run == 0)
                base_bytes = space.value().approxBytes();
            else
                EXPECT_EQ(space.value().approxBytes(), base_bytes);
        }
    }
}

TEST(EncodingEquivalence, EveryBenchmarkMatchesDeepReferenceParked)
{
    // Tight cap: the benchmark spaces are large, so the reference and
    // the re-encoded explorer both park — the fingerprint then also
    // covers the parked frontier ids.
    constexpr std::size_t kCap = 800;
    std::vector<Token> toks = {Token(Value(0)), Token(Value(1))};
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        Environment env(3);
        DenotedModule mod =
            DenotedModule::denote(lowerToExprLow(spec.df_io).value(),
                                  env)
                .take();
        InputDomain domain = InputDomain::uniform(mod, toks);
        RefSpace ref = referenceExplore(mod, domain, kCap, 1);
        ExplorationLimits limits;
        limits.max_states = kCap;
        limits.input_budget = 1;
        Result<StateSpace> space =
            StateSpace::explorePartial(mod, domain, limits);
        ASSERT_TRUE(space.ok()) << name << ": " << space.error().message;
        EXPECT_EQ(space.value().fingerprint(), ref.fingerprint())
            << name << " diverges";
    }
}

// ---------------------------------------------------------------------
// describeState.
// ---------------------------------------------------------------------

TEST(EncodingEquivalence, DescribeStateDecodesThePool)
{
    GcdInstance gcd;
    InputDomain domain = InputDomain::uniform(gcd.impl, gcdPairs());
    ExplorationLimits limits;
    limits.max_states = 400000;
    limits.input_budget = 2;
    Result<StateSpace> space =
        StateSpace::explore(gcd.impl, domain, limits);
    ASSERT_TRUE(space.ok()) << space.error().message;
    const StateSpace& s = space.value();
    // Every state decodes to exactly its interned concrete text.
    GraphState initial = gcd.impl.initialState();
    std::string described = s.describeState(0);
    EXPECT_NE(described.find("state 0 (budget 2)"), std::string::npos);
    EXPECT_NE(described.find(initial.toString()), std::string::npos);
    // The pool shares component states massively: far fewer distinct
    // CompStates than states x components.
    ASSERT_GT(s.numStates(), 0u);
    std::size_t width = s.encodedRow(0).size();
    EXPECT_LT(s.pool().size(), s.numStates() * width / 4);
}

// ---------------------------------------------------------------------
// TokenQueue: the O(1) pop must be unobservable.
// ---------------------------------------------------------------------

TEST(TokenQueue, HeadIndexIsInvisibleToEqualityHashAndText)
{
    // Build the same logical queue two ways: directly, and via enough
    // push/pop churn to leave a nonzero head index (and to cross the
    // compaction threshold).
    CompState direct;
    direct.queues.resize(2);
    direct.enq(0, Token(Value(40)));
    direct.enq(0, Token(Value(41)));

    CompState churned;
    churned.queues.resize(2);
    for (int i = 0; i < 40; ++i)
        churned.enq(0, Token(Value(i)));
    for (int i = 0; i < 40; ++i)
        churned.deq(0);
    churned.enq(0, Token(Value(40)));
    churned.enq(0, Token(Value(41)));

    EXPECT_EQ(direct, churned);
    EXPECT_EQ(direct.hash(), churned.hash());
    EXPECT_EQ(direct.toString(), churned.toString());
    EXPECT_EQ(direct.approxBytes(), churned.approxBytes());
    EXPECT_EQ(direct.totalTokens(), churned.totalTokens());
}

TEST(TokenQueue, MatchesNaiveModelThroughMixedOperations)
{
    TokenQueue q;
    std::vector<Token> model;
    auto check = [&] {
        ASSERT_EQ(q.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            ASSERT_TRUE(q[i] == model[i]) << "index " << i;
        ASSERT_EQ(q.empty(), model.empty());
        if (!model.empty()) {
            ASSERT_TRUE(q.front() == model.front());
        }
    };
    // Deterministic interleaving crossing the compaction bound
    // several times, with mid-queue erases (the Untagger pick).
    int next = 0;
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 23; ++i) {
            q.push_back(Token(Value(next)));
            model.emplace_back(Value(next));
            ++next;
            check();
        }
        for (int i = 0; i < 19; ++i) {
            q.popFront();
            model.erase(model.begin());
            check();
        }
        if (q.size() > 2) {
            q.eraseAt(1);
            model.erase(model.begin() + 1);
            check();
        }
    }
    while (!model.empty()) {
        q.popFront();
        model.erase(model.begin());
        check();
    }
}

}  // namespace
}  // namespace graphiti

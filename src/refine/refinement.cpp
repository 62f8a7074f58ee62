#include "refine/refinement.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/scope.hpp"

namespace graphiti {

namespace {

using PairKey = std::uint64_t;

PairKey
pairKey(std::uint32_t impl_state, std::uint32_t spec_state)
{
    return (static_cast<std::uint64_t>(impl_state) << 32) | spec_state;
}

/**
 * The simulation game over reachable pairs.
 *
 * Pairs are discovered forward from the initial pair: every attacker
 * (impl) move generates all defender (spec) responses as candidate
 * pairs. The greatest fixpoint then prunes pairs with an unmatched
 * attacker move; pruning iterates because a response may itself die.
 *
 * Both phases parallelize without changing the verdict (threads > 1):
 * discovery expands pair frontiers level by level, computing response
 * sets in parallel and merging them in frontier order; pruning
 * partitions the alive set per fixpoint round — the kill set is a
 * pure function of the round's alive set, so partition boundaries
 * cannot change it — with a barrier between rounds. Spec closures
 * (and the frontier-touch memo) are precomputed before the first
 * parallel phase because their lazy memos are not thread-safe.
 */
class SimulationGame
{
  public:
    SimulationGame(const StateSpace& impl, const StateSpace& spec,
                   bool optimistic, StopToken stop, std::size_t threads)
        : impl_(impl), spec_(spec), optimistic_(optimistic),
          stop_(std::move(stop)),
          pool_(ThreadPool::resolveThreads(threads))
    {
        for (std::uint32_t s : spec.pendingFrontier())
            spec_frontier_.insert(s);
        touches_.assign(spec_.numStates(), -1);
        if (obs::Scope* obs_scope = obs::current())
            probe_ = obs_scope->verifyProbe();
        if (pool_.size() > 1) {
            spec_.precomputeClosures(pool_);
            if (optimistic_ && !spec_frontier_.empty()) {
                pool_.parallelFor(spec_.numStates(), [&](std::size_t t) {
                    closureTouchesFrontier(
                        static_cast<std::uint32_t>(t));
                });
            }
        }
    }

    Result<RefinementReport>
    run()
    {
        if (!discover() || !prune())
            return err("refinement game cancelled: " + stop_.reason());

        RefinementReport report;
        report.impl_states = impl_.numStates();
        report.spec_states = spec_.numStates();
        report.reachable_pairs = alive_.size() + dead_.size();
        report.fixpoint_iterations = iterations_;
        obsPublish();
        report.peak_bytes = peak_bytes_;
        // Lane occupancy of the game's pool — one snapshot per game.
        if (obs::Scope* scope = obs::current()) {
            ThreadPool::PoolStats ps = pool_.stats();
            std::uint64_t chunks = 0;
            std::uint64_t steals = 0;
            std::uint64_t idle_ns = 0;
            for (const ThreadPool::LaneStats& lane : ps.lanes) {
                chunks += lane.chunks;
                steals += lane.steals;
                idle_ns += lane.idle_ns;
            }
            scope->metrics().add(
                "pool.chunks", static_cast<std::int64_t>(chunks));
            scope->metrics().add(
                "pool.steals", static_cast<std::int64_t>(steals));
            scope->metrics().add(
                "pool.idle_ns", static_cast<std::int64_t>(idle_ns));
            scope->metrics().add(
                "pool.batches", static_cast<std::int64_t>(ps.batches));
        }
        PairKey initial = pairKey(impl_.initialState(),
                                  spec_.initialState());
        report.refines = alive_.count(initial) > 0;
        if (!report.refines)
            report.counterexample = attackStrategy(initial);
        return report;
    }

    /**
     * Reconstruct the attacker's winning strategy from the initial
     * pair: at each dead pair, play the recorded unmatched move and
     * descend into a representative dead response (when the move had
     * responses at all). This is the counterexample a user debugs
     * with: the impl move sequence the spec cannot follow.
     */
    std::string
    attackStrategy(PairKey initial) const
    {
        std::ostringstream os;
        PairKey at = initial;
        for (int depth = 0; depth < 32; ++depth) {
            auto why = reason_.find(at);
            if (why == reason_.end()) {
                os << "  (pair not reachable in the game)\n";
                break;
            }
            os << "  step " << depth << ": " << why->second << "\n";
            auto next = descend_.find(at);
            if (next == descend_.end())
                break;  // the move had no surviving-or-dead responses
            at = next->second;
        }
        return os.str();
    }

  private:
    /**
     * Defender responses to each attacker move from pair (s, t).
     * Invokes @p on_move once per attacker move with the vector of
     * response pairs and a label for diagnostics.
     */
    template <typename Fn>
    void
    forEachAttackerMove(std::uint32_t s, std::uint32_t t, Fn on_move) const
    {
        // Internal moves (definition 4.3).
        for (std::uint32_t s_next : impl_.internalEdges(s)) {
            std::vector<PairKey> responses;
            for (std::uint32_t t_next : spec_.internalClosure(t))
                responses.push_back(pairKey(s_next, t_next));
            on_move(responses, [&] {
                return "internal step of impl (" +
                       std::to_string(s) + " -> " +
                       std::to_string(s_next) + ")";
            });
        }
        // Input moves (definition 4.1): spec takes the same input,
        // then any number of internal steps.
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
        // Output moves (definition 4.2): spec runs internal steps
        // *first*, then emits the identical token at the same port.
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

    /** Does the weak closure of spec state @p t touch an unexpanded
     * frontier state (whose edges are unknown)? Memoized; the memo is
     * pre-filled for every state before parallel pruning starts. */
    bool
    closureTouchesFrontier(std::uint32_t t) const
    {
        if (spec_frontier_.empty())
            return false;
        if (touches_[t] >= 0)
            return touches_[t] != 0;
        bool touches = false;
        for (std::uint32_t u : spec_.internalClosure(t)) {
            if (spec_frontier_.count(u) > 0) {
                touches = true;
                break;
            }
        }
        touches_[t] = touches ? 1 : 0;
        return touches;
    }

    bool
    discover()
    {
        PairKey initial = pairKey(impl_.initialState(),
                                  spec_.initialState());
        alive_.insert(initial);
        // Level-synchronized BFS: response sets for one frontier level
        // are computed in parallel (read-only on the spaces), then
        // merged into alive_ in level order — the same insertion
        // sequence the sequential FIFO loop produces.
        std::vector<PairKey> level{initial};
        while (!level.empty()) {
            if (stop_.stopRequested())
                return false;
            std::vector<std::vector<PairKey>> found(level.size());
            pool_.parallelFor(level.size(), [&](std::size_t i) {
                std::uint32_t s =
                    static_cast<std::uint32_t>(level[i] >> 32);
                std::uint32_t t = static_cast<std::uint32_t>(level[i]);
                forEachAttackerMove(
                    s, t,
                    [&](const std::vector<PairKey>& rs, auto /*label*/) {
                        found[i].insert(found[i].end(), rs.begin(),
                                        rs.end());
                    });
            });
            std::vector<PairKey> next;
            for (const std::vector<PairKey>& rs : found) {
                for (PairKey r : rs) {
                    if (alive_.insert(r).second)
                        next.push_back(r);
                }
            }
            level = std::move(next);
            obsPublish();  // once per BFS level, never per pair
        }
        return true;
    }

    bool
    prune()
    {
        // What one alive pair's scan concluded this round. Computed in
        // parallel (slot-per-pair, read-only on alive_), applied
        // sequentially — the kill set depends only on the round's
        // alive set, so the verdict is thread-count independent.
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
            if (stop_.stopRequested())
                return false;
            std::vector<PairKey> keys(alive_.begin(), alive_.end());
            std::vector<Verdict> verdicts(keys.size());
            std::atomic<bool> cancelled{false};
            pool_.parallelForChunks(
                keys.size(), [&](std::size_t begin, std::size_t end) {
                    std::size_t polled = 0;
                    for (std::size_t i = begin; i < end; ++i) {
                        if ((++polled & 0x3ff) == 0 &&
                            stop_.stopRequested()) {
                            cancelled.store(true,
                                            std::memory_order_relaxed);
                            return;
                        }
                        if (cancelled.load(std::memory_order_relaxed))
                            return;
                        scanPair(keys[i], verdicts[i]);
                    }
                });
            if (cancelled.load(std::memory_order_relaxed))
                return false;
            for (std::size_t i = 0; i < keys.size(); ++i) {
                if (!verdicts[i].losing)
                    continue;
                PairKey key = keys[i];
                std::uint32_t s = static_cast<std::uint32_t>(key >> 32);
                std::uint32_t t = static_cast<std::uint32_t>(key);
                alive_.erase(key);
                dead_.insert(key);
                reason_[key] = "impl move unmatched by spec: " +
                               verdicts[i].why + " [impl state " +
                               std::to_string(s) + ", spec state " +
                               std::to_string(t) + "]";
                if (verdicts[i].dead_response)
                    descend_[key] = *verdicts[i].dead_response;
                changed = true;
            }
            obsPublish();  // once per fixpoint round
        }
        return true;
    }

    /** Scan one alive pair for an unmatched attacker move against the
     * current alive set. Read-only; writes only @p out. */
    template <typename VerdictT>
    void
    scanPair(PairKey key, VerdictT& out) const
    {
        std::uint32_t s = static_cast<std::uint32_t>(key >> 32);
        std::uint32_t t = static_cast<std::uint32_t>(key);
        // On a partial spec space, missing edges of frontier states
        // could hold the matching response: never kill such pairs
        // (the optimistic bounded verdict).
        if (optimistic_ && closureTouchesFrontier(t))
            return;
        forEachAttackerMove(
            s, t, [&](const std::vector<PairKey>& rs, auto label) {
                if (out.losing)
                    return;
                for (PairKey r : rs)
                    if (alive_.count(r) > 0)
                        return;  // some response survives
                out.losing = true;
                out.why = label();
                if (!rs.empty())
                    out.dead_response = rs.front();
            });
    }

    /**
     * Size-based byte estimate of the game's own tables. Bucket counts
     * follow deterministically from the (thread-count-independent)
     * insertion sequences; the figure feeds resource accounting only.
     */
    std::size_t
    approxBytes() const
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
        return bytes;
    }

    /** Bounded-cadence game progress: pairs discovered, fixpoint
     * round, alive-set size, high-water bytes. Observation only. */
    void
    obsPublish()
    {
        std::size_t bytes = approxBytes();
        peak_bytes_ = std::max(peak_bytes_, bytes);
        if (probe_ == nullptr)
            return;
        probe_->publishGame(alive_.size() + dead_.size(), iterations_,
                            alive_.size());
        probe_->notePeakBytes(bytes);
    }

    const StateSpace& impl_;
    const StateSpace& spec_;
    bool optimistic_ = false;
    StopToken stop_;
    ThreadPool pool_;
    std::unordered_set<std::uint32_t> spec_frontier_;
    mutable std::vector<std::int8_t> touches_;
    std::unordered_set<PairKey> alive_;
    std::unordered_set<PairKey> dead_;
    std::unordered_map<PairKey, std::string> reason_;
    std::unordered_map<PairKey, PairKey> descend_;
    std::size_t iterations_ = 0;
    obs::VerifyProbe* probe_ = nullptr;
    std::size_t peak_bytes_ = 0;
};

}  // namespace

Result<RefinementReport>
checkRefinement(const DenotedModule& impl, const DenotedModule& spec,
                const InputDomain& domain,
                const ExplorationLimits& limits)
{
    GRAPHITI_OBS_TIMER(obs_timer, "refine.check_seconds");
    if (impl.inputNames() != spec.inputNames() ||
        impl.outputNames() != spec.outputNames()) {
        std::ostringstream os;
        os << "port interfaces differ; impl inputs:";
        for (const auto& p : impl.inputNames())
            os << " " << p.toString();
        os << ", spec inputs:";
        for (const auto& p : spec.inputNames())
            os << " " << p.toString();
        os << "; impl outputs:";
        for (const auto& p : impl.outputNames())
            os << " " << p.toString();
        os << ", spec outputs:";
        for (const auto& p : spec.outputNames())
            os << " " << p.toString();
        return err(os.str());
    }

    Result<StateSpace> impl_space = StateSpace::explore(impl, domain,
                                                        limits);
    if (!impl_space.ok())
        return impl_space.error().context("impl");
    Result<StateSpace> spec_space = StateSpace::explore(spec, domain,
                                                        limits);
    if (!spec_space.ok())
        return spec_space.error().context("spec");

    SimulationGame game(impl_space.value(), spec_space.value(),
                        /*optimistic=*/false, limits.stop,
                        limits.threads);
    Result<RefinementReport> played = game.run();
    if (!played.ok())
        return played.error();
    RefinementReport report = played.take();
    report.explore_peak_bytes = impl_space.value().peakBytes() +
                                spec_space.value().peakBytes();
    GRAPHITI_OBS_COUNT("refine.checks", 1);
    GRAPHITI_OBS_COUNT("refine.pairs",
                       static_cast<std::int64_t>(report.reachable_pairs));
    GRAPHITI_OBS_COUNT(
        "refine.fixpoint_iterations",
        static_cast<std::int64_t>(report.fixpoint_iterations));
    if (!report.refines)
        GRAPHITI_OBS_COUNT("refine.failures", 1);
    return report;
}

Result<RefinementReport>
checkRefinementOnSpaces(const StateSpace& impl, const StateSpace& spec,
                        bool optimistic_frontier, const StopToken& stop,
                        std::size_t threads)
{
    if (impl.inputPorts() != spec.inputPorts() ||
        impl.outputPorts() != spec.outputPorts())
        return err("checkRefinementOnSpaces: port interfaces differ");
    for (std::uint32_t p = 0; p < impl.inputPorts().size(); ++p) {
        if (impl.domainTokens(p).size() != spec.domainTokens(p).size())
            return err("checkRefinementOnSpaces: input domains differ");
    }
    SimulationGame game(impl, spec, optimistic_frontier, stop, threads);
    return game.run();
}

Result<RefinementReport>
checkGraphRefinement(const ExprHigh& impl, const ExprHigh& spec,
                     const Environment& env,
                     const std::vector<Token>& uniform_tokens,
                     const ExplorationLimits& limits)
{
    Result<ExprLow> impl_low = lowerToExprLow(impl);
    if (!impl_low.ok())
        return impl_low.error().context("impl graph");
    Result<ExprLow> spec_low = lowerToExprLow(spec);
    if (!spec_low.ok())
        return spec_low.error().context("spec graph");
    Result<DenotedModule> impl_mod =
        DenotedModule::denote(impl_low.value(), env);
    if (!impl_mod.ok())
        return impl_mod.error().context("impl graph");
    Result<DenotedModule> spec_mod =
        DenotedModule::denote(spec_low.value(), env);
    if (!spec_mod.ok())
        return spec_mod.error().context("spec graph");
    return checkRefinement(impl_mod.value(), spec_mod.value(),
                           InputDomain::uniform(impl_mod.value(),
                                                uniform_tokens),
                           limits);
}

}  // namespace graphiti

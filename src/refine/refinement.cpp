#include "refine/refinement.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

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
 * Every response of a discovered pair is itself discovered, so the
 * fixpoint's first round needs no scan: a move is unmatched in round 1
 * exactly when it has no responses at all. Discovery records each
 * pair's first such move as it enumerates the moves anyway, and
 * prune() applies those kills as round 1. Only when round 1 killed
 * something do the scanning rounds run.
 */
class SimulationGame
{
  public:
    SimulationGame(const StateSpace& impl, const StateSpace& spec,
                   bool optimistic, StopToken stop)
        : impl_(impl), spec_(spec), optimistic_(optimistic),
          stop_(std::move(stop))
    {
        for (std::uint32_t s : spec.pendingFrontier())
            spec_frontier_.insert(s);
        touches_.assign(spec_.numStates(), -1);
        if (obs::Scope* obs_scope = obs::current())
            probe_ = obs_scope->verifyProbe();
    }

    Result<RefinementReport>
    run()
    {
        std::vector<Kill> round_one;
        if (!discover(round_one) || !prune(std::move(round_one)))
            return err("refinement game cancelled: " + stop_.reason());

        RefinementReport report;
        report.impl_states = impl_.numStates();
        report.spec_states = spec_.numStates();
        report.reachable_pairs = alive_.size() + dead_.size();
        report.fixpoint_iterations = iterations_;
        obsPublish();
        report.peak_bytes = peak_bytes_;
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
     * frontier state (whose edges are unknown)? Memoized. */
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

    /** A pair the fixpoint removes, with its first unmatched move and
     * a representative dead response (none when the move had no
     * responses at all). */
    struct Kill
    {
        PairKey key = 0;
        std::string why;
        std::optional<PairKey> dead_response;
    };

    /** On a partial spec space, missing edges of frontier states could
     * hold the matching response: such pairs are never killed (the
     * optimistic bounded verdict). */
    bool
    protectedPair(std::uint32_t t) const
    {
        return optimistic_ && closureTouchesFrontier(t);
    }

    /**
     * Breadth-first pair discovery, one level at a time (the probe
     * publishes once per level). Each pair's first move without any
     * response is recorded in @p round_one. The stop token is polled
     * every 1024 pairs, as in prune: one level can hold ~10^6 pairs.
     */
    bool
    discover(std::vector<Kill>& round_one)
    {
        PairKey initial = pairKey(impl_.initialState(),
                                  spec_.initialState());
        alive_.insert(initial);
        std::vector<PairKey> level{initial};
        std::size_t polled = 0;
        while (!level.empty()) {
            std::vector<PairKey> next;
            for (PairKey key : level) {
                if ((polled++ & 0x3ff) == 0 && stop_.stopRequested())
                    return false;
                std::uint32_t s = static_cast<std::uint32_t>(key >> 32);
                std::uint32_t t = static_cast<std::uint32_t>(key);
                bool may_die = !protectedPair(t);
                forEachAttackerMove(
                    s, t, [&](const std::vector<PairKey>& rs, auto label) {
                        for (PairKey r : rs) {
                            if (alive_.insert(r).second)
                                next.push_back(r);
                        }
                        if (may_die && rs.empty()) {
                            round_one.push_back({key, label(), {}});
                            may_die = false;
                        }
                    });
            }
            level = std::move(next);
            obsPublish();  // once per BFS level, never per pair
        }
        return true;
    }

    /**
     * The greatest fixpoint. Round 1 applies the kills discovery
     * recorded. Each later round's kills are scanned against the alive
     * set the previous round left and applied together, so a kill set
     * is a pure function of that alive set.
     */
    bool
    prune(std::vector<Kill> kills)
    {
        while (true) {
            ++iterations_;
            if (stop_.stopRequested())
                return false;
            for (const Kill& kill : kills)
                applyKill(kill);
            obsPublish();  // once per fixpoint round
            if (kills.empty())
                return true;
            kills.clear();
            std::size_t polled = 0;
            for (PairKey key : alive_) {
                if ((++polled & 0x3ff) == 0 && stop_.stopRequested())
                    return false;
                scanPair(key, kills);
            }
        }
    }

    void
    applyKill(const Kill& kill)
    {
        std::uint32_t s = static_cast<std::uint32_t>(kill.key >> 32);
        std::uint32_t t = static_cast<std::uint32_t>(kill.key);
        alive_.erase(kill.key);
        dead_.insert(kill.key);
        reason_[kill.key] = "impl move unmatched by spec: " + kill.why +
                            " [impl state " + std::to_string(s) +
                            ", spec state " + std::to_string(t) + "]";
        if (kill.dead_response)
            descend_[kill.key] = *kill.dead_response;
    }

    /** Scan one alive pair for a move none of whose responses is
     * alive; record it in @p kills. Read-only on the game. */
    void
    scanPair(PairKey key, std::vector<Kill>& kills) const
    {
        std::uint32_t s = static_cast<std::uint32_t>(key >> 32);
        std::uint32_t t = static_cast<std::uint32_t>(key);
        if (protectedPair(t))
            return;
        bool losing = false;
        forEachAttackerMove(
            s, t, [&](const std::vector<PairKey>& rs, auto label) {
                if (losing)
                    return;
                for (PairKey r : rs)
                    if (alive_.count(r) > 0)
                        return;  // some response survives
                losing = true;
                std::optional<PairKey> dead_response;
                if (!rs.empty())
                    dead_response = rs.front();
                kills.push_back({key, label(), dead_response});
            });
    }

    /**
     * Size-based byte estimate of the game's own tables. Bucket counts
     * follow deterministically from the insertion sequences; the
     * figure feeds resource accounting only.
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
                        /*optimistic=*/false, limits.stop);
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
                        bool optimistic_frontier, const StopToken& stop)
{
    if (impl.inputPorts() != spec.inputPorts() ||
        impl.outputPorts() != spec.outputPorts())
        return err("checkRefinementOnSpaces: port interfaces differ");
    for (std::uint32_t p = 0; p < impl.inputPorts().size(); ++p) {
        if (impl.domainTokens(p).size() != spec.domainTokens(p).size())
            return err("checkRefinementOnSpaces: input domains differ");
    }
    SimulationGame game(impl, spec, optimistic_frontier, stop);
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

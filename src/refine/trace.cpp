#include "refine/trace.hpp"

#include <deque>
#include <unordered_set>

namespace graphiti {

std::string
IoEvent::toString() const
{
    return std::string(is_input ? "in " : "out ") + port.toString() +
           " " + token.toString();
}

IoTrace
randomTrace(const DenotedModule& mod, const std::vector<Token>& input_pool,
            Rng& rng, const TraceGenOptions& options)
{
    IoTrace trace;
    GraphState state = mod.initialState();
    std::size_t inputs_fed = 0;

    for (std::size_t step = 0; step < options.max_steps; ++step) {
        // Gather the enabled moves in the current state.
        struct Move
        {
            enum class Kind { input, output, internal } kind;
            std::size_t index;   // port index for I/O
            std::size_t choice;  // successor / token choice
        };
        std::vector<Move> moves;

        bool may_input = inputs_fed < options.max_inputs &&
                         !input_pool.empty();
        if (may_input) {
            for (std::size_t p = 0; p < mod.inputNames().size(); ++p) {
                // Any token from the pool may be offered; pick one per
                // port per step to keep the move list small.
                moves.push_back(Move{Move::Kind::input, p,
                                     rng.below(input_pool.size())});
            }
        }
        for (std::size_t p = 0; p < mod.outputNames().size(); ++p) {
            auto outs = mod.outputStep(state, mod.outputNames()[p]);
            for (std::size_t c = 0; c < outs.size(); ++c)
                moves.push_back(Move{Move::Kind::output, p, c});
        }
        std::vector<GraphState> internals = mod.internalSteps(state);
        for (std::size_t c = 0; c < internals.size(); ++c)
            moves.push_back(Move{Move::Kind::internal, 0, c});

        if (moves.empty())
            break;

        // Bias scheduling toward making progress: prefer non-input
        // moves with probability (1 - input_bias) when any exist.
        std::vector<Move> preferred;
        bool take_input = rng.chance(options.input_bias);
        for (const Move& m : moves) {
            bool is_input = m.kind == Move::Kind::input;
            if (is_input == take_input)
                preferred.push_back(m);
        }
        const std::vector<Move>& pool = preferred.empty() ? moves
                                                          : preferred;
        const Move& move = pool[rng.below(pool.size())];

        switch (move.kind) {
          case Move::Kind::input: {
            const LowPortId& port = mod.inputNames()[move.index];
            const Token& token = input_pool[move.choice];
            auto succs = mod.inputStep(state, port, token);
            if (succs.empty())
                break;  // refused (bounded queue); try another step
            state = std::move(succs[rng.below(succs.size())]);
            trace.push_back(IoEvent{true, port, token});
            ++inputs_fed;
            break;
          }
          case Move::Kind::output: {
            const LowPortId& port = mod.outputNames()[move.index];
            auto outs = mod.outputStep(state, port);
            auto& [token, succ] = outs[move.choice];
            trace.push_back(IoEvent{false, port, token});
            state = std::move(succ);
            break;
          }
          case Move::Kind::internal:
            state = std::move(internals[move.choice]);
            break;
        }
    }
    return trace;
}

namespace {

struct StateHashPtr
{
    std::size_t
    operator()(const GraphState& s) const
    {
        return s.hash();
    }
};

/** Counts the candidate states one search touches and polls the stop
 * token every 64 of them: expanding one state of a Table 2 circuit
 * costs tens of microseconds, so a coarser period would let a stop
 * wait out a noticeable fraction of a second. */
struct StopPoll
{
    const StopToken& stop;
    std::size_t touched = 0;

    bool
    stopped()
    {
        return (++touched & 0x3f) == 0 && stop.stopRequested();
    }

    Error
    error() const
    {
        return err("trace search cancelled: " + stop.reason());
    }
};

/** Close @p set under internal transitions of @p mod. */
Result<bool>
closeInternal(const DenotedModule& mod,
              std::unordered_set<GraphState, StateHashPtr>& set,
              std::size_t cap, StopPoll& poll)
{
    // Set elements never move, so the frontier points into the set
    // instead of holding a second copy of every state.
    std::deque<const GraphState*> frontier;
    for (const GraphState& state : set)
        frontier.push_back(&state);
    while (!frontier.empty()) {
        const GraphState* state = frontier.front();
        frontier.pop_front();
        for (GraphState& succ : mod.internalSteps(*state)) {
            if (set.count(succ) > 0)
                continue;
            if (set.size() >= cap)
                return err("trace search exceeded state cap");
            if (poll.stopped())
                return poll.error();
            frontier.push_back(&*set.insert(std::move(succ)).first);
        }
    }
    return true;
}

}  // namespace

Result<bool>
admitsTrace(const DenotedModule& spec, const IoTrace& trace,
            std::size_t state_cap, const StopToken& stop)
{
    StopPoll poll{stop};
    std::unordered_set<GraphState, StateHashPtr> candidates;
    candidates.insert(spec.initialState());
    Result<bool> closed =
        closeInternal(spec, candidates, state_cap, poll);
    if (!closed.ok())
        return closed;

    for (const IoEvent& event : trace) {
        std::unordered_set<GraphState, StateHashPtr> next;
        for (const GraphState& state : candidates) {
            if (poll.stopped())
                return poll.error();
            if (event.is_input) {
                for (GraphState& succ :
                     spec.inputStep(state, event.port, event.token))
                    next.insert(std::move(succ));
            } else {
                for (auto& [token, succ] :
                     spec.outputStep(state, event.port)) {
                    if (token == event.token)
                        next.insert(std::move(succ));
                }
            }
        }
        if (next.empty())
            return false;
        if (next.size() > state_cap)
            return err("trace search exceeded state cap");
        closed = closeInternal(spec, next, state_cap, poll);
        if (!closed.ok())
            return closed;
        candidates = std::move(next);
    }
    return true;
}

}  // namespace graphiti

#include "refine/state_space.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <sstream>

#include "obs/scope.hpp"

namespace graphiti {

InputDomain
InputDomain::uniform(const DenotedModule& mod, std::vector<Token> tokens)
{
    InputDomain d;
    for (const LowPortId& port : mod.inputNames())
        d.tokens[port] = tokens;
    return d;
}

namespace {

std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hash of an encoded state: FNV over the pool-id row plus budget.
 * Pool ids are canonical (worklist-order interning), so this hash —
 * and everything derived from it, including index shard assignment —
 * is identical across runs. */
std::uint64_t
hashRow(const std::uint32_t* row, std::size_t width,
        std::uint32_t budget)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < width; ++i)
        h = fnv1a64(h, row[i]);
    return fnv1a64(h, budget);
}

/**
 * The state-interning table, sharded by encoded-row hash.
 *
 * Keys are (pool-id row, budget) — the rows themselves live in the
 * StateSpace; the table stores only hash -> candidate state ids, so
 * deduplication no longer duplicates state storage. Ids are inserted
 * in worklist order, so they are canonical. Sharding keeps each map
 * small and lets reserve() spread one large allocation.
 */
class ShardedStateIndex
{
  public:
    void
    reserve(std::size_t total)
    {
        for (auto& shard : shards_)
            shard.reserve(total / kShards + 1);
    }

    /** First candidate under @p h satisfying @p eq (which compares
     * the candidate's stored row + budget against the probe). */
    template <typename Eq>
    std::optional<std::uint32_t>
    lookup(std::uint64_t h, Eq&& eq) const
    {
        const auto& shard = shards_[shardOf(h)];
        auto it = shard.find(h);
        if (it == shard.end())
            return std::nullopt;
        for (std::uint32_t id : it->second) {
            if (eq(id))
                return id;
        }
        return std::nullopt;
    }

    void
    insert(std::uint64_t h, std::uint32_t id)
    {
        shards_[shardOf(h)][h].push_back(id);
        ++ids_;
    }

    /**
     * Byte estimate of the table itself: nodes, candidate-id
     * elements, and bucket arrays. No deep keys anymore — states are
     * referenced by id. Bucket counts follow deterministically from
     * the canonical insertion sequence, but differ across standard
     * libraries, so this figure feeds resource accounting and never
     * any verdict.
     */
    std::size_t
    approxBytes() const
    {
        // Unordered-map node: hash link + cached hash + payload.
        constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
        std::size_t bytes = ids_ * sizeof(std::uint32_t);
        for (const auto& shard : shards_) {
            bytes += shard.size() *
                     (sizeof(std::pair<const std::uint64_t,
                                       std::vector<std::uint32_t>>) +
                      kNodeOverhead);
            bytes += shard.bucket_count() * sizeof(void*);
        }
        return bytes;
    }

  private:
    static constexpr std::size_t kShards = 64;

    static std::size_t
    shardOf(std::uint64_t h)
    {
        // Use high bits: the maps consume the low bits for buckets.
        return (h >> 57) % kShards;
    }

    std::array<
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>,
        kShards>
        shards_;
    std::size_t ids_ = 0;
};

/** One successor produced while expanding a state, in enumeration
 * order. */
struct Succ
{
    enum class Kind : std::uint8_t { Internal, Input, Output };

    Kind kind = Kind::Internal;
    std::uint32_t port_idx = 0;
    std::uint32_t token_idx = 0;
    Token token;  ///< Output edges only.
    /** Concrete successor, kept until the merge interns (or hits) it. */
    GraphState state;
    std::uint32_t budget = 0;
};

}  // namespace

Result<StateSpace>
StateSpace::explore(const DenotedModule& mod, const InputDomain& domain,
                    const ExplorationLimits& limits)
{
    Result<StateSpace> space = explorePartial(mod, domain, limits);
    if (!space.ok())
        return space.error();
    if (!space.value().complete()) {
        if (space.value().stopped())
            return err("state space exploration cancelled: " +
                       space.value().stopReason());
        return err("state space exploration exceeded max_states");
    }
    return space;
}

Result<StateSpace>
StateSpace::explorePartial(const DenotedModule& mod,
                           const InputDomain& domain,
                           const ExplorationLimits& limits)
{
    StateSpace space;
    space.in_ports_ = mod.inputNames();
    space.out_ports_ = mod.outputNames();
    for (const LowPortId& port : space.in_ports_) {
        auto it = domain.tokens.find(port);
        space.domain_tokens_.push_back(
            it == domain.tokens.end() ? std::vector<Token>{} : it->second);
    }
    GraphState initial = mod.initialState();
    space.width_ = static_cast<std::uint32_t>(initial.comps.size());
    for (const CompState& comp : initial.comps)
        space.rows_.push_back(space.pool_.intern(comp));
    space.budget_.push_back(
        static_cast<std::uint32_t>(limits.input_budget));
    space.int_off_.push_back(0);
    space.in_off_.push_back(0);
    space.out_off_.push_back(0);
    space.expand(mod, limits);
    return space;
}

void
StateSpace::expand(const DenotedModule& mod,
                   const ExplorationLimits& limits)
{
    GRAPHITI_OBS_TIMER(obs_timer, "refine.explore_seconds");
    const std::size_t max_states =
        std::max<std::size_t>(1, limits.max_states);
    const std::size_t states_before = numStates();
    auto obs_start = std::chrono::steady_clock::now();
    obs::VerifyProbe* probe = nullptr;
    if (obs::Scope* obs_scope = obs::current())
        probe = obs_scope->verifyProbe();
    // The dedup index lives only for this pass: a parked partial space
    // carries no index, only its frontier. Reserve for the whole run
    // up front (capped — max_states defaults large).
    ShardedStateIndex index;
    index.reserve(std::min<std::size_t>(max_states, 1 << 16));
    index.insert(hashRow(row(0).data(), width_, budget_[0]), 0);

    // Does interned state @p id match the probe row + budget?
    auto rowEq = [&](std::uint32_t id, const std::uint32_t* probe_row,
                     std::uint32_t budget) {
        if (budget_[id] != budget)
            return false;
        std::span<const std::uint32_t> r = row(id);
        return std::equal(r.begin(), r.end(), probe_row);
    };

    bool capped = false;
    // Resolve one successor to a state id, interning on first sight.
    // New component states are interned in enumeration order, so pool
    // ids are canonical (docs/parallelism.md). Returns nullopt when
    // the cap fires; the pool is deliberately not touched before the
    // cap check, so a parked expansion leaves the pool exactly as a
    // one-shot run would have it at the same point.
    std::vector<std::uint32_t> scratch(width_);
    auto intern = [&](const Succ& s) -> std::optional<std::uint32_t> {
        bool have_row = true;
        for (std::uint32_t c = 0; c < width_; ++c) {
            auto id = pool_.find(s.state.comps[c]);
            if (!id) {
                have_row = false;
                break;
            }
            scratch[c] = *id;
        }
        std::uint64_t h = 0;
        if (have_row) {
            h = hashRow(scratch.data(), width_, s.budget);
            if (auto hit = index.lookup(h, [&](std::uint32_t id) {
                    return rowEq(id, scratch.data(), s.budget);
                }))
                return *hit;
        }
        if (numStates() >= max_states) {
            capped = true;
            return std::nullopt;
        }
        if (!have_row) {
            for (std::uint32_t c = 0; c < width_; ++c)
                scratch[c] = pool_.intern(s.state.comps[c]);
            h = hashRow(scratch.data(), width_, s.budget);
        }
        std::uint32_t id = static_cast<std::uint32_t>(numStates());
        rows_.insert(rows_.end(), scratch.begin(), scratch.end());
        budget_.push_back(s.budget);
        index.insert(h, id);
        return id;
    };

    // Bounded-cadence progress publisher: every kPublishEvery
    // expansions and once at the end — never per state. Observation
    // only; nothing here feeds back into exploration order.
    constexpr std::size_t kPublishEvery = 2048;
    auto obs_publish = [&] {
        std::size_t bytes = approxBytes() + index.approxBytes();
        peak_bytes_ = std::max(peak_bytes_, bytes);
        if (probe == nullptr)
            return;
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             obs_start)
                             .count();
        std::size_t grown = numStates() - states_before;
        probe->publishExplore(
            numStates(), numStates() - expanded_,
            seconds > 0.0 ? static_cast<double>(grown) / seconds : 0.0,
            100.0 * static_cast<double>(numStates()) /
                static_cast<double>(max_states));
        probe->notePeakBytes(bytes);
    };

    // Enumerate the successors of one state in the canonical order
    // (internal, then inputs port/token-major, then outputs).
    auto enumerate = [&](std::uint32_t id) {
        std::vector<Succ> out;
        GraphState state = decodeState(id);
        std::uint32_t budget = budget_[id];
        for (GraphState& next : mod.internalSteps(state)) {
            Succ s;
            s.kind = Succ::Kind::Internal;
            s.state = std::move(next);
            s.budget = budget;
            out.push_back(std::move(s));
        }
        if (budget > 0) {
            for (std::uint32_t p = 0; p < in_ports_.size(); ++p) {
                const auto& toks = domain_tokens_[p];
                for (std::uint32_t t = 0; t < toks.size(); ++t) {
                    for (GraphState& next :
                         mod.inputStep(state, in_ports_[p], toks[t])) {
                        Succ s;
                        s.kind = Succ::Kind::Input;
                        s.port_idx = p;
                        s.token_idx = t;
                        s.state = std::move(next);
                        s.budget = budget - 1;
                        out.push_back(std::move(s));
                    }
                }
            }
        }
        for (std::uint32_t p = 0; p < out_ports_.size(); ++p) {
            for (auto& [token, next] :
                 mod.outputStep(state, out_ports_[p])) {
                Succ s;
                s.kind = Succ::Kind::Output;
                s.port_idx = p;
                s.token = std::move(token);
                s.state = std::move(next);
                s.budget = budget;
                out.push_back(std::move(s));
            }
        }
        return out;
    };

    // Intern one expanded state's successors in enumeration order and
    // stamp the state's CSR edge ranges. Returns false when the state
    // cap fired mid-state: the partially recorded edges are rolled
    // back and the state stays pending, same as the pre-CSR encoding
    // dropped its edge vectors.
    auto merge = [&](std::vector<Succ>& succs) {
        std::size_t int0 = int_flat_.size();
        std::size_t in0 = in_flat_.size();
        std::size_t out0 = out_flat_.size();
        for (Succ& s : succs) {
            std::optional<std::uint32_t> dst = intern(s);
            if (!dst) {
                int_flat_.resize(int0);
                in_flat_.resize(in0);
                out_flat_.resize(out0);
                return false;
            }
            switch (s.kind) {
            case Succ::Kind::Internal:
                int_flat_.push_back(*dst);
                break;
            case Succ::Kind::Input:
                in_flat_.push_back(
                    InputEdge{s.port_idx, s.token_idx, *dst});
                break;
            case Succ::Kind::Output:
                out_flat_.push_back(
                    OutputEdge{s.port_idx, std::move(s.token), *dst});
                break;
            }
        }
        int_off_.push_back(static_cast<std::uint32_t>(int_flat_.size()));
        in_off_.push_back(static_cast<std::uint32_t>(in_flat_.size()));
        out_off_.push_back(static_cast<std::uint32_t>(out_flat_.size()));
        ++expanded_;
        return true;
    };

    // States are interned in ascending id order and expanded FIFO, so
    // the pending set is always the contiguous range
    // [expanded_, numStates()).
    std::size_t expanded_since_publish = 0;
    while (expanded_ < numStates() && !capped) {
        // Cooperative cancellation: leave the state unexpanded, like a
        // cap, so the space stays edge-exact.
        if (limits.stop.stopRequested()) {
            stopped_ = true;
            stop_reason_ = limits.stop.reason();
            break;
        }
        std::vector<Succ> succs = enumerate(expanded_);
        merge(succs);
        if (++expanded_since_publish >= kPublishEvery) {
            expanded_since_publish = 0;
            obs_publish();
        }
    }
    for (std::uint32_t id = expanded_;
         id < static_cast<std::uint32_t>(numStates()); ++id)
        frontier_.push_back(id);

    obs_publish();
    if (!frontier_.empty()) {
        // Exploration parked (cap or stop) with work left over.
        GRAPHITI_OBS_COUNT("refine.parks", 1);
        if (probe != nullptr)
            probe->recordPark();
    }
    if (obs::Scope* scope = obs::current()) {
        std::size_t grown = numStates() - states_before;
        scope->metrics().add("refine.states",
                             static_cast<std::int64_t>(grown));
        scope->metrics().add("refine.explorations");
        scope->metrics().set("refine.frontier",
                             static_cast<double>(frontier_.size()));
        scope->metrics().setMax("refine.peak_bytes",
                                static_cast<double>(peak_bytes_));
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             obs_start)
                             .count();
        if (seconds > 0.0)
            scope->metrics().setMax(
                "refine.states_per_second",
                static_cast<double>(grown) / seconds);
    }

    // Weak closures are memoized on first use, one slot per state.
    closure_.assign(numStates(), std::nullopt);
}

GraphState
StateSpace::decodeState(std::uint32_t s) const
{
    GraphState state;
    state.comps.reserve(width_);
    for (std::uint32_t id : row(s))
        state.comps.push_back(pool_.value(id));
    return state;
}

std::vector<std::uint32_t>
StateSpace::encodedRow(std::uint32_t s) const
{
    std::span<const std::uint32_t> r = row(s);
    return {r.begin(), r.end()};
}

std::size_t
StateSpace::tokensInFlight(std::uint32_t s) const
{
    std::size_t n = 0;
    for (std::uint32_t id : row(s))
        n += pool_.tokensOf(id);
    return n;
}

const std::vector<std::uint32_t>&
StateSpace::internalClosure(std::uint32_t s) const
{
    if (closure_[s])
        return *closure_[s];
    std::vector<std::uint32_t> reach;
    std::vector<bool> seen(numStates(), false);
    std::deque<std::uint32_t> frontier{s};
    seen[s] = true;
    while (!frontier.empty()) {
        std::uint32_t cur = frontier.front();
        frontier.pop_front();
        reach.push_back(cur);
        for (std::uint32_t next : internalEdges(cur)) {
            if (!seen[next]) {
                seen[next] = true;
                frontier.push_back(next);
            }
        }
    }
    closure_[s] = std::move(reach);
    return *closure_[s];
}

std::uint64_t
StateSpace::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a64(h, numStates());
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(numStates()); ++s) {
        h = fnv1a64(h, budget_[s]);
        EdgeSpan<std::uint32_t> ints = internalEdges(s);
        h = fnv1a64(h, ints.size());
        for (std::uint32_t dst : ints)
            h = fnv1a64(h, dst);
        EdgeSpan<InputEdge> ins = inputEdges(s);
        h = fnv1a64(h, ins.size());
        for (const InputEdge& e : ins) {
            h = fnv1a64(h, e.port_idx);
            h = fnv1a64(h, e.token_idx);
            h = fnv1a64(h, e.dst);
        }
        EdgeSpan<OutputEdge> outs = outputEdges(s);
        h = fnv1a64(h, outs.size());
        for (const OutputEdge& e : outs) {
            h = fnv1a64(h, e.port_idx);
            h = fnv1a64(h, e.token.toString());
            h = fnv1a64(h, e.dst);
        }
    }
    h = fnv1a64(h, frontier_.size());
    for (std::uint32_t s : frontier_)
        h = fnv1a64(h, s);
    return h;
}

std::size_t
StateSpace::approxBytes() const
{
    std::size_t bytes = sizeof(StateSpace);
    bytes += pool_.approxBytes();
    bytes += rows_.size() * sizeof(std::uint32_t);
    bytes += (int_off_.size() + in_off_.size() + out_off_.size()) *
             sizeof(std::uint32_t);
    bytes += int_flat_.size() * sizeof(std::uint32_t);
    bytes += in_flat_.size() * sizeof(InputEdge);
    bytes += out_flat_.size() * sizeof(OutputEdge);
    bytes += budget_.size() * sizeof(std::uint32_t);
    bytes += frontier_.size() * sizeof(std::uint32_t);
    return bytes;
}

StateSpace::MemoryBreakdown
StateSpace::breakdown() const
{
    MemoryBreakdown b;
    b.pool = pool_.approxBytes();
    b.rows = rows_.size() * sizeof(std::uint32_t);
    b.edges = (int_off_.size() + in_off_.size() + out_off_.size()) *
                  sizeof(std::uint32_t) +
              int_flat_.size() * sizeof(std::uint32_t) +
              in_flat_.size() * sizeof(InputEdge) +
              out_flat_.size() * sizeof(OutputEdge);
    return b;
}

std::string
StateSpace::describeState(std::uint32_t s) const
{
    std::ostringstream os;
    os << "state " << s << " (budget " << budget_[s] << ")\n"
       << decodeState(s).toString();
    return os.str();
}

}  // namespace graphiti

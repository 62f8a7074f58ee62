#include "sim/sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <span>
#include <sstream>
#include <type_traits>

#include "arch/buffers.hpp"
#include "graph/signatures.hpp"
#include "obs/scope.hpp"
#include "semantics/environment.hpp"

namespace graphiti::sim {

const char*
toString(StuckKind kind)
{
    switch (kind) {
        case StuckKind::Deadlock: return "deadlock";
        case StuckKind::Livelock: return "livelock";
        case StuckKind::SlowProgress: return "slow progress";
    }
    return "unknown";
}

std::string
StuckDiagnosis::toString() const
{
    std::ostringstream os;
    os << sim::toString(kind) << " at cycle " << cycle
       << " (last token movement cycle " << last_progress_cycle
       << ", last output cycle " << last_output_cycle << ")";
    os << "; outputs collected:";
    for (std::size_t n : outputs_collected)
        os << " " << n << "/" << expected_outputs;
    os << "; stuck channels:";
    if (occupied_channels.empty())
        os << " none";
    for (const ChannelStatus& ch : occupied_channels)
        os << " [" << ch.description << " " << ch.occupancy << "/"
           << ch.capacity << "]";
    os << "; blocked wavefront:";
    if (blocked.empty())
        os << " none";
    for (const BlockedNode& node : blocked) {
        os << " " << node.name << "(" << node.type << ", holds "
           << node.held_tokens << ", last fire ";
        if (node.last_fire)
            os << *node.last_fire;
        else
            os << "never";
        for (const std::string& reason : node.waiting_on)
            os << ", " << reason;
        os << ")";
    }
    return os.str();
}

namespace {

/** Component model dispatched by the per-cycle step, in the order of
 * kKindNames (the string `type` is kept for diagnostics only). */
enum class NodeKind : std::uint8_t
{
    Fork,
    Join,
    Split,
    Mux,
    Merge,
    Branch,
    Init,
    Buffer,
    Sink,
    Source,
    Constant,
    Operator,
    Pure,
    Load,
    Store,
    Tagger,
    Unknown,
};

constexpr const char* kKindNames[] = {
    "fork", "join", "split", "mux", "merge", "branch", "init", "buffer",
    "sink", "source", "constant", "operator", "pure", "load", "store",
    "tagger",
};
static_assert(std::size(kKindNames) ==
              static_cast<std::size_t>(NodeKind::Unknown));

NodeKind
kindOf(const std::string& type)
{
    auto it = std::find(std::begin(kKindNames), std::end(kKindNames), type);
    return static_cast<NodeKind>(it - std::begin(kKindNames));
}

/** Load unit latency in cycles, unless the node sets `latency`. */
constexpr int kLoadLatency = 2;
/** Watchdog: cycles without any token movement, in-flight computation
 * or fault hold before the run is declared deadlocked. */
constexpr std::size_t kStallWindow = 4;
/** Post-output drain: extra cycles allowed (past the last output and
 * past any fault horizon) for in-flight side effects — e.g. a store
 * racing the final output token — to land before final memories are
 * read. Drain stops early once the circuit quiesces; it is not
 * counted in SimResult::cycles. */
constexpr std::size_t kDrainLimit = 4096;
/** Largest initial ring of a channel. Wider channels (the unbounded
 * graph outputs) start here and double when full. */
constexpr std::size_t kRingStart = 64;

/** What the 64 payload bits of a Flat token hold. */
enum class Payload : std::uint8_t
{
    Unit,
    Bool,    ///< 0 or 1
    Int,     ///< the int64's two's complement bits
    Double,  ///< the double's bits, so -0.0 and NaN payloads survive
    Pair,    ///< index of a slot of the run's pair arena
    Boxed,   ///< index of a tuple (not a pair) in the run's box table
};

/**
 * The token the simulator moves between channels, pipelines and
 * reorder buffers: trivially copyable, 16 bytes. A Token is built from
 * it only at the circuit boundary (outputs, traces, error texts) and
 * for operator and Pure calls. A Pair or Boxed token holds one
 * reference to its slot (see Simulator::Impl::retain/release).
 */
struct Flat
{
    std::uint64_t bits = 0;
    Tag tag = 0;
    Payload kind = Payload::Unit;
    bool tagged = false;

    static Flat
    of(Payload kind, std::uint64_t bits)
    {
        Flat t;
        t.kind = kind;
        t.bits = bits;
        return t;
    }

    void
    setTag(std::optional<Tag> t)
    {
        tagged = t.has_value();
        tag = t.value_or(0);
    }

    std::optional<Tag>
    optTag() const
    {
        return tagged ? std::optional<Tag>(tag) : std::nullopt;
    }

    /** References a slot of the pair arena or the box table. */
    bool indirect() const { return kind >= Payload::Pair; }
};
static_assert(sizeof(Flat) == 16);
// A scalar Flat is an operator kernel's operand as it is.
static_assert(static_cast<int>(Payload::Unit) ==
                  static_cast<int>(ScalarKind::Unit) &&
              static_cast<int>(Payload::Bool) ==
                  static_cast<int>(ScalarKind::Bool) &&
              static_cast<int>(Payload::Int) ==
                  static_cast<int>(ScalarKind::Int) &&
              static_cast<int>(Payload::Double) ==
                  static_cast<int>(ScalarKind::Double));
static_assert(std::is_trivially_copyable_v<Flat>);

/** A FIFO in a power-of-two ring that doubles when full. */
template <typename T>
struct Ring
{
    std::vector<T> ring;
    std::size_t head = 0;  ///< ring index of the oldest element
    std::size_t size = 0;

    /** Room for @p slots elements (rounded up to a power of two)
     * before the first growth; none allocated when 0. */
    explicit Ring(std::size_t slots = 0)
        : ring(slots == 0 ? 0 : std::bit_ceil(slots))
    {
    }

    bool empty() const { return size == 0; }
    const T& front() const { return ring[head]; }
    /** The @p i-th oldest element. */
    const T& at(std::size_t i) const
    {
        return ring[(head + i) & (ring.size() - 1)];
    }

    T
    popFront()
    {
        T t = ring[head];
        head = (head + 1) & (ring.size() - 1);
        --size;
        return t;
    }

    void
    pushBack(T t)
    {
        if (size == ring.size())
            grow();
        ring[(head + size) & (ring.size() - 1)] = t;
        ++size;
    }

    /** Double the ring, oldest element first. */
    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(4, ring.size() * 2));
        for (std::size_t i = 0; i < size; ++i)
            bigger[i] = at(i);
        ring.swap(bigger);
        head = 0;
    }
};

/**
 * One elastic channel: its buffered tokens, and how many tokens were
 * pushed this cycle but not yet committed (they take up space but
 * their consumer cannot see them yet). Only a channel wider than
 * kRingStart grows its ring: in practice a graph output during the
 * drain, when nothing collects it.
 */
struct Channel : Ring<Flat>
{
    std::size_t capacity = 2;
    std::size_t staged = 0;
    /** Node producing / consuming the channel (-1 = graph I/O). */
    int producer = -1;
    int consumer = -1;

    explicit Channel(std::size_t slots)
        : Ring(std::min(slots, kRingStart)), capacity(slots)
    {
    }
};

/** A token in a pipelined unit, and the cycle it completes. */
struct InFlight
{
    std::size_t ready = 0;
    Flat token;
};

/** Set bit @p i of the word bitset @p set. */
void
mark(std::vector<std::uint64_t>& set, std::size_t i)
{
    set[i / 64] |= std::uint64_t{1} << (i % 64);
}

/** Per-node mutable simulation state. */
struct SimNode
{
    std::string name;
    std::string type;
    NodeKind kind = NodeKind::Unknown;
    std::vector<int> in_channels;   // -1 when dangling
    std::vector<int> out_channels;  // -1 when dangling
    /** Listed in SimConfig::trace_nodes. */
    bool traced = false;

    // Resolved at build: operator (kernel is nullptr for an unknown op:
    // the node fails when it fires), constant/init value (it holds one
    // reference), load/store memory (nullptr if not installed:
    // likewise).
    std::string op;
    OperatorKernel kernel = nullptr;
    Flat value;
    std::string memory;
    std::vector<double>* mem = nullptr;

    /** Cycle of the node's last token movement. */
    std::optional<std::size_t> last_fire;

    // Generic unit state.
    bool init_done = false;

    // Pipelined units: accepted tokens in acceptance order. The first
    // `completed` have reached their ready cycle and wait for output
    // space; a token completes only once every earlier one has, so
    // completion stays in order under latency jitter.
    Ring<InFlight> pipeline;
    std::size_t completed = 0;
    int latency = 0;

    // Tagger state. Returned tokens are indexed by tag — tags are
    // allocated modulo num_tags, so the reorder buffer is a flat
    // vector, not a map.
    int num_tags = 0;
    std::int64_t next_alloc = 0;
    std::int64_t next_commit = 0;
    std::vector<std::optional<Flat>> returned;
    std::size_t returned_count = 0;

    // Resolved pure function.
    const PureFn* fn = nullptr;
};

bool
tagsAgree(std::span<const Flat* const> tokens, std::optional<Tag>& common)
{
    common.reset();
    for (const Flat* t : tokens) {
        if (!t->tagged)
            continue;
        if (common && *common != t->tag)
            return false;
        common = t->tag;
    }
    return true;
}

}  // namespace

/** The working core of the simulator (rebuilt for every run). */
class Simulator::Impl
{
  public:
    Impl(Simulator& owner) : owner_(owner) {}

    Result<SimResult>
    run(const std::vector<std::vector<Token>>& inputs,
        std::size_t expected_outputs, bool serial_io)
    {
        memories_ = owner_.memories_;
        if (std::optional<Error> failed = build())
            return *failed;
        faults_ = owner_.config_.faults.get();

        obs_ = owner_.config_.obs ? owner_.config_.obs.get()
                                  : obs::current();
        if (obs_ != nullptr) {
            sink_ = obs_->trace();
            setupVcd();
        }
        obs::ScopedTimer run_timer =
            obs_ == nullptr ? obs::ScopedTimer{}
                            : obs_->metrics().timer("sim.run_seconds");
        provSetup();

        input_streams_.assign(inputs.size(), {});
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            input_streams_[i].reserve(inputs[i].size());
            for (const Token& t : inputs[i])
                input_streams_[i].push_back(flatten(t));
        }
        input_pos_.assign(inputs.size(), 0);

        SimResult result;
        result.outputs.resize(output_channels_.size());
        trace_ = &result.trace;

        // Ready-worklist schedule: a node steps, in node-index order,
        // only when a channel next to it changed, it holds pipeline
        // tokens, or a fault held it back last cycle. Fault hooks are
        // pure, so a sleeping node — blocked for another reason, with
        // nothing around it changed since — could not move anyway.
        const std::size_t words = (nodes_.size() + 63) / 64;
        awake_.assign(words, ~std::uint64_t{0});
        if (nodes_.size() % 64 != 0)
            awake_.back() = (std::uint64_t{1} << nodes_.size() % 64) - 1;
        next_awake_.assign(words, 0);

        std::size_t last_progress = 0;
        std::size_t last_output = 0;
        for (std::size_t cycle = 0; cycle < owner_.config_.max_cycles;
             ++cycle) {
            if (std::optional<Error> failed = tick(cycle, &result, serial_io))
                return *failed;
            if (done(result, expected_outputs)) {
                result.cycles = cycle + 1;
                if (std::optional<Error> failed = drain(cycle + 1))
                    return *failed;
                result.memories = memories_;
                provEnd(result.cycles);
                if (obs_ != nullptr)
                    finishObservation(result.cycles);
                return result;
            }
            // Watchdog. A fault that held back an otherwise-possible
            // move counts as progress: the injector's bounded horizon
            // guarantees the hold ends.
            if (moves_ > 0 || pipeline_busy_ || fault_hold_)
                last_progress = cycle;
            if (output_moved_)
                last_output = cycle;
            if (cycle - last_progress > kStallWindow) {
                return stuck(StuckKind::Deadlock, result,
                             expected_outputs, last_progress,
                             last_output,
                             "simulation deadlocked at cycle " +
                                 std::to_string(cycle));
            }
            if (cycle - last_output > owner_.config_.livelock_window) {
                return stuck(StuckKind::Livelock, result,
                             expected_outputs, last_progress,
                             last_output,
                             "simulation livelocked at cycle " +
                                 std::to_string(cycle));
            }
        }
        std::size_t end = owner_.config_.max_cycles;
        StuckKind kind =
            end - last_output > owner_.config_.livelock_window
                ? StuckKind::Livelock
                : StuckKind::SlowProgress;
        return stuck(kind, result, expected_outputs, last_progress,
                     last_output, "simulation exceeded the cycle limit");
    }

  private:
    /**
     * Simulate one cycle: offer inputs, step every awake node once in
     * index order, collect outputs and commit pushes. While draining
     * (@p result is nullptr) inputs, outputs and observers are idle.
     */
    std::optional<Error>
    tick(std::size_t cycle, SimResult* result, bool serial_io)
    {
        const bool draining = result == nullptr;
        auto at = [&] {
            return (draining ? "drain cycle " : "cycle ") +
                   std::to_string(cycle);
        };
        if (owner_.config_.stop.stopRequested())
            return err("simulation cancelled at " + at() + ": " +
                       owner_.config_.stop.reason());
        moves_ = 0;
        pipeline_busy_ = false;
        fault_hold_ = false;
        output_moved_ = false;
        cycle_ = cycle;
        if (!draining)
            feedInputs(*result, serial_io);
        for (std::size_t w = 0; w < awake_.size(); ++w) {
            // Take the lowest awake node of the word and clear its bit.
            // The word is re-read after every step: a pop() may wake a
            // later node of this word for this same cycle.
            while (std::uint64_t bits = awake_[w]) {
                awake_[w] = bits & (bits - 1);
                const std::size_t i = w * 64 + std::countr_zero(bits);
                stepping_ = i;
                SimNode& node = nodes_[i];
                std::size_t before = moves_;
                if (std::optional<Error> failed = step(node))
                    return failed->context(at() + ", node " + node.name);
                if (moves_ > before) {
                    if (sink_ != nullptr && !draining)
                        observeFire(node, cycle_);
                    node.last_fire = cycle_;
                    mark(next_awake_, i);  // internal state advanced
                }
                // Pipelined units must tick every cycle while tokens
                // are in flight or waiting on output space.
                if (!node.pipeline.empty())
                    mark(next_awake_, i);
            }
        }
        stepping_ = kNoNode;
        if (!draining) {
            provBlocked();
            collectOutputs(*result);
        }
        commitStaged();
        awake_.swap(next_awake_);
        std::fill(next_awake_.begin(), next_awake_.end(), 0);
        if (!draining && obs_ != nullptr)
            observeCycle();
        return std::nullopt;
    }

    /**
     * Post-output settling phase. The final output token can race
     * side effects on parallel fork branches (matvec's store of
     * result[i] vs. the result token), so final memory read at the
     * instant of the last output is not a timing-invariant
     * observable. Keep stepping — without collecting outputs, so
     * perpetual producers backpressure themselves quiet — until the
     * circuit quiesces or a bound past any fault horizon expires.
     */
    std::optional<Error>
    drain(std::size_t start_cycle)
    {
        std::size_t horizon = faults_ ? faults_->horizon() : 0;
        std::size_t limit = std::max(start_cycle, horizon) + kDrainLimit;
        for (std::size_t cycle = start_cycle; cycle < limit; ++cycle) {
            if (std::optional<Error> failed = tick(cycle, nullptr, false))
                return failed;
            if (moves_ == 0 && !pipeline_busy_ && !fault_hold_)
                break;
        }
        return std::nullopt;
    }

    std::optional<Error>
    build()
    {
        const ExprHigh& g = owner_.graph_;
        // Name lookup: a sorted flat vector binary-searched per edge
        // endpoint. The graph was validated, so every endpoint
        // resolves.
        std::vector<std::pair<std::string, std::size_t>> node_index;
        node_index.reserve(g.nodes().size());

        const std::vector<std::string>& traced =
            owner_.config_.trace_nodes;
        for (const NodeDecl& decl : g.nodes()) {
            Result<Signature> sig = signatureOf(decl.type, decl.attrs);
            if (!sig.ok())
                return sig.error().context("sim build: " + decl.name);
            SimNode node;
            node.name = decl.name;
            node.type = decl.type;
            node.kind = kindOf(decl.type);
            node.in_channels.assign(sig.value().inputs.size(), -1);
            node.out_channels.assign(sig.value().outputs.size(), -1);
            node.traced = std::find(traced.begin(), traced.end(),
                                    decl.name) != traced.end();
            if (node.kind == NodeKind::Operator) {
                node.op = attrStr(decl.attrs, "op", "");
                node.kernel = operatorKernel(node.op);
                node.latency = attrInt(decl.attrs, "latency",
                                       operatorLatency(node.op));
            } else if (node.kind == NodeKind::Load ||
                       node.kind == NodeKind::Store) {
                node.memory = attrStr(decl.attrs, "memory", "mem");
                auto mem = memories_.find(node.memory);
                if (mem != memories_.end())
                    node.mem = &mem->second;
                if (node.kind == NodeKind::Load)
                    node.latency =
                        attrInt(decl.attrs, "latency", kLoadLatency);
            } else if (node.kind == NodeKind::Constant) {
                Result<Value> value =
                    parseConstant(attrStr(decl.attrs, "value", "0"));
                if (!value.ok())
                    return value.error().context("sim build: " +
                                                 decl.name);
                node.value = flatten(value.value());
            } else if (node.kind == NodeKind::Init) {
                node.value = Flat::of(
                    Payload::Bool,
                    attrStr(decl.attrs, "value", "false") == "true");
            } else if (node.kind == NodeKind::Pure) {
                node.latency = attrInt(decl.attrs, "latency", 0);
                node.fn = owner_.functions_->find(
                    attrStr(decl.attrs, "fn", ""));
                if (node.fn == nullptr)
                    return err("sim build: pure node " + decl.name +
                               " references unregistered fn");
            } else if (node.kind == NodeKind::Tagger) {
                node.num_tags = attrInt(decl.attrs, "tags", 4);
                node.returned.assign(
                    static_cast<std::size_t>(std::max(1, node.num_tags)),
                    std::nullopt);
            } else if (node.kind == NodeKind::Join &&
                       node.in_channels.empty()) {
                return err("sim build: join " + decl.name +
                           " has no inputs");
            }
            node_index.emplace_back(decl.name, nodes_.size());
            nodes_.push_back(std::move(node));
        }
        std::sort(node_index.begin(), node_index.end());
        auto find_node = [&](const std::string& name) {
            auto it = std::lower_bound(
                node_index.begin(), node_index.end(), name,
                [](const std::pair<std::string, std::size_t>& entry,
                   const std::string& n) { return entry.first < n; });
            return it->second;
        };

        // Attach channel @p ch to the port @p end names ("out3" is
        // slot 3). The validator does not check port names, so a port
        // without a number, or past the node's arity, fails the build.
        auto bind = [&](const PortRef& end, bool output, int ch) {
            std::size_t n = find_node(end.inst);
            std::vector<int>& slots =
                output ? nodes_[n].out_channels : nodes_[n].in_channels;
            const std::string& port = end.port;
            const char* last = port.data() + port.size();
            std::size_t index = slots.size();
            auto [stop, ec] = std::from_chars(
                port.data() + std::min(port.find_first_of("0123456789"),
                                       port.size()),
                last, index);
            if (ec != std::errc{} || stop != last || index >= slots.size())
                return false;
            slots[index] = ch;
            (output ? channels_[ch].producer : channels_[ch].consumer) =
                static_cast<int>(n);
            return true;
        };
        auto bad_port = [&](int ch) {
            return err("sim build: edge " + channel_desc_[ch] +
                       " names a port its node does not have");
        };

        // Buffer placement (Josipovic et al. [40], as adapted by
        // Elakhras et al.): channels inside a Tagger/Untagger region
        // get enough slots for the in-flight iterations, otherwise a
        // short bypass path fills up and serializes the loop (or
        // deadlocks it).
        arch::BufferPlacement placement =
            arch::placeBuffers(g, owner_.config_.channel_slots);
        FaultInjector* faults = owner_.config_.faults.get();
        auto add_channel = [&](std::size_t base, bool pinned,
                               std::string description) {
            int ch = static_cast<int>(channels_.size());
            std::size_t capacity = base;
            if (faults != nullptr)
                capacity = std::max<std::size_t>(
                    1, faults->adjustCapacity(ch, base, pinned));
            channels_.emplace_back(capacity);
            channel_desc_.push_back(std::move(description));
            return ch;
        };
        for (const Edge& e : g.edges()) {
            // Channels the placement widened beyond the default pair
            // are pinned: they hold the in-flight iterations of a
            // tagged region, and squeezing them alters the circuit
            // rather than its timing.
            std::size_t base =
                placement.slotsFor(e, owner_.config_.channel_slots);
            int ch = add_channel(
                base, base > owner_.config_.channel_slots,
                e.src.inst + "." + e.src.port + " -> " + e.dst.inst +
                    "." + e.dst.port);
            if (!bind(e.src, true, ch) || !bind(e.dst, false, ch))
                return bad_port(ch);
        }
        for (std::size_t i = 0; i < g.inputs().size(); ++i) {
            if (!g.inputs()[i])
                continue;
            int ch = add_channel(owner_.config_.channel_slots, true,
                                 "input#" + std::to_string(i) + " -> " +
                                     g.inputs()[i]->inst + "." +
                                     g.inputs()[i]->port);
            if (!bind(*g.inputs()[i], false, ch))
                return bad_port(ch);
            input_channels_.push_back(ch);
        }
        for (std::size_t i = 0; i < g.outputs().size(); ++i) {
            if (!g.outputs()[i])
                continue;
            int ch = add_channel(1u << 30, true,
                                 g.outputs()[i]->inst + "." +
                                     g.outputs()[i]->port + " -> output#" +
                                     std::to_string(i));
            if (!bind(*g.outputs()[i], true, ch))
                return bad_port(ch);
            output_channels_.push_back(ch);
        }
        return std::nullopt;
    }

    /** A fault hid a token or refused space: that counts as watchdog
     * progress, and the held node steps again next cycle. */
    void
    holdByFault(int ch, const char* what)
    {
        fault_hold_ = true;
        if (stepping_ != kNoNode)
            mark(next_awake_, stepping_);
        if (obs_ != nullptr)
            ++stat_fault_holds_;
        if (sink_ != nullptr)
            sink_->event(TraceEvent{cycle_, channel_desc_[ch], ch,
                                    obs::EventKind::Fault, what});
    }

    bool
    hasToken(int ch)
    {
        if (ch < 0 || channels_[ch].empty())
            return false;
        if (faults_ != nullptr &&
            faults_->dropValid(static_cast<std::size_t>(ch), cycle_)) {
            holdByFault(ch, "drop-valid");  // a consumable token was hidden
            return false;
        }
        return true;
    }

    const Flat&
    peek(int ch) const
    {
        return channels_[ch].front();
    }

    Flat
    pop(int ch)
    {
        Channel& c = channels_[ch];
        Flat t = c.popFront();
        ++moves_;
        // The producer gained space. The sequential sweep makes a pop
        // visible to later-indexed nodes within the same cycle, so a
        // producer not yet stepped wakes now; otherwise next cycle.
        if (c.producer >= 0) {
            std::size_t p = static_cast<std::size_t>(c.producer);
            mark(p > stepping_ ? awake_ : next_awake_, p);
        }
        return t;
    }

    bool
    hasSpace(int ch)
    {
        if (ch < 0)
            return true;  // dangling outputs drop tokens
        const Channel& c = channels_[ch];
        if (c.size + c.staged >= c.capacity)
            return false;
        if (faults_ != nullptr &&
            faults_->dropReady(static_cast<std::size_t>(ch), cycle_)) {
            holdByFault(ch, "drop-ready");  // available space was refused
            return false;
        }
        return true;
    }

    void
    push(int ch, Flat t)
    {
        if (ch < 0) {
            release(t);  // a dangling output drops the token
            return;
        }
        Channel& c = channels_[ch];
        ++c.staged;
        staged_.emplace_back(ch, t);
        ++moves_;
        // Staged tokens become visible at commitStaged, so the
        // consumer can first use this one next cycle.
        if (c.consumer >= 0)
            mark(next_awake_, static_cast<std::size_t>(c.consumer));
    }

    /** Append this cycle's pushes to their channels, in push order
     * (which keeps every channel FIFO). */
    void
    commitStaged()
    {
        for (const auto& [ch, t] : staged_) {
            channels_[ch].staged = 0;
            channels_[ch].pushBack(t);
        }
        staged_.clear();
    }

    /** Record an event of a traced node; @p token, when given, is
     * appended to the detail. */
    void
    trace(const SimNode& node, const char* detail,
          const Flat* token = nullptr,
          obs::EventKind kind = obs::EventKind::Fire)
    {
        if (!node.traced)
            return;
        std::string text = detail;
        if (token != nullptr)
            text += " " + render(*token);
        trace_->push_back(
            TraceEvent{cycle_, node.name, -1, kind, std::move(text)});
    }

    void
    feedInputs(const SimResult& result, bool serial_io)
    {
        std::size_t collected =
            result.outputs.empty() ? 0 : result.outputs[0].size();
        for (std::size_t i = 0; i < input_streams_.size() &&
                                i < input_channels_.size();
             ++i) {
            std::size_t& pos = input_pos_[i];
            if (pos >= input_streams_[i].size())
                continue;
            if (serial_io && pos > collected)
                continue;
            int ch = input_channels_[i];
            if (hasSpace(ch)) {
                push(ch, input_streams_[i][pos]);
                ++pos;
                if (prov_ != nullptr)
                    prov_->onBirth(ch, static_cast<int>(i), cycle_);
            }
        }
    }

    void
    collectOutputs(SimResult& result)
    {
        for (std::size_t i = 0; i < output_channels_.size(); ++i) {
            Channel& ch = channels_[output_channels_[i]];
            while (!ch.empty()) {
                Flat t = ch.popFront();
                Token boxed = boxToken(t);
                release(t);
                if (obs_ != nullptr) {
                    ++stat_outputs_;
                    if (sink_ != nullptr)
                        sink_->event(TraceEvent{
                            cycle_, "output#" + std::to_string(i),
                            output_channels_[i],
                            obs::EventKind::Output, boxed.toString()});
                }
                result.outputs[i].push_back(std::move(boxed));
                if (prov_ != nullptr)
                    prov_->onOutput(static_cast<int>(i),
                                    output_channels_[i], cycle_);
                ++moves_;
                output_moved_ = true;
            }
        }
    }

    bool
    done(const SimResult& result, std::size_t expected) const
    {
        for (const auto& stream : result.outputs)
            if (stream.size() < expected)
                return false;
        return true;
    }

    /** Build the watchdog's stuck-state diagnosis from the current
     * concrete state. */
    StuckDiagnosis
    buildDiagnosis(StuckKind kind, const SimResult& result,
                   std::size_t expected, std::size_t last_progress,
                   std::size_t last_output) const
    {
        StuckDiagnosis d;
        d.kind = kind;
        d.cycle = cycle_;
        d.last_progress_cycle = last_progress;
        d.last_output_cycle = last_output;
        d.expected_outputs = expected;
        for (const auto& stream : result.outputs)
            d.outputs_collected.push_back(stream.size());
        for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
            if (channels_[ch].empty())
                continue;
            d.occupied_channels.push_back(ChannelStatus{
                channel_desc_[ch], channels_[ch].size,
                channels_[ch].capacity});
        }
        for (const SimNode& node : nodes_) {
            BlockedNode b;
            b.name = node.name;
            b.type = node.type;
            b.last_fire = node.last_fire;
            b.held_tokens = node.pipeline.size + node.returned_count;
            for (int ch : node.in_channels)
                if (ch >= 0)
                    b.held_tokens += channels_[ch].size;
            if (b.held_tokens == 0)
                continue;  // only the wavefront holding tokens
            for (std::size_t i = 0; i < node.in_channels.size(); ++i) {
                int ch = node.in_channels[i];
                if (ch < 0 || channels_[ch].empty())
                    b.waiting_on.push_back(
                        "in" + std::to_string(i) + " empty");
            }
            for (std::size_t i = 0; i < node.out_channels.size(); ++i) {
                int ch = node.out_channels[i];
                if (ch >= 0 && channels_[ch].size >= channels_[ch].capacity)
                    b.waiting_on.push_back(
                        "out" + std::to_string(i) + " full");
            }
            d.blocked.push_back(std::move(b));
        }
        return d;
    }

    /** Record the diagnosis on the owner and render the error. */
    Error
    stuck(StuckKind kind, const SimResult& result, std::size_t expected,
          std::size_t last_progress, std::size_t last_output,
          const std::string& headline)
    {
        StuckDiagnosis d = buildDiagnosis(kind, result, expected,
                                          last_progress, last_output);
        std::string rendered = d.toString();
        if (obs_ != nullptr) {
            obs_->metrics().add("sim.stuck");
            obs_->metrics().add(std::string("sim.stuck.") +
                                sim::toString(kind));
            if (sink_ != nullptr)
                sink_->event(TraceEvent{cycle_, "watchdog", -1,
                                        obs::EventKind::Verdict,
                                        sim::toString(kind)});
            finishObservation(cycle_);
        }
        provEnd(cycle_);
        owner_.diagnosis_ = std::move(d);
        return err(headline + ": " + rendered);
    }

    /** Point heads_ at the head token of every input of @p node;
     * false when one is empty (or hidden by a fault). */
    bool
    gatherHeads(const SimNode& node)
    {
        heads_.clear();
        for (int ch : node.in_channels) {
            if (!hasToken(ch))
                return false;
            heads_.push_back(&peek(ch));
        }
        return true;
    }

    /** Complete the in-order prefix of a pipelined unit's tokens that
     * reached their ready cycle, and emit completed tokens while the
     * output has space. */
    void
    advancePipeline(SimNode& node)
    {
        Ring<InFlight>& pipe = node.pipeline;
        if (pipe.size > node.completed)
            pipeline_busy_ = true;  // in-flight computation is progress
        while (node.completed < pipe.size &&
               pipe.at(node.completed).ready <= cycle_) {
            ++node.completed;
            ++moves_;
        }
        while (node.completed > 0 && hasSpace(node.out_channels[0])) {
            push(node.out_channels[0], pipe.popFront().token);
            --node.completed;
            provEmit(node);
            trace(node, "emit", nullptr, obs::EventKind::Emit);
        }
    }

    /** Step @p node once: the error it failed with, if it did. */
    std::optional<Error>
    step(SimNode& node)
    {
        if (node.kind == NodeKind::Fork) {
            if (!hasToken(node.in_channels[0]))
                return std::nullopt;
            for (int ch : node.out_channels)
                if (!hasSpace(ch))
                    return std::nullopt;
            Flat t = pop(node.in_channels[0]);
            trace(node, "fire", &t);
            // One reference per copy; the popped one is given back.
            for (int ch : node.out_channels) {
                retain(t);
                push(ch, t);
            }
            release(t);
            provFire(node, node.in_channels.data(), 1,
                     node.out_channels.data(), node.out_channels.size());
            return std::nullopt;
        }
        if (node.kind == NodeKind::Join) {
            if (!hasSpace(node.out_channels[0]))
                return std::nullopt;
            if (!gatherHeads(node))
                return std::nullopt;
            std::optional<Tag> tag;
            if (!tagsAgree(heads_, tag))
                return err("tag mismatch at join (tokens from "
                           "different iterations met)");
            // The inputs' references move into the right-nested pairs.
            Flat out = *heads_.back();
            for (std::size_t i = heads_.size() - 1; i-- > 0;)
                out = makePair(*heads_[i], out);
            for (int ch : node.in_channels)
                pop(ch);
            out.setTag(tag);
            push(node.out_channels[0], out);
            provFire(node, node.in_channels.data(),
                     node.in_channels.size(), node.out_channels.data(),
                     1);
            trace(node, "fire");
            return std::nullopt;
        }
        if (node.kind == NodeKind::Split) {
            if (!hasToken(node.in_channels[0]) ||
                !hasSpace(node.out_channels[0]) ||
                !hasSpace(node.out_channels[1]))
                return std::nullopt;
            Flat t = pop(node.in_channels[0]);
            if (t.kind != Payload::Pair)
                return err("split received a non-pair token " + render(t));
            auto [left, right] = takePair(t);
            left.setTag(t.optTag());
            right.setTag(t.optTag());
            push(node.out_channels[0], left);
            push(node.out_channels[1], right);
            provFire(node, node.in_channels.data(), 1,
                     node.out_channels.data(), 2);
            trace(node, "fire");
            return std::nullopt;
        }
        if (node.kind == NodeKind::Mux) {
            if (!hasToken(node.in_channels[0]) ||
                !hasSpace(node.out_channels[0]))
                return std::nullopt;
            bool sel = asBool(peek(node.in_channels[0]));
            int data_ch = node.in_channels[sel ? 1 : 2];
            if (!hasToken(data_ch))
                return std::nullopt;
            release(pop(node.in_channels[0]));
            Flat t = pop(data_ch);
            trace(node, sel ? "fire loop" : "fire entry");
            push(node.out_channels[0], t);
            const int mux_ins[2] = {node.in_channels[0], data_ch};
            provFire(node, mux_ins, 2, node.out_channels.data(), 1);
            return std::nullopt;
        }
        if (node.kind == NodeKind::Merge) {
            if (!hasSpace(node.out_channels[0]))
                return std::nullopt;
            // Loopback (in0) has priority so in-flight iterations keep
            // draining; fresh tokens enter when the loop path is idle.
            for (int port : {0, 1}) {
                if (hasToken(node.in_channels[port])) {
                    Flat t = pop(node.in_channels[port]);
                    trace(node, port == 0 ? "fire loop" : "fire entry",
                          &t);
                    push(node.out_channels[0], t);
                    provFire(node, &node.in_channels[port], 1,
                             node.out_channels.data(), 1);
                    return std::nullopt;
                }
            }
            return std::nullopt;
        }
        if (node.kind == NodeKind::Branch) {
            if (!hasToken(node.in_channels[0]) ||
                !hasToken(node.in_channels[1]))
                return std::nullopt;
            const Flat& data = peek(node.in_channels[0]);
            const Flat& cond = peek(node.in_channels[1]);
            const Flat* pair[] = {&data, &cond};
            std::optional<Tag> tag;
            if (!tagsAgree(pair, tag))
                return err("tag mismatch at branch");
            int out = asBool(cond) ? 0 : 1;
            if (!hasSpace(node.out_channels[out]))
                return std::nullopt;
            Flat t = pop(node.in_channels[0]);
            release(pop(node.in_channels[1]));
            t.setTag(tag);
            trace(node, out == 0 ? "loop" : "exit");
            push(node.out_channels[out], t);
            provFire(node, node.in_channels.data(), 2,
                     &node.out_channels[out], 1);
            return std::nullopt;
        }
        if (node.kind == NodeKind::Init) {
            if (!hasSpace(node.out_channels[0]))
                return std::nullopt;
            if (!node.init_done) {
                node.init_done = true;
                push(node.out_channels[0], node.value);
                provSpawn(node, node.out_channels[0]);
                trace(node, "initial");
                return std::nullopt;
            }
            if (hasToken(node.in_channels[0])) {
                push(node.out_channels[0], pop(node.in_channels[0]));
                provFire(node, node.in_channels.data(), 1,
                         node.out_channels.data(), 1);
            }
            return std::nullopt;
        }
        if (node.kind == NodeKind::Buffer) {
            if (hasToken(node.in_channels[0]) &&
                hasSpace(node.out_channels[0])) {
                push(node.out_channels[0], pop(node.in_channels[0]));
                provFire(node, node.in_channels.data(), 1,
                         node.out_channels.data(), 1);
            }
            return std::nullopt;
        }
        if (node.kind == NodeKind::Sink) {
            if (hasToken(node.in_channels[0])) {
                release(pop(node.in_channels[0]));
                provFire(node, node.in_channels.data(), 1, nullptr, 0);
            }
            return std::nullopt;
        }
        if (node.kind == NodeKind::Source) {
            if (hasSpace(node.out_channels[0])) {
                push(node.out_channels[0], Flat{});
                provSpawn(node, node.out_channels[0]);
            }
            return std::nullopt;
        }
        if (node.kind == NodeKind::Constant) {
            if (!hasToken(node.in_channels[0]) ||
                !hasSpace(node.out_channels[0]))
                return std::nullopt;
            Flat trigger = pop(node.in_channels[0]);
            release(trigger);
            Flat out = node.value;
            retain(out);
            out.setTag(trigger.optTag());
            push(node.out_channels[0], out);
            provFire(node, node.in_channels.data(), 1,
                     node.out_channels.data(), 1);
            return std::nullopt;
        }
        if (node.kind == NodeKind::Operator ||
            node.kind == NodeKind::Pure ||
            node.kind == NodeKind::Load) {
            advancePipeline(node);
            // Accept at most one new token set per cycle (II = 1).
            if (!gatherHeads(node))
                return std::nullopt;
            std::optional<Tag> tag;
            if (!tagsAgree(heads_, tag))
                return err("tag mismatch at " + node.type);
            Flat result;
            if (node.kind == NodeKind::Operator) {
                if (std::optional<Error> failed = fireOperator(node, result))
                    return failed;
            } else if (node.kind == NodeKind::Pure) {
                result = flatten((*node.fn)(box(*heads_[0])));
            } else {  // load
                if (node.mem == nullptr)
                    return err("load from unknown memory " + node.memory);
                std::int64_t addr = asInt(*heads_[0]);
                if (addr < 0 ||
                    addr >= static_cast<std::int64_t>(node.mem->size()))
                    return err("load out of bounds: " + node.memory + "[" +
                               std::to_string(addr) + "]");
                result = ofDouble((*node.mem)[addr]);
            }
            result.setTag(tag);
            for (int ch : node.in_channels)
                release(pop(ch));
            int latency = std::max(1, node.latency);
            if (faults_ != nullptr)
                latency += std::max(
                    0, faults_->latencyJitter(node.name, cycle_));
            node.pipeline.pushBack(
                InFlight{cycle_ + static_cast<std::size_t>(latency), result});
            provAccept(node, latency);
            trace(node, "accept");
            return std::nullopt;
        }
        if (node.kind == NodeKind::Store) {
            if (!hasToken(node.in_channels[0]) ||
                !hasToken(node.in_channels[1]) ||
                !hasSpace(node.out_channels[0]))
                return std::nullopt;
            const Flat& addr_tok = peek(node.in_channels[0]);
            const Flat& data_tok = peek(node.in_channels[1]);
            const Flat* pair[] = {&addr_tok, &data_tok};
            std::optional<Tag> tag;
            if (!tagsAgree(pair, tag))
                return err("tag mismatch at store");
            if (node.mem == nullptr)
                return err("store to unknown memory " + node.memory);
            std::int64_t addr = asInt(addr_tok);
            if (addr < 0 ||
                addr >= static_cast<std::int64_t>(node.mem->size()))
                return err("store out of bounds: " + node.memory + "[" +
                           std::to_string(addr) + "]");
            (*node.mem)[addr] = toDouble(data_tok);
            release(pop(node.in_channels[0]));
            release(pop(node.in_channels[1]));
            Flat done = ofInt(addr);
            done.setTag(tag);
            push(node.out_channels[0], done);
            provFire(node, node.in_channels.data(), 2,
                     node.out_channels.data(), 1);
            trace(node, "store");
            return std::nullopt;
        }
        if (node.kind == NodeKind::Tagger) {
            // Allocate a tag for the oldest fresh token.
            if (hasToken(node.in_channels[0]) &&
                hasSpace(node.out_channels[0]) &&
                node.next_alloc - node.next_commit < node.num_tags) {
                Flat t = pop(node.in_channels[0]);
                t.setTag(static_cast<Tag>(node.next_alloc %
                                          node.num_tags));
                const std::int64_t alloc_idx = node.next_alloc;
                node.next_alloc += 1;
                trace(node, "tag", &t);
                push(node.out_channels[0], t);
                provTagAlloc(node, alloc_idx);
            }
            // Accept a returning token.
            if (hasToken(node.in_channels[1])) {
                Flat t = pop(node.in_channels[1]);
                if (!t.tagged)
                    return err("untagged token returned to tagger");
                const Tag slot = t.tag;
                if (static_cast<std::int64_t>(slot) >= node.num_tags)
                    return err("tag " + std::to_string(slot) +
                               " was never allocated");
                if (node.returned[slot])
                    return err("tag " + std::to_string(slot) +
                               " returned to tagger twice");
                provTagReturn(node, slot);
                node.returned[slot] = t;
                ++node.returned_count;
            }
            // Commit the oldest outstanding tag in program order.
            if (node.next_commit < node.next_alloc &&
                hasSpace(node.out_channels[1])) {
                std::size_t wanted = static_cast<std::size_t>(
                    node.next_commit % node.num_tags);
                if (node.returned[wanted]) {
                    Flat out = *node.returned[wanted];
                    out.setTag(std::nullopt);
                    node.returned[wanted].reset();
                    --node.returned_count;
                    const std::int64_t commit_idx = node.next_commit;
                    node.next_commit += 1;
                    trace(node, "untag", &out);
                    push(node.out_channels[1], out);
                    provTagCommit(node, commit_idx);
                }
            }
            return std::nullopt;
        }
        return err("simulator has no model for component type '" +
                   node.type + "'");
    }

    /**
     * Fire operator @p node on heads_: @p result, holding a new
     * reference, is its kernel on the flat head tokens. A pass-through of
     * a pair or boxed tuple retains it; what the kernel defers (errors,
     * failed coercions, equality of two tuples) and an unknown op are
     * answered by the boxed adapter.
     */
    std::optional<Error>
    fireOperator(const SimNode& node, Flat& result)
    {
        std::array<Scalar, 3> args;
        for (std::size_t i = 0; i < heads_.size(); ++i) {
            const Flat& t = *heads_[i];
            args[i] = t.indirect()
                          ? Scalar{i, ScalarKind::Tuple}
                          : Scalar{t.bits, static_cast<ScalarKind>(t.kind)};
        }
        Scalar out{0, ScalarKind::Deferred};
        if (node.kernel != nullptr)
            out = node.kernel(args.data());
        if (out.kind == ScalarKind::Tuple) {
            result = *heads_[out.bits];
            retain(result);
            return std::nullopt;
        }
        if (out.kind != ScalarKind::Deferred) {
            result = Flat::of(static_cast<Payload>(out.kind), out.bits);
            return std::nullopt;
        }
        std::vector<Value> boxed;
        for (const Flat* t : heads_)
            boxed.push_back(box(*t));
        Result<Value> v = node.kernel != nullptr
                              ? resolveDeferred(out, boxed)
                              : evalOperator(node.op, boxed);
        if (!v.ok())
            return v.error();
        result = flatten(v.value());
        return std::nullopt;
    }

    // ----- flat tokens: the pair arena, the box table, boxing -----
    //
    // A Pair token references a slot holding its two untagged
    // elements; a tuple that is not a pair stays a Value in the box
    // table. Every Pair or Boxed token in a channel, pipeline, reorder
    // buffer, input stream, node constant or enclosing pair holds one
    // reference to its slot, and a slot goes back to its free list when
    // the last one is released, so the arena is as large as the most
    // pairs ever live at once.

    static Flat
    ofInt(std::int64_t i)
    {
        return Flat::of(Payload::Int, std::bit_cast<std::uint64_t>(i));
    }

    static Flat
    ofDouble(double d)
    {
        return Flat::of(Payload::Double, std::bit_cast<std::uint64_t>(d));
    }

    /** A slot index: the head of @p free, or a new slot of @p pool. */
    template <class Slot>
    static std::uint32_t
    claim(std::vector<Slot>& pool, std::vector<std::uint32_t>& free)
    {
        if (free.empty()) {
            pool.emplace_back();
            return static_cast<std::uint32_t>(pool.size() - 1);
        }
        std::uint32_t i = free.back();
        free.pop_back();
        return i;
    }

    /** The untagged pair (head, tail), taking over both references. */
    Flat
    makePair(Flat head, Flat tail)
    {
        head.setTag(std::nullopt);
        tail.setTag(std::nullopt);
        std::uint32_t i = claim(pairs_, free_pairs_);
        pairs_[i] = PairSlot{head, tail, 1};
        return Flat::of(Payload::Pair, i);
    }

    /** The elements of pair @p t, taking over @p t's reference. */
    std::pair<Flat, Flat>
    takePair(const Flat& t)
    {
        PairSlot& slot = pairs_[t.bits];
        std::pair<Flat, Flat> out{slot.head, slot.tail};
        if (--slot.refs == 0) {
            free_pairs_.push_back(static_cast<std::uint32_t>(t.bits));
        } else {
            retain(out.first);
            retain(out.second);
        }
        return out;
    }

    void
    retain(const Flat& t)
    {
        if (!t.indirect())
            return;
        if (t.kind == Payload::Pair)
            ++pairs_[t.bits].refs;
        else
            ++boxes_[t.bits].refs;
    }

    void
    release(const Flat& t)
    {
        if (!t.indirect())
            return;
        const auto i = static_cast<std::uint32_t>(t.bits);
        if (t.kind == Payload::Boxed) {
            if (--boxes_[i].refs == 0) {
                boxes_[i].value = Value();
                free_boxes_.push_back(i);
            }
            return;
        }
        PairSlot& slot = pairs_[i];
        if (--slot.refs != 0)
            return;
        const Flat head = slot.head;
        const Flat tail = slot.tail;
        free_pairs_.push_back(i);
        release(head);
        release(tail);
    }

    /** @p v as an untagged flat token holding a new reference. */
    Flat
    flatten(const Value& v)
    {
        if (v.isBool())
            return Flat::of(Payload::Bool, v.asBool());
        if (v.isInt())
            return ofInt(v.asInt());
        if (v.isDouble())
            return ofDouble(v.asDouble());
        if (v.isUnit())
            return Flat{};
        const ValueTuple& elems = v.asTuple();
        if (elems.size() == 2) {
            Flat head = flatten(elems[0]);
            return makePair(head, flatten(elems[1]));
        }
        std::uint32_t i = claim(boxes_, free_boxes_);
        boxes_[i] = BoxSlot{v, 1};
        return Flat::of(Payload::Boxed, i);
    }

    Flat
    flatten(const Token& t)
    {
        Flat out = flatten(t.value);
        out.setTag(t.tag);
        return out;
    }

    Value
    box(const Flat& t) const
    {
        switch (t.kind) {
            case Payload::Unit: return Value();
            case Payload::Bool: return Value(t.bits != 0);
            case Payload::Int:
                return Value(std::bit_cast<std::int64_t>(t.bits));
            case Payload::Double:
                return Value(std::bit_cast<double>(t.bits));
            case Payload::Pair: {
                const PairSlot& slot = pairs_[t.bits];
                return Value::tuple(box(slot.head), box(slot.tail));
            }
            case Payload::Boxed: return boxes_[t.bits].value;
        }
        return Value();
    }

    Token
    boxToken(const Flat& t) const
    {
        Token out(box(t));
        out.tag = t.optTag();
        return out;
    }

    std::string
    render(const Flat& t) const
    {
        return boxToken(t).toString();
    }

    // Value's coercions; anything else fails with Value's message.

    bool
    asBool(const Flat& t) const
    {
        if (t.kind == Payload::Bool || t.kind == Payload::Int)
            return t.bits != 0;
        return box(t).asBool();
    }

    std::int64_t
    asInt(const Flat& t) const
    {
        if (t.kind == Payload::Int || t.kind == Payload::Bool)
            return std::bit_cast<std::int64_t>(t.bits);
        return box(t).asInt();
    }

    double
    toDouble(const Flat& t) const
    {
        if (t.kind == Payload::Double)
            return std::bit_cast<double>(t.bits);
        if (t.kind == Payload::Int)
            return static_cast<double>(std::bit_cast<std::int64_t>(t.bits));
        if (t.kind == Payload::Bool)
            return t.bits != 0 ? 1.0 : 0.0;
        return box(t).toDouble();
    }

    // ----- provenance hooks (inert when no tracker is attached) -----
    //
    // The tracker mirrors every FIFO in the simulator, so each pop()/
    // push() path above must report through exactly one hook.

    std::uint32_t
    provNodeIndex(const SimNode& node) const
    {
        return static_cast<std::uint32_t>(&node - nodes_.data());
    }

    void
    provSetup()
    {
        prov_ = obs_ != nullptr ? obs_->provenance() : nullptr;
        if (prov_ == nullptr)
            return;
        std::vector<obs::ProvenanceLog::NodeInfo> nodes;
        nodes.reserve(nodes_.size());
        for (const SimNode& node : nodes_)
            nodes.push_back({node.name, node.type, node.latency,
                             node.in_channels, node.out_channels});
        std::vector<obs::ProvenanceLog::ChannelInfo> channels;
        channels.reserve(channels_.size());
        for (std::size_t ch = 0; ch < channels_.size(); ++ch)
            channels.push_back(
                {channel_desc_[ch], channels_[ch].capacity});
        prov_->beginRun(std::move(nodes), std::move(channels));
    }

    void
    provFire(const SimNode& node, const int* ins, std::size_t nins,
             const int* outs, std::size_t nouts)
    {
        if (prov_ != nullptr)
            prov_->onFire(provNodeIndex(node), cycle_, ins, nins, outs,
                          nouts);
    }

    void
    provAccept(const SimNode& node, int latency)
    {
        if (prov_ != nullptr)
            prov_->onAccept(provNodeIndex(node), cycle_,
                            node.in_channels.data(),
                            node.in_channels.size(),
                            static_cast<std::uint32_t>(latency));
    }

    void
    provEmit(const SimNode& node)
    {
        if (prov_ != nullptr)
            prov_->onEmit(provNodeIndex(node), node.out_channels[0],
                          cycle_);
    }

    void
    provSpawn(const SimNode& node, int channel)
    {
        if (prov_ != nullptr)
            prov_->onSpawn(provNodeIndex(node), channel, cycle_);
    }

    void
    provTagAlloc(const SimNode& node, std::int64_t alloc_idx)
    {
        if (prov_ != nullptr)
            prov_->onTagAlloc(provNodeIndex(node), cycle_,
                              node.in_channels[0], node.out_channels[0],
                              static_cast<std::uint64_t>(alloc_idx));
    }

    void
    provTagReturn(const SimNode& node, Tag tag)
    {
        if (prov_ == nullptr)
            return;
        // Tags are unique within the outstanding window, so the
        // allocation index is recoverable from the tag alone.
        const std::int64_t n = node.num_tags;
        const std::int64_t idx =
            node.next_commit +
            ((static_cast<std::int64_t>(tag) - node.next_commit) % n +
             n) % n;
        prov_->onTagReturn(provNodeIndex(node), cycle_,
                           node.in_channels[1],
                           static_cast<std::uint64_t>(idx),
                           static_cast<std::uint32_t>(
                               idx - node.next_commit));
    }

    void
    provTagCommit(const SimNode& node, std::int64_t commit_idx)
    {
        if (prov_ != nullptr)
            prov_->onTagCommit(provNodeIndex(node), cycle_,
                               node.out_channels[1],
                               static_cast<std::uint64_t>(commit_idx));
    }

    /**
     * After the step loop: classify every node that held input tokens
     * but could not fire this cycle, so the head tokens of its
     * occupied input queues learn whether they were waiting on a
     * starved consumer or a backpressured one. Uses raw occupancy
     * (not hasToken/hasSpace) so fault hooks are not re-triggered.
     */
    void
    provBlocked()
    {
        if (prov_ == nullptr)
            return;
        for (const SimNode& node : nodes_) {
            if (node.last_fire && *node.last_fire == cycle_)
                continue;
            bool holds = false;
            bool starved = false;
            for (int ch : node.in_channels) {
                if (ch < 0)
                    continue;
                if (channels_[ch].empty())
                    starved = true;
                else
                    holds = true;
            }
            if (!holds)
                continue;
            bool backpressured = false;
            if (!starved) {
                for (int ch : node.out_channels) {
                    if (ch >= 0 && channels_[ch].size +
                                           channels_[ch].staged >=
                                       channels_[ch].capacity) {
                        backpressured = true;
                        break;
                    }
                }
            }
            if (starved || backpressured)
                prov_->onNodeBlocked(provNodeIndex(node), cycle_,
                                     starved, backpressured);
        }
    }

    void
    provEnd(std::size_t cycles)
    {
        if (prov_ != nullptr)
            prov_->endRun(cycles);
    }

    /** Declare one valid/ready/data signal triple per channel. */
    void
    setupVcd()
    {
        vcd_ = obs_->vcd();
        // A writer whose header is already frozen (a previous run on
        // the same scope) cannot take new signals.
        if (vcd_ == nullptr || vcd_->started()) {
            vcd_valid_.clear();
            if (vcd_ != nullptr && vcd_->numSignals() ==
                                       channels_.size() * 3) {
                // Same circuit, subsequent run: reuse the handles.
                for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
                    vcd_valid_.push_back(static_cast<int>(ch * 3));
                    vcd_ready_.push_back(static_cast<int>(ch * 3 + 1));
                    vcd_data_.push_back(static_cast<int>(ch * 3 + 2));
                }
            } else {
                vcd_ = nullptr;
            }
            return;
        }
        vcd_valid_.clear();
        vcd_ready_.clear();
        vcd_data_.clear();
        for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
            std::string base =
                "ch" + std::to_string(ch) + "_" + channel_desc_[ch];
            vcd_valid_.push_back(vcd_->wire(base + "_valid", 1));
            vcd_ready_.push_back(vcd_->wire(base + "_ready", 1));
            vcd_data_.push_back(vcd_->wire(base + "_data", 64));
        }
        vcd_->begin();
    }

    /** Fire event + the preceding idle gap as a stall span. */
    void
    observeFire(const SimNode& node, std::size_t cycle)
    {
        if (node.last_fire && cycle > *node.last_fire + 1)
            sink_->span(node.name, "stall",
                        static_cast<double>(*node.last_fire + 1),
                        static_cast<double>(cycle - *node.last_fire - 1));
        sink_->event(
            TraceEvent{cycle, node.name, -1, obs::EventKind::Fire, {}});
    }

    /** Per-cycle bookkeeping: local stats, occupancy tracks, VCD. */
    void
    observeCycle()
    {
        stat_fires_ += moves_;
        if (moves_ == 0)
            ++stat_stall_cycles_;
        std::size_t in_flight = 0;
        if (last_occupancy_.size() != channels_.size())
            last_occupancy_.assign(channels_.size(),
                                   static_cast<std::size_t>(-1));
        for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
            std::size_t occupancy = channels_[ch].size;
            in_flight += occupancy;
            if (sink_ != nullptr && occupancy != last_occupancy_[ch]) {
                sink_->counter("occupancy " + channel_desc_[ch],
                               static_cast<double>(cycle_),
                               static_cast<double>(occupancy));
                last_occupancy_[ch] = occupancy;
            }
            if (vcd_ != nullptr) {
                vcd_->sample(cycle_, vcd_valid_[ch], occupancy > 0);
                vcd_->sample(cycle_, vcd_ready_[ch],
                             occupancy < channels_[ch].capacity);
                if (occupancy > 0)
                    vcd_->sample(cycle_, vcd_data_[ch],
                                 vcdValueOf(channels_[ch].front()));
            }
        }
        max_in_flight_ = std::max(max_in_flight_, in_flight);
    }

    static std::uint64_t
    vcdValueOf(const Flat& token)
    {
        switch (token.kind) {
            case Payload::Bool:
            case Payload::Int: return token.bits;
            case Payload::Double:
                return static_cast<std::uint64_t>(
                    std::bit_cast<double>(token.bits));
            default: return 0;  // unit / tuple payloads carry no scalar
        }
    }

    /** Flush the batched per-run stats into the registry. */
    void
    finishObservation(std::size_t cycles)
    {
        obs::MetricsRegistry& m = obs_->metrics();
        m.add("sim.runs");
        m.add("sim.cycles", static_cast<std::int64_t>(cycles));
        m.add("sim.fires", static_cast<std::int64_t>(stat_fires_));
        m.add("sim.stall_cycles",
              static_cast<std::int64_t>(stat_stall_cycles_));
        m.add("sim.fault_holds",
              static_cast<std::int64_t>(stat_fault_holds_));
        m.add("sim.outputs", static_cast<std::int64_t>(stat_outputs_));
        m.setMax("sim.tokens_in_flight_max",
                 static_cast<double>(max_in_flight_));
        m.setMax("sim.pair_slots_max", static_cast<double>(pairs_.size()));
        m.set("sim.channels", static_cast<double>(channels_.size()));
        m.set("sim.nodes", static_cast<double>(nodes_.size()));
    }

    static constexpr std::size_t kNoNode =
        static_cast<std::size_t>(-1);

    Simulator& owner_;
    std::vector<SimNode> nodes_;
    std::vector<Channel> channels_;
    std::vector<std::string> channel_desc_;
    /** Ready-worklist wake sets for this and the next cycle: bit i of
     * word i / 64 is node i. */
    std::vector<std::uint64_t> awake_;
    std::vector<std::uint64_t> next_awake_;
    /** Index of the node currently stepping (kNoNode outside the
     * sweep); decides same-cycle vs next-cycle wakes in pop(). */
    std::size_t stepping_ = kNoNode;
    /** This cycle's pushes, in push order (see commitStaged). */
    std::vector<std::pair<int, Flat>> staged_;
    /** Per-firing scratch: input head tokens. */
    std::vector<const Flat*> heads_;
    /** The pair arena (slots only grow when none is free, so its size
     * is the peak number of live pairs) and the box table. */
    struct PairSlot
    {
        Flat head;
        Flat tail;
        std::uint32_t refs = 0;
    };
    struct BoxSlot
    {
        Value value;
        std::uint32_t refs = 0;
    };
    std::vector<PairSlot> pairs_;
    std::vector<std::uint32_t> free_pairs_;
    std::vector<BoxSlot> boxes_;
    std::vector<std::uint32_t> free_boxes_;
    std::vector<int> input_channels_;
    std::vector<int> output_channels_;
    /** The graph inputs, flattened once per run. */
    std::vector<std::vector<Flat>> input_streams_;
    std::vector<std::size_t> input_pos_;
    std::map<std::string, std::vector<double>> memories_;
    FaultInjector* faults_ = nullptr;
    obs::Scope* obs_ = nullptr;
    obs::TraceSink* sink_ = nullptr;
    obs::ProvenanceTracker* prov_ = nullptr;
    obs::VcdWriter* vcd_ = nullptr;
    std::vector<int> vcd_valid_;
    std::vector<int> vcd_ready_;
    std::vector<int> vcd_data_;
    std::vector<std::size_t> last_occupancy_;
    std::size_t stat_fires_ = 0;
    std::size_t stat_stall_cycles_ = 0;
    std::size_t stat_fault_holds_ = 0;
    std::size_t stat_outputs_ = 0;
    std::size_t max_in_flight_ = 0;
    std::size_t moves_ = 0;
    bool pipeline_busy_ = false;
    bool fault_hold_ = false;
    bool output_moved_ = false;
    std::size_t cycle_ = 0;
    std::vector<TraceEvent>* trace_ = nullptr;
};

Result<Simulator>
Simulator::build(const ExprHigh& graph,
                 std::shared_ptr<FnRegistry> functions,
                 const SimConfig& config)
{
    Result<bool> valid = graph.validate();
    if (!valid.ok())
        return valid.error().context("Simulator::build");
    Simulator s;
    s.graph_ = graph;
    s.functions_ = std::move(functions);
    s.config_ = config;
    return s;
}

void
Simulator::setMemory(const std::string& name, std::vector<double> data)
{
    memories_[name] = std::move(data);
}

Result<SimResult>
Simulator::run(const std::vector<std::vector<Token>>& inputs,
               std::size_t expected_outputs, bool serial_io)
{
    diagnosis_.reset();
    Impl impl(*this);
    return impl.run(inputs, expected_outputs, serial_io);
}

std::size_t
Simulator::channelCount(const ExprHigh& graph)
{
    std::size_t count = graph.edges().size();
    for (const auto& input : graph.inputs())
        count += input.has_value();
    for (const auto& output : graph.outputs())
        count += output.has_value();
    return count;
}

}  // namespace graphiti::sim

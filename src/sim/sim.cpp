#include "sim/sim.hpp"

#include <algorithm>
#include <sstream>

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

/** Component model dispatched by the per-cycle step (the string
 * `type` is kept for diagnostics only). */
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

NodeKind
kindOf(const std::string& type)
{
    if (type == "fork") return NodeKind::Fork;
    if (type == "join") return NodeKind::Join;
    if (type == "split") return NodeKind::Split;
    if (type == "mux") return NodeKind::Mux;
    if (type == "merge") return NodeKind::Merge;
    if (type == "branch") return NodeKind::Branch;
    if (type == "init") return NodeKind::Init;
    if (type == "buffer") return NodeKind::Buffer;
    if (type == "sink") return NodeKind::Sink;
    if (type == "source") return NodeKind::Source;
    if (type == "constant") return NodeKind::Constant;
    if (type == "operator") return NodeKind::Operator;
    if (type == "pure") return NodeKind::Pure;
    if (type == "load") return NodeKind::Load;
    if (type == "store") return NodeKind::Store;
    if (type == "tagger") return NodeKind::Tagger;
    return NodeKind::Unknown;
}

/** Per-node mutable simulation state. */
struct SimNode
{
    std::string name;
    std::string type;
    NodeKind kind = NodeKind::Unknown;
    AttrMap attrs;
    std::vector<int> in_channels;   // -1 when dangling
    std::vector<int> out_channels;  // -1 when dangling

    /** Cycle of the node's last token movement. */
    std::optional<std::size_t> last_fire;

    // Generic unit state.
    bool init_done = false;

    // Pipelined units: (cycles remaining, result).
    std::deque<std::pair<int, Token>> pipeline;
    std::deque<Token> completion;
    int latency = 0;

    // Tagger state. Returned tokens are indexed by tag — tags are
    // allocated modulo num_tags, so the reorder buffer is a flat
    // vector, not a map.
    int num_tags = 0;
    std::int64_t next_alloc = 0;
    std::int64_t next_commit = 0;
    std::vector<std::optional<Token>> returned;
    std::size_t returned_count = 0;

    // Resolved pure function.
    const PureFn* fn = nullptr;
};

bool
tagsAgree(const std::vector<const Token*>& tokens,
          std::optional<Tag>& common)
{
    common.reset();
    for (const Token* t : tokens) {
        if (!t->tag)
            continue;
        if (common && *common != *t->tag)
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
        Result<bool> built = build();
        if (!built.ok())
            return built.error();
        memories_ = owner_.memories_;
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

        input_streams_ = inputs;
        input_pos_.assign(inputs.size(), 0);

        SimResult result;
        result.outputs.resize(output_channels_.size());

        // Ready-worklist schedule: only nodes adjacent to a channel
        // that changed last cycle (or with in-flight pipeline state)
        // are stepped, in node-index order so traces and obs events
        // are identical to the full sweep. Fault hooks may flip a
        // channel's valid/ready without any token movement, so fault
        // runs fall back to stepping everything.
        const bool worklist =
            faults_ == nullptr && !owner_.config_.full_sweep;
        awake_.assign(nodes_.size(), 1);
        next_awake_.assign(nodes_.size(), 0);

        std::size_t last_progress = 0;
        std::size_t last_output = 0;
        for (std::size_t cycle = 0; cycle < owner_.config_.max_cycles;
             ++cycle) {
            if (owner_.config_.stop.stopRequested())
                return err("simulation cancelled at cycle " +
                           std::to_string(cycle) + ": " +
                           owner_.config_.stop.reason());
            moves_ = 0;
            pipeline_busy_ = false;
            fault_hold_ = false;
            output_moved_ = false;
            cycle_ = cycle;
            trace_ = &result.trace;

            feedInputs(result, serial_io);
            for (std::size_t i = 0; i < nodes_.size(); ++i) {
                if (worklist && !awake_[i])
                    continue;
                stepping_ = i;
                SimNode& node = nodes_[i];
                std::size_t before = moves_;
                Result<bool> fired = step(node);
                if (!fired.ok())
                    return fired.error().context(
                        "cycle " + std::to_string(cycle) + ", node " +
                        node.name);
                if (moves_ > before) {
                    if (sink_ != nullptr)
                        observeFire(node, cycle);
                    node.last_fire = cycle;
                    next_awake_[i] = 1;  // internal state advanced
                }
                // Pipelined units must tick every cycle while tokens
                // are in flight or waiting on output space.
                if (!node.pipeline.empty() || !node.completion.empty())
                    next_awake_[i] = 1;
            }
            stepping_ = kNoNode;
            provBlocked();
            collectOutputs(result);
            commitStaged();
            awake_.swap(next_awake_);
            std::fill(next_awake_.begin(), next_awake_.end(),
                      std::uint8_t{0});
            if (obs_ != nullptr)
                observeCycle();

            if (done(result, expected_outputs)) {
                result.cycles = cycle + 1;
                Result<bool> drained = drain(cycle + 1);
                if (!drained.ok())
                    return drained.error();
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
            if (cycle - last_progress > owner_.config_.stall_window) {
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
     * Post-output settling phase. The final output token can race
     * side effects on parallel fork branches (matvec's store of
     * result[i] vs. the result token), so final memory read at the
     * instant of the last output is not a timing-invariant
     * observable. Keep stepping — without collecting outputs, so
     * perpetual producers backpressure themselves quiet — until the
     * circuit quiesces or a bound past any fault horizon expires.
     */
    Result<bool>
    drain(std::size_t start_cycle)
    {
        std::size_t horizon = faults_ ? faults_->horizon() : 0;
        std::size_t limit = std::max(start_cycle, horizon) +
                            owner_.config_.drain_limit;
        for (std::size_t cycle = start_cycle; cycle < limit; ++cycle) {
            if (owner_.config_.stop.stopRequested())
                return err("simulation cancelled during drain: " +
                           owner_.config_.stop.reason());
            moves_ = 0;
            pipeline_busy_ = false;
            fault_hold_ = false;
            cycle_ = cycle;
            for (SimNode& node : nodes_) {
                std::size_t before = moves_;
                Result<bool> fired = step(node);
                if (!fired.ok())
                    return fired.error().context(
                        "drain cycle " + std::to_string(cycle) +
                        ", node " + node.name);
                if (moves_ > before)
                    node.last_fire = cycle;
            }
            commitStaged();
            if (moves_ == 0 && !pipeline_busy_ && !fault_hold_)
                break;
        }
        return true;
    }

    Result<bool>
    build()
    {
        const ExprHigh& g = owner_.graph_;
        // Name lookup: a sorted flat vector binary-searched per edge
        // endpoint. The graph was validated, so every endpoint
        // resolves.
        std::vector<std::pair<std::string, std::size_t>> node_index;
        node_index.reserve(g.nodes().size());

        for (const NodeDecl& decl : g.nodes()) {
            Result<Signature> sig = signatureOf(decl.type, decl.attrs);
            if (!sig.ok())
                return sig.error().context("sim build: " + decl.name);
            SimNode node;
            node.name = decl.name;
            node.type = decl.type;
            node.kind = kindOf(decl.type);
            node.attrs = decl.attrs;
            node.in_channels.assign(sig.value().inputs.size(), -1);
            node.out_channels.assign(sig.value().outputs.size(), -1);
            if (node.kind == NodeKind::Operator) {
                node.latency = attrInt(
                    decl.attrs, "latency",
                    operatorLatency(attrStr(decl.attrs, "op", "")));
            } else if (node.kind == NodeKind::Load) {
                node.latency = attrInt(decl.attrs, "latency",
                                       owner_.config_.load_latency);
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

        auto port_number = [](const std::string& port) {
            return std::stoi(port.substr(port.find_first_of("0123456789")));
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
            channels_.push_back(Channel{{}, capacity});
            channel_desc_.push_back(std::move(description));
            channel_producer_.push_back(-1);
            channel_consumer_.push_back(-1);
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
            std::size_t src = find_node(e.src.inst);
            std::size_t dst = find_node(e.dst.inst);
            nodes_[src].out_channels[port_number(e.src.port)] = ch;
            nodes_[dst].in_channels[port_number(e.dst.port)] = ch;
            channel_producer_[ch] = static_cast<int>(src);
            channel_consumer_[ch] = static_cast<int>(dst);
        }
        for (std::size_t i = 0; i < g.inputs().size(); ++i) {
            if (!g.inputs()[i])
                continue;
            int ch = add_channel(owner_.config_.channel_slots, true,
                                 "input#" + std::to_string(i) + " -> " +
                                     g.inputs()[i]->inst + "." +
                                     g.inputs()[i]->port);
            std::size_t dst = find_node(g.inputs()[i]->inst);
            nodes_[dst].in_channels[port_number(g.inputs()[i]->port)] =
                ch;
            channel_consumer_[ch] = static_cast<int>(dst);
            input_channels_.push_back(ch);
        }
        for (std::size_t i = 0; i < g.outputs().size(); ++i) {
            if (!g.outputs()[i])
                continue;
            int ch = add_channel(1u << 30, true,
                                 g.outputs()[i]->inst + "." +
                                     g.outputs()[i]->port + " -> output#" +
                                     std::to_string(i));
            std::size_t src = find_node(g.outputs()[i]->inst);
            nodes_[src].out_channels[port_number(g.outputs()[i]->port)] =
                ch;
            channel_producer_[ch] = static_cast<int>(src);
            output_channels_.push_back(ch);
        }
        staged_.assign(channels_.size(), {});
        return true;
    }

    bool
    hasToken(int ch)
    {
        if (ch < 0 || channels_[ch].empty())
            return false;
        if (faults_ != nullptr &&
            faults_->dropValid(static_cast<std::size_t>(ch), cycle_)) {
            fault_hold_ = true;  // a consumable token was hidden
            if (obs_ != nullptr)
                observeFault(ch, "drop-valid");
            return false;
        }
        return true;
    }

    const Token&
    peek(int ch) const
    {
        return channels_[ch].slots.front();
    }

    Token
    pop(int ch)
    {
        Token t = channels_[ch].slots.front();
        channels_[ch].slots.pop_front();
        ++moves_;
        // The producer gained space. The sequential sweep makes a pop
        // visible to later-indexed nodes within the same cycle, so a
        // producer not yet stepped wakes now; otherwise next cycle.
        int p = channel_producer_[ch];
        if (p >= 0) {
            if (static_cast<std::size_t>(p) > stepping_)
                awake_[p] = 1;
            else
                next_awake_[p] = 1;
        }
        return t;
    }

    bool
    hasSpace(int ch)
    {
        if (ch < 0)
            return true;  // dangling outputs drop tokens
        if (channels_[ch].slots.size() + staged_[ch].size() >=
            channels_[ch].capacity)
            return false;
        if (faults_ != nullptr &&
            faults_->dropReady(static_cast<std::size_t>(ch), cycle_)) {
            fault_hold_ = true;  // available space was refused
            if (obs_ != nullptr)
                observeFault(ch, "drop-ready");
            return false;
        }
        return true;
    }

    void
    push(int ch, Token t)
    {
        if (ch < 0)
            return;
        staged_[ch].push_back(std::move(t));
        ++moves_;
        // Staged tokens become visible at commitStaged, so the
        // consumer can first use this one next cycle.
        int c = channel_consumer_[ch];
        if (c >= 0)
            next_awake_[c] = 1;
    }

    void
    commitStaged()
    {
        for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
            for (Token& t : staged_[ch])
                channels_[ch].slots.push_back(std::move(t));
            staged_[ch].clear();
        }
    }

    void
    trace(const SimNode& node, const std::string& detail,
          obs::EventKind kind = obs::EventKind::Fire)
    {
        for (const std::string& wanted : owner_.config_.trace_nodes)
            if (wanted == node.name)
                trace_->push_back(
                    TraceEvent{cycle_, node.name, -1, kind, detail});
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
                provInput(static_cast<int>(i), ch);
            }
        }
    }

    void
    collectOutputs(SimResult& result)
    {
        for (std::size_t i = 0; i < output_channels_.size(); ++i) {
            Channel& ch = channels_[output_channels_[i]];
            while (!ch.empty()) {
                if (obs_ != nullptr) {
                    ++stat_outputs_;
                    if (sink_ != nullptr)
                        sink_->event(TraceEvent{
                            cycle_, "output#" + std::to_string(i),
                            output_channels_[i],
                            obs::EventKind::Output,
                            ch.slots.front().toString()});
                }
                result.outputs[i].push_back(ch.slots.front());
                ch.slots.pop_front();
                provOutput(static_cast<int>(i), output_channels_[i]);
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
            d.occupied_channels.push_back(
                ChannelStatus{channel_desc_[ch],
                              channels_[ch].slots.size(),
                              channels_[ch].capacity});
        }
        for (const SimNode& node : nodes_) {
            BlockedNode b;
            b.name = node.name;
            b.type = node.type;
            b.last_fire = node.last_fire;
            b.held_tokens = node.pipeline.size() +
                            node.completion.size() +
                            node.returned_count;
            for (int ch : node.in_channels)
                if (ch >= 0)
                    b.held_tokens += channels_[ch].slots.size();
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
                if (ch >= 0 && channels_[ch].slots.size() >=
                                   channels_[ch].capacity)
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

    /** Advance pipelined units and drain completions. */
    void
    advancePipeline(SimNode& node)
    {
        if (!node.pipeline.empty())
            pipeline_busy_ = true;  // in-flight computation is progress
        for (auto& [remaining, token] : node.pipeline)
            if (remaining > 0)
                --remaining;
        while (!node.pipeline.empty() &&
               node.pipeline.front().first == 0) {
            node.completion.push_back(
                std::move(node.pipeline.front().second));
            node.pipeline.pop_front();
            ++moves_;
        }
        while (!node.completion.empty() &&
               hasSpace(node.out_channels[0])) {
            push(node.out_channels[0],
                 std::move(node.completion.front()));
            node.completion.pop_front();
            provEmit(node);
            trace(node, "emit", obs::EventKind::Emit);
        }
    }

    Result<bool>
    step(SimNode& node)
    {
        if (node.kind == NodeKind::Fork) {
            if (!hasToken(node.in_channels[0]))
                return true;
            for (int ch : node.out_channels)
                if (!hasSpace(ch))
                    return true;
            Token t = pop(node.in_channels[0]);
            for (int ch : node.out_channels)
                push(ch, t);
            provFire(node, node.in_channels.data(), 1,
                     node.out_channels.data(),
                     node.out_channels.size());
            trace(node, "fire " + t.toString());
            return true;
        }
        if (node.kind == NodeKind::Join) {
            if (!hasSpace(node.out_channels[0]))
                return true;
            std::vector<const Token*> heads;
            for (int ch : node.in_channels) {
                if (!hasToken(ch))
                    return true;
                heads.push_back(&peek(ch));
            }
            std::optional<Tag> tag;
            if (!tagsAgree(heads, tag))
                return err("tag mismatch at join (tokens from "
                           "different iterations met)");
            Value v = heads.back()->value;
            for (std::size_t i = heads.size() - 1; i-- > 0;)
                v = Value::tuple(heads[i]->value, std::move(v));
            for (int ch : node.in_channels)
                pop(ch);
            Token out(std::move(v));
            out.tag = tag;
            push(node.out_channels[0], std::move(out));
            provFire(node, node.in_channels.data(),
                     node.in_channels.size(), node.out_channels.data(),
                     1);
            trace(node, "fire");
            return true;
        }
        if (node.kind == NodeKind::Split) {
            if (!hasToken(node.in_channels[0]) ||
                !hasSpace(node.out_channels[0]) ||
                !hasSpace(node.out_channels[1]))
                return true;
            Token t = pop(node.in_channels[0]);
            if (!t.value.isTuple() || t.value.asTuple().size() != 2)
                return err("split received a non-pair token " +
                           t.toString());
            Token left(t.value.asTuple()[0]);
            Token right(t.value.asTuple()[1]);
            left.tag = t.tag;
            right.tag = t.tag;
            push(node.out_channels[0], std::move(left));
            push(node.out_channels[1], std::move(right));
            provFire(node, node.in_channels.data(), 1,
                     node.out_channels.data(), 2);
            trace(node, "fire");
            return true;
        }
        if (node.kind == NodeKind::Mux) {
            if (!hasToken(node.in_channels[0]) ||
                !hasSpace(node.out_channels[0]))
                return true;
            bool sel = peek(node.in_channels[0]).value.asBool();
            int data_ch = node.in_channels[sel ? 1 : 2];
            if (!hasToken(data_ch))
                return true;
            pop(node.in_channels[0]);
            Token t = pop(data_ch);
            trace(node, std::string("fire ") + (sel ? "loop" : "entry"));
            push(node.out_channels[0], std::move(t));
            const int mux_ins[2] = {node.in_channels[0], data_ch};
            provFire(node, mux_ins, 2, node.out_channels.data(), 1);
            return true;
        }
        if (node.kind == NodeKind::Merge) {
            if (!hasSpace(node.out_channels[0]))
                return true;
            // Loopback (in0) has priority so in-flight iterations keep
            // draining; fresh tokens enter when the loop path is idle.
            for (int port : {0, 1}) {
                if (hasToken(node.in_channels[port])) {
                    Token t = pop(node.in_channels[port]);
                    trace(node, std::string("fire ") +
                                    (port == 0 ? "loop" : "entry") +
                                    " " + t.toString());
                    push(node.out_channels[0], std::move(t));
                    provFire(node, &node.in_channels[port], 1,
                             node.out_channels.data(), 1);
                    return true;
                }
            }
            return true;
        }
        if (node.kind == NodeKind::Branch) {
            if (!hasToken(node.in_channels[0]) ||
                !hasToken(node.in_channels[1]))
                return true;
            const Token& data = peek(node.in_channels[0]);
            const Token& cond = peek(node.in_channels[1]);
            std::optional<Tag> tag;
            if (!tagsAgree({&data, &cond}, tag))
                return err("tag mismatch at branch");
            int out = cond.value.asBool() ? 0 : 1;
            if (!hasSpace(node.out_channels[out]))
                return true;
            Token t = pop(node.in_channels[0]);
            pop(node.in_channels[1]);
            t.tag = tag;
            trace(node, out == 0 ? "loop" : "exit");
            push(node.out_channels[out], std::move(t));
            provFire(node, node.in_channels.data(), 2,
                     &node.out_channels[out], 1);
            return true;
        }
        if (node.kind == NodeKind::Init) {
            if (!hasSpace(node.out_channels[0]))
                return true;
            if (!node.init_done) {
                node.init_done = true;
                push(node.out_channels[0],
                     Token(Value(attrStr(node.attrs, "value", "false") ==
                                 "true")));
                provSpawn(node, node.out_channels[0]);
                trace(node, "initial");
                return true;
            }
            if (hasToken(node.in_channels[0])) {
                push(node.out_channels[0], pop(node.in_channels[0]));
                provFire(node, node.in_channels.data(), 1,
                         node.out_channels.data(), 1);
            }
            return true;
        }
        if (node.kind == NodeKind::Buffer) {
            if (hasToken(node.in_channels[0]) &&
                hasSpace(node.out_channels[0])) {
                push(node.out_channels[0], pop(node.in_channels[0]));
                provFire(node, node.in_channels.data(), 1,
                         node.out_channels.data(), 1);
            }
            return true;
        }
        if (node.kind == NodeKind::Sink) {
            if (hasToken(node.in_channels[0])) {
                pop(node.in_channels[0]);
                provFire(node, node.in_channels.data(), 1, nullptr, 0);
            }
            return true;
        }
        if (node.kind == NodeKind::Source) {
            if (hasSpace(node.out_channels[0])) {
                push(node.out_channels[0], Token(Value()));
                provSpawn(node, node.out_channels[0]);
            }
            return true;
        }
        if (node.kind == NodeKind::Constant) {
            if (!hasToken(node.in_channels[0]) ||
                !hasSpace(node.out_channels[0]))
                return true;
            Token trigger = pop(node.in_channels[0]);
            Result<Value> v =
                parseConstantValue(attrStr(node.attrs, "value", "0"));
            if (!v.ok())
                return v.error();
            Token out(v.take());
            out.tag = trigger.tag;
            push(node.out_channels[0], std::move(out));
            provFire(node, node.in_channels.data(), 1,
                     node.out_channels.data(), 1);
            return true;
        }
        if (node.kind == NodeKind::Operator ||
            node.kind == NodeKind::Pure ||
            node.kind == NodeKind::Load) {
            advancePipeline(node);
            // Accept at most one new token set per cycle (II = 1).
            std::vector<const Token*> heads;
            for (int ch : node.in_channels) {
                if (!hasToken(ch))
                    return true;
                heads.push_back(&peek(ch));
            }
            std::optional<Tag> tag;
            if (!tagsAgree(heads, tag))
                return err("tag mismatch at " + node.type);
            Token result;
            if (node.kind == NodeKind::Operator) {
                std::vector<Value> args;
                for (const Token* t : heads)
                    args.push_back(t->value);
                Result<Value> v = evalOperator(
                    attrStr(node.attrs, "op", ""), args);
                if (!v.ok())
                    return v.error();
                result.value = v.take();
            } else if (node.kind == NodeKind::Pure) {
                result.value = (*node.fn)(heads[0]->value);
            } else {  // load
                std::string mem = attrStr(node.attrs, "memory", "mem");
                auto it = memories_.find(mem);
                if (it == memories_.end())
                    return err("load from unknown memory " + mem);
                std::int64_t addr = heads[0]->value.asInt();
                if (addr < 0 ||
                    addr >= static_cast<std::int64_t>(it->second.size()))
                    return err("load out of bounds: " + mem + "[" +
                               std::to_string(addr) + "]");
                result.value = Value(it->second[addr]);
            }
            result.tag = tag;
            for (int ch : node.in_channels)
                pop(ch);
            int latency = std::max(1, node.latency);
            if (faults_ != nullptr)
                latency += std::max(
                    0, faults_->latencyJitter(node.name, cycle_));
            node.pipeline.emplace_back(latency, std::move(result));
            provAccept(node, latency);
            trace(node, "accept");
            return true;
        }
        if (node.kind == NodeKind::Store) {
            if (!hasToken(node.in_channels[0]) ||
                !hasToken(node.in_channels[1]) ||
                !hasSpace(node.out_channels[0]))
                return true;
            const Token& addr_tok = peek(node.in_channels[0]);
            const Token& data_tok = peek(node.in_channels[1]);
            std::optional<Tag> tag;
            if (!tagsAgree({&addr_tok, &data_tok}, tag))
                return err("tag mismatch at store");
            std::string mem = attrStr(node.attrs, "memory", "mem");
            auto it = memories_.find(mem);
            if (it == memories_.end())
                return err("store to unknown memory " + mem);
            std::int64_t addr = addr_tok.value.asInt();
            if (addr < 0 ||
                addr >= static_cast<std::int64_t>(it->second.size()))
                return err("store out of bounds: " + mem + "[" +
                           std::to_string(addr) + "]");
            it->second[addr] = data_tok.value.toDouble();
            pop(node.in_channels[0]);
            pop(node.in_channels[1]);
            Token done{Value(addr)};
            done.tag = tag;
            push(node.out_channels[0], std::move(done));
            provFire(node, node.in_channels.data(), 2,
                     node.out_channels.data(), 1);
            trace(node, "store");
            return true;
        }
        if (node.kind == NodeKind::Tagger) {
            // Allocate a tag for the oldest fresh token.
            if (hasToken(node.in_channels[0]) &&
                hasSpace(node.out_channels[0]) &&
                node.next_alloc - node.next_commit < node.num_tags) {
                Token t = pop(node.in_channels[0]);
                t.tag = static_cast<Tag>(node.next_alloc %
                                         node.num_tags);
                const std::int64_t alloc_idx = node.next_alloc;
                node.next_alloc += 1;
                trace(node, "tag " + t.toString());
                push(node.out_channels[0], std::move(t));
                provTagAlloc(node, alloc_idx);
            }
            // Accept a returning token.
            if (hasToken(node.in_channels[1])) {
                Token t = pop(node.in_channels[1]);
                if (!t.tag)
                    return err("untagged token returned to tagger");
                provTagReturn(node, *t.tag);
                std::size_t slot = *t.tag;
                if (slot >= node.returned.size())
                    node.returned.resize(slot + 1);
                if (!node.returned[slot]) {
                    node.returned[slot] = std::move(t);
                    ++node.returned_count;
                }
            }
            // Commit the oldest outstanding tag in program order.
            if (node.next_commit < node.next_alloc &&
                hasSpace(node.out_channels[1])) {
                std::size_t wanted = static_cast<std::size_t>(
                    node.next_commit % node.num_tags);
                if (wanted < node.returned.size() &&
                    node.returned[wanted]) {
                    Token out = std::move(*node.returned[wanted]);
                    out.tag.reset();
                    node.returned[wanted].reset();
                    --node.returned_count;
                    const std::int64_t commit_idx = node.next_commit;
                    node.next_commit += 1;
                    trace(node, "untag " + out.toString());
                    push(node.out_channels[1], std::move(out));
                    provTagCommit(node, commit_idx);
                }
            }
            return true;
        }
        return err("simulator has no model for component type '" +
                   node.type + "'");
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
    provInput(int port, int channel)
    {
        if (prov_ != nullptr)
            prov_->onBirth(channel, port, cycle_);
    }

    void
    provOutput(int port, int channel)
    {
        if (prov_ != nullptr)
            prov_->onOutput(port, channel, cycle_);
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
                    if (ch >= 0 && channels_[ch].slots.size() +
                                           staged_[ch].size() >=
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

    static Result<Value>
    parseConstantValue(const std::string& text)
    {
        return parseConstant(text);
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

    void
    observeFault(int channel, const char* what)
    {
        ++stat_fault_holds_;
        if (sink_ != nullptr)
            sink_->event(TraceEvent{cycle_, channel_desc_[channel],
                                    channel, obs::EventKind::Fault,
                                    what});
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
            std::size_t occupancy = channels_[ch].slots.size();
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
                                 vcdValueOf(channels_[ch].slots.front()));
            }
        }
        max_in_flight_ = std::max(max_in_flight_, in_flight);
    }

    static std::uint64_t
    vcdValueOf(const Token& token)
    {
        const Value& v = token.value;
        if (v.isBool())
            return v.asBool() ? 1 : 0;
        if (v.isInt())
            return static_cast<std::uint64_t>(v.asInt());
        if (v.isDouble())
            return static_cast<std::uint64_t>(v.asDouble());
        return 0;  // unit / tuple payloads carry no scalar
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
        m.set("sim.channels", static_cast<double>(channels_.size()));
        m.set("sim.nodes", static_cast<double>(nodes_.size()));
    }

    static constexpr std::size_t kNoNode =
        static_cast<std::size_t>(-1);

    Simulator& owner_;
    std::vector<SimNode> nodes_;
    std::vector<Channel> channels_;
    std::vector<std::string> channel_desc_;
    /** Node producing / consuming each channel (-1 = graph I/O). */
    std::vector<int> channel_producer_;
    std::vector<int> channel_consumer_;
    /** Ready-worklist wake flags for this and the next cycle. */
    std::vector<std::uint8_t> awake_;
    std::vector<std::uint8_t> next_awake_;
    /** Index of the node currently stepping (kNoNode outside the
     * sweep); decides same-cycle vs next-cycle wakes in pop(). */
    std::size_t stepping_ = kNoNode;
    std::vector<std::deque<Token>> staged_;
    std::vector<int> input_channels_;
    std::vector<int> output_channels_;
    std::vector<std::vector<Token>> input_streams_;
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

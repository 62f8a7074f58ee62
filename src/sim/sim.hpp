#ifndef GRAPHITI_SIM_SIM_HPP
#define GRAPHITI_SIM_SIM_HPP

/**
 * @file
 * Cycle-accurate simulator for latency-insensitive dataflow circuits.
 *
 * This is the ModelSim substitute of the evaluation flow: it executes
 * an ExprHigh circuit at the handshake level and reports the cycle
 * count that determines the execution-time columns of table 2.
 *
 * Timing model:
 *  - every edge is an elastic channel with a fixed number of buffer
 *    slots; a producer stalls when the channel is full;
 *  - handshake components (fork, join, mux, merge, branch, split,
 *    init, constant, sink, tagger) fire at most once per cycle and
 *    their token traversal costs one cycle;
 *  - operators, loads and pure bodies are fully pipelined units with
 *    initiation interval 1 and a per-op latency (operatorLatency or
 *    the node's `latency` attribute);
 *  - stores commit to memory when both operands are available.
 *
 * Tagged execution: tokens carry the Tagger's reorder tags; since all
 * body paths originate at the single loop Merge and channels are
 * FIFO, matching input tokens always carry equal tags — the simulator
 * checks this invariant and reports a hard error on violation.
 *
 * Fault injection: a FaultInjector installed in SimConfig is consulted
 * every cycle and may suppress a channel's valid signal (stall burst),
 * suppress its ready signal (backpressure), stretch an operator's
 * latency (jitter) or shrink a channel's slot count (squeeze). The
 * latency-insensitivity theorems of the paper promise that none of
 * these change the output token sequences; src/faults builds seeded
 * plans on top of these hooks to test exactly that.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/expr_high.hpp"
#include "obs/scope.hpp"
#include "semantics/functions.hpp"
#include "support/cancel.hpp"
#include "support/result.hpp"
#include "support/token.hpp"

namespace graphiti::sim {

/**
 * Injection hooks consulted by the simulator.
 *
 * Channels are numbered in construction order: one per graph edge (in
 * edge order), then one per bound graph input, then one per bound
 * graph output — so a plan keyed by channel index is reproducible for
 * a fixed graph.
 *
 * All faults must be silent at and after horizon(): the watchdog
 * treats a fault that blocks an otherwise-possible move as progress,
 * so an unbounded fault schedule could mask a real deadlock.
 */
class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;

    /** Extra latency cycles for a token accepted by @p node now. */
    virtual int
    latencyJitter(const std::string& node, std::size_t cycle)
    {
        (void)node;
        (void)cycle;
        return 0;
    }

    /** Suppress the valid signal of @p channel this cycle (the head
     * token, if any, is invisible to its consumer). */
    virtual bool
    dropValid(std::size_t channel, std::size_t cycle)
    {
        (void)channel;
        (void)cycle;
        return false;
    }

    /** Suppress the ready signal of @p channel this cycle (producers
     * see it as full). */
    virtual bool
    dropReady(std::size_t channel, std::size_t cycle)
    {
        (void)channel;
        (void)cycle;
        return false;
    }

    /**
     * Adjust the slot count of @p channel once, at build time.
     * @p pinned channels were sized by buffer placement for
     * deadlock-freedom (tagged regions) or are graph I/O; squeezing
     * them below @p base changes the circuit, not just its timing.
     */
    virtual std::size_t
    adjustCapacity(std::size_t channel, std::size_t base, bool pinned)
    {
        (void)channel;
        (void)pinned;
        return base;
    }

    /** First cycle from which every hook is guaranteed quiescent. */
    virtual std::size_t horizon() const { return 0; }
};

/** Simulator configuration. */
struct SimConfig
{
    /** Buffer slots per channel (Dynamatic places at least one
     * transparent + one opaque slot on most edges). */
    std::size_t channel_slots = 2;
    /** Cycle limit before the run is declared hung. */
    std::size_t max_cycles = 10'000'000;
    /** Load unit latency in cycles. */
    int load_latency = 2;
    /** Record per-cycle firing events of these nodes (figure 2d/2e
     * traces). */
    std::vector<std::string> trace_nodes;
    /** Optional fault-injection hooks (see FaultInjector). */
    std::shared_ptr<FaultInjector> faults;
    /**
     * Observability scope: run metrics, per-node fire/stall events on
     * the scope's trace sink, channel valid/ready/data waveforms on
     * its VCD writer. Falls back to obs::current() when unset.
     */
    std::shared_ptr<obs::Scope> obs;
    /** Watchdog: cycles without any token movement or in-flight
     * computation before the run is declared deadlocked. */
    std::size_t stall_window = 4;
    /** Watchdog: cycles without output progress (while internal
     * activity continues) before the run is declared livelocked. */
    std::size_t livelock_window = 200'000;
    /**
     * Cooperative cancellation: polled once per simulated cycle (and
     * during the drain); a fired token aborts the run with a
     * structured "cancelled" error instead of running to max_cycles.
     */
    StopToken stop;
    /** Post-output drain: extra cycles allowed (past the last output
     * and past any fault horizon) for in-flight side effects — e.g. a
     * store racing the final output token — to land before final
     * memories are read. Drain stops early once the circuit
     * quiesces; it is not counted in SimResult::cycles. */
    std::size_t drain_limit = 4096;
    /**
     * Validation knob: step every node every cycle instead of only
     * the ready worklist (nodes adjacent to a channel that changed
     * last cycle). Fault injection forces the full sweep internally;
     * cycle counts, outputs and traces are identical either way
     * (asserted by tests/test_parallel.cpp).
     */
    bool full_sweep = false;
};

/** Watchdog verdict for a run that stopped making progress. */
enum class StuckKind
{
    Deadlock,      ///< no token can move, ever
    Livelock,      ///< tokens keep moving but outputs never advance
    SlowProgress,  ///< outputs advance, but the cycle limit was hit
};

const char* toString(StuckKind kind);

/** Snapshot of one stuck (or suspect) channel. */
struct ChannelStatus
{
    std::string description;  ///< "a.out0 -> b.in1", "input#0", ...
    std::size_t occupancy = 0;
    std::size_t capacity = 0;
};

/** One node of the blocked wavefront: holds or awaits tokens but
 * could not fire. */
struct BlockedNode
{
    std::string name;
    std::string type;
    /** Why it could not fire: "in1 empty", "out0 full", ... */
    std::vector<std::string> waiting_on;
    /** Tokens held in input channels, pipeline and completion. */
    std::size_t held_tokens = 0;
    /** Cycle of the node's last token movement, if it ever fired. */
    std::optional<std::size_t> last_fire;
};

/**
 * Stuck-state diagnosis produced by the watchdog: what kind of
 * no-progress situation was detected and where the tokens are.
 */
struct StuckDiagnosis
{
    StuckKind kind = StuckKind::Deadlock;
    std::size_t cycle = 0;
    std::size_t last_progress_cycle = 0;
    std::size_t last_output_cycle = 0;
    std::vector<std::size_t> outputs_collected;
    std::size_t expected_outputs = 0;
    std::vector<ChannelStatus> occupied_channels;
    std::vector<BlockedNode> blocked;

    /** The shared rendering used by simulator errors and reports. */
    std::string toString() const;
};

/**
 * One recorded event, for execution traces. The schema (cycle, node,
 * channel, kind, detail) is obs::TraceRecord — the same struct every
 * obs::TraceSink backend consumes, so SimResult::trace and exported
 * trace files can never drift apart.
 */
using TraceEvent = obs::TraceRecord;

/** Result of a simulation run. */
struct SimResult
{
    std::size_t cycles = 0;
    /** Tokens collected at each graph output, in arrival order. */
    std::vector<std::vector<Token>> outputs;
    std::vector<TraceEvent> trace;
    /** Final memory contents (after stores). */
    std::map<std::string, std::vector<double>> memories;
};

/** The simulator. */
class Simulator
{
  public:
    /**
     * Build a simulator for @p graph. Pure nodes resolve their `fn`
     * attribute in @p functions; memory nodes resolve their `memory`
     * attribute in the memories installed via setMemory.
     */
    static Result<Simulator> build(const ExprHigh& graph,
                                   std::shared_ptr<FnRegistry> functions,
                                   const SimConfig& config = {});

    /** Install (or replace) the contents of memory @p name. */
    void setMemory(const std::string& name, std::vector<double> data);

    /**
     * Run until @p expected_outputs tokens arrived at every bound
     * graph output (and all inputs were consumed), or the cycle limit
     * is hit (an error).
     *
     * @param inputs one token stream per graph input index.
     * @param serial_io when true, input k+1 (across all streams) is
     *        offered only after output k has been collected —
     *        modelling a dependent outer loop (gsum-single).
     */
    Result<SimResult> run(const std::vector<std::vector<Token>>& inputs,
                          std::size_t expected_outputs,
                          bool serial_io = false);

    /** Watchdog diagnosis of the most recent failed run (empty when
     * the run succeeded or failed for a non-progress reason). */
    const std::optional<StuckDiagnosis>& lastDiagnosis() const
    {
        return diagnosis_;
    }

    /**
     * Number of channels the simulator builds for @p graph — the
     * index space FaultInjector hooks are keyed by.
     */
    static std::size_t channelCount(const ExprHigh& graph);

  private:
    Simulator() = default;

    struct Channel
    {
        std::deque<Token> slots;
        std::size_t capacity = 2;

        bool full() const { return slots.size() >= capacity; }
        bool empty() const { return slots.empty(); }
    };

    class Impl;

    ExprHigh graph_;
    std::shared_ptr<FnRegistry> functions_;
    SimConfig config_;
    std::map<std::string, std::vector<double>> memories_;
    std::optional<StuckDiagnosis> diagnosis_;
};

}  // namespace graphiti::sim

#endif  // GRAPHITI_SIM_SIM_HPP

#ifndef GRAPHITI_OBS_TRACE_HPP
#define GRAPHITI_OBS_TRACE_HPP

/**
 * @file
 * Structured runtime traces: the stable event schema shared by
 * sim::SimResult and the trace sinks, a Chrome/Perfetto trace_event
 * JSON backend (open the file in chrome://tracing or ui.perfetto.dev)
 * and a VCD waveform writer (open in GTKWave).
 *
 * Timestamps are simulator cycles, rendered as microseconds in the
 * Perfetto file (one cycle = 1 us) so the trace UI's time axis reads
 * directly as cycle numbers.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support/result.hpp"

namespace graphiti::obs {

/** What a trace record describes. */
enum class EventKind
{
    Fire,     ///< a node moved tokens this cycle
    Stall,    ///< a node held tokens but could not fire
    Emit,     ///< a pipelined unit delivered a result token
    Fault,    ///< an injected fault held back an otherwise-legal move
    Output,   ///< a token arrived at a graph output
    Verdict,  ///< the watchdog classified a stuck run
    Phase,    ///< a compiler phase boundary
};

const char* toString(EventKind kind);

/**
 * The stable trace schema: one record per event, shared by
 * sim::TraceEvent (an alias of this struct) and every TraceSink
 * backend. `channel` is the simulator channel index when the event
 * concerns one (-1 otherwise); `detail` carries free-form context
 * (token text, refusal reason, ...).
 */
struct TraceRecord
{
    std::size_t cycle = 0;
    std::string node;
    int channel = -1;
    EventKind kind = EventKind::Fire;
    std::string detail;

    json::Value toJson() const;
};

/** Consumer of trace data; backends override what they can render. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One instant event (schema above). */
    virtual void event(const TraceRecord& record) = 0;

    /** A duration span on @p track, [start, start+duration) cycles. */
    virtual void span(const std::string& track, const std::string& name,
                      double start_cycle, double duration_cycles)
    {
        (void)track;
        (void)name;
        (void)start_cycle;
        (void)duration_cycles;
    }

    /** A sampled counter value on @p track at @p cycle. */
    virtual void counter(const std::string& track, double cycle,
                         double value)
    {
        (void)track;
        (void)cycle;
        (void)value;
    }
};

/**
 * Chrome trace_event ("Trace Event Format") backend. Events buffer in
 * memory; toJson()/dump()/writeFile() emit the {"traceEvents": [...]}
 * document. Each distinct node/track name becomes its own thread row
 * (named via thread_name metadata events).
 *
 * By default the buffer is unbounded (short runs keep everything, the
 * historical behaviour). Long runs can bound it with setCapacity():
 * when full, the oldest events are dropped.
 */
class PerfettoTraceSink : public TraceSink
{
  public:
    void event(const TraceRecord& record) override;
    void span(const std::string& track, const std::string& name,
              double start_cycle, double duration_cycles) override;
    void counter(const std::string& track, double cycle,
                 double value) override;

    /** Events currently buffered in memory. */
    std::size_t numEvents() const { return events_.size(); }

    /** Bound the in-memory buffer; 0 (the default) = unbounded. */
    void setCapacity(std::size_t max_events) { capacity_ = max_events; }
    std::size_t capacity() const { return capacity_; }

    /** Events lost to the capacity bound. */
    std::size_t droppedEvents() const { return dropped_; }

    /** The buffered window. */
    json::Value toJson() const;
    std::string dump() const { return toJson().dump(); }
    Result<bool> writeFile(const std::string& path) const;

  private:
    /** Stable small integer per track name (Perfetto tid). */
    int trackId(const std::string& name);
    /** Buffer one rendered event, honouring the capacity bound. */
    void bufferEvent(json::Value event);

    std::deque<json::Value> events_;
    std::map<std::string, int> tracks_;
    std::size_t capacity_ = 0;
    std::size_t dropped_ = 0;
};

/**
 * Value-change-dump writer. Declare signals with wire(), then begin()
 * freezes the header and sample() records change-only transitions.
 * Payload values wider than the declared width are truncated (VCD
 * semantics). Output accumulates in memory; str()/writeFile() render
 * the document.
 */
class VcdWriter
{
  public:
    explicit VcdWriter(std::string module_name = "graphiti",
                       std::string timescale = "1ns");

    /** Declare a signal before begin(); returns its handle. */
    int wire(const std::string& name, int width = 1);

    /** Emit the header ($timescale, $var..., initial x dump). */
    void begin();

    /** Record @p value on @p handle at @p time (change-only). */
    void sample(std::uint64_t time, int handle, std::uint64_t value);

    std::size_t numSignals() const { return signals_.size(); }
    bool started() const { return started_; }

    const std::string& str() const { return out_; }
    Result<bool> writeFile(const std::string& path) const;

  private:
    struct Signal
    {
        std::string name;
        int width = 1;
        std::string id;
        std::uint64_t last = 0;
        bool ever_sampled = false;
    };

    void emitTime(std::uint64_t time);
    void emitValue(const Signal& signal, std::uint64_t value);
    static std::string idFor(std::size_t index);
    static std::string sanitize(const std::string& name);

    std::string module_;
    std::string timescale_;
    std::vector<Signal> signals_;
    std::string out_;
    bool started_ = false;
    std::uint64_t current_time_ = 0;
    bool time_emitted_ = false;
};

}  // namespace graphiti::obs

#endif  // GRAPHITI_OBS_TRACE_HPP

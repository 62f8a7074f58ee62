#include "obs/trace.hpp"

#include <fstream>
#include <utility>

namespace graphiti::obs {

const char*
toString(EventKind kind)
{
    switch (kind) {
        case EventKind::Fire: return "fire";
        case EventKind::Stall: return "stall";
        case EventKind::Emit: return "emit";
        case EventKind::Fault: return "fault";
        case EventKind::Output: return "output";
        case EventKind::Verdict: return "verdict";
        case EventKind::Phase: return "phase";
    }
    return "unknown";
}

json::Value
TraceRecord::toJson() const
{
    json::Value out{json::Object{}};
    out.set("cycle", cycle);
    out.set("node", node);
    out.set("channel", channel);
    out.set("kind", toString(kind));
    out.set("detail", detail);
    return out;
}

int
PerfettoTraceSink::trackId(const std::string& name)
{
    auto it = tracks_.find(name);
    if (it != tracks_.end())
        return it->second;
    int tid = static_cast<int>(tracks_.size()) + 1;
    tracks_.emplace(name, tid);
    // Name the thread row so the UI shows the node, not a number.
    json::Value meta{json::Object{}};
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", tid);
    json::Value args{json::Object{}};
    args.set("name", name);
    meta.set("args", std::move(args));
    bufferEvent(std::move(meta));
    return tid;
}

void
PerfettoTraceSink::event(const TraceRecord& record)
{
    json::Value ev{json::Object{}};
    ev.set("name", record.detail.empty()
                       ? std::string(toString(record.kind))
                       : std::string(toString(record.kind)) + " " +
                             record.detail);
    ev.set("cat", toString(record.kind));
    ev.set("ph", "i");
    ev.set("s", "t");
    ev.set("ts", static_cast<double>(record.cycle));
    ev.set("pid", 1);
    ev.set("tid", trackId(record.node));
    if (record.channel >= 0) {
        json::Value args{json::Object{}};
        args.set("channel", record.channel);
        ev.set("args", std::move(args));
    }
    bufferEvent(std::move(ev));
}

void
PerfettoTraceSink::span(const std::string& track, const std::string& name,
                        double start_cycle, double duration_cycles)
{
    json::Value ev{json::Object{}};
    ev.set("name", name);
    ev.set("cat", "span");
    ev.set("ph", "X");
    ev.set("ts", start_cycle);
    ev.set("dur", duration_cycles);
    ev.set("pid", 1);
    ev.set("tid", trackId(track));
    bufferEvent(std::move(ev));
}

void
PerfettoTraceSink::counter(const std::string& track, double cycle,
                           double value)
{
    json::Value ev{json::Object{}};
    ev.set("name", track);
    ev.set("ph", "C");
    ev.set("ts", cycle);
    ev.set("pid", 1);
    // Counter tracks key on pid+name; tid 0 keeps them off the
    // per-node thread rows.
    ev.set("tid", 0);
    json::Value args{json::Object{}};
    args.set("value", value);
    ev.set("args", std::move(args));
    bufferEvent(std::move(ev));
}

json::Value
PerfettoTraceSink::toJson() const
{
    json::Value out{json::Object{}};
    json::Value trace_events{json::Array{}};
    for (const json::Value& ev : events_)
        trace_events.push(ev);
    out.set("traceEvents", std::move(trace_events));
    out.set("displayTimeUnit", "ms");
    if (dropped_ > 0)
        out.set("droppedEvents", dropped_);
    return out;
}

void
PerfettoTraceSink::bufferEvent(json::Value event)
{
    while (capacity_ != 0 && events_.size() >= capacity_) {
        events_.pop_front();
        ++dropped_;
    }
    events_.push_back(std::move(event));
}

Result<bool>
PerfettoTraceSink::writeFile(const std::string& path) const
{
    return json::writeFile(path, toJson());
}

VcdWriter::VcdWriter(std::string module_name, std::string timescale)
    : module_(sanitize(module_name)), timescale_(std::move(timescale))
{
}

std::string
VcdWriter::sanitize(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (out.empty())
        out = "sig";
    return out;
}

std::string
VcdWriter::idFor(std::size_t index)
{
    // Printable identifier code, base 94 over '!'..'~'.
    std::string id;
    do {
        id += static_cast<char>('!' + index % 94);
        index /= 94;
    } while (index > 0);
    return id;
}

int
VcdWriter::wire(const std::string& name, int width)
{
    Signal signal;
    signal.name = sanitize(name);
    signal.width = width < 1 ? 1 : width;
    signal.id = idFor(signals_.size());
    signals_.push_back(std::move(signal));
    return static_cast<int>(signals_.size()) - 1;
}

void
VcdWriter::begin()
{
    if (started_)
        return;
    started_ = true;
    out_ += "$date graphiti simulation $end\n";
    out_ += "$version graphiti obs vcd writer $end\n";
    out_ += "$timescale " + timescale_ + " $end\n";
    out_ += "$scope module " + module_ + " $end\n";
    for (const Signal& signal : signals_)
        out_ += "$var wire " + std::to_string(signal.width) + " " +
                signal.id + " " + signal.name + " $end\n";
    out_ += "$upscope $end\n";
    out_ += "$enddefinitions $end\n";
    out_ += "$dumpvars\n";
    for (const Signal& signal : signals_) {
        if (signal.width == 1)
            out_ += "x" + signal.id + "\n";
        else
            out_ += "bx " + signal.id + "\n";
    }
    out_ += "$end\n";
}

void
VcdWriter::emitTime(std::uint64_t time)
{
    if (time_emitted_ && time == current_time_)
        return;
    out_ += "#" + std::to_string(time) + "\n";
    current_time_ = time;
    time_emitted_ = true;
}

void
VcdWriter::emitValue(const Signal& signal, std::uint64_t value)
{
    if (signal.width == 1) {
        out_ += (value & 1) ? "1" : "0";
        out_ += signal.id;
        out_ += "\n";
        return;
    }
    std::string bits;
    for (int b = signal.width - 1; b >= 0; --b)
        bits += ((value >> b) & 1) ? '1' : '0';
    // Strip leading zeros (VCD convention), keeping at least one bit.
    std::size_t first = bits.find('1');
    if (first == std::string::npos)
        bits = "0";
    else
        bits = bits.substr(first);
    out_ += "b" + bits + " " + signal.id + "\n";
}

void
VcdWriter::sample(std::uint64_t time, int handle, std::uint64_t value)
{
    if (!started_ || handle < 0 ||
        handle >= static_cast<int>(signals_.size()))
        return;
    Signal& signal = signals_[static_cast<std::size_t>(handle)];
    if (signal.width < 64)
        value &= (std::uint64_t{1} << signal.width) - 1;
    if (signal.ever_sampled && signal.last == value)
        return;
    emitTime(time);
    emitValue(signal, value);
    signal.last = value;
    signal.ever_sampled = true;
}

Result<bool>
VcdWriter::writeFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return err("cannot open " + path + " for writing");
    out << out_;
    if (!out)
        return err("write to " + path + " failed");
    return true;
}

}  // namespace graphiti::obs

#include "obs/vprobe.hpp"

namespace graphiti::obs {

const char*
toString(VerifyPhase phase)
{
    switch (phase) {
        case VerifyPhase::Idle: return "idle";
        case VerifyPhase::Explore: return "explore";
        case VerifyPhase::Game: return "game";
        case VerifyPhase::TraceWalks: return "trace-walks";
    }
    return "unknown";
}

void
VerifyProbe::beginPhase(VerifyPhase phase, const char* rung)
{
    phase_.store(static_cast<std::uint8_t>(phase),
                 std::memory_order_relaxed);
    rung_.store(rung == nullptr ? "" : rung, std::memory_order_relaxed);
    // Per-phase gauges reset so a poller never reads the previous
    // phase's throughput against this phase's label; lifetime
    // counters (parks, peak bytes, samples) accumulate.
    states_per_second_.store(0.0, std::memory_order_relaxed);
    states_cap_pct_.store(0.0, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
}

void
VerifyProbe::publishExplore(std::uint64_t states,
                            std::uint64_t frontier,
                            double states_per_second, double cap_pct)
{
    states_.store(states, std::memory_order_relaxed);
    frontier_.store(frontier, std::memory_order_relaxed);
    states_per_second_.store(states_per_second,
                             std::memory_order_relaxed);
    states_cap_pct_.store(cap_pct, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
}

void
VerifyProbe::publishGame(std::uint64_t pairs, std::uint64_t round,
                         std::uint64_t alive)
{
    pairs_.store(pairs, std::memory_order_relaxed);
    round_.store(round, std::memory_order_relaxed);
    alive_.store(alive, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
}

void
VerifyProbe::recordPark()
{
    parks_.fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
}

void
VerifyProbe::notePeakBytes(std::uint64_t bytes)
{
    std::uint64_t seen = peak_bytes_.load(std::memory_order_relaxed);
    while (seen < bytes &&
           !peak_bytes_.compare_exchange_weak(
               seen, bytes, std::memory_order_relaxed)) {
    }
}

void
VerifyProbe::setDeadlineRemaining(double seconds)
{
    deadline_remaining_s_.store(seconds, std::memory_order_relaxed);
}

VerifyProgress
VerifyProbe::snapshot() const
{
    VerifyProgress p;
    p.phase = static_cast<VerifyPhase>(
        phase_.load(std::memory_order_relaxed));
    p.rung = rung_.load(std::memory_order_relaxed);
    p.states = states_.load(std::memory_order_relaxed);
    p.frontier = frontier_.load(std::memory_order_relaxed);
    p.states_per_second =
        states_per_second_.load(std::memory_order_relaxed);
    p.states_cap_pct = states_cap_pct_.load(std::memory_order_relaxed);
    p.pairs = pairs_.load(std::memory_order_relaxed);
    p.round = round_.load(std::memory_order_relaxed);
    p.alive = alive_.load(std::memory_order_relaxed);
    p.deadline_remaining_s =
        deadline_remaining_s_.load(std::memory_order_relaxed);
    p.parks = parks_.load(std::memory_order_relaxed);
    p.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
    p.samples = samples_.load(std::memory_order_relaxed);
    return p;
}

json::Value
VerifyProgress::toJson() const
{
    // Keys emitted in sorted order: this object lands in gate diffs
    // and golden tests, which must not be order-fragile.
    json::Value out{json::Object{}};
    out.set("alive", alive);
    out.set("deadline_remaining_s", deadline_remaining_s);
    out.set("frontier", frontier);
    out.set("pairs", pairs);
    out.set("parks", parks);
    out.set("peak_bytes", peak_bytes);
    out.set("phase", toString(phase));
    out.set("round", round);
    out.set("rung", rung);
    out.set("samples", samples);
    out.set("states", states);
    out.set("states_cap_pct", states_cap_pct);
    out.set("states_per_second", states_per_second);
    return out;
}

}  // namespace graphiti::obs

#ifndef GRAPHITI_OBS_VPROBE_HPP
#define GRAPHITI_OBS_VPROBE_HPP

/**
 * @file
 * Live progress probe of one governed verification
 * (docs/verification_observability.md).
 *
 * A Full-rung exploration can run for minutes; until this probe
 * existed it reported nothing until it finished or degraded. The
 * verification phases — StateSpace expansion, the simulation game,
 * the Governor ladder — publish point-in-time readings here at a
 * bounded cadence (every few thousand expansions / per discovery
 * level and fixpoint round, never per state), and readers on *other* threads (the served `jobs` verb, the
 * exposition endpoint) snapshot them without taking any lock.
 *
 * Concurrency contract: the verification phases of one job run
 * sequentially on one worker thread, so there is exactly one writer
 * at a time; every field is an independent relaxed atomic. A reader
 * may therefore observe a snapshot torn *across* fields (states from
 * one batch, frontier from the next) — fine for progress display —
 * but each field is always a value some publish actually wrote, and
 * `samples` counts publishes so pollers can tell fresh from stale.
 *
 * The probe is observation only: nothing in it feeds back into
 * exploration order, game verdicts or ladder decisions, so verdicts
 * stay a pure function of their inputs (docs/parallelism.md). Call sites in refine/ and guard/ cost one
 * thread-local load and a branch when no probe is attached.
 */

#include <atomic>
#include <cstdint>

#include "obs/json.hpp"

namespace graphiti::obs {

/** What a governed verification is doing right now. */
enum class VerifyPhase : std::uint8_t
{
    Idle = 0,        ///< no phase running (job queued / finished)
    Explore,         ///< state-space exploration
    Game,            ///< simulation-game discovery + pruning
    TraceWalks,      ///< randomized trace-inclusion walks
};

const char* toString(VerifyPhase phase);

/** One point-in-time reading of a running verification. */
struct VerifyProgress
{
    VerifyPhase phase = VerifyPhase::Idle;
    /** Which Governor rung is being attempted ("full",
     * "bounded-partial", "trace-inclusion", "" before the ladder). */
    const char* rung = "";
    /** States interned by the current exploration. */
    std::uint64_t states = 0;
    /** Pending frontier depth of the current exploration. */
    std::uint64_t frontier = 0;
    /** Exploration throughput over the last publish interval. */
    double states_per_second = 0.0;
    /** Percent of the exploration's max_states cap consumed. */
    double states_cap_pct = 0.0;
    /** Reachable pairs discovered by the game so far. */
    std::uint64_t pairs = 0;
    /** Fixpoint round the game is pruning. */
    std::uint64_t round = 0;
    /** Alive-set size after the last completed round. */
    std::uint64_t alive = 0;
    /** Wall-clock headroom; negative when no deadline governs. */
    double deadline_remaining_s = -1.0;
    /** Explorations parked (cap/stop) over the job. */
    std::uint64_t parks = 0;
    /** High-water byte estimate across phases (see peakBytes()). */
    std::uint64_t peak_bytes = 0;
    /** Publishes ever made; 0 means the probe never fired. */
    std::uint64_t samples = 0;

    /** Sorted-key object (stable for gate diffs and golden tests). */
    json::Value toJson() const;
};

/**
 * The lock-free publisher. One writer (the verifying thread), any
 * number of snapshot readers.
 */
class VerifyProbe
{
  public:
    /** Enter @p phase under rung @p rung (a static string; the probe
     * stores the pointer, never copies). Resets per-phase gauges. */
    void beginPhase(VerifyPhase phase, const char* rung);

    /** Publish one exploration reading. */
    void publishExplore(std::uint64_t states, std::uint64_t frontier,
                        double states_per_second, double cap_pct);

    /** Publish one game reading. */
    void publishGame(std::uint64_t pairs, std::uint64_t round,
                     std::uint64_t alive);

    /** Record a parked (capped/stopped) exploration. */
    void recordPark();

    /** Raise the peak-bytes high-water mark. */
    void notePeakBytes(std::uint64_t bytes);

    /** Publish wall-clock headroom (negative = no deadline). */
    void setDeadlineRemaining(double seconds);

    /** Read the probe from any thread (see file comment on tearing). */
    VerifyProgress snapshot() const;

    std::uint64_t peakBytes() const
    {
        return peak_bytes_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint8_t> phase_{0};
    std::atomic<const char*> rung_{""};
    std::atomic<std::uint64_t> states_{0};
    std::atomic<std::uint64_t> frontier_{0};
    std::atomic<double> states_per_second_{0.0};
    std::atomic<double> states_cap_pct_{0.0};
    std::atomic<std::uint64_t> pairs_{0};
    std::atomic<std::uint64_t> round_{0};
    std::atomic<std::uint64_t> alive_{0};
    std::atomic<double> deadline_remaining_s_{-1.0};
    std::atomic<std::uint64_t> parks_{0};
    std::atomic<std::uint64_t> peak_bytes_{0};
    std::atomic<std::uint64_t> samples_{0};
};

}  // namespace graphiti::obs

#endif  // GRAPHITI_OBS_VPROBE_HPP

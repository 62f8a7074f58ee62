#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/**
 * @file
 * Shared pieces of the benchmark program: run settings, what a run
 * reports, the round loop of the single-threaded paper-suite workload,
 * and its compile and simulate steps.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "faults/stress.hpp"
#include "ledger.hpp"
#include "sim/sim.hpp"

namespace perfbench {

/** Set-up is repeated and its median reported, so set-up time is a
 * steady metric of its own. */
constexpr int kSetupRepetitions = 3;

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scratch directory for the trace file, stores and sockets. */
    std::string work_dir;
};

/** What one op tells the round loop. */
struct OpOutcome
{
    /** The independent oracle accepted the op's output. */
    bool ok = true;
    std::string failure;
    /** Deterministic facts of the op (counts, verdicts, digests). Ops
     * at the same round position must report the same facts in every
     * round and in every run of the same seed. */
    std::string facts;
};

/** Everything one run measured. */
struct Outcome
{
    std::vector<double> setup_s;       ///< each set-up repetition
    std::vector<double> op_ms;         ///< untraced ops
    std::vector<double> traced_op_ms;  ///< traced ops (trace run only)
    double untraced_s = 0.0;           ///< wall time of untraced rounds
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few, for stderr
    /** Facts of the first round, joined; compared across runs. */
    std::string facts;
    /** Workload-defined end-to-end values (quality, verdict share). */
    std::map<std::string, double> e2e;
    /** Workload-defined per-layer values (counts, rates, splits). */
    std::map<std::string, double> layer;
    std::vector<Ledger> ledgers;
    /** Set-up failed: the run prints no result and exits non-zero. */
    std::string fatal;

    void fail(const std::string& why);
};

/**
 * A single-threaded workload. set-up builds the inputs and references
 * from the seed; op(i, ledger) runs position i of a round. runRounds
 * runs whole rounds until the time is up, so every count averaged over
 * the run depends on the seed alone.
 */
struct RoundWorkload
{
    /** Returns an error message, or "" on success. */
    std::function<std::string(std::uint64_t seed)> setup;
    std::size_t round_length = 1;
    std::function<OpOutcome(std::size_t index, Ledger& ledger)> op;
};

/** Set up (several times, timed), then run rounds, setting up again
 * after each, with each op on the next allowed CPU in turn; in a trace
 * run odd rounds are traced and even rounds give the untraced
 * baseline. */
Outcome runRounds(const RunConfig& config, RoundWorkload& workload);

/** Median, averaging the middle pair of an even count; 0 when empty. */
double median(std::vector<double> values);

/** splitmix64 step: the benchmark's only random source, so every input
 * depends on the seed alone. */
inline std::uint64_t
nextRandom(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T>& items, std::uint64_t& state)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[nextRandom(state) % i]);
}

/** FNV-1a digest of @p text as 16 hex digits. */
std::string digest(const std::string& text);

/** Geometric mean; 0 for an empty list. */
double geomean(const std::vector<double>& values);

/**
 * Turn counters summed over the traced ops into per-layer metrics:
 * plain counters become per-op means; the "raw." totals of simulator
 * and stress time become rates over the whole run (total cycles over
 * total Simulator::run time, split tagged/untagged; total plans over
 * total stress time).
 */
std::map<std::string, double>
layerCounts(const std::map<std::string, double>& totals,
            std::size_t traced_ops);

/** A compiled circuit, whichever path compiled it. */
struct Compiled
{
    graphiti::ExprHigh graph;
    std::string output_dot;
    std::size_t applied = 0;
    std::size_t rollbacks = 0;
    std::size_t postcheck_calls = 0;  ///< traced path only
};

/**
 * Compile @p dot with validation on and verification off. Untraced:
 * Compiler::compileDot. Traced: the layer calls compileGraph makes —
 * parse, typecheck, validate, the pipeline with a timing wrapper round
 * guard::validatorPostCheck(), print, validate — each in its own span.
 */
graphiti::Result<Compiled> compile(graphiti::Compiler& compiler,
                                   const std::string& dot, int num_tags,
                                   Ledger& ledger);

/**
 * Build and run the simulator on @p workload, timing both in spans.
 * Traced calls add their run time and cycles to the tagged or untagged
 * totals in @p layer (a graph with a tagger node is tagged).
 */
graphiti::Result<graphiti::sim::SimResult>
simulate(const graphiti::ExprHigh& graph,
         std::shared_ptr<graphiti::FnRegistry> registry,
         const graphiti::faults::Workload& workload, Ledger& ledger,
         std::map<std::string, double>& layer);

/** The four circuit-quality metrics over the six paper benchmarks,
 * computed once outside any timed window (for served-mix, which does
 * not compile the paper suite itself). */
std::map<std::string, double> paperQualityProbe();

Outcome runPaperSuite(const RunConfig& config);
Outcome runServedMix(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP

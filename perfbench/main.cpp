/**
 * @file
 * The benchmark program: runs one workload for a fixed time and prints
 * its metrics as one JSON object on the last line of stdout.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               --work-dir DIR
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 reports the
 * per-layer ledger and writes the spans to DIR as Chrome trace JSON.
 * README.md in this directory explains the workloads and metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sched.h>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef
{
    const char* name;
    const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"ok_rate", "ok/attempted"},
    {"peak_rss_mb", "MiB"},
    {"graphiti_speedup_vs_dfio", "x"},
    {"graphiti_speedup_vs_vericert", "x"},
    {"graphiti_lut_geomean", "LUT"},
    {"graphiti_ff_geomean", "FF"},
    {"full_verdict_share", "ratio"},
};

/** Per-layer metrics. Every run reports all of them; a layer a
 * workload never calls reads 0. Times are self time per traced op. */
const MetricDef kPerLayer[] = {
    {"guard.postcheck_ms", "ms"},
    {"guard.postcheck_calls", "count"},
    {"guard.rollbacks", "count"},
    {"rewrite.pipeline_ms", "ms"},
    {"rewrite.applied", "count"},
    {"rewrite.output_nodes", "count"},
    {"guard.validate_ms", "ms"},
    {"dot.parse_ms", "ms"},
    {"dot.print_ms", "ms"},
    {"graph.typecheck_ms", "ms"},
    {"refine.game_pairs", "count"},
    {"refine.fixpoint_iterations", "count"},
    {"refine.explore_ms", "ms"},
    {"refine.impl_states", "count"},
    {"refine.spec_states", "count"},
    {"guard.governor_ms", "ms"},
    {"guard.verdicts_full", "count"},
    {"guard.verdicts_bounded_partial", "count"},
    {"guard.verdicts_trace_inclusion", "count"},
    {"guard.verdicts_none", "count"},
    {"sim.build_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.cycles", "count"},
    {"sim.us_per_cycle_untagged", "us/cycle"},
    {"sim.us_per_cycle_tagged", "us/cycle"},
    {"sim.cycles_per_s", "cycles/s"},
    {"faults.stress_ms", "ms"},
    {"faults.plans", "count"},
    {"faults.plans_per_s", "plans/s"},
    {"arch_ms", "ms"},
    {"static_hls_ms", "ms"},
    {"served.hop_ms", "ms"},
    {"served.queue_wait_ms", "ms"},
    {"served.execute_ms", "ms"},
    {"served.compile_ms", "ms"},
    {"served.queue_wait_ms_p50", "ms"},
    {"served.execute_ms_p50", "ms"},
    {"served.hop_ms_p50", "ms"},
    {"served.store_hits", "count"},
    {"served.store_misses", "count"},
    {"served.store_hit_ratio", "ratio"},
    {"unattributed_ms", "ms"},
    {"trace_overhead", "x"},
};

/** The highest percentile with at least ten samples beyond it: the
 * eleventh-largest sample. Returns {value, percentile}. */
std::pair<double, double>
tail(std::vector<double> values)
{
    if (values.empty())
        return {0.0, 0.0};
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    std::size_t index = n > 10 ? n - 11 : n - 1;
    return {values[index],
            100.0 * static_cast<double>(index + 1) /
                static_cast<double>(n)};
}

/** Peak resident set of this process in MiB (VmHWM). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

/**
 * Rotates the calling thread over the CPUs it may run on, and restores
 * its affinity when destroyed. On a shared host one core can run slower
 * than the others for minutes, and a lone busy thread stays on one core,
 * so without rotation a run would time whichever core it landed on.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &original_))
                cpus_.push_back(cpu);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /** Move to the @p k-th allowed CPU (mod their number). */
    void
    moveTo(std::size_t k)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

/** Deterministic facts must not drift between runs of one seed: the
 * first run stores them in the work directory, later runs compare. */
void
checkFactsAcrossRuns(const RunConfig& config, Outcome& out)
{
    std::string path = config.work_dir + "/facts-" + config.workload +
                       "-" + std::to_string(config.seed) + ".txt";
    std::ifstream in(path);
    if (in) {
        std::stringstream stored;
        stored << in.rdbuf();
        if (stored.str() != out.facts)
            out.fail("deterministic facts differ from an earlier run of "
                     "seed " +
                     std::to_string(config.seed) + " (see " + path + ")");
        return;
    }
    std::ofstream(path) << out.facts;
}

void
printResult(const Outcome& out,
            const std::vector<std::pair<MetricDef, double>>& metrics)
{
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [def, value] : metrics) {
        json << (first ? "" : ", ") << "\"" << def.name
             << "\": {\"value\": " << (std::isfinite(value) ? value : 0.0)
             << ", \"unit\": \"" << def.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
}

std::vector<std::pair<MetricDef, double>>
endToEndMetrics(Outcome& out)
{
    double peak_rss = peakRssMb();
    if (out.e2e.count("graphiti_lut_geomean") == 0) {
        std::map<std::string, double> quality = paperQualityProbe();
        if (quality.empty())
            out.fail("the paper-suite quality probe failed");
        out.e2e.insert(quality.begin(), quality.end());
    }
    // A workload that runs no verification has no verdict below Full.
    out.e2e.emplace("full_verdict_share", 1.0);

    auto [tail_ms, tail_pct] = tail(out.op_ms);
    std::printf("op_ms_tail is p%.1f of %zu untraced ops\n", tail_pct,
                out.op_ms.size());
    std::map<std::string, double> values = out.e2e;
    values["setup_s"] = median(out.setup_s);
    values["ops_per_s"] =
        out.untraced_s > 0.0
            ? static_cast<double>(out.op_ms.size()) / out.untraced_s
            : 0.0;
    values["op_ms_p50"] = median(out.op_ms);
    values["op_ms_tail"] = tail_ms;
    values["ok_rate"] =
        out.attempted == 0
            ? 0.0
            : static_cast<double>(out.attempted - out.failed) /
                  static_cast<double>(out.attempted);
    values["peak_rss_mb"] = peak_rss;
    std::vector<std::pair<MetricDef, double>> metrics;
    for (const MetricDef& def : kEndToEnd)
        metrics.emplace_back(def, values[def.name]);
    return metrics;
}

std::vector<std::pair<MetricDef, double>>
perLayerMetrics(const RunConfig& config, Outcome& out)
{
    std::vector<const Ledger*> ledgers;
    for (const Ledger& ledger : out.ledgers)
        ledgers.push_back(&ledger);
    LedgerSummary summary = summarize(ledgers);
    if (summary.violations > 0)
        out.fail(std::to_string(summary.violations) +
                 " traced op(s) whose layer self times do not sum to "
                 "their wall time");
    std::string trace_path = config.work_dir + "/trace-" +
                             config.workload + "-" +
                             std::to_string(config.seed) + ".json";
    if (!writeChromeTrace(trace_path, ledgers))
        out.fail("cannot write " + trace_path);

    double ops = static_cast<double>(std::max<std::size_t>(summary.ops, 1));
    std::map<std::string, double> values;
    for (const auto& [layer, ns] : summary.self_ns)
        values[layer + "_ms"] = static_cast<double>(ns) / 1e6 / ops;
    // Workload-reported values (counts, rates, and the served split of
    // daemon-side time) take precedence over the span self times.
    for (const auto& [name, value] : out.layer)
        values[name] = value;
    double untraced_p50 = median(out.op_ms);
    values["trace_overhead"] =
        untraced_p50 > 0.0 ? median(out.traced_op_ms) / untraced_p50 : 0.0;

    // The ledger table: each layer's share of traced op wall time.
    double wall_ms = static_cast<double>(summary.wall_ns) / 1e6 / ops;
    std::printf("ledger: %zu traced ops, %.3f ms wall per op, trace %s\n",
                summary.ops, wall_ms, trace_path.c_str());
    std::vector<std::pair<double, std::string>> shares;
    for (const auto& [layer, ns] : summary.self_ns)
        shares.emplace_back(static_cast<double>(ns) / 1e6 / ops, layer);
    std::sort(shares.rbegin(), shares.rend());
    for (const auto& [ms, layer] : shares)
        std::printf("  %-24s %10.3f ms/op %6.1f%%\n", layer.c_str(), ms,
                    wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0);

    std::vector<std::pair<MetricDef, double>> metrics;
    for (const MetricDef& def : kPerLayer)
        metrics.emplace_back(def, values[def.name]);
    return metrics;
}

}  // namespace

void
Outcome::fail(const std::string& why)
{
    failed += 1;
    if (failures.size() < 8)
        failures.push_back(why);
}

Outcome
runRounds(const RunConfig& config, RoundWorkload& workload)
{
    Outcome out;
    auto setUp = [&] {
        Ns start = nowNs();
        std::string error = workload.setup(config.seed);
        out.setup_s.push_back(static_cast<double>(nowNs() - start) / 1e9);
        if (!error.empty())
            out.fatal = "set-up failed: " + error;
        return error.empty();
    };
    for (int rep = 0; rep < kSetupRepetitions; ++rep)
        if (!setUp())
            return out;

    Ledger traced(true), untraced(false);
    std::vector<std::string> first_round(workload.round_length);
    CpuRotation rotation;
    Ns deadline = nowNs() + static_cast<Ns>(config.seconds * 1e9);
    std::int64_t op_id = 0;
    // Whole rounds only, and at least two (a trace run needs one of
    // each kind).
    for (std::size_t round = 0; round < 2 || nowNs() < deadline; ++round) {
        bool traced_round = config.trace && round % 2 == 1;
        Ledger& ledger = traced_round ? traced : untraced;
        Ns round_start = nowNs();
        for (std::size_t i = 0; i < workload.round_length; ++i) {
            // Every round position visits every CPU in turn.
            rotation.moveTo(round + i);
            Ns start = nowNs();
            ledger.beginOp(op_id++);
            OpOutcome op = workload.op(i, ledger);
            ledger.endOp();
            double ms = static_cast<double>(nowNs() - start) / 1e6;
            (traced_round ? out.traced_op_ms : out.op_ms).push_back(ms);
            out.attempted += 1;
            if (!op.ok)
                out.fail(op.failure);
            else if (round == 0)
                first_round[i] = op.facts;
            else if (op.facts != first_round[i])
                out.fail("op " + std::to_string(i) +
                         " drifted: " + op.facts + " vs " + first_round[i]);
        }
        if (!traced_round)
            out.untraced_s +=
                static_cast<double>(nowNs() - round_start) / 1e9;
        // Set up again after every round, so the set-up samples span
        // the same stretch of time as the ops: a sub-millisecond set-up
        // timed in one burst reads whatever the host was doing then.
        if (!setUp())
            return out;
    }
    for (const std::string& facts : first_round)
        out.facts += facts + "\n";
    // One row per input: the median untraced op time at each round
    // position, named by the first word of its facts.
    std::size_t rounds = out.op_ms.size() / workload.round_length;
    for (std::size_t i = 0; i < workload.round_length && rounds > 0; ++i) {
        std::vector<double> at;
        for (std::size_t r = 0; r < rounds; ++r)
            at.push_back(out.op_ms[r * workload.round_length + i]);
        std::printf("  %-28s %10.3f ms median of %zu\n",
                    first_round[i].substr(0, first_round[i].find(' '))
                        .c_str(),
                    median(at), at.size());
    }
    out.ledgers.push_back(std::move(traced));
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::string
digest(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    RunConfig config;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload")
            config.workload = value;
        else if (flag == "--seed")
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            config.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            config.trace = value == "1";
        else if (flag == "--work-dir")
            config.work_dir = value;
        else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n",
                         flag.c_str());
            return 2;
        }
    }
    if (config.work_dir.empty() || config.seconds <= 0.0) {
        std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                             "--seconds S --trace 0|1 --work-dir DIR\n");
        return 2;
    }

    Outcome out;
    if (config.workload == "paper-suite")
        out = runPaperSuite(config);
    else if (config.workload == "served-mix")
        out = runServedMix(config);
    else {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     config.workload.c_str());
        return 2;
    }
    if (!out.fatal.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", out.fatal.c_str());
        return 1;
    }

    checkFactsAcrossRuns(config, out);
    std::vector<std::pair<MetricDef, double>> metrics =
        config.trace ? perLayerMetrics(config, out) : endToEndMetrics(out);
    for (const std::string& why : out.failures)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    printResult(out, metrics);
    return 0;
}

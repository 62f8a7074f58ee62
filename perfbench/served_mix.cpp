/**
 * @file
 * served-mix: the compile service under a closed loop. An in-process
 * daemon (default configuration, two worker lanes, a verdict store in
 * the work directory) serves two client connections; each client waits
 * for its reply before sending the next request, as a compile caller
 * does. Every request is a governed `verify` job on one of the six
 * paper circuits or the gcd example, with a tight deterministic budget.
 * Half of them reuse
 * the circuit's fixed budget salt, warmed into the store during set-up,
 * so they hit the store; the other half carry a fresh salt, so they
 * miss, run the verification ladder and write through.
 *
 * The oracle is a one-shot Compiler::compileDot of each circuit made
 * during set-up, never the served path: every response must be "ok"
 * with the same verification level, verdict and output circuit.
 *
 * Traced ops are attributed from outside: the client's request span
 * holds the queue wait and execute time the daemon reports for that
 * job id; what is left of the request is the hop (framing, socket,
 * admission). The daemon's own timers then split execute time, summed
 * over the run, into compile, governor and exploration.
 */

#include <algorithm>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "bench_circuits/benchmarks.hpp"
#include "bench_circuits/gcd.hpp"
#include "dot/dot.hpp"
#include "served/client.hpp"
#include "served/daemon.hpp"

namespace perfbench {
namespace {

using namespace graphiti;
namespace fs = std::filesystem;

constexpr std::size_t kClients = 2;
/** The salt of every repeated job; fresh salts never take this value. */
constexpr std::uint64_t kRepeatSalt = 0;

/** The tight, deterministic budget of bench_served's jobs. */
JobSpec
makeSpec(const std::string& dot, int num_tags, std::uint64_t salt)
{
    JobSpec spec;
    spec.kind = "verify";
    spec.circuit_dot = dot;
    spec.options.num_tags = num_tags;
    spec.options.governed_verify = true;
    spec.options.verify_budget.max_states = 800;
    spec.options.verify_budget.partial_max_states = 300;
    spec.options.verify_budget.input_budget = 1;
    spec.options.verify_budget.trace_walks = 2;
    spec.options.verify_budget.trace.max_steps = 60;
    spec.options.verify_budget.trace.max_inputs = 2;
    spec.options.verify_budget.seed ^= salt;
    return spec;
}

struct Circuit
{
    std::string name;
    std::string dot;
    int num_tags = 8;
    /** The one-shot reference. */
    std::string level;
    bool verdict_ok = false;
    std::string output_digest;
};

/** One request a client sends: which circuit, repeated or fresh salt. */
struct Request
{
    std::size_t circuit = 0;
    bool repeat = false;
};

/** What a client saw of one request. */
struct Sample
{
    std::string job_id;
    bool traced = false;
    /** Why the oracle rejected the response; empty when right. */
    std::string failure;
    Ns op_start = 0, op_end = 0;
    Ns request_start = 0, request_end = 0;
    std::string level;
    bool cache_hit = false;
    double impl_states = 0.0, spec_states = 0.0;
    double game_pairs = 0.0, fixpoint_iterations = 0.0;
};

const obs::json::Value*
field(const obs::json::Value& object, const char* key)
{
    return object.isObject() ? object.find(key) : nullptr;
}

/** Check one response against its circuit's reference; "" when right. */
std::string
checkResponse(const Result<served::JobResponse>& response,
              const Circuit& circuit, Sample& sample)
{
    std::string where = circuit.name + " " + sample.job_id + ": ";
    if (!response.ok())
        return where + "unanswered: " + response.error().message;
    const served::JobResponse& r = response.value();
    if (r.status != "ok")
        return where + "status " + r.status + " " + r.error;
    const obs::json::Value* level = field(r.result, "verification_level");
    const obs::json::Value* verdict = field(r.result, "verdict");
    const obs::json::Value* ok = verdict ? field(*verdict, "ok") : nullptr;
    const obs::json::Value* dot = field(r.result, "output_dot");
    if (!level || !level->isString() || !ok || !ok->isBool() || !dot ||
        !dot->isString())
        return where + "malformed result";
    sample.level = level->asString();
    const obs::json::Value* hit = field(r.result, "verify_cache_hit");
    sample.cache_hit = hit && hit->isBool() && hit->asBool();
    if (const obs::json::Value* game = field(*verdict, "game")) {
        auto count = [&](const char* key, double& into) {
            const obs::json::Value* value = field(*game, key);
            if (value && value->isNumber())
                into = value->asNumber();
        };
        count("impl_states", sample.impl_states);
        count("spec_states", sample.spec_states);
        count("reachable_pairs", sample.game_pairs);
        count("fixpoint_iterations", sample.fixpoint_iterations);
    }
    if (sample.level != circuit.level || ok->asBool() != circuit.verdict_ok)
        return where + "verdict " + sample.level + " differs from the "
                       "one-shot reference " + circuit.level;
    if (digest(dot->asString()) != circuit.output_digest)
        return where + "output circuit differs from the reference";
    return "";
}

double
timerTotal(const obs::Scope& scope, const char* name)
{
    std::optional<obs::TimerStats> stats = scope.metrics().timerStats(name);
    return stats ? stats->total_seconds : 0.0;
}

class ServedMix
{
  public:
    explicit ServedMix(const RunConfig& config) : config_(config) {}
    ~ServedMix() { teardown(); }
    ServedMix(const ServedMix&) = delete;
    ServedMix& operator=(const ServedMix&) = delete;

    /** Build references, boot the daemon, warm the repeated jobs. */
    std::string
    setup()
    {
        circuits_.clear();
        for (const std::string& name : circuits::benchmarkNames()) {
            circuits::BenchmarkSpec spec =
                circuits::buildBenchmark(name).take();
            circuits_.push_back(
                {name, printDot(spec.df_io), spec.num_tags, "", false, ""});
        }
        // The paper's running example: the one circuit whose check
        // reaches the Full rung under this budget, so a ladder that
        // degrades shows in full_verdict_share.
        circuits_.push_back({"gcd", printDot(circuits::buildGcdInOrder()),
                             CompileOptions{}.num_tags, "", false, ""});
        for (Circuit& circuit : circuits_) {
            const std::string& name = circuit.name;
            Compiler compiler;
            Result<CompileReport> reference = compiler.compileDot(
                circuit.dot,
                makeSpec(circuit.dot, circuit.num_tags, kRepeatSalt)
                    .options);
            if (!reference.ok())
                return name + " reference: " + reference.error().message;
            circuit.level = reference.value().verification_level;
            circuit.verdict_ok = reference.value().verdict.ok;
            circuit.output_digest = digest(reference.value().output_dot);
        }

        std::string tag = std::to_string(::getpid());
        // Relative to the working directory: unix socket paths are
        // short, checkout paths need not be.
        fs::path work = fs::proximate(config_.work_dir);
        socket_path_ = (work / ("served-" + tag + ".sock")).string();
        store_dir_ = (work / ("store-" + tag)).string();
        fs::remove_all(store_dir_);
        fs::create_directories(store_dir_);
        served::DaemonConfig daemon_config;
        daemon_config.socket_path = socket_path_;
        daemon_config.scheduler.workers = 2;
        daemon_config.scheduler.store.dir = store_dir_;
        // Room for every job's queue-wait and execute spans.
        observer_ = std::make_shared<served::ServiceObserver>(256, 1024,
                                                              1 << 16);
        daemon_config.scheduler.observer = observer_;
        daemon_ = std::make_unique<served::Daemon>(daemon_config);
        Result<bool> started = daemon_->start();
        if (!started.ok())
            return "daemon: " + started.error().message;

        served::Client client(clientConfig(99));
        for (std::size_t i = 0; i < circuits_.size(); ++i) {
            Sample sample;
            sample.job_id = "warm-" + std::to_string(i);
            std::string wrong = checkResponse(
                client.request(makeSpec(circuits_[i].dot,
                                        circuits_[i].num_tags, kRepeatSalt),
                               0.0, sample.job_id),
                circuits_[i], sample);
            if (!wrong.empty())
                return "warm-up: " + wrong;
        }
        return "";
    }

    void
    teardown()
    {
        if (daemon_ != nullptr) {
            daemon_->stop();
            daemon_.reset();
        }
        if (!store_dir_.empty()) {
            std::error_code ignored;
            fs::remove_all(store_dir_, ignored);
            fs::remove(socket_path_, ignored);
            store_dir_.clear();
        }
    }

    Outcome
    run()
    {
        Outcome out;
        for (int rep = 0; rep < kSetupRepetitions; ++rep) {
            teardown();
            Ns start = nowNs();
            std::string error = setup();
            out.setup_s.push_back(static_cast<double>(nowNs() - start) /
                                  1e9);
            if (!error.empty()) {
                out.fatal = "set-up failed: " + error;
                return out;
            }
        }

        const obs::Scope& scope = observer_->scope();
        double compile_before = timerTotal(scope, "compile.seconds");
        double verify_before = timerTotal(scope, "guard.verify_seconds");
        double explore_before = timerTotal(scope, "refine.explore_seconds");
        guard::VerdictStoreStats store_before =
            daemon_->scheduler().store()->stats();

        std::vector<std::vector<Sample>> samples(kClients);
        Ns start = nowNs();
        Ns deadline = start + static_cast<Ns>(config_.seconds * 1e9);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                clientLoop(c, deadline, samples[c]);
            });
        for (std::thread& thread : threads)
            thread.join();
        out.untraced_s = static_cast<double>(nowNs() - start) / 1e9;

        guard::VerdictStoreStats store_after =
            daemon_->scheduler().store()->stats();
        double compile_s = timerTotal(scope, "compile.seconds") -
                           compile_before;
        double verify_s =
            timerTotal(scope, "guard.verify_seconds") - verify_before;
        double explore_s =
            timerTotal(scope, "refine.explore_seconds") - explore_before;

        // Queue wait and execute time of every job, by job id.
        std::map<std::string, std::pair<double, double>> daemon_ms;
        obs::SpanTracker& spans = observer_->spans();
        for (const obs::SpanRecord& span : spans.tail(spans.recorded())) {
            auto& [queue_ms, execute_ms] = daemon_ms[span.track];
            (span.name == "queue-wait" ? queue_ms : execute_ms) =
                span.duration_ms;
        }
        if (spans.dropped() > 0)
            out.fail("daemon span ring dropped " +
                     std::to_string(spans.dropped()) + " spans");

        // The ledger of traced ops, one per client thread.
        std::map<std::string, double> totals;
        std::vector<double> queue_p, execute_p, hop_p;
        double execute_all_ms = 0.0;
        std::int64_t op_id = 0;
        for (std::size_t c = 0; c < kClients; ++c) {
            Ledger ledger(true, static_cast<int>(c));
            for (const Sample& s : samples[c]) {
                out.attempted += 1;
                if (!s.failure.empty())
                    out.fail(s.failure);
                auto [queue_ms, execute_ms] = daemon_ms[s.job_id];
                execute_all_ms += execute_ms;
                double op_ms =
                    static_cast<double>(s.op_end - s.op_start) / 1e6;
                if (!s.traced) {
                    out.op_ms.push_back(op_ms);
                    continue;
                }
                out.traced_op_ms.push_back(op_ms);
                Ns queue = static_cast<Ns>(queue_ms * 1e6);
                Ns execute = static_cast<Ns>(execute_ms * 1e6);
                Ns request = s.request_end - s.request_start;
                Ns hop = request - queue - execute;
                if (hop < 0)
                    out.fail(s.job_id + ": daemon time exceeds the "
                                        "client's request time");
                std::int64_t op = op_id++;
                int root =
                    ledger.add(op, -1, "unattributed", s.op_start, s.op_end);
                int req = ledger.add(op, root, "served.hop", s.request_start,
                                     s.request_end);
                // The daemon reports durations, not client-clock times:
                // queue wait then execute, centred in the request.
                Ns at = s.request_start + std::max<Ns>(hop, 0) / 2;
                ledger.add(op, req, "served.queue_wait", at, at + queue);
                ledger.add(op, req, "served.execute", at + queue,
                           at + queue + execute);
                queue_p.push_back(queue_ms);
                execute_p.push_back(execute_ms);
                hop_p.push_back(static_cast<double>(hop) / 1e6);
                std::string level = s.level;
                std::replace(level.begin(), level.end(), '-', '_');
                totals["guard.verdicts_" + level] += 1.0;
                if (!s.cache_hit) {
                    totals["refine.impl_states"] += s.impl_states;
                    totals["refine.spec_states"] += s.spec_states;
                    totals["refine.game_pairs"] += s.game_pairs;
                    totals["refine.fixpoint_iterations"] +=
                        s.fixpoint_iterations;
                }
            }
            out.ledgers.push_back(std::move(ledger));
        }

        std::size_t traced = out.traced_op_ms.size();
        out.layer = layerCounts(totals, traced);
        out.layer["served.queue_wait_ms_p50"] = median(queue_p);
        out.layer["served.execute_ms_p50"] = median(execute_p);
        out.layer["served.hop_ms_p50"] = median(hop_p);
        out.layer["served.store_hits"] =
            static_cast<double>(store_after.hits - store_before.hits);
        out.layer["served.store_misses"] =
            static_cast<double>(store_after.misses - store_before.misses);
        double lookups = out.layer["served.store_hits"] +
                         out.layer["served.store_misses"];
        out.layer["served.store_hit_ratio"] =
            lookups > 0.0 ? out.layer["served.store_hits"] / lookups : 0.0;
        // Split execute time by the daemon's own timers, as shares of
        // all execute time in the run, applied to the traced ops.
        if (traced > 0 && execute_all_ms > 0.0) {
            double execute_ms = 0.0;
            for (double ms : execute_p)
                execute_ms += ms;
            execute_ms /= static_cast<double>(traced);
            double all_s = execute_all_ms / 1e3;
            out.layer["refine.explore_ms"] = execute_ms * explore_s / all_s;
            out.layer["guard.governor_ms"] =
                execute_ms * (verify_s - explore_s) / all_s;
            out.layer["served.compile_ms"] =
                execute_ms * (compile_s - verify_s) / all_s;
            std::printf("served.execute split by the daemon's timers: "
                        "compile %.3f, governor %.3f, explore %.3f of "
                        "%.3f ms/op\n",
                        out.layer["served.compile_ms"],
                        out.layer["guard.governor_ms"],
                        out.layer["refine.explore_ms"], execute_ms);
        }

        std::size_t full = 0;
        for (const Circuit& circuit : circuits_) {
            full += circuit.level == "full" ? 1 : 0;
            out.facts += circuit.name + " level=" + circuit.level +
                         " ok=" + std::to_string(circuit.verdict_ok) +
                         " dot=" + circuit.output_digest + "\n";
        }
        out.e2e["full_verdict_share"] =
            static_cast<double>(full) /
            static_cast<double>(circuits_.size());
        return out;
    }

  private:
    served::ClientConfig
    clientConfig(std::size_t client) const
    {
        served::ClientConfig cc;
        cc.socket_path = socket_path_;
        cc.seed = config_.seed ^ (client * 0x9e3779b97f4a7c15ULL);
        return cc;
    }

    /** Closed loop: whole rounds of every circuit once with the repeated
     * salt and once with a fresh one, in a seeded order. */
    void
    clientLoop(std::size_t c, Ns deadline, std::vector<Sample>& samples)
    {
        served::Client client(clientConfig(c));
        std::vector<Request> round;
        for (std::size_t i = 0; i < circuits_.size(); ++i) {
            round.push_back({i, true});
            round.push_back({i, false});
        }
        std::uint64_t state = config_.seed ^ ((c + 1) << 32);
        shuffle(round, state);
        std::uint64_t sent = 0;
        for (std::size_t r = 0; r < 2 || nowNs() < deadline; ++r) {
            bool traced = config_.trace && r % 2 == 1;
            for (const Request& request : round) {
                const Circuit& circuit = circuits_[request.circuit];
                std::uint64_t n = sent++;
                Sample sample;
                sample.traced = traced;
                sample.job_id =
                    "c" + std::to_string(c) + "-" + std::to_string(n);
                sample.op_start = nowNs();
                std::uint64_t salt =
                    request.repeat ? kRepeatSalt : ((c + 1) << 40) + n + 1;
                JobSpec spec = makeSpec(circuit.dot, circuit.num_tags, salt);
                sample.request_start = nowNs();
                Result<served::JobResponse> response =
                    client.request(spec, 0.0, sample.job_id);
                sample.request_end = nowNs();
                sample.failure = checkResponse(response, circuit, sample);
                sample.op_end = nowNs();
                samples.push_back(std::move(sample));
            }
        }
    }

    const RunConfig& config_;
    std::vector<Circuit> circuits_;
    std::string socket_path_;
    std::string store_dir_;
    std::shared_ptr<served::ServiceObserver> observer_;
    std::unique_ptr<served::Daemon> daemon_;
};

}  // namespace

Outcome
runServedMix(const RunConfig& config)
{
    ServedMix mix(config);
    return mix.run();
}

}  // namespace perfbench

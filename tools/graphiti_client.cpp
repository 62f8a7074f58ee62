/**
 * @file
 * graphiti-client: command-line client of graphiti-served
 * (docs/service.md).
 *
 * Submits one job — ping, compile, verify, validate — against a
 * running daemon, retrying shed responses and transport hiccups with
 * full-jitter exponential backoff, and prints the response JSON.
 * Circuits come from a dot file (--dot) or a built-in evaluation
 * benchmark by name (--benchmark; resolved locally, only the dot text
 * travels).
 *
 * Read-only introspection (docs/service_observability.md,
 * docs/verification_observability.md): --stats, --jobs and --health
 * query the daemon's observability plane; these verbs
 * bypass the scheduler queue, so they answer even when the service is
 * saturated or wedged. --watch polls the selected verb (default
 * stats) every --interval seconds, printing one JSON line per poll,
 * until interrupted. --watch-job ID tails one job's live verification
 * progress (states, frontier, game rounds, rung, parks) until
 * the job leaves the live table.
 *
 * Usage:
 *     graphiti-client --socket PATH [--tcp PORT] KIND
 *                     [--dot FILE | --benchmark NAME]
 *                     [--deadline S] [--attempts N]
 *                     [--max-states N] [--partial-states N]
 *                     [--input-budget N] [--trace-walks N]
 *     graphiti-client --socket PATH [--tcp PORT]
 *                     --stats | --jobs | --health
 *                     [--watch [--interval S]]
 *     graphiti-client --socket PATH [--tcp PORT]
 *                     --watch-job ID [--interval S]
 *
 * Exit status: 0 on an ok response, 1 on an error/cancelled response,
 * 2 on usage errors, 3 when every attempt failed at the transport.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_circuits/benchmarks.hpp"
#include "dot/dot.hpp"
#include "served/client.hpp"

namespace {

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--tcp PORT] KIND\n"
        "          [--dot FILE | --benchmark NAME] [--deadline S]\n"
        "          [--attempts N]\n"
        "       %s --socket PATH [--tcp PORT]\n"
        "          --stats | --jobs | --health\n"
        "          [--watch [--interval S]] | --watch-job ID\n"
        "  KIND             ping | compile | verify | validate\n"
        "                   | stats | jobs | health\n"
        "  --dot FILE       send this dot file as the circuit\n"
        "  --benchmark NAME send this built-in benchmark's circuit\n"
        "  --deadline S     per-job wall-clock deadline in seconds\n"
        "  --job-id ID      correlation id for the job (default "
        "minted)\n"
        "  --attempts N     retry budget (default 5)\n"
        "  --max-states N   full-exploration state cap (verify)\n"
        "  --partial-states N  partial-exploration state cap\n"
        "  --input-budget N input tokens per explored execution\n"
        "  --trace-walks N  trace-inclusion walk count\n"
        "  --stats          service counters, per-verb latency "
        "windows\n"
        "  --jobs           live job table (phase, deadline, rungs)\n"
        "  --health         lane liveness, store shards, uptime\n"
        "  --watch          poll the introspection verb until "
        "interrupted\n"
        "  --watch-job ID   tail one job's live verification "
        "progress\n"
        "  --interval S     watch poll period in seconds (default "
        "2)\n",
        argv0, argv0);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace graphiti;

    served::ClientConfig config;
    std::string kind;
    std::string dot_file;
    std::string benchmark;
    double deadline_seconds = 0.0;
    guard::VerificationBudget budget;
    bool budget_set = false;
    bool watch = false;
    double interval_seconds = 2.0;
    std::string watch_job_id;
    std::string job_id;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char* {
            return ++i < argc ? argv[i] : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (arg == "--socket") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.socket_path = v;
        } else if (arg == "--tcp") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.tcp_port = std::atoi(v);
        } else if (arg == "--dot") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            dot_file = v;
        } else if (arg == "--benchmark") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            benchmark = v;
        } else if (arg == "--deadline") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            deadline_seconds = std::atof(v);
        } else if (arg == "--attempts") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.backoff.max_attempts =
                static_cast<std::size_t>(std::atoi(v));
        } else if (arg == "--stats" || arg == "--jobs" ||
                   arg == "--health") {
            kind = arg.substr(2);
        } else if (arg == "--job-id") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            job_id = v;
        } else if (arg == "--watch-job") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            watch_job_id = v;
        } else if (arg == "--watch") {
            watch = true;
        } else if (arg == "--interval") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            interval_seconds = std::atof(v);
        } else if (arg == "--max-states" || arg == "--partial-states" ||
                   arg == "--input-budget" || arg == "--trace-walks") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            std::size_t n = static_cast<std::size_t>(std::atoll(v));
            if (arg == "--max-states")
                budget.max_states = n;
            else if (arg == "--partial-states")
                budget.partial_max_states = n;
            else if (arg == "--input-budget")
                budget.input_budget = n;
            else
                budget.trace_walks = n;
            budget_set = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return usage(argv[0]);
        } else if (kind.empty()) {
            kind = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (watch && kind.empty())
        kind = "stats";
    if ((kind.empty() && watch_job_id.empty()) ||
        (config.socket_path.empty() && config.tcp_port < 0))
        return usage(argv[0]);
    if (watch && !isIntrospectionKind(kind)) {
        std::fprintf(stderr,
                     "--watch needs an introspection verb "
                     "(--stats/--jobs/--health), not "
                     "\"%s\"\n",
                     kind.c_str());
        return 2;
    }

    served::Client client(config);

    if (!watch_job_id.empty()) {
        // Tail one job's live verification progress off the jobs
        // verb: one JSON line per poll while the job is queued or
        // running, stop once it leaves the table (completed). A job
        // never seen keeps polling — it may not have been submitted
        // yet — until interrupted.
        bool seen = false;
        for (;;) {
            Result<obs::json::Value> jobs = client.serviceJobs();
            if (!jobs.ok()) {
                std::fprintf(stderr, "graphiti-client: %s\n",
                             jobs.error().message.c_str());
                return 3;
            }
            const obs::json::Value* table = jobs.value().find("jobs");
            const obs::json::Value* match = nullptr;
            if (table != nullptr && table->isArray())
                for (const obs::json::Value& entry :
                     table->asArray()) {
                    const obs::json::Value* id = entry.find("job_id");
                    if (id != nullptr && id->isString() &&
                        id->asString() == watch_job_id) {
                        match = &entry;
                        break;
                    }
                }
            if (match != nullptr) {
                seen = true;
                std::printf("%s\n", match->dump(-1).c_str());
                std::fflush(stdout);
            } else if (seen) {
                std::printf(
                    "{\"job_id\": \"%s\", \"phase\": \"done\"}\n",
                    watch_job_id.c_str());
                return 0;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval_seconds));
        }
    }

    if (isIntrospectionKind(kind)) {
        do {
            Result<obs::json::Value> snapshot =
                kind == "stats"    ? client.serviceStats()
                : kind == "jobs"   ? client.serviceJobs()
                                   : client.serviceHealth();
            if (!snapshot.ok()) {
                std::fprintf(stderr, "graphiti-client: %s\n",
                             snapshot.error().message.c_str());
                return 3;
            }
            // One JSON document per poll: pretty for a single query,
            // one line per poll under --watch (pipeable).
            std::printf("%s\n",
                        snapshot.value().dump(watch ? -1 : 2).c_str());
            std::fflush(stdout);
            if (watch)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(interval_seconds));
        } while (watch);
        return 0;
    }

    JobSpec spec;
    spec.kind = kind;
    if (budget_set)
        spec.options.verify_budget = budget;
    if (!dot_file.empty()) {
        std::ifstream in(dot_file);
        if (!in) {
            std::fprintf(stderr, "%s: cannot open\n",
                         dot_file.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        spec.circuit_dot = text.str();
    } else if (!benchmark.empty()) {
        Result<circuits::BenchmarkSpec> built =
            circuits::buildBenchmark(benchmark);
        if (!built.ok()) {
            std::fprintf(stderr, "%s\n",
                         built.error().message.c_str());
            return 2;
        }
        const ExprHigh& graph = built.value().df_ooo_input
                                    ? *built.value().df_ooo_input
                                    : built.value().df_io;
        spec.circuit_dot = printDot(graph);
        spec.options.num_tags = built.value().num_tags;
    } else if (kind != "ping") {
        std::fprintf(stderr,
                     "job kind \"%s\" needs --dot or --benchmark\n",
                     kind.c_str());
        return usage(argv[0]);
    }

    Result<served::JobResponse> response =
        client.request(spec, deadline_seconds, job_id);
    if (!response.ok()) {
        std::fprintf(stderr, "graphiti-client: %s\n",
                     response.error().message.c_str());
        return 3;
    }
    std::printf("%s\n", response.value().toJson().dump(2).c_str());
    return response.value().ok() ? 0 : 1;
}

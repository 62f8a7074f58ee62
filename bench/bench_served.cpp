/**
 * @file
 * Soak benchmark of the served daemon (docs/service.md): boots an
 * in-process daemon on a temporary unix socket, replays the
 * evaluation benchmark circuits (with per-request budget-seed
 * mutation, so the verdict cache sees a realistic hit/miss mix) from
 * concurrent clients, and reports p50/p99 request latency, shed rate
 * and verdict-cache hit rate through obs::MetricsRegistry.
 *
 * With --misbehave a deterministic faults::ConnectionPlan makes a
 * slice of requests hostile — half-written frames, disconnects right
 * after sending, deadline-zero floods, junk payloads — and the run
 * asserts the daemon answered every *healthy* request anyway.
 *
 * Jobs run in the daemon's sandboxed worker processes
 * (docs/service.md, "Process isolation"). --crash-rate R arms a
 * seeded faults::CrashPlan in every worker, so a fraction R of
 * compiles die mid-job; the run then reports the answered rate — every
 * request must still get *some* structured response (ok, error, or
 * an honest shed) while workers are dying and respawning, and the
 * exit status only tolerates error/shed responses, never silence.
 *
 * Latency is kept in per-verb reservoirs keyed by JobSpec kind (each
 * client sends one ping alongside its verify load), so a cheap verb
 * never dilutes an expensive verb's percentiles. --json embeds the
 * daemon's own end-of-run stats snapshot (per-verb queue-wait vs
 * execute splits, connection counters, journal lane occupancy) —
 * docs/service_observability.md.
 *
 * Usage:
 *     bench_served [--clients N] [--requests N] [--workers N]
 *                  [--queue N] [--misbehave] [--seed S] [--json PATH]
 *                  [--crash-rate R]
 *
 * Exit status: 0 when every healthy request got a response and the
 * report (when requested) was written; 1 otherwise.
 */

#include <chrono>
#include <cstdio>
#include <map>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_circuits/benchmarks.hpp"
#include "dot/dot.hpp"
#include "faults/connection_plan.hpp"
#include "obs/latency.hpp"
#include "served/client.hpp"
#include "served/daemon.hpp"

namespace {

using namespace graphiti;

struct Args
{
    std::size_t clients = 3;
    std::size_t requests = 8;
    std::size_t workers = 2;
    std::size_t queue = 4;
    bool misbehave = false;
    std::uint64_t seed = 0x5e4ed5ULL;
    std::string json_path;
    /** Seeded CrashPlan rate armed in every worker. */
    double crash_rate = 0.0;
};

/** Tight, deterministic verification budget (the test-suite shape:
 * the benchmark circuits are large, so the ladder degrades — what
 * matters here is load, not assurance depth). */
JobSpec
makeSpec(const std::string& dot, int num_tags, std::uint64_t seed_salt)
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
    // The "mutation": the budget seed is part of the cache key, so
    // salting it makes a controlled fraction of requests novel while
    // repeats of the same salt hit the cache.
    spec.options.verify_budget.seed ^= seed_salt;
    return spec;
}

struct ClientOutcome
{
    std::size_t healthy_sent = 0;
    std::size_t healthy_answered = 0;
    std::size_t sheds = 0;
    std::size_t hostile_sent = 0;
    /** Structured "error" responses (crash-storm casualties). */
    std::size_t errors = 0;
    /** "rejected" after retry exhaustion (breaker/queue sheds). */
    std::size_t rejected = 0;
    /** Requests that got silence — always a failure. */
    std::size_t transport_failures = 0;
};

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char* {
            return ++i < argc ? argv[i] : nullptr;
        };
        auto size_flag = [&](std::size_t& slot) {
            const char* v = value();
            if (v != nullptr)
                slot = static_cast<std::size_t>(std::atoi(v));
            return v != nullptr;
        };
        bool ok = true;
        if (arg == "--clients")
            ok = size_flag(args.clients);
        else if (arg == "--requests")
            ok = size_flag(args.requests);
        else if (arg == "--workers")
            ok = size_flag(args.workers);
        else if (arg == "--queue")
            ok = size_flag(args.queue);
        else if (arg == "--crash-rate") {
            const char* v = value();
            ok = v != nullptr;
            if (ok)
                args.crash_rate = std::atof(v);
        } else if (arg == "--misbehave")
            args.misbehave = true;
        else if (arg == "--seed") {
            const char* v = value();
            ok = v != nullptr;
            if (ok)
                args.seed = static_cast<std::uint64_t>(
                    std::strtoull(v, nullptr, 0));
        } else if (arg == "--json") {
            const char* v = value();
            ok = v != nullptr;
            if (ok)
                args.json_path = v;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return 1;
        }
        if (!ok) {
            std::fprintf(stderr, "flag %s needs a value\n",
                         arg.c_str());
            return 1;
        }
    }

    // Pre-render every benchmark circuit once; requests rotate over
    // them.
    std::vector<std::pair<std::string, int>> circuits_pool;
    for (const std::string& name : circuits::benchmarkNames()) {
        circuits::BenchmarkSpec spec =
            circuits::buildBenchmark(name).take();
        const ExprHigh& graph =
            spec.df_ooo_input ? *spec.df_ooo_input : spec.df_io;
        circuits_pool.emplace_back(printDot(graph), spec.num_tags);
    }

    std::string socket_path = "/tmp/graphiti-bench-served-" +
                              std::to_string(::getpid()) + ".sock";
    served::DaemonConfig config;
    config.socket_path = socket_path;
    config.scheduler.workers = args.workers;
    config.scheduler.queue_capacity = args.queue;
    if (args.crash_rate > 0.0) {
        char plan_text[64];
        std::snprintf(plan_text, sizeof plan_text, "seed=%llu,rate=%g",
                      static_cast<unsigned long long>(args.seed),
                      args.crash_rate);
        config.scheduler.pool.sandbox.crash_plan = plan_text;
        // A crash storm trips the breaker by design; give it a short
        // cooldown so the run measures recovery, not a long outage.
        config.scheduler.pool.breaker_backoff.cap_ms = 500.0;
    }
    served::Daemon daemon(config);
    Result<bool> started = daemon.start();
    if (!started.ok()) {
        std::fprintf(stderr, "bench_served: %s\n",
                     started.error().message.c_str());
        return 1;
    }

    faults::ConnectionPlanConfig plan_config;
    faults::ConnectionPlan plan =
        args.misbehave ? faults::ConnectionPlan(args.seed, plan_config)
                       : faults::ConnectionPlan::wellBehaved();

    // Per-verb reservoirs, keyed by JobSpec kind. The map is built
    // up-front and never mutated by the client threads — each
    // LatencyReservoir is itself thread-safe.
    std::map<std::string, obs::LatencyReservoir> latency;
    latency["verify"];
    latency["ping"];
    std::vector<ClientOutcome> outcomes(args.clients);
    auto wall_start = std::chrono::steady_clock::now();

    std::vector<std::thread> client_threads;
    for (std::size_t c = 0; c < args.clients; ++c) {
        client_threads.emplace_back([&, c] {
            served::ClientConfig cc;
            cc.socket_path = socket_path;
            cc.seed = args.seed ^ (c * 0x9e3779b97f4a7c15ULL);
            cc.backoff.base_ms = 5.0;
            cc.backoff.cap_ms = 200.0;
            cc.backoff.max_attempts = 6;
            served::Client client(cc);
            ClientOutcome& mine = outcomes[c];

            // One ping per client: a second verb in the mix, proving
            // the per-verb reservoirs keep cheap and expensive kinds
            // apart (the daemon splits the same way).
            {
                JobSpec ping;
                ping.kind = "ping";
                mine.healthy_sent += 1;
                auto t0 = std::chrono::steady_clock::now();
                Result<served::JobResponse> response =
                    client.request(ping);
                if (response.ok() &&
                    response.value().status != "rejected") {
                    mine.healthy_answered += 1;
                    latency.at("ping").record(
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
                }
            }

            for (std::size_t r = 0; r < args.requests; ++r) {
                const auto& [dot, num_tags] =
                    circuits_pool[(c + r) % circuits_pool.size()];
                // Half the salts repeat across clients → cache hits;
                // half are novel → misses.
                std::uint64_t salt = (r % 2 == 0) ? r % 4
                                                  : (c * 1000 + r);
                JobSpec spec = makeSpec(dot, num_tags, salt);

                faults::ClientAction action = plan.action(c, r);
                if (action != faults::ClientAction::Behave)
                    mine.hostile_sent += 1;
                switch (action) {
                    case faults::ClientAction::TruncateFrame: {
                        Result<net::Socket> raw =
                            net::connectUnix(socket_path);
                        if (!raw.ok())
                            break;
                        served::JobRequest req;
                        req.id = r + 1;
                        req.job = spec.toJson();
                        std::string frame = served::encodeFrame(
                            req.toJson().dump());
                        std::size_t cut =
                            plan.truncateAt(c, r, frame.size());
                        net::writeAll(raw.value(),
                                      frame.substr(0, cut), 1000);
                        break;  // hang up mid-frame
                    }
                    case faults::ClientAction::JunkFrame: {
                        Result<net::Socket> raw =
                            net::connectUnix(socket_path);
                        if (!raw.ok())
                            break;
                        net::writeAll(
                            raw.value(),
                            served::encodeFrame("Z}not json!{"),
                            1000);
                        std::string ignored;
                        served::readFrame(raw.value(), ignored, 2000);
                        break;
                    }
                    case faults::ClientAction::DisconnectAfterSend: {
                        Result<net::Socket> raw =
                            net::connectUnix(socket_path);
                        if (!raw.ok())
                            break;
                        served::JobRequest req;
                        req.id = r + 1;
                        req.job = spec.toJson();
                        net::writeAll(
                            raw.value(),
                            served::encodeFrame(req.toJson().dump()),
                            1000);
                        break;  // vanish before the response
                    }
                    case faults::ClientAction::DeadlineZero: {
                        mine.healthy_sent += 1;  // still answered
                        auto t0 = std::chrono::steady_clock::now();
                        Result<served::JobResponse> response =
                            client.request(spec, 1e-9);
                        if (response.ok()) {
                            mine.healthy_answered += 1;
                            latency.at(spec.kind).record(
                                std::chrono::duration<double,
                                                      std::milli>(
                                    std::chrono::steady_clock::now() -
                                    t0)
                                    .count());
                        }
                        break;
                    }
                    case faults::ClientAction::Behave: {
                        mine.healthy_sent += 1;
                        auto t0 = std::chrono::steady_clock::now();
                        Result<served::JobResponse> response =
                            client.request(spec);
                        if (!response.ok()) {
                            mine.transport_failures += 1;
                            break;
                        }
                        const std::string& status =
                            response.value().status;
                        if (status == "rejected") {
                            mine.rejected += 1;
                            break;
                        }
                        if (status == "error")
                            mine.errors += 1;
                        mine.healthy_answered += 1;
                        latency.at(spec.kind).record(
                            std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
                        break;
                    }
                }
                mine.sheds = client.stats().sheds_seen;
            }
        });
    }
    for (std::thread& thread : client_threads)
        thread.join();
    double wall_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();

    served::SchedulerStats sched = daemon.scheduler().stats();
    guard::VerdictStoreStats store = daemon.scheduler().store()->stats();
    // Worker-tier view: spawn/respawn/crash counters and the breaker
    // — the storm's footprint.
    obs::json::Value worker_snapshot =
        daemon.scheduler().workerPool().healthJson();
    // The service's own view — per-verb queue-wait/execute windows,
    // connection counters, journal occupancy — before stop() tears
    // the daemon down.
    obs::json::Value service_snapshot = daemon.statsJson();
    daemon.stop();

    std::size_t healthy_sent = 0, healthy_answered = 0, sheds = 0,
                hostile = 0, errors = 0, rejected = 0, silent = 0;
    for (const ClientOutcome& outcome : outcomes) {
        healthy_sent += outcome.healthy_sent;
        healthy_answered += outcome.healthy_answered;
        sheds += outcome.sheds;
        hostile += outcome.hostile_sent;
        errors += outcome.errors;
        rejected += outcome.rejected;
        silent += outcome.transport_failures;
    }
    double shed_rate =
        sched.accepted + sched.shed == 0
            ? 0.0
            : static_cast<double>(sched.shed) /
                  static_cast<double>(sched.accepted + sched.shed);
    double hit_rate =
        store.hits + store.misses == 0
            ? 0.0
            : static_cast<double>(store.hits) /
                  static_cast<double>(store.hits + store.misses);

    std::printf("bench_served: %zu clients x %zu requests "
                "(%zu hostile) in %.2fs\n",
                args.clients, args.requests, hostile, wall_seconds);
    for (const auto& [verb, reservoir] : latency)
        std::printf(
            "  latency[%s]  p50 %.1fms  p99 %.1fms  max %.1fms\n",
            verb.c_str(), reservoir.percentile(50),
            reservoir.percentile(99), reservoir.max());
    std::printf("  shed rate %.1f%%  cache hit rate %.1f%%\n",
                100.0 * shed_rate, 100.0 * hit_rate);
    std::printf("  scheduler %s\n", sched.toJson().dump().c_str());
    std::printf("  healthy answered %zu / %zu\n", healthy_answered,
                healthy_sent);
    std::printf("  workers %s\n", worker_snapshot.dump().c_str());
    if (args.crash_rate > 0.0)
        std::printf("  crash storm: %zu error, %zu shed, %zu silent "
                    "(answered rate %.1f%%)\n",
                    errors, rejected, silent,
                    healthy_sent == 0
                        ? 100.0
                        : 100.0 *
                              static_cast<double>(healthy_answered +
                                                  rejected) /
                              static_cast<double>(healthy_sent));

    // The pass bar: without a crash storm every healthy request must
    // be answered outright; under one, structured errors and honest
    // sheds are the contract — only silence (a request that never got
    // a response) fails the run.
    bool all_answered =
        args.crash_rate > 0.0
            ? silent == 0 &&
                  healthy_answered + rejected == healthy_sent
            : healthy_answered == healthy_sent;
    if (!all_answered) {
        std::size_t excused = args.crash_rate > 0.0 ? rejected : 0;
        std::fprintf(stderr,
                     "error: %zu healthy request(s) went unanswered\n",
                     healthy_sent - healthy_answered - excused);
    }

    if (!args.json_path.empty()) {
        obs::json::Value doc{obs::json::Object{}};
        doc.set("bench", "bench_served");
        doc.set("clients", args.clients);
        doc.set("requests_per_client", args.requests);
        doc.set("hostile_requests", hostile);
        doc.set("wall_seconds", wall_seconds);
        obs::json::Value latency_json{obs::json::Object{}};
        for (const auto& [verb, reservoir] : latency)
            latency_json.set(verb, reservoir.toJson());
        doc.set("latency", latency_json);
        doc.set("shed_rate", shed_rate);
        doc.set("cache_hit_rate", hit_rate);
        doc.set("scheduler", sched.toJson());
        doc.set("store", store.toJson());
        doc.set("healthy_sent", healthy_sent);
        doc.set("healthy_answered", healthy_answered);
        doc.set("workers", worker_snapshot);
        if (args.crash_rate > 0.0) {
            doc.set("crash_rate", args.crash_rate);
            doc.set("error_responses", errors);
            doc.set("shed_responses", rejected);
            doc.set("silent_requests", silent);
            doc.set("answered_rate",
                    healthy_sent == 0
                        ? 1.0
                        : static_cast<double>(healthy_answered +
                                              rejected) /
                              static_cast<double>(healthy_sent));
        }
        doc.set("service", service_snapshot);
        Result<bool> wrote =
            obs::json::writeFile(args.json_path, doc);
        if (!wrote.ok()) {
            std::fprintf(stderr,
                         "error: --json report was NOT written: %s\n",
                         wrote.error().message.c_str());
            return 1;
        }
    }
    return all_answered ? 0 : 1;
}

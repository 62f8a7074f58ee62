/**
 * @file
 * graphiti-served: the long-running compile service (docs/service.md).
 *
 * Boots a Daemon on a unix-domain socket (and optionally loopback
 * TCP), serving compile / validate / verify / profile jobs with
 * admission control, per-job deadlines, fair-share preemption and a
 * crash-safe verdict store. Runs until SIGINT/SIGTERM; `--store DIR`
 * makes committed verdicts survive restarts — including kill -9.
 *
 * Observability (docs/service_observability.md): `--flight PATH`
 * is where the service journal is dumped — on SIGUSR1, on a wedge, at
 * exit, and best-effort on fatal signals; `--log PATH` mirrors its
 * events as JSON lines; `--trace PATH` writes one service-level Perfetto
 * trace (per-job span trees keyed by correlation id) at shutdown.
 * Live introspection needs no files: `graphiti-client --stats`.
 *
 * Process isolation (docs/service.md, "Process isolation"): every
 * job runs in one of `--workers N` sandboxed worker processes with
 * resource jails derived from the job's verification budget — a
 * crashing, OOMing or wedging job costs one worker respawn and yields
 * a structured error with a post-mortem artifact; the daemon itself
 * never dies with a job.
 *
 * Usage:
 *     graphiti-served --socket PATH [--tcp PORT] [--workers N]
 *                     [--queue N] [--store DIR]
 *                     [--max-deadline S] [--wedge-grace S]
 *                     [--flight PATH] [--log PATH]
 *                     [--trace PATH]
 *
 * Exit status: 0 on clean shutdown, 2 on usage/startup errors.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "served/daemon.hpp"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_journal{false};

void
onSignal(int)
{
    g_stop.store(true);
}

void
onDumpSignal(int)
{
    g_dump_journal.store(true);
}

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--tcp PORT] [--workers N] [--queue N]\n"
        "          [--store DIR] [--max-deadline S]\n"
        "          [--wedge-grace S] [--flight PATH] [--log PATH]\n"
        "          [--trace PATH]\n"
        "  --socket PATH    unix-domain socket to listen on (required)\n"
        "  --tcp PORT       also listen on loopback TCP (0 = ephemeral)\n"
        "  --workers N      sandboxed worker processes running jobs\n"
        "                   (default 2; crash containment + jails)\n"
        "  --queue N        waiting jobs before shedding (default 8)\n"
        "  --store DIR      persist governed verdicts (crash-safe)\n"
        "  --max-deadline S clamp client deadlines to S seconds\n"
        "  --wedge-grace S  grace before a stopped or silent worker "
        "is killed\n"
        "  --flight PATH    journal dump target (SIGUSR1, wedge, exit,\n"
        "                   fatal signals)\n"
        "  --log PATH       mirror journal events as JSON lines\n"
        "  --trace PATH     write a service-level Perfetto trace at "
        "shutdown\n",
        argv0);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace graphiti;

    served::DaemonConfig config;
    std::string flight_path;
    std::string log_path;
    std::string trace_path;
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
        } else if (arg == "--workers") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.scheduler.workers =
                static_cast<std::size_t>(std::atoi(v));
        } else if (arg == "--queue") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.scheduler.queue_capacity =
                static_cast<std::size_t>(std::atoi(v));
        } else if (arg == "--store") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.scheduler.store.dir = v;
        } else if (arg == "--max-deadline") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.scheduler.max_deadline_seconds = std::atof(v);
        } else if (arg == "--wedge-grace") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            config.scheduler.wedge_grace_seconds = std::atof(v);
        } else if (arg == "--flight") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            flight_path = v;
        } else if (arg == "--log") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            log_path = v;
        } else if (arg == "--trace") {
            const char* v = value();
            if (v == nullptr)
                return usage(argv[0]);
            trace_path = v;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
            return usage(argv[0]);
        }
    }
    if (config.socket_path.empty())
        return usage(argv[0]);

    served::Daemon daemon(config);
    obs::Journal& journal = daemon.observer()->journal();
    if (!flight_path.empty()) {
        journal.setDumpPath(flight_path);
        // Best-effort post-mortem on exit / SIGSEGV / SIGABRT /
        // SIGBUS; kill -9 keeps only what an earlier dump wrote.
        obs::installCrashDump(&journal);
    }
    if (!log_path.empty()) {
        Result<bool> opened = journal.openFile(log_path);
        if (!opened.ok()) {
            std::fprintf(stderr, "graphiti-served: %s\n",
                         opened.error().message.c_str());
            return 2;
        }
    }
    std::shared_ptr<obs::PerfettoTraceSink> trace;
    if (!trace_path.empty()) {
        trace = std::make_shared<obs::PerfettoTraceSink>();
        trace->setCapacity(1 << 16);
        journal.attachSink(trace);
    }

    Result<bool> started = daemon.start();
    if (!started.ok()) {
        std::fprintf(stderr, "graphiti-served: %s\n",
                     started.error().message.c_str());
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGUSR1, onDumpSignal);

    std::printf("graphiti-served: listening on %s",
                config.socket_path.c_str());
    if (config.tcp_port >= 0)
        std::printf(" and tcp:%u", daemon.tcpPort());
    std::printf("\n");
    std::fflush(stdout);

    while (!g_stop.load()) {
        if (g_dump_journal.exchange(false) && !flight_path.empty()) {
            // SIGUSR1: dump from the main loop, where allocation and
            // locking are safe (the handler only set a flag).
            Result<bool> dumped = daemon.dumpJournal();
            std::printf("graphiti-served: journal %s %s\n",
                        dumped.ok() ? "dumped to" : "dump failed:",
                        dumped.ok()
                            ? flight_path.c_str()
                            : dumped.error().message.c_str());
            std::fflush(stdout);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    daemon.stop();
    if (!flight_path.empty())
        (void)daemon.dumpJournal();
    if (trace != nullptr) {
        Result<bool> wrote = trace->writeFile(trace_path);
        if (!wrote.ok())
            std::fprintf(stderr, "graphiti-served: trace: %s\n",
                         wrote.error().message.c_str());
    }
    served::SchedulerStats stats = daemon.scheduler().stats();
    std::printf("graphiti-served: shutting down (%s)\n",
                stats.toJson().dump().c_str());
    return 0;
}

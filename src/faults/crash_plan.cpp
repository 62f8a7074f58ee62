#include "faults/crash_plan.hpp"

#include <csignal>
#include <cstdlib>
#include <new>
#include <sstream>
#include <unistd.h>

#include "support/hash.hpp"
#include "support/rng.hpp"

namespace graphiti::faults {

namespace {

/** Salt keeping crash draws disjoint from every other plan family. */
constexpr std::uint64_t kCrashSalt = 0xC4A54ULL;

Result<CrashAction>
actionFromName(const std::string& name)
{
    if (name == "segv")
        return CrashAction::Segv;
    if (name == "abort")
        return CrashAction::Abort;
    if (name == "oom")
        return CrashAction::OomAlloc;
    if (name == "busy")
        return CrashAction::BusyLoop;
    if (name == "exit")
        return CrashAction::Exit7;
    return err("unknown crash class \"" + name + "\"");
}

const char*
matchName(CrashAction action)
{
    switch (action) {
    case CrashAction::Segv: return "segv";
    case CrashAction::Abort: return "abort";
    case CrashAction::OomAlloc: return "oom";
    case CrashAction::BusyLoop: return "busy";
    case CrashAction::Exit7: return "exit";
    case CrashAction::None: break;
    }
    return "none";
}

}  // namespace

const char*
toString(CrashAction action)
{
    switch (action) {
    case CrashAction::None: return "none";
    case CrashAction::Segv: return "segv";
    case CrashAction::Abort: return "abort";
    case CrashAction::OomAlloc: return "oom-alloc";
    case CrashAction::BusyLoop: return "busy-loop";
    case CrashAction::Exit7: return "exit-7";
    }
    return "none";
}

CrashPlan
CrashPlan::storm(std::uint64_t seed, double rate)
{
    CrashPlanConfig config;
    double each = rate / 5.0;
    config.segv_rate = each;
    config.abort_rate = each;
    config.oom_rate = each;
    config.busy_rate = each;
    config.exit_rate = each;
    return CrashPlan(seed, config);
}

Result<CrashPlan>
CrashPlan::parse(const std::string& text)
{
    CrashPlan plan;
    std::stringstream stream(text);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            return err("crash plan item \"" + item +
                       "\" is not key=value");
        std::string key = item.substr(0, eq);
        std::string value = item.substr(eq + 1);
        if (key == "seed") {
            plan.seed_ = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "kill") {
            std::size_t colon = value.find(':');
            if (colon == std::string::npos)
                return err("kill match \"" + value +
                           "\" is not prefix:class");
            Result<CrashAction> action =
                actionFromName(value.substr(colon + 1));
            if (!action.ok())
                return action.error().context("CrashPlan::parse");
            plan.addMatch(value.substr(0, colon), action.take());
        } else {
            char* end = nullptr;
            double rate = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || rate < 0.0 || rate > 1.0)
                return err("crash rate \"" + item +
                           "\" is not a probability");
            if (key == "rate") {
                double each = rate / 5.0;
                plan.config_.segv_rate = each;
                plan.config_.abort_rate = each;
                plan.config_.oom_rate = each;
                plan.config_.busy_rate = each;
                plan.config_.exit_rate = each;
            } else if (key == "segv") {
                plan.config_.segv_rate = rate;
            } else if (key == "abort") {
                plan.config_.abort_rate = rate;
            } else if (key == "oom") {
                plan.config_.oom_rate = rate;
            } else if (key == "busy") {
                plan.config_.busy_rate = rate;
            } else if (key == "exit") {
                plan.config_.exit_rate = rate;
            } else {
                return err("unknown crash plan key \"" + key + "\"");
            }
        }
    }
    return plan;
}

std::string
CrashPlan::render() const
{
    std::ostringstream out;
    out << "seed=" << seed_;
    auto rate = [&](const char* key, double value) {
        if (value > 0.0)
            out << "," << key << "=" << value;
    };
    rate("segv", config_.segv_rate);
    rate("abort", config_.abort_rate);
    rate("oom", config_.oom_rate);
    rate("busy", config_.busy_rate);
    rate("exit", config_.exit_rate);
    for (const auto& [prefix, action] : matches_)
        out << ",kill=" << prefix << ":" << matchName(action);
    return out.str();
}

bool
CrashPlan::armed() const
{
    return config_.total() > 0.0 || !matches_.empty();
}

CrashAction
CrashPlan::action(const std::string& job_id,
                  const std::string& site) const
{
    for (const auto& [prefix, action] : matches_)
        if (job_id.rfind(prefix, 0) == 0)
            return action;
    if (config_.total() <= 0.0)
        return CrashAction::None;
    double roll = drawAt(seed_, kCrashSalt, fnv1a64(kFnvOffset, job_id),
                         fnv1a64(kFnvOffset, site))
                      .uniform();
    double edge = config_.segv_rate;
    if (roll < edge)
        return CrashAction::Segv;
    edge += config_.abort_rate;
    if (roll < edge)
        return CrashAction::Abort;
    edge += config_.oom_rate;
    if (roll < edge)
        return CrashAction::OomAlloc;
    edge += config_.busy_rate;
    if (roll < edge)
        return CrashAction::BusyLoop;
    edge += config_.exit_rate;
    if (roll < edge)
        return CrashAction::Exit7;
    return CrashAction::None;
}

void
CrashPlan::addMatch(const std::string& job_prefix, CrashAction action)
{
    matches_.emplace_back(job_prefix, action);
}

void
executeCrashAction(CrashAction action)
{
    switch (action) {
    case CrashAction::None:
        return;
    case CrashAction::Segv: {
        // A sanitizer runtime intercepts SIGSEGV and turns the death
        // into a reported exit(1), which would reclassify the crash;
        // restore the default disposition so the kernel kills this
        // process by the real signal in every build flavor.
        std::signal(SIGSEGV, SIG_DFL);
        std::signal(SIGBUS, SIG_DFL);
        volatile int* null = nullptr;
        *null = 42;  // NOLINT: the whole point
        _exit(111);  // unreachable; belt-and-braces if SEGV is blocked
    }
    case CrashAction::Abort:
        std::abort();
    case CrashAction::OomAlloc: {
        // Allocate-and-touch until the rlimit jail ends the process
        // (operator new past RLIMIT_AS reaches the child's
        // oom _exit new-handler; without a jail this would actually
        // exhaust memory, so only sandboxed runs ever draw it).
        std::vector<char*> hoard;
        for (;;) {
            char* chunk = new char[std::size_t{1} << 20];
            for (std::size_t i = 0; i < (std::size_t{1} << 20);
                 i += 4096)
                chunk[i] = static_cast<char>(i);
            hoard.push_back(chunk);
        }
    }
    case CrashAction::BusyLoop: {
        // Spin without yielding or heartbeating: the parent's wedge
        // SIGKILL is the only way out. volatile keeps the loop a real
        // loop (an empty infinite loop is UB the optimizer may drop).
        volatile std::uint64_t spin = 0;
        for (;;)
            spin = spin + 1;
    }
    case CrashAction::Exit7:
        _exit(7);
    }
}

}  // namespace graphiti::faults

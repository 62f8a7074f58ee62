#include "faults/fault_plan.hpp"

#include <algorithm>

#include "support/hash.hpp"
#include "support/rng.hpp"

namespace graphiti::faults {

namespace {

/** Salts keeping the per-fault hash streams independent. */
constexpr std::uint64_t kStallSalt = 0xA11CE5ULL;
constexpr std::uint64_t kReadySalt = 0x4EADBULL;
constexpr std::uint64_t kJitterSalt = 0x7177E4ULL;
constexpr std::uint64_t kSqueezeSalt = 0x590E32ULL;

}  // namespace

std::uint64_t
derivePlanSeed(std::uint64_t base, const std::string& name,
               std::size_t index)
{
    // Mix the family name in first (FNV-1a), then run the combined
    // state through a splitmix draw so neighbouring (base, index)
    // pairs land far apart.
    std::uint64_t h =
        fnv1a64(kFnvOffset, name) ^ (base * 0x9e3779b97f4a7c15ULL);
    return Rng(h ^ (static_cast<std::uint64_t>(index) *
                    0xc2b2ae3d27d4eb4fULL))
        .next();
}

FaultPlan
FaultPlan::none()
{
    return FaultPlan(Kind::None);
}

FaultPlan
FaultPlan::random(std::uint64_t seed, const FaultPlanConfig& config)
{
    FaultPlan plan(Kind::Random);
    plan.seed_ = seed;
    plan.config_ = config;
    return plan;
}

FaultPlan
FaultPlan::starveChannel(std::size_t channel, std::size_t until_cycle)
{
    FaultPlan plan(Kind::Starve);
    plan.target_channel_ = channel;
    plan.until_ = until_cycle;
    return plan;
}

FaultPlan
FaultPlan::maxBackpressure(std::size_t until_cycle)
{
    FaultPlan plan(Kind::Backpressure);
    plan.until_ = until_cycle;
    return plan;
}

FaultPlan
FaultPlan::singleSlot()
{
    return FaultPlan(Kind::SingleSlot);
}

std::string
FaultPlan::describe() const
{
    switch (kind_) {
        case Kind::None:
            return "baseline";
        case Kind::Random:
            return "random(seed=" + std::to_string(seed_) + ")";
        case Kind::Starve:
            return "starve(channel=" +
                   std::to_string(target_channel_) + ", until=" +
                   std::to_string(until_) + ")";
        case Kind::Backpressure:
            return "max-backpressure(until=" + std::to_string(until_) +
                   ")";
        case Kind::SingleSlot:
            return "single-slot-everywhere";
    }
    return "unknown";
}

int
FaultPlan::latencyJitter(const std::string& node, std::size_t cycle)
{
    if (kind_ != Kind::Random || cycle >= config_.horizon ||
        config_.max_jitter <= 0)
        return 0;
    Rng rng =
        drawAt(seed_, kJitterSalt, fnv1a64(kFnvOffset, node), cycle);
    if (!rng.chance(config_.jitter_rate))
        return 0;
    return 1 + static_cast<int>(rng.below(
                   static_cast<std::uint64_t>(config_.max_jitter)));
}

bool
FaultPlan::dropValid(std::size_t channel, std::size_t cycle)
{
    if (kind_ == Kind::Starve)
        return channel == target_channel_ && cycle < until_;
    if (kind_ != Kind::Random || cycle >= config_.horizon ||
        config_.burst_window == 0)
        return false;
    std::size_t window = cycle / config_.burst_window;
    Rng rng = drawAt(seed_, kStallSalt, channel, window);
    if (!rng.chance(config_.stall_burst_rate))
        return false;
    std::size_t offset = rng.below(config_.burst_window);
    std::size_t length =
        1 + rng.below(std::max<std::size_t>(1, config_.max_burst));
    std::size_t pos = cycle % config_.burst_window;
    return pos >= offset && pos < offset + length;
}

bool
FaultPlan::dropReady(std::size_t channel, std::size_t cycle)
{
    if (kind_ == Kind::Backpressure)
        return cycle < until_ && cycle % 2 == 1;
    if (kind_ != Kind::Random || cycle >= config_.horizon)
        return false;
    Rng rng = drawAt(seed_, kReadySalt, channel, cycle);
    return rng.chance(config_.ready_drop_rate);
}

std::size_t
FaultPlan::adjustCapacity(std::size_t channel, std::size_t base,
                          bool pinned)
{
    if (pinned || base <= 1)
        return base;
    if (kind_ == Kind::SingleSlot)
        return 1;
    if (kind_ == Kind::Random && config_.squeeze) {
        Rng rng = drawAt(seed_, kSqueezeSalt, channel, 0);
        return 1 + rng.below(base);
    }
    return base;
}

std::size_t
FaultPlan::horizon() const
{
    switch (kind_) {
        case Kind::Random:
            return config_.horizon;
        case Kind::Starve:
        case Kind::Backpressure:
            return until_;
        case Kind::None:
        case Kind::SingleSlot:
            return 0;
    }
    return 0;
}

}  // namespace graphiti::faults

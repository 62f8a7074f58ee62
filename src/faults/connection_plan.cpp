#include "faults/connection_plan.hpp"

#include "support/rng.hpp"

namespace graphiti::faults {

const char*
toString(ClientAction action)
{
    switch (action) {
        case ClientAction::Behave: return "behave";
        case ClientAction::TruncateFrame: return "truncate-frame";
        case ClientAction::DisconnectAfterSend:
            return "disconnect-after-send";
        case ClientAction::DeadlineZero: return "deadline-zero";
        case ClientAction::JunkFrame: return "junk-frame";
    }
    return "unknown";
}

namespace {

constexpr std::uint64_t kActionSalt = 0xC0AC7ULL;
constexpr std::uint64_t kCutSalt = 0x7C07CULL;

}  // namespace

ClientAction
ConnectionPlan::action(std::size_t client, std::size_t request) const
{
    if (seed_ == 0)
        return ClientAction::Behave;
    double draw = drawAt(seed_, kActionSalt, client, request).uniform();
    double edge = config_.truncate_rate;
    if (draw < edge)
        return ClientAction::TruncateFrame;
    edge += config_.disconnect_rate;
    if (draw < edge)
        return ClientAction::DisconnectAfterSend;
    edge += config_.deadline_zero_rate;
    if (draw < edge)
        return ClientAction::DeadlineZero;
    edge += config_.junk_rate;
    if (draw < edge)
        return ClientAction::JunkFrame;
    return ClientAction::Behave;
}

std::size_t
ConnectionPlan::truncateAt(std::size_t client, std::size_t request,
                           std::size_t frame_size) const
{
    if (frame_size <= 1)
        return frame_size;
    Rng rng = drawAt(seed_, kCutSalt, client, request);
    return 1 + static_cast<std::size_t>(rng.below(frame_size - 1));
}

}  // namespace graphiti::faults

#include "mem/hbm_subsystem.hh"

#include "sim/access_tracker.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace mem
{

HbmSubsystem::HbmSubsystem(SimObject *parent, const std::string &name,
                           const HbmSubsystemParams &params)
    : SimObject(parent, name),
      channels_dark(this, "channels_dark",
                    "HBM channels mapped out by faults"),
      degraded_peak_gbps(this, "degraded_peak_gbps",
                         "surviving peak HBM bandwidth, GB/s",
                         [this] { return peakHbmBandwidth() / 1e9; }),
      channel_bandwidth_(params.channel.bandwidth),
      channel_dead_(InterleaveMap(params.num_stacks,
                                  params.channels_per_stack,
                                  params.capacity_bytes, params.numa)
                        .numChannels(),
                    false),
      live_channels_(numChannels())
{
}

void
HbmSubsystem::blackoutChannel(unsigned channel)
{
    if (channel >= numChannels())
        fatal(name(), ": no HBM channel ", channel, " (",
              numChannels(), " channels)");
    if (channel_dead_[channel])
        fatal(name(), ": HBM channel ", channel, " already dark");
    if (live_channels_ == 1)
        fatal(name(), ": cannot blackout the last live HBM channel");
    // A same-tick reader of the live count would see an
    // order-dependent bandwidth.
    EHPSIM_TRACK_WRITE(this, "channels");
    channel_dead_[channel] = true;
    --live_channels_;
    ++channels_dark;
}

bool
HbmSubsystem::channelAlive(unsigned channel) const
{
    return channel < numChannels() && !channel_dead_[channel];
}

void
HbmSubsystem::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    w.putU32(numChannels());
    for (const bool dead : channel_dead_)
        w.putBool(dead);
    w.putU32(live_channels_);
}

void
HbmSubsystem::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    const std::uint32_t n = r.getU32();
    if (n != numChannels()) {
        fatal(name(), ": snapshot saved with ", n,
              " HBM channels but configured with ", numChannels(),
              " — checkpoint/config mismatch");
    }
    for (unsigned c = 0; c < n; ++c)
        channel_dead_[c] = r.getBool();
    live_channels_ = r.getU32();
}

BytesPerSecond
HbmSubsystem::peakHbmBandwidth() const
{
    return channel_bandwidth_ * live_channels_;
}

} // namespace mem
} // namespace ehpsim

/**
 * @file
 * The in-package memory config and the HBM channel liveness that the
 * blackout fault acts on (paper Sec. IV.D).
 *
 * MI300A: 8 stacks x 16 channels = 128 channels, 128 GB, ~5.3 TB/s
 * HBM peak. HbmSubsystemParams is each product's memory config;
 * soc::Package builds the timed path from it (interleave map,
 * Infinity Cache slices, channels). HbmSubsystem holds only which
 * of those channels are still in service, so a fault can map one
 * out and a reader (the serving engine) can derate by the live
 * fraction. It has no timed path and builds no children.
 */

#ifndef EHPSIM_MEM_HBM_SUBSYSTEM_HH
#define EHPSIM_MEM_HBM_SUBSYSTEM_HH

#include <vector>

#include "mem/dram.hh"
#include "mem/infinity_cache.hh"
#include "mem/interleave.hh"
#include "sim/sim_object.hh"

namespace ehpsim
{
namespace mem
{

struct HbmSubsystemParams
{
    unsigned num_stacks = 8;
    unsigned channels_per_stack = 16;
    std::uint64_t capacity_bytes = 128ull * 1024 * 1024 * 1024;
    NumaMode numa = NumaMode::nps1;
    DramParams channel = hbm3ChannelParams();
    InfinityCacheParams cache;          ///< per-channel slice
    bool enable_infinity_cache = true;  ///< MI250X has none
};

class HbmSubsystem : public SimObject
{
  public:
    /** Fatal on a geometry InterleaveMap rejects. */
    HbmSubsystem(SimObject *parent, const std::string &name,
                 const HbmSubsystemParams &params);

    unsigned
    numChannels() const
    {
        return static_cast<unsigned>(channel_dead_.size());
    }

    /**
     * Map out @p channel (HBM fault): peak bandwidth drops by one
     * channel's share. Fatal on a bad index, a channel that is
     * already dark, or the last live channel.
     */
    void blackoutChannel(unsigned channel);

    bool channelAlive(unsigned channel) const;

    /** Channels still in service. */
    unsigned liveChannels() const { return live_channels_; }

    /** Peak HBM bandwidth across the live channels (bytes/s). */
    BytesPerSecond peakHbmBandwidth() const;

    /** @{ statistics */
    stats::Scalar channels_dark;
    stats::Formula degraded_peak_gbps;
    /** @} */

    /** @{ checkpoint: stats, then the dead bits and the live count
     *  (DESIGN.md §16) */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    BytesPerSecond channel_bandwidth_;
    std::vector<bool> channel_dead_;
    unsigned live_channels_;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_HBM_SUBSYSTEM_HH

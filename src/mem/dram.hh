/**
 * @file
 * Coarse DRAM channel timing models: HBM and DDR.
 *
 * A DramChannel serves line-granular requests with a fixed access
 * latency, a serializing data bus (channel bandwidth), and a small
 * bank model: each bank is busy for tRC after being activated, so
 * pathological same-bank streams degrade below peak bandwidth while
 * well-interleaved streams reach it.
 */

#ifndef EHPSIM_MEM_DRAM_HH
#define EHPSIM_MEM_DRAM_HH

#include <vector>

#include "mem/mem_device.hh"
#include "sim/units.hh"

namespace ehpsim
{
namespace mem
{

struct DramParams
{
    BytesPerSecond bandwidth = gbps(41.4); ///< per-channel peak
    Tick access_latency = 120'000;         ///< ps; ~120 ns loaded
    unsigned num_banks = 16;
    Tick t_rc = 45'000;                    ///< ps; row-cycle time
    std::uint64_t row_bytes = 1024;        ///< bank row granularity
};

/** HBM3-class channel defaults (MI300A: 5.3 TB/s / 128 channels). */
DramParams hbm3ChannelParams();

/** HBM2e-class channel defaults (MI250X: 3.2 TB/s / 64 channels). */
DramParams hbm2eChannelParams();

class DramChannel : public MemDevice
{
  public:
    DramChannel(SimObject *parent, const std::string &name,
                const DramParams &params);

    AccessResult access(Tick when, Addr addr, std::uint64_t bytes,
                        bool write) override;

    const DramParams &params() const { return params_; }

    /** Achieved bandwidth over the channel's lifetime. */
    double achievedBandwidth(Tick now) const;

    /** @{ statistics */
    stats::Scalar reads;
    stats::Scalar writes;
    stats::Scalar bytes_served;
    stats::Scalar bank_conflicts;
    /** @} */

    /** @{ checkpoint: stats (base) + bus windows, per-bank timing
     *  and open-row state, and the lifetime watermarks
     *  (DESIGN.md §16) */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    DramParams params_;
    OccupancyTracker bus_;
    std::vector<Tick> bank_free_;
    std::vector<bool> bank_open_;
    std::vector<std::uint64_t> open_row_;
    Tick first_access_ = maxTick;
    Tick last_complete_ = 0;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_DRAM_HH

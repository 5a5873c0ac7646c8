/**
 * @file
 * A timed write-back, write-allocate cache level built on CacheArray.
 *
 * Used for the GPU L1D (32 KB, 128 B lines), shared instruction
 * caches, XCD L2 (4 MB), CPU L1/L2/L3, and as the base of the
 * Infinity Cache slices. Misses recurse into the next level
 * (another MemDevice), writebacks of dirty victims are issued as
 * writes below, and all traffic is accounted in stats.
 */

#ifndef EHPSIM_MEM_CACHE_HH
#define EHPSIM_MEM_CACHE_HH

#include "mem/cache_array.hh"
#include "mem/mem_device.hh"

namespace ehpsim
{
namespace mem
{

/** Static configuration for a Cache. */
struct CacheParams
{
    std::uint64_t size_bytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned line_bytes = 128;
    Cycles latency_cycles = 4;          ///< hit latency
    double clock_ghz = 2.0;             ///< clock for latency/bandwidth
    double bytes_per_cycle = 64;        ///< port bandwidth
};

class Cache : public MemDevice
{
  public:
    Cache(SimObject *parent, const std::string &name,
          const CacheParams &params, MemDevice *below);

    AccessResult access(Tick when, Addr addr, std::uint64_t bytes,
                        bool write) override;

    /** Writeback+invalidate everything (GPU release at device scope). */
    std::uint64_t flush(Tick when);

    const CacheArray &array() const { return array_; }

    const CacheParams &params() const { return params_; }

    double
    hitRate() const
    {
        const double a = hits.value() + misses.value();
        return a > 0 ? hits.value() / a : 0.0;
    }

    MemDevice *below() const { return below_; }

    /** @{ statistics */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar writebacks;
    stats::Scalar bytes_read;
    stats::Scalar bytes_written;
    stats::Scalar probe_invalidations;
    /** @} */

  private:
    CacheParams params_;
    CacheArray array_;
    MemDevice *below_;
    OccupancyTracker port_;
    Tick latency_ticks_;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_CACHE_HH

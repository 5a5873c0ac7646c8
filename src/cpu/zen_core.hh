/**
 * @file
 * An abstract "Zen"-class CPU core (paper Sec. IV.C).
 *
 * MI300A's CCDs carry eight "Zen 4" cores. ehpsim does not execute
 * x86; a ZenCore consumes abstract work descriptors (scalar ops,
 * vector flops, memory footprint) and models time with a sustained
 * IPC, the AVX-512 vector rate, and its L1/L2 caches in front of the
 * CCD's shared L3. Zen 3 parameters are provided for generational
 * comparisons (the paper lists the Zen 4 upgrades: 1 MB L2, AVX-512,
 * higher clocks and IPC).
 */

#ifndef EHPSIM_CPU_ZEN_CORE_HH
#define EHPSIM_CPU_ZEN_CORE_HH

#include <memory>

#include "mem/cache.hh"

namespace ehpsim
{
namespace cpu
{

enum class ZenGen
{
    zen3,
    zen4,
};

struct ZenCoreParams
{
    ZenGen gen = ZenGen::zen4;
    double clock_ghz = 3.7;
    double sustained_ipc = 4.0;
    double fp64_flops_per_cycle = 16.0;  ///< AVX-512 double-pumped
    double fp32_flops_per_cycle = 32.0;
    mem::CacheParams l1d;   ///< 32 KB
    mem::CacheParams l2;    ///< 1 MB (Zen 4), 512 KB (Zen 3)
};

ZenCoreParams zen4CoreParams();
ZenCoreParams zen3CoreParams();

/** Abstract work executed by a core. */
struct CpuWork
{
    std::uint64_t scalar_ops = 0;
    std::uint64_t flops = 0;
    bool fp64 = true;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    Addr read_base = 0;
    Addr write_base = 0;
};

class ZenCore : public SimObject
{
  public:
    /** @param l3 The CCD's shared L3 (next level below core L2). */
    ZenCore(SimObject *parent, const std::string &name,
            const ZenCoreParams &params, mem::MemDevice *l3);

    const ZenCoreParams &params() const { return params_; }

    mem::Cache *l1d() { return l1d_.get(); }

    mem::Cache *l2() { return l2_.get(); }

    Tick busyUntil() const { return busy_until_; }

    /** Run @p work; @return completion tick. */
    Tick run(Tick start, const CpuWork &work);

    /**
     * Spin-wait on a coherent flag (paper Fig. 15): the core polls
     * every @p poll_interval until @p flag_set_at, then pays one
     * cache-miss latency to observe the flag.
     * @return the tick at which the core proceeds.
     */
    Tick spinWait(Tick start, Tick flag_set_at, Tick poll_interval,
                  Tick observe_latency);

    /** @{ statistics */
    stats::Scalar instructions;
    stats::Scalar total_flops;
    stats::Scalar spin_polls;
    /** @} */

  private:
    ZenCoreParams params_;
    std::unique_ptr<mem::Cache> l1d_;
    std::unique_ptr<mem::Cache> l2_;
    Tick busy_until_ = 0;
    Tick period_;
};

} // namespace cpu
} // namespace ehpsim

#endif // EHPSIM_CPU_ZEN_CORE_HH

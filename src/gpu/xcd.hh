/**
 * @file
 * The accelerator complex die (XCD), paper Sec. IV.B.
 *
 * Each XCD physically implements 40 CUs but exposes 38 for yield
 * harvesting. Shared global resources include the scheduler, the
 * hardware queues, and four Asynchronous Compute Engines (ACEs) that
 * send compute workgroups to the CUs. The CUs share a 4 MB L2 that
 * coalesces all memory traffic leaving the die, and each pair of CUs
 * shares a 64 KB instruction cache.
 */

#ifndef EHPSIM_GPU_XCD_HH
#define EHPSIM_GPU_XCD_HH

#include <memory>
#include <vector>

#include "gpu/compute_unit.hh"

namespace ehpsim
{
namespace gpu
{

struct XcdParams
{
    CuParams cu = cdna3CuParams();
    unsigned physical_cus = 40;
    unsigned active_cus = 38;       ///< harvested for yield
    unsigned num_aces = 4;
    Cycles dispatch_cycles = 16;    ///< ACE cycles per workgroup launch
    mem::CacheParams l2;            ///< 4 MB shared L2
    mem::CacheParams icache;        ///< 64 KB per CU pair
};

/** MI300-class XCD defaults (CDNA 3). */
XcdParams cdna3XcdParams();

/** MI250X GCD expressed in the same terms (CDNA 2, 110 CUs). */
XcdParams cdna2GcdParams();

class Xcd : public SimObject
{
  public:
    /**
     * @param below Where L2 misses go (fabric adapter or memory).
     */
    Xcd(SimObject *parent, const std::string &name,
        const XcdParams &params, mem::MemDevice *below);

    const XcdParams &params() const { return params_; }

    unsigned numActiveCus() const { return params_.active_cus; }

    mem::Cache *l2() { return l2_.get(); }

    ComputeUnit *cu(unsigned i) { return cus_[i].get(); }

    std::vector<mem::Cache *> l1Caches();

    /** Aggregate peak flops/s over the active CUs. */
    double peakFlops(Pipe pipe, DataType dt, bool sparse = false) const;

    /**
     * Launch one workgroup through an ACE onto the least-loaded CU.
     * @return the workgroup's completion tick.
     */
    Tick dispatchWorkgroup(Tick when, const WorkgroupWork &work);

    /** Fraction of CU busy-time among dispatched workgroups. */
    double averageCuUtilization(Tick now) const;

    /** @{ statistics */
    stats::Scalar workgroups_dispatched;
    stats::Scalar ace_stall_ticks;
    /** @} */

  private:
    XcdParams params_;
    std::unique_ptr<mem::Cache> l2_;
    std::vector<std::unique_ptr<mem::Cache>> icaches_;
    std::vector<std::unique_ptr<ComputeUnit>> cus_;
    std::vector<Tick> ace_free_;
    unsigned next_ace_ = 0;
    Tick dispatch_period_;
};

} // namespace gpu
} // namespace ehpsim

#endif // EHPSIM_GPU_XCD_HH

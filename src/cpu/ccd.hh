/**
 * @file
 * The CPU complex die (CCD): eight Zen cores sharing a 32 MB L3
 * (paper Sec. IV.C). The MI300A carries three CCDs for 24 cores;
 * CCDs run the OS and all host-side code, and in EPYC products the
 * same die connects over a 2D SerDes interface instead of the 3D
 * hybrid-bonded interface (modeled in soc/).
 */

#ifndef EHPSIM_CPU_CCD_HH
#define EHPSIM_CPU_CCD_HH

#include <memory>
#include <vector>

#include "cpu/zen_core.hh"

namespace ehpsim
{
namespace cpu
{

struct CcdParams
{
    ZenCoreParams core = zen4CoreParams();
    unsigned num_cores = 8;
    mem::CacheParams l3;    ///< 32 MB shared
};

CcdParams zen4CcdParams();
CcdParams zen3CcdParams();

class Ccd : public SimObject
{
  public:
    /** @param below Where L3 misses go (fabric adapter or memory). */
    Ccd(SimObject *parent, const std::string &name,
        const CcdParams &params, mem::MemDevice *below);

    const CcdParams &params() const { return params_; }

    unsigned numCores() const { return params_.num_cores; }

    ZenCore *core(unsigned i) { return cores_[i].get(); }

    mem::Cache *l3() { return l3_.get(); }

    /**
     * Split @p work evenly over @p n_cores cores (all when 0) and run
     * the shards concurrently. @return the last completion tick.
     */
    Tick runParallel(Tick start, const CpuWork &work,
                     unsigned n_cores = 0);

    /** Completion tick of everything issued so far. */
    Tick drainTime() const;

  private:
    CcdParams params_;
    std::unique_ptr<mem::Cache> l3_;
    std::vector<std::unique_ptr<ZenCore>> cores_;
};

} // namespace cpu
} // namespace ehpsim

#endif // EHPSIM_CPU_CCD_HH

/**
 * @file
 * Socket power modeling (paper Sec. V.E, Fig. 12a).
 *
 * MI300A can dynamically reallocate power between physical
 * components: compute-intensive phases direct most of the budget to
 * the XCD/CCD chiplets, while memory-intensive phases shift power to
 * HBM, the Infinity Cache and data fabric, and the USR links. The
 * PowerModel tracks per-component idle/peak envelopes and converts
 * utilizations into demands; the PowerGovernor (governor.hh)
 * allocates a TDP among them.
 */

#ifndef EHPSIM_POWER_POWER_MODEL_HH
#define EHPSIM_POWER_POWER_MODEL_HH

#include <string>
#include <vector>

#include "sim/sim_object.hh"

namespace ehpsim
{
namespace power
{

/** Power-consuming component classes (Fig. 12a's stack bars). */
enum class Domain
{
    xcd,            ///< GPU compute chiplets
    ccd,            ///< CPU compute chiplets
    infinityCache,  ///< memory-side cache SRAM
    fabric,         ///< data fabric within the IODs
    usr,            ///< USR PHYs between IODs
    hbm,            ///< HBM stacks and PHYs
    io,             ///< x16 I/O
    other,          ///< misc/SoC overhead
};

constexpr unsigned numDomains = 8;

const char *domainName(Domain d);

/** One modelled component. */
struct Component
{
    std::string name;
    Domain domain = Domain::other;
    double idle_w = 0;
    double peak_w = 0;

    /** Power at a utilization in [0, 1]. */
    double
    powerAt(double utilization) const
    {
        if (utilization < 0)
            utilization = 0;
        if (utilization > 1)
            utilization = 1;
        return idle_w + (peak_w - idle_w) * utilization;
    }
};

/** A normalized power split across domains (sums to 1). */
struct PowerDistribution
{
    double share[numDomains] = {};

    double total() const;

    void normalize();
};

/**
 * Representative distributions from Fig. 12(a): where the socket
 * power goes in compute-intensive vs memory-intensive phases.
 */
PowerDistribution computeIntensiveDistribution();
PowerDistribution memoryIntensiveDistribution();

class PowerModel : public SimObject
{
  public:
    PowerModel(SimObject *parent, const std::string &name,
               double tdp_w);

    double tdp() const { return tdp_w_; }

    void addComponent(const Component &c) { components_.push_back(c); }

    const std::vector<Component> &components() const
    {
        return components_;
    }

    /** Sum of idle power — the floor the governor cannot go below. */
    double idlePower() const;

    /** Sum of peak power — the unconstrained maximum. */
    double maxPower() const;

    /** MI300A-flavoured component set at a 550 W TDP. */
    static PowerModel *makeMi300a(SimObject *parent);

  private:
    double tdp_w_;
    std::vector<Component> components_;
};

} // namespace power
} // namespace ehpsim

#endif // EHPSIM_POWER_POWER_MODEL_HH

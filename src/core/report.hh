/**
 * @file
 * Run reports shared by the roofline and event engines.
 */

#ifndef EHPSIM_CORE_REPORT_HH
#define EHPSIM_CORE_REPORT_HH

#include <string>
#include <vector>

namespace ehpsim
{
namespace core
{

/** Timing breakdown of one workload phase. */
struct PhaseTiming
{
    std::string name;
    double gpu_s = 0;
    double cpu_s = 0;
    double transfer_s = 0;      ///< hipMemcpy-style copies
    double overhead_s = 0;      ///< launch/sync/alloc
    double total_s = 0;         ///< wall contribution (may overlap)
};

struct RunReport
{
    std::string machine;
    std::string workload;
    std::vector<PhaseTiming> phases;
    double total_s = 0;

    /** @{ energy breakdown (event engine only; joules) */
    double fabric_energy_j = 0;     ///< link transfer energy
    double hbm_energy_j = 0;        ///< DRAM access energy
    double compute_energy_j = 0;    ///< math energy
    /** @} */

    double
    totalEnergyJoules() const
    {
        return fabric_energy_j + hbm_energy_j + compute_energy_j;
    }

    /** Average power over the run, watts. */
    double
    averagePowerWatts() const
    {
        return total_s > 0 ? totalEnergyJoules() / total_s : 0.0;
    }

    double gpuSeconds() const;
    double cpuSeconds() const;
    double transferSeconds() const;

    /** Achieved flops/s given the workload's GPU flops. */
    double
    achievedGpuFlops(double total_flops) const
    {
        return total_s > 0 ? total_flops / total_s : 0.0;
    }
};

} // namespace core
} // namespace ehpsim

#endif // EHPSIM_CORE_REPORT_HH

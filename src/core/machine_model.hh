/**
 * @file
 * Analytical machine models for the roofline engine.
 *
 * A MachineModel captures the handful of aggregate rates that decide
 * the paper's product-level comparisons: peak math per data type,
 * memory and cache bandwidth, capacities, CPU rates, and — the crux
 * of the APU story — whether CPU and GPU share one memory (unified)
 * or are coupled by an external link (discrete). Presets cover every
 * system the paper evaluates, including the Fig. 21 baseline GPU.
 */

#ifndef EHPSIM_CORE_MACHINE_MODEL_HH
#define EHPSIM_CORE_MACHINE_MODEL_HH

#include <map>
#include <string>

#include "gpu/cdna.hh"
#include "sim/units.hh"

namespace ehpsim
{
namespace core
{

struct MachineModel
{
    std::string name;

    /** @{ GPU math: derived from gen/CUs/clock unless overridden */
    gpu::CdnaGen gen = gpu::CdnaGen::cdna3;
    unsigned num_cus = 228;
    double gpu_clock_ghz = 1.7;
    /** Explicit overrides in flops/s, keyed by (pipe, dtype). */
    std::map<std::pair<gpu::Pipe, gpu::DataType>, double>
        explicit_flops;
    /** Fraction of peak math an optimized kernel sustains. */
    double gpu_efficiency = 0.75;
    /** @} */

    /** @{ memory system */
    BytesPerSecond mem_bw = tbps(5.3);
    double mem_efficiency = 0.85;
    BytesPerSecond cache_bw = tbps(17.0);
    std::uint64_t cache_capacity = 256ull * 1024 * 1024;
    std::uint64_t mem_capacity = 128ull * 1024 * 1024 * 1024;
    /** @} */

    /** @{ CPU */
    double cpu_flops = 1.4e12;      ///< 24 Zen4 cores AVX-512
    BytesPerSecond cpu_mem_bw = tbps(5.3);  ///< what the CPU sees
    /** @} */

    /** @{ CPU/GPU coupling */
    bool unified = true;
    BytesPerSecond host_link_bw = gbps(36.0);   ///< per direction
    Tick host_link_latency = 1'500'000;         ///< 1.5 us
    double kernel_launch_s = 8e-6;
    double sync_overhead_s = 4e-6;
    double alloc_overhead_s = 10e-6;            ///< per device alloc
    /** @} */

    /** Peak flops/s for a pipe/type, honoring overrides. */
    double gpuPeakFlops(gpu::Pipe pipe, gpu::DataType dt,
                        bool sparse = false) const;

    /** Effective bandwidth for a streaming footprint of @p bytes. */
    BytesPerSecond effectiveMemBandwidth(std::uint64_t footprint) const;
};

/** MI300A APU (unified memory). */
MachineModel mi300aModel();

/** MI300X accelerator attached to a host over PCIe. */
MachineModel mi300xModel();

/**
 * Frontier-style discrete node slice: one MI250X (both GCDs) plus
 * EPYC host over Infinity Fabric; separate memories.
 */
MachineModel mi250xNodeModel();

/** CPU-only EPYC node (Fig. 14a's baseline). */
MachineModel epycCpuModel();

/** The Fig. 21 baseline GPU (H100-class, 80 GB @ 3.35 TB/s). */
MachineModel baselineGpuModel();

} // namespace core
} // namespace ehpsim

#endif // EHPSIM_CORE_MACHINE_MODEL_HH

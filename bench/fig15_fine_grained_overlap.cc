/**
 * @file
 * Reproduces paper Fig. 15: fine-grained decoupling of GPU and CPU
 * execution via per-element completion flags in coherent unified
 * memory. Compares the original kernel-level synchronization
 * timeline (Fig. 15c) against the overlapped timeline (Fig. 15b) on
 * both the roofline engine and the event engine (where the CPU
 * spin-waits on coherent flags).
 */

#include "bench_util.hh"
#include "core/apu_system.hh"
#include "core/machine_model.hh"
#include "core/roofline.hh"
#include "cpu/zen_core.hh"

using namespace ehpsim;
using namespace ehpsim::core;
using namespace ehpsim::workloads;

namespace
{

/** A producer/consumer phase where the CPU post-processes GPU data. */
Workload
producerConsumer(std::uint64_t elems)
{
    Workload w;
    w.name = "producer_consumer";
    w.footprint_bytes = elems * 16;

    Phase p;
    p.name = "gpu_produce_cpu_consume";
    p.device = PhaseDevice::gpuThenCpu;
    p.gpu_flops = elems * 64;
    p.dtype = gpu::DataType::fp64;
    p.pipe = gpu::Pipe::vector;
    p.gpu_bytes_read = elems * 8;
    p.gpu_bytes_written = elems * 8;
    p.to_cpu_bytes = elems * 8;
    p.cpu_flops = elems * 16;
    p.cpu_bytes_read = elems * 8;
    p.cpu_bytes_written = elems * 2;
    p.fine_grained_capable = true;
    p.grid_workgroups = 512;
    w.phases.push_back(p);
    return w;
}

bool
report()
{
    bench::printHeader("fig15",
                       "flag-based CPU/GPU overlap vs kernel sync");

    bool pass = true;
    const RooflineEngine apu(mi300aModel());
    for (std::uint64_t m : {16ull, 64ull, 256ull}) {
        const auto w = producerConsumer(m << 20);
        const std::string x = std::to_string(m) + "M elems";
        const auto coarse = apu.run(w, CouplingMode::coarseSync);
        const auto fine = apu.run(w, CouplingMode::fineGrained);
        bench::printRow("fig15", "kernel_sync", x,
                        coarse.total_s * 1e3, "ms");
        bench::printRow("fig15", "fine_grained", x,
                        fine.total_s * 1e3, "ms");
        bench::printRow("fig15", "speedup", x,
                        coarse.total_s / fine.total_s, "x");
        if (fine.total_s >= coarse.total_s)
            pass = false;
    }

    // Event engine: the same comparison through real dispatches.
    auto w = producerConsumer(2ull << 20);
    ApuSystem coarse_sys(soc::mi300aConfig());
    ApuSystem fine_sys(soc::mi300aConfig());
    const auto ev_coarse = coarse_sys.run(
        w, 1, hsa::DistributionPolicy::roundRobin, false);
    const auto ev_fine = fine_sys.run(
        w, 1, hsa::DistributionPolicy::roundRobin, true);
    bench::printRow("fig15", "event_kernel_sync", "2M",
                    ev_coarse.total_s * 1e3, "ms");
    bench::printRow("fig15", "event_fine_grained", "2M",
                    ev_fine.total_s * 1e3, "ms");
    if (ev_fine.total_s > ev_coarse.total_s)
        pass = false;

    // The spin-wait primitive itself: the consumer observes the flag
    // within one poll interval of the producer's release.
    {
        SimObject root(nullptr, "root");
        class Flat : public mem::MemDevice
        {
          public:
            explicit Flat(SimObject *p) : mem::MemDevice(p, "m") {}
            mem::AccessResult
            access(Tick when, Addr, std::uint64_t, bool) override
            {
                return {when + 1000, true, 0};
            }
        } memory(&root);
        cpu::ZenCore core(&root, "core", cpu::zen4CoreParams(),
                          &memory);
        const Tick flag_at = ticksFromSeconds(1e-5);
        const Tick poll = 20'000;
        const Tick seen = core.spinWait(0, flag_at, poll, 60'000);
        bench::printRow("fig15", "spin_observe_delay", "10us_flag",
                        secondsFromTicks(seen - flag_at) * 1e9, "ns");
        if (seen < flag_at || seen > flag_at + poll + 60'000)
            pass = false;
    }

    return bench::shapeCheck(
        "fig15", pass,
        "overlapping CPU consumption with GPU production (coherent "
        "completion flags) beats kernel-level synchronization in "
        "both engines");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

/**
 * @file
 * Ablation bench for paper Fig. 4 / Sec. III.B: the EHPv4's
 * shortcomings with the reused server IOD, measured against MI300A:
 *   (1) GPU-to-remote-HBM bandwidth limited by the long 2D SerDes
 *       path between the GPU complexes;
 *   (2) IF links provisioned for DDR-class bandwidth bottleneck an
 *       HBM-class memory system;
 *   (3) the CPU reaches HBM only after two die-to-die hops;
 *   (4/5) wasted IOD interfaces and package area.
 */

#include <algorithm>

#include "bench_util.hh"
#include "geom/floorplan.hh"
#include "soc/floorplan_builder.hh"
#include "soc/package.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

namespace
{

/** Latency of a 64 B CPU load to HBM. */
double
cpuLoadLatencyNs(Package &pkg)
{
    const auto r =
        pkg.memAccessFrom(pkg.ccdNode(0), 0, 4096, 64, false);
    return secondsFromTicks(r.complete) * 1e9;
}

/** Achieved bandwidth of one GPU streaming from the remote half. */
double
gpuRemoteBandwidth(Package &pkg)
{
    // Stream addresses homed on the farthest stack from XCD 0.
    const unsigned cps = pkg.memMap().channelsPerStack();
    const unsigned far_stack = pkg.memMap().numStacks() - 1;
    Tick worst = 0;
    std::uint64_t moved = 0;
    for (Addr a = 0; a < (64u << 20) && moved < (8u << 20);
         a += 4096) {
        if (pkg.memMap().stackOf(a) != far_stack)
            continue;
        for (Addr o = 0; o < 4096; o += 256) {
            auto r = pkg.memAccessFrom(pkg.xcdNode(0), 0, a + o, 256,
                                       false);
            worst = std::max(worst, r.complete);
        }
        moved += 4096;
    }
    (void)cps;
    return static_cast<double>(moved) / secondsFromTicks(worst);
}

bool
report()
{
    bench::printHeader("fig4",
                       "EHPv4 shortcomings vs the MI300A approach");
    SimObject root(nullptr, "root");
    Package ehp(&root, "ehpv4", ehpv4Config());
    Package m300(&root, "mi300a", mi300aConfig());

    // (3) CPU-to-HBM path length: hops to the *nearest* stack. In
    // EHPv4 the server IOD carries no HBM at all, so every CPU
    // access pays two die-to-die hops; MI300A's CCDs sit directly
    // on an IOD with local stacks.
    auto nearest_hops = [](Package &pkg) {
        unsigned best = ~0u;
        for (unsigned s = 0; s < pkg.config().totalStacks(); ++s) {
            best = std::min(best,
                            pkg.network()->hopCount(
                                pkg.ccdNode(0), pkg.stackNode(s)));
        }
        return best;
    };
    const unsigned ehp_hops = nearest_hops(ehp);
    const unsigned m300_hops = nearest_hops(m300);
    bench::printRow("fig4", "cpu_to_hbm_hops", "ehpv4", ehp_hops,
                    "hops");
    bench::printRow("fig4", "cpu_to_hbm_hops", "mi300a", m300_hops,
                    "hops");
    const double ehp_lat = cpuLoadLatencyNs(ehp);
    const double m300_lat = cpuLoadLatencyNs(m300);
    bench::printRow("fig4", "cpu_load_latency", "ehpv4", ehp_lat,
                    "ns");
    bench::printRow("fig4", "cpu_load_latency", "mi300a", m300_lat,
                    "ns");

    // (1)/(2) GPU bandwidth to the remote memory half.
    const double ehp_bw = gpuRemoteBandwidth(ehp);
    const double m300_bw = gpuRemoteBandwidth(m300);
    bench::printRow("fig4", "gpu_remote_bw", "ehpv4", ehp_bw / 1e9,
                    "GB/s");
    bench::printRow("fig4", "gpu_remote_bw", "mi300a",
                    m300_bw / 1e9, "GB/s");
    bench::printRow("fig4", "iod_link_capacity", "ehpv4_serdes",
                    ehpv4Config().iod_link.bandwidth / 1e9, "GB/s");
    bench::printRow("fig4", "iod_link_capacity", "mi300a_usr",
                    mi300aConfig().iod_link.bandwidth / 1e12, "TB/s");

    // (5) Package-area utilization (EHPv4 leaves regions empty).
    geom::Floorplan ehp_plan({0, 0, 75, 55});
    ehp_plan.add("gpu0", {2, 10, 20, 25}, geom::RegionKind::compute);
    ehp_plan.add("server_iod", {27, 15, 20, 15},
                 geom::RegionKind::fabric);
    ehp_plan.add("gpu1", {52, 10, 20, 25}, geom::RegionKind::compute);
    ehp_plan.add("ccd0", {27, 35, 9, 10}, geom::RegionKind::compute);
    ehp_plan.add("ccd1", {38, 35, 9, 10}, geom::RegionKind::compute);
    // Blocked DDR/IO escape routes become dead area (Fig. 4 (4)).
    ehp_plan.add("dead_ddr_phy", {27, 4, 20, 8},
                 geom::RegionKind::unused);
    ehp_plan.add("dead_corner_nw", {2, 40, 18, 12},
                 geom::RegionKind::unused);
    ehp_plan.add("dead_corner_ne", {55, 40, 18, 12},
                 geom::RegionKind::unused);
    bench::printRow("fig4", "package_utilization", "ehpv4",
                    ehp_plan.utilization(), "fraction");
    const auto m300_plan = buildPackageFloorplan(mi300aConfig());
    bench::printRow("fig4", "package_utilization", "mi300a",
                    m300_plan.utilization(), "fraction");

    const bool pass = ehp_hops > m300_hops && ehp_lat > m300_lat &&
                      m300_bw > 3.0 * ehp_bw &&
                      m300_plan.utilization() >
                          ehp_plan.utilization();
    return bench::shapeCheck(
        "fig4", pass,
        "EHPv4: longer CPU->HBM path, SerDes-limited cross-package "
        "GPU bandwidth, and wasted package area; MI300A fixes all "
        "three with the purpose-built IOD + USR links");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

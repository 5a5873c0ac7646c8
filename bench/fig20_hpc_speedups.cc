/**
 * @file
 * Reproduces paper Fig. 20: measured speedups of MI300A over the
 * MI250X (discrete, EPYC-hosted) node on four HPC workloads:
 * GROMACS and N-body (compute throughput), HPCG (HBM3 bandwidth),
 * and OpenFOAM (2.75x: compute + bandwidth + CPU-GPU data movement
 * eliminated by unified memory).
 */

#include "bench_util.hh"
#include "core/machine_model.hh"
#include "core/roofline.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;
using namespace ehpsim::workloads;

namespace
{

bool
report()
{
    bench::printHeader(
        "fig20", "HPC speedups: MI300A vs MI250X node");

    const RooflineEngine apu(mi300aModel());
    const RooflineEngine discrete(mi250xNodeModel());

    struct Entry
    {
        const char *name;
        Workload workload;
    };
    Entry entries[] = {
        {"GROMACS-like", gromacsLike(3'000'000, 10)},
        {"nbody", nbody(200'000, 10)},
        {"HPCG-like", hpcg(256, 256, 256, 20)},
        {"OpenFOAM-like", cfdSolver(30'000'000, 10)},
    };

    double speedups[4];
    int i = 0;
    for (auto &e : entries) {
        const auto a = apu.run(e.workload);
        const auto d = discrete.run(e.workload);
        const double s = d.total_s / a.total_s;
        speedups[i++] = s;
        bench::printRow("fig20", "mi300a_time", e.name,
                        a.total_s * 1e3, "ms");
        bench::printRow("fig20", "mi250x_time", e.name,
                        d.total_s * 1e3, "ms");
        bench::printRow("fig20", "speedup", e.name, s, "x");
        bench::printRow("fig20", "mi250x_copy_share", e.name,
                        d.transferSeconds() / d.total_s, "fraction");
    }

    // Shape: every workload speeds up; the coupled CFD case benefits
    // the most (paper: 2.75x) because the APU removes the data
    // movement entirely; the compute-bound cases land near the
    // compute-ratio (~2x), HPCG near the bandwidth ratio (~1.7x).
    const bool pass =
        speedups[0] > 1.4 && speedups[0] < 2.8 &&
        speedups[1] > 1.4 && speedups[1] < 2.8 &&
        speedups[2] > 1.3 && speedups[2] < 2.1 &&
        speedups[3] > speedups[0] && speedups[3] > speedups[2] &&
        speedups[3] > 2.0 && speedups[3] < 4.0;
    return bench::shapeCheck(
        "fig20", pass,
        "all four workloads speed up; OpenFOAM-like coupled CFD "
        "gains the most (paper: 2.75x) from unified memory; HPCG "
        "tracks the 1.7x bandwidth uplift");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

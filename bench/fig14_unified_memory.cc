/**
 * @file
 * Reproduces paper Fig. 14: the same init -> kernel -> post-process
 * pipeline on (a) a CPU-only node, (b) a CPU plus discrete GPU with
 * separate memories (hipMalloc/hipMemcpy over the host link), and
 * (c) an APU with unified memory (zero copy). Sweeps the data size
 * to show the discrete node's copy overhead growing with footprint.
 *
 * Sweep-shaped: each data size is an independent SweepCase
 * (--jobs N, --json FILE).
 */

#include "bench_util.hh"
#include "core/machine_model.hh"
#include "core/roofline.hh"

using namespace ehpsim;
using namespace ehpsim::core;
using namespace ehpsim::workloads;

namespace
{

/** Fig. 14's pipeline: CPU init, GPU kernel, CPU post-process. */
Workload
initKernelPost(std::uint64_t bytes)
{
    Workload w;
    w.name = "init_kernel_post";
    w.footprint_bytes = 2 * bytes;

    Phase init;
    init.name = "cpu_init";
    init.device = PhaseDevice::cpu;
    init.cpu_scalar_ops = bytes / 4;
    init.cpu_bytes_written = bytes;
    init.to_gpu_bytes = bytes;          // copied on discrete systems
    w.phases.push_back(init);

    Phase kernel;
    kernel.name = "gpu_kernel";
    kernel.device = PhaseDevice::gpuThenCpu;
    // An iterative solver: 50 sweeps over the data between host
    // exchanges — the amortization that makes offload worthwhile on
    // a discrete GPU at all.
    const unsigned sweeps = 50;
    kernel.gpu_flops = bytes * 2 * sweeps;
    kernel.dtype = gpu::DataType::fp64;
    kernel.pipe = gpu::Pipe::vector;
    kernel.gpu_bytes_read = bytes * sweeps;
    kernel.gpu_bytes_written = bytes;
    kernel.to_cpu_bytes = bytes;        // results back to the host
    kernel.cpu_flops = bytes / 8;
    kernel.cpu_bytes_read = bytes;
    w.phases.push_back(kernel);
    return w;
}

/** Run the pipeline on all three machines at one data size. */
void
sizeCase(std::uint64_t mb, bench::RowSink &sink)
{
    const RooflineEngine cpu_only(epycCpuModel());
    const RooflineEngine discrete(mi250xNodeModel());
    const RooflineEngine apu(mi300aModel());

    const auto w = initKernelPost(mb << 20);
    const std::string x = std::to_string(mb) + "MB";

    const auto rc = cpu_only.run(w, CouplingMode::coarseSync);
    const auto rd = discrete.run(w, CouplingMode::coarseSync);
    const auto ra = apu.run(w, CouplingMode::coarseSync);
    sink.row("cpu_only", x, rc.total_s * 1e3, "ms");
    sink.row("discrete_gpu", x, rd.total_s * 1e3, "ms");
    sink.row("apu_unified", x, ra.total_s * 1e3, "ms");
    sink.row("discrete_copy_time", x, rd.transferSeconds() * 1e3,
             "ms");
    sink.row("apu_copy_time", x, ra.transferSeconds() * 1e3, "ms");
}

bool
report(const bench::SweepArgs &args)
{
    bench::printHeader(
        "fig14", "CPU-only vs discrete GPU vs APU (unified memory)");

    const std::vector<std::uint64_t> sizes = {64, 256, 1024, 4096};
    std::vector<bench::SweepCase> cases;
    for (const std::uint64_t mb : sizes) {
        cases.push_back({"size_" + std::to_string(mb) + "MB",
                         [mb](bench::RowSink &s) { sizeCase(mb, s); }});
    }

    const auto outcomes = bench::runCases("fig14", cases, args);

    bool pass = true;
    for (const std::uint64_t mb : sizes) {
        const std::string x = std::to_string(mb) + "MB";
        const double rc = bench::findRow(outcomes, "cpu_only", x);
        const double rd = bench::findRow(outcomes, "discrete_gpu", x);
        const double ra = bench::findRow(outcomes, "apu_unified", x);
        // The APU always wins and never copies.
        if (ra <= 0 || ra >= rd || ra >= rc)
            pass = false;
        if (bench::findRow(outcomes, "apu_copy_time", x) != 0.0)
            pass = false;
    }
    // At the largest size the discrete GPU beats the CPU despite the
    // copy tax, copies remain a visible cost, and the APU keeps the
    // GPU win without that tax.
    const std::string last = std::to_string(sizes.back()) + "MB";
    const double rc_s = bench::findRow(outcomes, "cpu_only", last);
    const double rd_s = bench::findRow(outcomes, "discrete_gpu", last);
    const double ra_s = bench::findRow(outcomes, "apu_unified", last);
    const double copy_fraction =
        bench::findRow(outcomes, "discrete_copy_time", last) / rd_s;
    if (!(rd_s < rc_s) || copy_fraction < 0.2 ||
        ra_s > rd_s * (1.0 - copy_fraction) * 1.5) {
        pass = false;
    }

    return bench::shapeCheck(
        "fig14", pass,
        "unified memory removes the hipMemcpy traffic entirely; the "
        "discrete node pays a growing copy tax over its host link "
        "(tens of GB/s) while the APU touches HBM directly") &&
           bench::allOk(outcomes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv, bench::Flags::sweep);
    return report(args) ? 0 : 1;
}

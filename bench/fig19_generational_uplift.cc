/**
 * @file
 * Reproduces paper Fig. 19: the generational uplift of MI300A and
 * MI300X over MI250X across peak compute rates (per data type),
 * memory bandwidth (+70%), memory capacity (+50% for MI300X), and
 * I/O bandwidth (2x).
 */

#include "bench_util.hh"
#include "soc/package.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

namespace
{

bool
report()
{
    bench::printHeader("fig19",
                       "generational uplift over MI250X");
    SimObject root(nullptr, "root");
    Package m250(&root, "mi250x", mi250xConfig());
    Package m300a(&root, "mi300a", mi300aConfig());
    Package m300x(&root, "mi300x", mi300xConfig());

    struct Metric
    {
        const char *name;
        gpu::Pipe pipe;
        gpu::DataType dt;
        bool sparse;
    };
    const Metric metrics[] = {
        {"vector_fp64", gpu::Pipe::vector, gpu::DataType::fp64,
         false},
        {"vector_fp32", gpu::Pipe::vector, gpu::DataType::fp32,
         false},
        {"matrix_fp64", gpu::Pipe::matrix, gpu::DataType::fp64,
         false},
        {"matrix_fp16", gpu::Pipe::matrix, gpu::DataType::fp16,
         false},
        {"matrix_bf16", gpu::Pipe::matrix, gpu::DataType::bf16,
         false},
        {"matrix_int8", gpu::Pipe::matrix, gpu::DataType::int8,
         false},
        {"matrix_fp8", gpu::Pipe::matrix, gpu::DataType::fp8, false},
        {"matrix_fp8_sparse", gpu::Pipe::matrix, gpu::DataType::fp8,
         true},
    };

    bool pass = true;
    for (const auto &m : metrics) {
        const double t250 =
            m250.peakGpuFlops(m.pipe, m.dt, m.sparse) / 1e12;
        const double t300a =
            m300a.peakGpuFlops(m.pipe, m.dt, m.sparse) / 1e12;
        const double t300x =
            m300x.peakGpuFlops(m.pipe, m.dt, m.sparse) / 1e12;
        bench::printRow("fig19", "mi250x", m.name, t250, "Tflops");
        bench::printRow("fig19", "mi300a", m.name, t300a, "Tflops");
        bench::printRow("fig19", "mi300x", m.name, t300x, "Tflops");
        if (t300a <= t250 || t300x <= t300a * 0.999)
            pass = false;
    }

    const double bw_uplift =
        m300a.peakMemBandwidth() / m250.peakMemBandwidth();
    bench::printRow("fig19", "uplift", "mem_bandwidth", bw_uplift,
                    "x");
    const double cap_uplift_x =
        static_cast<double>(m300x.memCapacity()) /
        static_cast<double>(m250.memCapacity());
    bench::printRow("fig19", "uplift", "mi300x_capacity",
                    cap_uplift_x, "x");
    const double io_uplift =
        m300a.ioBandwidthGBs() / m250.ioBandwidthGBs();
    bench::printRow("fig19", "uplift", "io_bandwidth", io_uplift,
                    "x");
    bench::printRow("fig19", "absolute", "mi300a_mem_bw_TBs",
                    m300a.peakMemBandwidth() / 1e12, "TB/s");
    bench::printRow("fig19", "absolute", "mi300a_cache_bw_TBs",
                    m300a.peakCacheBandwidth() / 1e12, "TB/s");
    bench::printRow("fig19", "absolute", "mi300a_cus",
                    m300a.totalCus(), "CUs");
    bench::printRow("fig19", "absolute", "mi300x_cus",
                    m300x.totalCus(), "CUs");

    // Paper: +70% bandwidth, +50% capacity (X), 2x I/O.
    pass = pass && std::abs(bw_uplift - 1.7) < 0.1 &&
           std::abs(cap_uplift_x - 1.5) < 0.05 &&
           std::abs(io_uplift - 2.0) < 0.1 &&
           m300x.totalCus() == 304 && m300a.totalCus() == 228;
    return bench::shapeCheck(
        "fig19", pass,
        "compute rates rise across the board, memory bandwidth "
        "+70%, MI300X capacity +50%, I/O bandwidth 2x, 228/304 CUs");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

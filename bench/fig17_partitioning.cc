/**
 * @file
 * Reproduces paper Fig. 17: compute and memory partitioning modes.
 * MI300A runs as one device or three partitions (NPS1 only);
 * MI300X partitions in powers of two down to one XCD each and also
 * supports NPS4. Measures multi-tenant throughput (independent
 * kernels per partition) against a single shared partition.
 *
 * Sweep-shaped: the mode table, each tenant-count spatial/timeshared
 * measurement, and the NPS4 confinement check are independent
 * SweepCases (--jobs N, --json FILE).
 */

#include "bench_util.hh"
#include "core/apu_system.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;

namespace
{

workloads::Workload
tenantKernel()
{
    auto w = workloads::streamTriad(1 << 17);   // 1 MiB arrays
    w.phases[0].grid_workgroups = 128;
    return w;
}

/** Supported partition-mode tables for both products. */
void
modesCase(bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    soc::Package a(&root, "a", soc::mi300aConfig());
    soc::Package x(&root, "x", soc::mi300xConfig());
    for (unsigned n : a.supportedPartitionCounts())
        sink.row("mi300a_modes", std::to_string(n), n, "partitions");
    for (unsigned n : x.supportedPartitionCounts())
        sink.row("mi300x_modes", std::to_string(n), n, "partitions");
    const bool ok =
        a.supportedPartitionCounts() == std::vector<unsigned>({1, 3}) &&
        x.supportedPartitionCounts() ==
            std::vector<unsigned>({1, 2, 4, 8});
    sink.row("mode_table_ok", "both", ok ? 1 : 0, "bool");
}

/**
 * Multi-tenant throughput on MI300X: n tenants each running the
 * same kernel, spatially isolated on n partitions (each tenant's
 * memory in its own NUMA quadrant under NPS4, the SR-IOV deployment
 * of Fig. 17b).
 */
void
spatialCase(unsigned n, bench::RowSink &sink)
{
    ApuSystem spatial(soc::mi300xConfig(), mem::NumaMode::nps4);
    auto parts = spatial.package().partitionInto(n);
    const std::uint64_t domain_bytes =
        spatial.package().memCapacity() / 4;
    Tick done = 0;
    Tick first_done = 0;
    for (unsigned t = 0; t < n; ++t) {
        auto w = tenantKernel();
        hsa::AqlPacket pkt;
        pkt.grid_workgroups = w.phases[0].grid_workgroups;
        pkt.work.flops = w.phases[0].gpu_flops / pkt.grid_workgroups;
        pkt.work.dtype = w.phases[0].dtype;
        pkt.work.bytes_read =
            w.phases[0].gpu_bytes_read / pkt.grid_workgroups;
        pkt.work.bytes_written =
            w.phases[0].gpu_bytes_written / pkt.grid_workgroups;
        pkt.read_stride = pkt.work.bytes_read;
        pkt.write_stride = pkt.work.bytes_written;
        // Tenant buffers live in the tenant's NUMA quadrant.
        const Addr base = Addr(t % 4) * domain_bytes +
                          Addr(t / 4) * (256u << 20);
        pkt.work.read_base = base;
        pkt.work.write_base = base + (128u << 20);
        const auto res = parts[t]->dispatch(0, pkt);
        if (t == 0)
            first_done = res.complete;
        done = std::max(done, res.complete);
    }
    sink.row("spatial_n_tenants", std::to_string(n),
             secondsFromTicks(done) * 1e6, "us");
    if (n == 8) {
        sink.row("single_tenant_one_xcd", "8",
                 secondsFromTicks(first_done) * 1e6, "us");
    }
}

/** Time-shared baseline: n kernels serialized on one partition. */
void
timesharedCase(unsigned n, bench::RowSink &sink)
{
    ApuSystem shared(soc::mi300xConfig());
    double shared_s = 0;
    for (unsigned t = 0; t < n; ++t) {
        const auto rep = shared.run(tenantKernel());
        shared_s += rep.total_s;
    }
    sink.row("timeshared_n_tenants", std::to_string(n),
             shared_s * 1e6, "us");
}

/** NPS4 confines each quadrant's pages to its stack quadrant. */
void
nps4Case(bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    soc::Package pkg(&root, "nps4", soc::mi300xConfig(), nullptr,
                     mem::NumaMode::nps4);
    const auto &map = pkg.memMap();
    bool confined = true;
    const std::uint64_t domain = map.capacity() / 4;
    for (unsigned d = 0; d < 4 && confined; ++d) {
        for (Addr off = 0; off < (1u << 22); off += 4096) {
            const unsigned s = map.stackOf(d * domain + off);
            if (s / 2 != d) {
                confined = false;
                break;
            }
        }
    }
    sink.row("nps4_confinement", "ok", confined ? 1 : 0, "bool");
}

bool
report(const bench::SweepArgs &args)
{
    bench::printHeader("fig17", "partitioning modes");

    std::vector<bench::SweepCase> cases;
    cases.push_back({"modes", modesCase});
    for (unsigned n : {2u, 4u, 8u}) {
        cases.push_back({"spatial_" + std::to_string(n),
                         [n](bench::RowSink &s) { spatialCase(n, s); }});
        cases.push_back(
            {"timeshared_" + std::to_string(n),
             [n](bench::RowSink &s) { timesharedCase(n, s); }});
    }
    cases.push_back({"nps4_confinement", nps4Case});

    const auto outcomes = bench::runCases("fig17", cases, args);

    bool pass =
        bench::findRow(outcomes, "mode_table_ok", "both") == 1 &&
        bench::findRow(outcomes, "nps4_confinement", "ok") == 1;
    // Spatial isolation means tenants run concurrently: the
    // eight-tenant completion must be close to a single tenant's
    // runtime on a one-XCD partition, not 8x it.
    const double spatial8 =
        bench::findRow(outcomes, "spatial_n_tenants", "8");
    const double single8 =
        bench::findRow(outcomes, "single_tenant_one_xcd", "8");
    if (spatial8 > 2.5 * single8)
        pass = false;

    return bench::shapeCheck(
        "fig17", pass,
        "MI300A supports 1/3 partitions, MI300X 1/2/4/8 with NPS1/4; "
        "spatially isolated tenants run concurrently (8 tenants "
        "cost << 4x of 2), and NPS4 keeps domains on their stack "
        "quadrants") &&
           bench::allOk(outcomes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv, bench::Flags::sweep);
    return report(args) ? 0 : 1;
}

/**
 * @file
 * Reproduces paper Fig. 7 (MI300A IOD bandwidths across interfaces)
 * and the Sec. IV.D headline numbers: ~5.3 TB/s HBM, up to 17 TB/s
 * from the Infinity Cache, multiple TB/s of USR bandwidth between
 * IODs, and 64 GB/s per direction per x16 link.
 */

#include "bench_util.hh"
#include "soc/package.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

namespace
{

/**
 * Achieved bandwidth streaming @p bytes_per_xcd from all XCDs.
 * With @p reuse the same region is streamed repeatedly and only the
 * final (cache-resident) pass is measured.
 */
double
streamBandwidth(Package &pkg, std::uint64_t bytes_per_xcd, bool reuse)
{
    const int passes = reuse ? 3 : 1;
    Tick when = 0;
    Tick last_pass_start = 0;
    Tick worst = 0;
    for (int p = 0; p < passes; ++p) {
        last_pass_start = when;
        Tick pass_worst = when;
        for (unsigned x = 0; x < pkg.numXcds(); ++x) {
            for (Addr a = 0; a < bytes_per_xcd; a += 256) {
                const Addr addr =
                    (reuse ? 0 : Addr(x) * bytes_per_xcd) + a;
                auto r = pkg.memAccessFrom(pkg.xcdNode(x), when, addr,
                                           256, false);
                pass_worst = std::max(pass_worst, r.complete);
            }
        }
        when = pass_worst;
        worst = pass_worst;
    }
    const double pass_bytes =
        static_cast<double>(bytes_per_xcd) * pkg.numXcds();
    return pass_bytes / secondsFromTicks(worst - last_pass_start);
}

/** Achieved bandwidth of one USR edge under saturation. */
double
usrEdgeBandwidth(Package &pkg)
{
    auto *net = pkg.network();
    const auto a = pkg.iodNode(0);
    const auto b = pkg.iodNode(1);
    Tick worst = 0;
    const std::uint64_t msg = 4096;
    const int n = 2048;
    for (int i = 0; i < n; ++i)
        worst = std::max(worst, net->send(0, a, b, msg).arrival);
    return static_cast<double>(msg) * n / secondsFromTicks(worst);
}

double
x16Bandwidth(Package &pkg)
{
    auto *net = pkg.network();
    const auto io = pkg.ioNode(0);
    const auto iod = pkg.iodNode(0);
    Tick worst = 0;
    const std::uint64_t msg = 65536;
    const int n = 256;
    for (int i = 0; i < n; ++i)
        worst = std::max(worst, net->send(0, io, iod, msg).arrival);
    return static_cast<double>(msg) * n / secondsFromTicks(worst);
}

bool
report()
{
    bench::printHeader(
        "fig7", "MI300A IOD interface bandwidths (achieved)");
    SimObject root(nullptr, "root");

    Package hbm_pkg(&root, "p1", mi300aConfig());
    const double hbm_bw =
        streamBandwidth(hbm_pkg, 2u << 20, /*reuse=*/false);
    bench::printRow("fig7", "achieved", "hbm_stream", hbm_bw / 1e12,
                    "TB/s");
    bench::printRow("fig7", "peak", "hbm",
                    hbm_pkg.peakMemBandwidth() / 1e12, "TB/s");

    Package cache_pkg(&root, "p2", mi300aConfig());
    const double cache_bw =
        streamBandwidth(cache_pkg, 16u << 20, /*reuse=*/true);
    bench::printRow("fig7", "achieved", "infinity_cache_resident",
                    cache_bw / 1e12, "TB/s");
    bench::printRow("fig7", "peak", "infinity_cache",
                    cache_pkg.peakCacheBandwidth() / 1e12, "TB/s");

    Package usr_pkg(&root, "p3", mi300aConfig());
    const double usr_bw = usrEdgeBandwidth(usr_pkg);
    bench::printRow("fig7", "achieved", "usr_edge_one_dir",
                    usr_bw / 1e12, "TB/s");
    // Aggregate USR: 4 edges x 2 directions.
    bench::printRow("fig7", "derived", "usr_aggregate",
                    usr_bw * 8 / 1e12, "TB/s");

    Package io_pkg(&root, "p4", mi300aConfig());
    const double io_bw = x16Bandwidth(io_pkg);
    bench::printRow("fig7", "achieved", "x16_one_dir", io_bw / 1e9,
                    "GB/s");
    bench::printRow("fig7", "peak", "x16_socket_total",
                    io_pkg.ioBandwidthGBs(), "GB/s");

    const bool pass = hbm_bw > 0.5 * hbm_pkg.peakMemBandwidth() &&
                      hbm_bw <= 1.05 * hbm_pkg.peakMemBandwidth() &&
                      cache_bw > 1.3 * hbm_bw &&
                      usr_bw * 8 > 1e12 &&
                      io_bw > 0.8 * 64e9 && io_bw <= 1.05 * 64e9;
    return bench::shapeCheck(
        "fig7", pass,
        "HBM streams near 5.3 TB/s; cache-resident traffic exceeds "
        "HBM bandwidth (toward 17 TB/s); USR delivers multiple TB/s; "
        "x16 delivers ~64 GB/s per direction");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

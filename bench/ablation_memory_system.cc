/**
 * @file
 * Ablations of the MI300A memory-system design choices called out
 * in DESIGN.md:
 *  1. Infinity Cache on/off and prefetcher depth (Sec. IV.D:
 *     bandwidth amplification + latency reduction);
 *  2. stack-interleave granularity around the paper's 4 KB choice
 *     (Sec. IV.D), judged by channel load balance for sequential
 *     and strided streams;
 *  3. the EHP lineage: EHPv3 -> EHPv4 -> MI300A cross-package GPU
 *     bandwidth (Sec. V.F's comparison).
 *
 * Sweep-shaped: all twelve ablation points are independent
 * SweepCases, each with its own package and stats tree
 * (--jobs N, --json FILE).
 */

#include <algorithm>

#include "bench_util.hh"
#include "mem/hbm_subsystem.hh"
#include "soc/package.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

namespace
{

/** Reuse-heavy stream through a package; returns achieved TB/s. */
double
reuseBandwidth(Package &pkg)
{
    Tick when = 0;
    Tick last_start = 0;
    for (int p = 0; p < 3; ++p) {
        last_start = when;
        Tick worst = when;
        for (unsigned x = 0; x < pkg.numXcds(); ++x) {
            for (Addr a = 0; a < (8u << 20); a += 256) {
                worst = std::max(worst,
                                 pkg.memAccessFrom(pkg.xcdNode(x),
                                                   when, a, 256,
                                                   false)
                                     .complete);
            }
        }
        when = worst;
    }
    const double bytes = 8.0 * (1 << 20) * pkg.numXcds();
    return bytes / secondsFromTicks(when - last_start) / 1e12;
}

/** Channel-load imbalance (max/mean) for a strided address stream. */
double
imbalance(std::uint64_t page_bytes, std::uint64_t stride)
{
    const std::uint64_t stripe =
        std::min<std::uint64_t>(256, page_bytes / 16);
    mem::InterleaveMap map(8, 16, 1ull << 30, mem::NumaMode::nps1,
                           page_bytes, stripe);
    std::vector<std::uint64_t> load(map.numChannels(), 0);
    for (Addr a = 0; a < (64ull << 20); a += stride)
        load[map.locate(a).channel] += 1;
    const std::uint64_t mx =
        *std::max_element(load.begin(), load.end());
    double mean = 0;
    for (auto v : load)
        mean += static_cast<double>(v);
    mean /= static_cast<double>(load.size());
    return mean > 0 ? static_cast<double>(mx) / mean : 0.0;
}

/** Ablation 1a: reuse bandwidth with the Infinity Cache on or off. */
void
cacheCase(bool enabled, bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    auto cfg = mi300aConfig();
    cfg.hbm.enable_infinity_cache = enabled;
    Package pkg(&root, enabled ? "with_cache" : "no_cache", cfg);
    sink.row("reuse_bw",
             enabled ? "infinity_cache_on" : "infinity_cache_off",
             reuseBandwidth(pkg), "TB/s");
}

/** Ablation 1b: prefetcher depth vs cold-walk hit rate. */
void
prefetchCase(unsigned depth, bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    auto cfg = mi300aConfig();
    cfg.hbm.cache.prefetch_depth = depth;
    Package pkg(&root, "pf" + std::to_string(depth), cfg);
    // Latency of a cold sequential walk: the prefetcher should
    // convert most misses into hits.
    Tick t = 0;
    for (Addr a = 0; a < (1u << 20); a += 256)
        t = std::max(t,
                     pkg.memAccessFrom(pkg.xcdNode(0), 0, a, 256,
                                       false)
                         .complete);
    double hits = 0, misses = 0;
    for (unsigned ch = 0; ch < 128; ++ch) {
        hits += pkg.slice(ch)->hits.value();
        misses += pkg.slice(ch)->misses.value();
    }
    sink.row("prefetch_hit_rate", "depth" + std::to_string(depth),
             hits / (hits + misses), "fraction");
}

/** Ablation 2: interleave-page channel balance at one granularity. */
void
interleaveCase(std::uint64_t page, bench::RowSink &sink)
{
    const std::string x = std::to_string(page) + "B";
    sink.row("imbalance_seq", x, imbalance(page, 256), "max/mean");
    sink.row("imbalance_strided", x, imbalance(page, 4096 + 256),
             "max/mean");
}

/** Ablation 3: cross-package GPU bandwidth of one lineage member. */
void
lineageCase(const std::string &name, const ProductConfig &cfg,
            bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "lin_" + name, cfg);
    // One GPU streams from the farthest stack (cross-package).
    const unsigned far = pkg.config().totalStacks() - 1;
    Tick worst = 0;
    std::uint64_t moved = 0;
    for (Addr a = 0; a < (64u << 20) && moved < (4u << 20);
         a += 4096) {
        if (pkg.memMap().stackOf(a) != far)
            continue;
        for (Addr o = 0; o < 4096; o += 256) {
            worst = std::max(worst,
                             pkg.memAccessFrom(pkg.xcdNode(0), 0,
                                               a + o, 256, false)
                                 .complete);
        }
        moved += 4096;
    }
    sink.row("cross_package_gpu_bw", name,
             static_cast<double>(moved) / secondsFromTicks(worst) /
                 1e9,
             "GB/s");
}

bool
report(const bench::SweepArgs &args)
{
    bench::printHeader("ablation",
                       "memory-system design-choice ablations");

    std::vector<bench::SweepCase> cases;
    for (const bool enabled : {true, false}) {
        cases.push_back({enabled ? "infinity_cache_on"
                                 : "infinity_cache_off",
                         [enabled](bench::RowSink &s) {
                             cacheCase(enabled, s);
                         }});
    }
    for (unsigned depth : {0u, 1u, 2u, 4u}) {
        cases.push_back({"prefetch_depth" + std::to_string(depth),
                         [depth](bench::RowSink &s) {
                             prefetchCase(depth, s);
                         }});
    }
    for (std::uint64_t page : {1024ull, 4096ull, 65536ull}) {
        cases.push_back({"interleave_" + std::to_string(page) + "B",
                         [page](bench::RowSink &s) {
                             interleaveCase(page, s);
                         }});
    }
    const char *lineage_names[3] = {"EHPv3", "EHPv4", "MI300A"};
    const ProductConfig lineage_cfgs[3] = {ehpv3Config(),
                                           ehpv4Config(),
                                           mi300aConfig()};
    for (int i = 0; i < 3; ++i) {
        const std::string name = lineage_names[i];
        const ProductConfig cfg = lineage_cfgs[i];
        cases.push_back({"lineage_" + name,
                         [name, cfg](bench::RowSink &s) {
                             lineageCase(name, cfg, s);
                         }});
    }

    const auto outcomes = bench::runCases("ablation", cases, args);

    bool pass = true;
    const double bw_with_cache =
        bench::findRow(outcomes, "reuse_bw", "infinity_cache_on");
    const double bw_without =
        bench::findRow(outcomes, "reuse_bw", "infinity_cache_off");
    if (bw_with_cache < 1.3 * bw_without)
        pass = false;
    if (bench::findRow(outcomes, "imbalance_seq", "4096B", 99) > 1.1 ||
        bench::findRow(outcomes, "imbalance_strided", "4096B", 99) >
            1.6) {
        pass = false;
    }
    const double bw_v3 =
        bench::findRow(outcomes, "cross_package_gpu_bw", "EHPv3");
    const double bw_v4 =
        bench::findRow(outcomes, "cross_package_gpu_bw", "EHPv4");
    const double bw_mi300a =
        bench::findRow(outcomes, "cross_package_gpu_bw", "MI300A");
    if (!(bw_mi300a > 3 * bw_v4 && bw_mi300a > 3 * bw_v3))
        pass = false;

    return bench::shapeCheck(
        "ablation", pass,
        "the Infinity Cache amplifies reuse bandwidth; the 4 KB "
        "stack interleave balances channels for sequential and "
        "strided streams; cross-package GPU bandwidth improves "
        "dramatically across EHPv3 -> EHPv4 -> MI300A") &&
           bench::allOk(outcomes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv, bench::Flags::sweep);
    return report(args) ? 0 : 1;
}

/**
 * @file
 * Tests spanning the EHP lineage: the EHPv3 and EHPv4 concept
 * configurations versus MI300A (paper Secs. II, III, V.F).
 */

#include <gtest/gtest.h>

#include "soc/floorplan_builder.hh"
#include "soc/package.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

TEST(EhpLineage, Ehpv3Composition)
{
    const auto cfg = ehpv3Config();
    // Eight GPU chiplets : four CCDs — the 2:1 ratio of Sec. V.F.
    EXPECT_EQ(cfg.totalXcds(), 8u);
    EXPECT_EQ(cfg.totalCcds(), 4u);
    EXPECT_EQ(cfg.totalXcds(), 2 * cfg.totalCcds());
    // Same 8 HBM stacks as MI300A (Sec. V.F).
    EXPECT_EQ(cfg.totalStacks(), mi300aConfig().totalStacks());
}

TEST(EhpLineage, Ehpv4KeepsTheRatioToo)
{
    const auto cfg = ehpv4Config();
    EXPECT_EQ(cfg.totalXcds(), 2u);
    EXPECT_EQ(cfg.totalCcds(), 2u);     // 2 big GPU dies : 2 CCDs
}

TEST(EhpLineage, Ehpv3PackageBuilds)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "ehpv3", ehpv3Config());
    EXPECT_EQ(pkg.numXcds(), 8u);
    EXPECT_EQ(pkg.numCcds(), 4u);
    const auto r =
        pkg.memAccessFrom(pkg.xcdNode(0), 0, 4096, 256, false);
    EXPECT_GT(r.complete, 0u);
}

TEST(EhpLineage, InterposerLinksAreTheEhpv3Bottleneck)
{
    // Sec. V.F: "even EHPv3's organic substrate-based links between
    // the active interposers would have posed bandwidth and power
    // challenges" versus MI300A's USR.
    const auto v3 = ehpv3Config();
    const auto m300 = mi300aConfig();
    EXPECT_LT(v3.iod_link.bandwidth, m300.iod_link.bandwidth / 10);
    EXPECT_GT(v3.iod_link.energy_pj_per_byte,
              m300.iod_link.energy_pj_per_byte);
}

TEST(EhpLineage, CrossPackageBandwidthImprovesDownTheLineage)
{
    SimObject root(nullptr, "root");
    Package v3(&root, "v3", ehpv3Config());
    Package m300(&root, "m300", mi300aConfig());

    auto remote_bw = [](Package &pkg) {
        const unsigned far = pkg.config().totalStacks() - 1;
        Tick worst = 0;
        std::uint64_t moved = 0;
        for (Addr a = 0; a < (32u << 20) && moved < (2u << 20);
             a += 4096) {
            if (pkg.memMap().stackOf(a) != far)
                continue;
            for (Addr o = 0; o < 4096; o += 256) {
                worst = std::max(
                    worst, pkg.memAccessFrom(pkg.xcdNode(0), 0,
                                             a + o, 256, false)
                               .complete);
            }
            moved += 4096;
        }
        return static_cast<double>(moved) / secondsFromTicks(worst);
    };
    EXPECT_GT(remote_bw(m300), 3.0 * remote_bw(v3));
}

TEST(EhpLineage, Mi300aUnifiesWhatEhpv3Split)
{
    // EHPv3 needed two active interposer types; MI300A uses one IOD
    // design mirrored/rotated. Structurally: every MI300A IOD hosts
    // the same interface superset, while EHPv3's CPU and GPU slots
    // differ.
    const auto v3 = ehpv3Config();
    bool v3_uniform = true;
    for (std::size_t i = 1; i < v3.iods.size(); ++i) {
        if (v3.iods[i].num_xcds != v3.iods[0].num_xcds ||
            v3.iods[i].num_hbm_stacks != v3.iods[0].num_hbm_stacks) {
            v3_uniform = false;
        }
    }
    EXPECT_FALSE(v3_uniform);

    // MI300X shows the modular swap: same IODs, all-XCD population.
    const auto x = mi300xConfig();
    for (std::size_t i = 1; i < x.iods.size(); ++i) {
        EXPECT_EQ(x.iods[i].num_xcds, x.iods[0].num_xcds);
        EXPECT_EQ(x.iods[i].num_hbm_stacks,
                  x.iods[0].num_hbm_stacks);
    }
}

TEST(EhpLineage, Ehpv3FloorplanBuilds)
{
    const auto plan = buildPackageFloorplan(ehpv3Config());
    EXPECT_TRUE(plan.overlapFree());
    EXPECT_NE(plan.find("xcd7"), nullptr);
    EXPECT_NE(plan.find("ccd3"), nullptr);
    EXPECT_NE(plan.find("hbm7"), nullptr);
}

TEST(EhpLineage, EventRunOnEhpv3Works)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "ehpv3", ehpv3Config());
    // Dispatch through a unified partition over all 8 GPU chiplets.
    auto *part = pkg.partitionInto(1)[0];
    EXPECT_EQ(part->numXcds(), 8u);
    hsa::AqlPacket pkt;
    pkt.grid_workgroups = 64;
    pkt.work.flops = 128 * 1000;
    pkt.work.dtype = gpu::DataType::fp32;
    pkt.work.pipe = gpu::Pipe::vector;
    pkt.work.bytes_read = 4096;
    pkt.read_stride = 4096;
    const auto res = part->dispatch(0, pkt);
    EXPECT_GT(res.complete, 0u);
    EXPECT_EQ(res.sync_messages, 7u);
}

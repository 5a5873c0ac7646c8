/**
 * @file
 * Tests for product configs, the package builder, floorplans,
 * partition modes (Fig. 17), and node topologies (Fig. 18).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "soc/floorplan_builder.hh"
#include "soc/node_topology.hh"
#include "soc/package.hh"
#include "soc/product_config.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

TEST(ProductConfig, Mi300aComposition)
{
    const auto cfg = mi300aConfig();
    // Paper Sec. IV: 6 XCDs, 3 CCDs, 8 HBM stacks on 4 IODs.
    EXPECT_EQ(cfg.iods.size(), 4u);
    EXPECT_EQ(cfg.totalXcds(), 6u);
    EXPECT_EQ(cfg.totalCcds(), 3u);
    EXPECT_EQ(cfg.totalStacks(), 8u);
    EXPECT_EQ(cfg.hbm.capacity_bytes, 128ull << 30);
}

TEST(ProductConfig, Mi300xSwapsCcdsForXcds)
{
    const auto a = mi300aConfig();
    const auto x = mi300xConfig();
    // Paper Sec. VII: the modular chiplet swap.
    EXPECT_EQ(x.totalXcds(), 8u);
    EXPECT_EQ(x.totalCcds(), 0u);
    EXPECT_EQ(x.totalStacks(), a.totalStacks());
    EXPECT_EQ(x.hbm.capacity_bytes, 192ull << 30);  // +50% (Fig. 19)
}

TEST(Package, Mi300aBuildsCorrectCounts)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "mi300a", mi300aConfig());
    EXPECT_EQ(pkg.numXcds(), 6u);
    EXPECT_EQ(pkg.numCcds(), 3u);
    EXPECT_EQ(pkg.memMap().numChannels(), 128u);
    EXPECT_EQ(pkg.totalCus(), 228u);        // 6 x 38 (paper Sec. IV.B)
    EXPECT_NEAR(pkg.peakMemBandwidth() / 1e12, 5.3, 0.05);
    EXPECT_NEAR(pkg.peakCacheBandwidth() / 1e12, 17.0, 0.05);
    // 8 x16 links at 128 GB/s bidirectional = 1024 GB/s (Sec. VIII).
    EXPECT_DOUBLE_EQ(pkg.ioBandwidthGBs(), 1024.0);
}

TEST(Package, StackCountMismatchFatal)
{
    SimObject root(nullptr, "root");
    auto cfg = mi300aConfig();
    cfg.iods[0].num_hbm_stacks = 1;     // now only 7 stacks attached
    EXPECT_THROW(Package(&root, "bad", cfg), std::runtime_error);
}

TEST(Package, MemAccessFromXcdCompletes)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "mi300a", mi300aConfig());
    const auto r =
        pkg.memAccessFrom(pkg.xcdNode(0), 0, 0x10000, 256, false);
    EXPECT_GT(r.complete, 0u);
    // Another access from a CCD also works.
    const auto w =
        pkg.memAccessFrom(pkg.ccdNode(0), 0, 0x20000, 256, true);
    EXPECT_GT(w.complete, 0u);
}

TEST(Package, MemAccessExchangeMovesExactBytes)
{
    // Two 256 B stripes from XCD 0: each is one request/response
    // exchange over the XCD's link to its IOD, a 32 B command out
    // and 32 B plus the stripe back for reads, swapped for writes.
    for (const bool write : {false, true}) {
        SimObject root(nullptr, "root");
        Package pkg(&root, "mi300a", mi300aConfig());
        pkg.memAccessFrom(pkg.xcdNode(0), 0, 0x10000, 512, write);
        auto *net = pkg.network();
        const auto xcd = pkg.xcdNode(0);
        const auto iod = pkg.iodNode(0);
        const double out = net->link(xcd, iod)->bytes_moved.value();
        const double back = net->link(iod, xcd)->bytes_moved.value();
        const double command = 2 * 32;
        const double payload = 2 * (32 + 256);
        EXPECT_EQ(out, write ? payload : command) << "write=" << write;
        EXPECT_EQ(back, write ? command : payload) << "write=" << write;
    }
}

TEST(Package, SecondAccessHitsInfinityCache)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "mi300a", mi300aConfig());
    const auto miss =
        pkg.memAccessFrom(pkg.xcdNode(0), 0, 0x40000, 128, false);
    EXPECT_FALSE(miss.hit);
    const auto hit = pkg.memAccessFrom(pkg.xcdNode(0), miss.complete,
                                       0x40000, 128, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_GT(pkg.cacheHitRate(), 0.0);
}

TEST(Package, LargeAccessSpreadsAcrossStacks)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "mi300a", mi300aConfig());
    pkg.memAccessFrom(pkg.xcdNode(0), 0, 0, 64 * 1024, false);
    unsigned used_stacks = 0;
    for (unsigned s = 0; s < 8; ++s) {
        double bytes = 0;
        for (unsigned c = 0; c < 16; ++c)
            bytes += pkg.channel(s * 16 + c)->bytes_served.value();
        if (bytes > 0)
            ++used_stacks;
    }
    EXPECT_GT(used_stacks, 4u);

    // A 1 MiB stream reaches most of the 128 channels.
    Package streamed(&root, "streamed", mi300aConfig());
    streamed.memAccessFrom(streamed.xcdNode(0), 0, 0, 1 * MiB, false);
    unsigned used_channels = 0;
    for (unsigned ch = 0; ch < 128; ++ch) {
        if (streamed.channel(ch)->bytes_served.value() > 0)
            ++used_channels;
    }
    EXPECT_GT(used_channels, 100u);
}

TEST(Package, PartitionModesMatchFig17)
{
    SimObject root(nullptr, "root");
    Package a(&root, "mi300a", mi300aConfig());
    EXPECT_EQ(a.supportedPartitionCounts(),
              (std::vector<unsigned>{1, 3}));
    Package x(&root, "mi300x", mi300xConfig());
    EXPECT_EQ(x.supportedPartitionCounts(),
              (std::vector<unsigned>{1, 2, 4, 8}));
    EXPECT_THROW(a.partitionInto(2), std::runtime_error);

    const auto parts = a.partitionInto(3);
    ASSERT_EQ(parts.size(), 3u);
    for (auto *p : parts)
        EXPECT_EQ(p->numXcds(), 2u);
    EXPECT_EQ(a.partitionInto(1)[0]->numXcds(), 6u);
}

TEST(Package, Mi250xProfile)
{
    SimObject root(nullptr, "root");
    Package pkg(&root, "mi250x", mi250xConfig());
    EXPECT_EQ(pkg.numXcds(), 2u);           // two GCDs
    EXPECT_EQ(pkg.numCcds(), 0u);
    EXPECT_EQ(pkg.totalCus(), 220u);
    EXPECT_NEAR(pkg.peakMemBandwidth() / 1e12, 3.2, 0.05);
    // No Infinity Cache: cache bandwidth == HBM bandwidth.
    EXPECT_DOUBLE_EQ(pkg.peakCacheBandwidth(),
                     pkg.peakMemBandwidth());
}

TEST(Package, Fig19GenerationalUplift)
{
    SimObject root(nullptr, "root");
    Package m250(&root, "mi250x", mi250xConfig());
    Package m300a(&root, "mi300a", mi300aConfig());
    Package m300x(&root, "mi300x", mi300xConfig());

    // Paper Fig. 19: memory bandwidth +70%, capacity +50% on X,
    // FP16 matrix ~3.4x per-socket.
    EXPECT_NEAR(m300a.peakMemBandwidth() / m250.peakMemBandwidth(),
                1.7, 0.1);
    EXPECT_NEAR(static_cast<double>(m300x.memCapacity()) /
                    m250.memCapacity(),
                1.5, 0.01);
    const double fp16_uplift =
        m300a.peakGpuFlops(gpu::Pipe::matrix, gpu::DataType::fp16) /
        m250.peakGpuFlops(gpu::Pipe::matrix, gpu::DataType::fp16);
    EXPECT_GT(fp16_uplift, 2.0);
    // FP8 exists only on MI300 (CDNA 3).
    EXPECT_EQ(m250.peakGpuFlops(gpu::Pipe::matrix,
                                gpu::DataType::fp8),
              0.0);
    EXPECT_GT(m300x.peakGpuFlops(gpu::Pipe::matrix,
                                 gpu::DataType::fp8),
              m300a.peakGpuFlops(gpu::Pipe::matrix,
                                 gpu::DataType::fp8));
}

TEST(Package, Ehpv4CpuPathIsLongerThanMi300a)
{
    SimObject root(nullptr, "root");
    Package ehp(&root, "ehpv4", ehpv4Config());
    Package m300(&root, "mi300a", mi300aConfig());
    // Paper Fig. 4 (3): EHPv4's CPU reaches HBM over two SerDes
    // hops; MI300A's CCD sits directly on an IOD.
    const auto ehp_lat =
        ehp.memAccessFrom(ehp.ccdNode(0), 0, 4096, 64, false);
    const auto m300_lat =
        m300.memAccessFrom(m300.ccdNode(0), 0, 4096, 64, false);
    EXPECT_GT(ehp_lat.complete, m300_lat.complete);
}

// ---------------------------------------------------------------------
// Floorplans
// ---------------------------------------------------------------------

TEST(FloorplanBuilder, Mi300aPlanIsOverlapFreeAndComplete)
{
    const auto plan = buildPackageFloorplan(mi300aConfig());
    EXPECT_TRUE(plan.overlapFree()) << [&] {
        std::string s;
        for (const auto &o : plan.overlaps())
            s += o + " ";
        return s;
    }();
    // All dies and stacks present.
    for (int i = 0; i < 6; ++i)
        EXPECT_NE(plan.find("xcd" + std::to_string(i)), nullptr);
    for (int i = 0; i < 3; ++i)
        EXPECT_NE(plan.find("ccd" + std::to_string(i)), nullptr);
    for (int i = 0; i < 8; ++i)
        EXPECT_NE(plan.find("hbm" + std::to_string(i)), nullptr);
    // USR strips exist on inner edges (Fig. 6).
    EXPECT_NE(plan.find("iod0.usr_e"), nullptr);
    EXPECT_GT(plan.utilization(), 0.4);
}

TEST(FloorplanBuilder, RowLayoutForMi250x)
{
    const auto plan = buildPackageFloorplan(mi250xConfig());
    EXPECT_TRUE(plan.overlapFree());
    EXPECT_NE(plan.find("xcd0"), nullptr);
    EXPECT_NE(plan.find("xcd1"), nullptr);
    EXPECT_NE(plan.find("hbm7"), nullptr);
}

TEST(FloorplanBuilder, DomainsMapFromNames)
{
    const auto plan = buildPackageFloorplan(mi300aConfig());
    using power::Domain;
    EXPECT_EQ(domainForRegion(*plan.find("xcd0")), Domain::xcd);
    EXPECT_EQ(domainForRegion(*plan.find("ccd0")), Domain::ccd);
    EXPECT_EQ(domainForRegion(*plan.find("hbm0")), Domain::hbm);
    EXPECT_EQ(domainForRegion(*plan.find("iod0.cache")),
              Domain::infinityCache);
    EXPECT_EQ(domainForRegion(*plan.find("iod0.usr_e")),
              Domain::usr);
}

TEST(FloorplanBuilder, RegionPowerVectorConserves)
{
    const auto plan = buildPackageFloorplan(mi300aConfig());
    std::vector<double> domain_watts(power::numDomains, 0.0);
    domain_watts[static_cast<unsigned>(power::Domain::xcd)] = 300.0;
    domain_watts[static_cast<unsigned>(power::Domain::hbm)] = 100.0;
    const auto region_watts = regionPowerVector(plan, domain_watts);
    double total = 0;
    for (double w : region_watts)
        total += w;
    EXPECT_NEAR(total, 400.0, 1e-6);
}

// ---------------------------------------------------------------------
// Node topologies
// ---------------------------------------------------------------------

TEST(NodeTopology, QuadApuFullyConnected)
{
    SimObject root(nullptr, "root");
    auto node = NodeTopology::mi300aQuadNode(&root);
    EXPECT_EQ(node->numEndpoints(), 4u);
    // Two x16 per pair, six of eight links used per socket
    // (Fig. 18a), leaving two for NICs/storage.
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(node->freeLinks(s), 2u);
    // Direct single hop between every pair at 128 GB/s.
    for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = 0; b < 4; ++b) {
            if (a == b)
                continue;
            EXPECT_NEAR(node->p2pBandwidth(a, b) / 1e9, 128.0, 0.1);
        }
    }
}

TEST(NodeTopology, OctoMi300xWithHosts)
{
    SimObject root(nullptr, "root");
    auto node = NodeTopology::mi300xOctoNode(&root);
    EXPECT_EQ(node->numEndpoints(), 10u);   // 8 accelerators + 2 hosts
    // Every accelerator used all eight links (7 IF + 1 PCIe).
    for (unsigned s = 0; s < 8; ++s)
        EXPECT_EQ(node->freeLinks(s), 0u);
    EXPECT_NEAR(node->p2pBandwidth(0, 7) / 1e9, 64.0, 0.1);
}

TEST(NodeTopology, AllToAllCompletes)
{
    CommWorld w(NodeKind::quad);
    const Tick done = w.run(comm::Collective::allToAll, 64 << 20,
                            comm::Algorithm::direct)
                          ->finishTick();
    // 64 MB at 128 GB/s is ~0.5 ms plus latency.
    EXPECT_GT(done, ticksFromSeconds(4e-4));
    EXPECT_LT(done, ticksFromSeconds(5e-3));
}

TEST(NodeTopology, OverSubscribedLinksFatal)
{
    SimObject root(nullptr, "root");
    NodeTopology node(&root, "custom");
    node.addSocket("a", 2);
    node.addSocket("b", 8);
    node.connect(0, 1, 2);
    EXPECT_THROW(node.connect(0, 1, 1), std::runtime_error);
}

TEST(NodeTopology, BisectionBandwidth)
{
    SimObject root(nullptr, "root");
    auto node = NodeTopology::mi300aQuadNode(&root);
    // Cut {0,1} vs {2,3}: four pair-links x 2 x16 x 64 GB/s.
    EXPECT_NEAR(node->bisectionBandwidth() / 1e9, 512.0, 1.0);
}

/**
 * @file
 * Tests for links, the routed Infinity Fabric network, and the
 * remote-memory adapter.
 */

#include <gtest/gtest.h>

#include "fabric/link.hh"
#include "fabric/network.hh"
#include "fabric/remote_device.hh"

using namespace ehpsim;
using namespace ehpsim::fabric;

TEST(Link, SerializationPlusLatency)
{
    SimObject root(nullptr, "root");
    LinkParams p;
    p.bandwidth = gbps(1.0);    // 1 byte/ns
    p.latency = 5'000;          // 5 ns
    Link link(&root, "l", p);
    // 1000 bytes -> 1000 ns serialization + 5 ns latency.
    EXPECT_EQ(link.transfer(0, 1000), 1'005'000u);
}

TEST(Link, BackToBackTransfersQueue)
{
    SimObject root(nullptr, "root");
    LinkParams p;
    p.bandwidth = gbps(1.0);
    p.latency = 0;
    Link link(&root, "l", p);
    EXPECT_EQ(link.transfer(0, 1000), 1'000'000u);
    // Issued at the same time: must wait for the first.
    EXPECT_EQ(link.transfer(0, 1000), 2'000'000u);
}

TEST(Link, WithoutEventQueueKeepsEveryRun)
{
    // A link with no event queue is never given a now (curTick() is
    // 0), so its run store retires nothing: it holds exactly the runs
    // of a tracker charged directly.
    SimObject root(nullptr, "root");
    const LinkParams p = serdesIfLinkParams();
    Link link(&root, "l", p, mem::OccupancyTracker::Store::runs);
    mem::OccupancyTracker ref(
        p.bandwidth / static_cast<double>(ticksPerSecond),
        mem::OccupancyTracker::Store::runs);
    for (Tick when = 0; when < 500 * 100'000; when += 100'000) {
        EXPECT_EQ(link.transfer(when, 4096), ref.occupy(when, 4096) +
                                                 p.latency);
    }
    EXPECT_EQ(link.residentSpans(), ref.residentSpans());
    EXPECT_GE(link.residentSpans(), 500u);
}

TEST(LinkDeathTest, TransferBehindRetiredWindowPanics)
{
    // Driven from its event queue, a node link retires the windows
    // behind now; a transfer that starts in one panics and names the
    // link instead of reading it as free.
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    Link link(&root, "gpu0_to_gpu1", serdesIfLinkParams(),
              mem::OccupancyTracker::Store::runs);
    for (int i = 0; i < 64; ++i) {
        eq.scheduleCallback(static_cast<Tick>(i) * 200'000, [&] {
            link.transfer(eq.curTick(), 8192);
        });
    }
    eq.run();
    ASSERT_LT(link.residentSpans(), 64u);
    EXPECT_DEATH(link.transfer(eq.curTick() / 2, 64),
                 "gpu0_to_gpu1: occupancy charge at tick .* retired");

    // Once now passes every load, the next transfer's retirement
    // empties the store first: one behind now still panics, and one
    // at now lands in the empty store as its only run.
    const Tick later = eq.curTick() + 1'000'000'000;
    eq.scheduleCallback(later, [] {});
    eq.run();
    ASSERT_GE(link.residentSpans(), 16u);
    EXPECT_DEATH(link.transfer(later / 2, 64),
                 "gpu0_to_gpu1: occupancy charge at tick .* retired");
    link.transfer(later, 64);
    EXPECT_EQ(link.residentSpans(), 1u);
}

TEST(Link, HighPriorityBypassesQueue)
{
    SimObject root(nullptr, "root");
    LinkParams p;
    p.bandwidth = gbps(1.0);
    p.latency = 1'000;
    Link link(&root, "l", p);
    link.transfer(0, 1'000'000);            // occupy for 1 ms
    const Tick hp = link.transfer(0, 32, true);
    EXPECT_LT(hp, 100'000u);                // did not wait
    EXPECT_DOUBLE_EQ(link.hp_transfers.value(), 1.0);
}

TEST(Link, HighPriorityBusyAccounting)
{
    SimObject root(nullptr, "root");
    LinkParams p;
    p.bandwidth = gbps(1.0);    // 1 byte/ns
    p.latency = 0;
    Link link(&root, "l", p);
    // 1000 bytes of reserved-VC traffic: 1000 ns of serialization
    // that bypasses the occupancy queue. A link carrying only HP
    // traffic used to report busy_frac == 0; the serialization now
    // lands in the separate hp_busy_frac so bulk busy_frac keeps
    // meaning occupancy-queue pressure.
    link.transfer(0, 1000, true);
    EXPECT_DOUBLE_EQ(link.utilization(), 0.0);
    EXPECT_DOUBLE_EQ(link.hpUtilization(), 1.0);
    EXPECT_DOUBLE_EQ(link.hp_busy_frac.value(), 1.0);
}

TEST(Link, MixedTrafficSplitsBusyAccounting)
{
    SimObject root(nullptr, "root");
    LinkParams p;
    p.bandwidth = gbps(1.0);
    p.latency = 0;
    Link link(&root, "l", p);
    link.transfer(0, 1000);             // bulk: occupancy queue
    link.transfer(0, 1000, true);       // HP: reserved VC
    // Both classes serialize for the full observed window, each
    // counted in its own bucket.
    EXPECT_DOUBLE_EQ(link.utilization(), 1.0);
    EXPECT_DOUBLE_EQ(link.hpUtilization(), 1.0);
}

TEST(Link, EnergyAccounting)
{
    SimObject root(nullptr, "root");
    LinkParams p = usrLinkParams();     // 3.2 pJ/B (0.4 mW/Gbps)
    Link link(&root, "usr", p);
    link.transfer(0, 1'000'000'000);    // 1 GB
    EXPECT_NEAR(link.energyJoules(), 3.2e-3, 1e-4);
}

TEST(Link, UsrVsSerdesEfficiency)
{
    // Paper Sec. V.A: USR beats SerDes by >10x bandwidth density and
    // runs at lower energy.
    const LinkParams usr = usrLinkParams();
    const LinkParams serdes = serdesIfLinkParams();
    EXPECT_GT(usr.bandwidth / serdes.bandwidth, 10.0);
    EXPECT_LT(usr.energy_pj_per_byte, serdes.energy_pj_per_byte);
}

namespace
{

/** A 2x2 IOD mesh with one XCD and one stack, like a mini MI300. */
struct MeshFixture
{
    SimObject root{nullptr, "root"};
    Network net{&root, "net"};
    NodeId iod[4];
    NodeId xcd;
    NodeId hbm;

    MeshFixture()
    {
        for (int i = 0; i < 4; ++i) {
            iod[i] = net.addNode("iod" + std::to_string(i),
                                 NodeKind::iod);
        }
        net.connect(iod[0], iod[1], usrLinkParams());
        net.connect(iod[1], iod[2], usrLinkParams());
        net.connect(iod[2], iod[3], usrLinkParams());
        net.connect(iod[3], iod[0], usrLinkParams());
        xcd = net.addNode("xcd0", NodeKind::xcd);
        hbm = net.addNode("hbm0", NodeKind::hbmStack);
        net.connect(xcd, iod[0], onDieLinkParams());
        net.connect(hbm, iod[2], interposerLinkParams());
    }
};

} // anonymous namespace

TEST(Network, ShortestPathRouting)
{
    MeshFixture f;
    EXPECT_EQ(f.net.hopCount(f.iod[0], f.iod[1]), 1u);
    EXPECT_EQ(f.net.hopCount(f.iod[0], f.iod[2]), 2u);
    // XCD on iod0 to HBM on iod2: 4 hops.
    EXPECT_EQ(f.net.hopCount(f.xcd, f.hbm), 4u);
    EXPECT_EQ(f.net.hopCount(f.xcd, f.xcd), 0u);
}

TEST(Network, SendAccumulatesLatency)
{
    MeshFixture f;
    const auto res = f.net.send(0, f.xcd, f.hbm, 64);
    EXPECT_EQ(res.hops, 4u);
    // At least the sum of the four link latencies.
    const Tick min_latency = 1'000 + 5'000 + 5'000 + 3'000;
    EXPECT_GE(res.arrival, min_latency);
    EXPECT_GT(res.energy_pj, 0.0);
}

TEST(Network, ContentionSerializesOnSharedLink)
{
    MeshFixture f;
    const auto a = f.net.send(0, f.iod[0], f.iod[1], 1 << 20);
    const auto b = f.net.send(0, f.iod[0], f.iod[1], 1 << 20);
    EXPECT_GT(b.arrival, a.arrival);
}

TEST(Network, DuplicateNodeNameFatal)
{
    SimObject root(nullptr, "root");
    Network net(&root, "net");
    net.addNode("a", NodeKind::iod);
    EXPECT_THROW(net.addNode("a", NodeKind::iod), std::runtime_error);
}

TEST(Network, UnreachableNodeFatal)
{
    SimObject root(nullptr, "root");
    Network net(&root, "net");
    const auto a = net.addNode("a", NodeKind::iod);
    const auto b = net.addNode("b", NodeKind::iod);
    EXPECT_THROW(net.route(a, b), std::runtime_error);
}

TEST(Network, RoutesRecomputedAfterTopologyChange)
{
    SimObject root(nullptr, "root");
    Network net(&root, "net");
    const auto a = net.addNode("a", NodeKind::iod);
    const auto b = net.addNode("b", NodeKind::iod);
    const auto c = net.addNode("c", NodeKind::iod);
    net.connect(a, b, usrLinkParams());
    net.connect(b, c, usrLinkParams());
    EXPECT_EQ(net.hopCount(a, c), 2u);
    net.connect(a, c, usrLinkParams());
    EXPECT_EQ(net.hopCount(a, c), 1u);
}

TEST(Network, NodeLookupByName)
{
    MeshFixture f;
    EXPECT_EQ(f.net.nodeByName("xcd0"), f.xcd);
    EXPECT_THROW(f.net.nodeByName("nope"), std::runtime_error);
    EXPECT_EQ(f.net.nodeName(f.hbm), "hbm0");
}

TEST(Network, NameLookupStaysExactAtScale)
{
    SimObject root(nullptr, "root");
    Network net(&root, "net");
    std::vector<NodeId> ids;
    for (int i = 0; i < 64; ++i) {
        ids.push_back(
            net.addNode("n" + std::to_string(i), NodeKind::iod));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(net.nodeByName("n" + std::to_string(i)), ids[i]);
    // The name map rejects duplicates even late in population.
    EXPECT_THROW(net.addNode("n63", NodeKind::iod),
                 std::runtime_error);
}

TEST(Network, KilledLinkReroutesTheLongWayRound)
{
    MeshFixture f;
    ASSERT_EQ(f.net.hopCount(f.iod[0], f.iod[1]), 1u);
    f.net.killLink(f.iod[0], f.iod[1]);
    // The 4-ring still connects them the other way.
    EXPECT_TRUE(f.net.reachable(f.iod[0], f.iod[1]));
    EXPECT_EQ(f.net.hopCount(f.iod[0], f.iod[1]), 3u);
    EXPECT_FALSE(f.net.linkAlive(f.iod[0], f.iod[1]));
}

TEST(Network, RouteRecomputedAfterMidSimKill)
{
    MeshFixture f;
    // Use the 1-hop route, as a CommGroup would.
    ASSERT_EQ(f.net.route(f.iod[0], f.iod[1]).size(), 1u);
    EXPECT_EQ(f.net.send(0, f.iod[0], f.iod[1], 4096).hops, 1u);
    // Kill the link mid-sim: the next route goes the long way round
    // over live links only, and send() takes it.
    f.net.killLink(f.iod[0], f.iod[1]);
    const auto &after = f.net.route(f.iod[0], f.iod[1]);
    ASSERT_EQ(after.size(), 3u);
    for (const Link *l : after)
        EXPECT_TRUE(l->alive());
    const auto res = f.net.send(0, f.iod[0], f.iod[1], 4096);
    EXPECT_EQ(res.hops, 3u);
    for (const Link *l : after)
        EXPECT_EQ(l->bytes_moved.value(), 4096.0);
}

TEST(Network, DerateLeavesRoutesAndReroutesUnchanged)
{
    MeshFixture f;
    f.net.killLink(f.iod[0], f.iod[1]);
    const std::vector<Link *> before = f.net.route(f.xcd, f.hbm);
    const double reroutes = f.net.reroutes.value();
    // Min-hop paths ignore bandwidth, so a derate neither moves a
    // route nor forces a recompute.
    f.net.derateLink(f.iod[1], f.iod[2], 0.5);
    EXPECT_EQ(f.net.route(f.xcd, f.hbm), before);
    EXPECT_EQ(f.net.reroutes.value(), reroutes);
}

TEST(Network, PartitionedGraphFatalsOnUseNotOnKill)
{
    MeshFixture f;
    // Cutting both of iod0's ring links strands it (and its XCD)
    // from the HBM stack on iod2.
    f.net.killLink(f.iod[0], f.iod[1]);
    f.net.killLink(f.iod[3], f.iod[0]);
    EXPECT_FALSE(f.net.reachable(f.xcd, f.hbm));
    EXPECT_TRUE(f.net.reachable(f.xcd, f.iod[0]));
    try {
        f.net.send(0, f.xcd, f.hbm, 4096);
        FAIL() << "send across the partition must fatal";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'hbm0'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'xcd0'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("partitioned"), std::string::npos) << msg;
    }
}

TEST(Network, EnergyRollsUpAcrossLinks)
{
    MeshFixture f;
    f.net.send(0, f.xcd, f.hbm, 1'000'000);
    EXPECT_GT(f.net.totalEnergyJoules(), 0.0);
}

namespace
{

class FixedLatencyMemory : public mem::MemDevice
{
  public:
    FixedLatencyMemory(SimObject *parent, Tick lat)
        : mem::MemDevice(parent, "mem"), lat_(lat)
    {}

    mem::AccessResult
    access(Tick when, Addr, std::uint64_t, bool) override
    {
        ++count;
        return {when + lat_, true, 0};
    }

    unsigned count = 0;

  private:
    Tick lat_;
};

} // anonymous namespace

TEST(RemoteMemDevice, RoundTripAddsFabricTime)
{
    MeshFixture f;
    FixedLatencyMemory target(&f.root, 100'000);
    RemoteMemDevice remote(&f.root, "remote", &f.net, f.xcd, f.hbm,
                           &target);
    const auto local = target.access(0, 0, 128, false);
    const auto via = remote.access(0, 0, 128, false);
    EXPECT_EQ(target.count, 2u);
    EXPECT_GT(via.complete, local.complete);
    // Round trip: request + response over 4 hops each way.
    EXPECT_GE(via.complete - local.complete, 2u * 14'000u);
}

TEST(RemoteMemDevice, WritesCarryPayloadOutbound)
{
    MeshFixture f;
    FixedLatencyMemory target(&f.root, 0);
    RemoteMemDevice remote(&f.root, "remote", &f.net, f.xcd, f.hbm,
                           &target);
    remote.access(0, 0, 1 << 20, true);
    // The outbound xcd->iod0 link must have carried ~1 MB.
    Link *out = f.net.link(f.xcd, f.iod[0]);
    EXPECT_GT(out->bytes_moved.value(), 1e6);
    Link *back = f.net.link(f.iod[0], f.xcd);
    EXPECT_LT(back->bytes_moved.value(), 1e3);  // just the ack
}

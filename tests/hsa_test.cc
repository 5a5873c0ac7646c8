/**
 * @file
 * Tests for the cooperative multi-XCD dispatch protocol (paper
 * Fig. 13).
 */

#include <gtest/gtest.h>

#include "hsa/partition.hh"
#include "hsa/shim.hh"

using namespace ehpsim;
using namespace ehpsim::hsa;

namespace
{

class FlatMemory : public mem::MemDevice
{
  public:
    FlatMemory(SimObject *parent, Tick latency)
        : mem::MemDevice(parent, "flat"), latency_(latency)
    {}

    mem::AccessResult
    access(Tick when, Addr, std::uint64_t, bool) override
    {
        return {when + latency_, true, 0};
    }

  private:
    Tick latency_;
};

/** Two-XCD partition over a tiny fabric, like one MI300A IOD pair. */
struct PartitionFixture
{
    SimObject root{nullptr, "root"};
    FlatMemory memory{&root, 10'000};
    fabric::Network net{&root, "net"};
    fabric::NodeId iod0, iod1, x0, x1;
    std::unique_ptr<gpu::Xcd> xcd0, xcd1;
    coherence::ScopeController scopes{&root, "scopes"};
    std::unique_ptr<Partition> part;

    PartitionFixture()
    {
        iod0 = net.addNode("iod0", fabric::NodeKind::iod);
        iod1 = net.addNode("iod1", fabric::NodeKind::iod);
        net.connect(iod0, iod1, fabric::usrLinkParams());
        x0 = net.addNode("x0", fabric::NodeKind::xcd);
        x1 = net.addNode("x1", fabric::NodeKind::xcd);
        net.connect(x0, iod0, fabric::onDieLinkParams());
        net.connect(x1, iod1, fabric::onDieLinkParams());

        gpu::XcdParams xp = gpu::cdna3XcdParams();
        xcd0 = std::make_unique<gpu::Xcd>(&root, "xcd0", xp, &memory);
        xcd1 = std::make_unique<gpu::Xcd>(&root, "xcd1", xp, &memory);
        scopes.addXcdCaches(xcd0->l1Caches(), xcd0->l2());
        scopes.addXcdCaches(xcd1->l1Caches(), xcd1->l2());
        part = std::make_unique<Partition>(
            &root, "part",
            std::vector<gpu::Xcd *>{xcd0.get(), xcd1.get()}, &scopes,
            &net, std::vector<fabric::NodeId>{x0, x1}, iod0);
    }

    AqlPacket
    makePacket(std::uint64_t grid, Signal *sig = nullptr)
    {
        AqlPacket pkt;
        pkt.grid_workgroups = grid;
        pkt.work.flops = 256 * 1000;
        pkt.work.dtype = gpu::DataType::fp32;
        pkt.work.pipe = gpu::Pipe::vector;
        pkt.work.inst_bytes = 0;
        pkt.completion = sig;
        return pkt;
    }
};

} // anonymous namespace

TEST(Partition, DispatchUsesAllXcds)
{
    PartitionFixture f;
    Signal sig;
    const auto pkt = f.makePacket(76, &sig);   // 2 x 38 workgroups
    const auto res = f.part->dispatch(0, pkt);
    EXPECT_EQ(res.workgroups, 76u);
    EXPECT_EQ(res.per_xcd_workgroups.size(), 2u);
    EXPECT_EQ(res.per_xcd_workgroups[0], 38u);
    EXPECT_EQ(res.per_xcd_workgroups[1], 38u);
    EXPECT_TRUE(sig.done());
    EXPECT_EQ(sig.completed_at, res.complete);
}

TEST(Partition, ScopeIdsDefaultToIdentity)
{
    PartitionFixture f;
    // The fixture passes no scope_ids: they default to 0..n-1.
    ASSERT_EQ(f.part->scopeIds().size(), 2u);
    EXPECT_EQ(f.part->scopeIds()[0], 0u);
    EXPECT_EQ(f.part->scopeIds()[1], 1u);

    // Explicit ids pass through untouched (e.g. a partition over
    // the second half of a controller's XCDs).
    Partition swapped(&f.root, "swapped",
                      {f.xcd0.get(), f.xcd1.get()}, &f.scopes, &f.net,
                      {f.x0, f.x1}, f.iod0, {1, 0});
    ASSERT_EQ(swapped.scopeIds().size(), 2u);
    EXPECT_EQ(swapped.scopeIds()[0], 1u);
    EXPECT_EQ(swapped.scopeIds()[1], 0u);

    // A partially specified list cannot silently misalign.
    EXPECT_THROW(Partition(&f.root, "bad",
                           {f.xcd0.get(), f.xcd1.get()}, &f.scopes,
                           &f.net, {f.x0, f.x1}, f.iod0, {0}),
                 std::runtime_error);
}

TEST(Partition, SyncMessagesAreNminus1HighPriority)
{
    PartitionFixture f;
    const auto res = f.part->dispatch(0, f.makePacket(16));
    EXPECT_EQ(res.sync_messages, 1u);       // 2 XCDs -> 1 message
    // The message used the high-priority channel on some link.
    double hp = 0;
    for (auto *l : f.net.allLinks())
        hp += l->hp_transfers.value();
    EXPECT_GE(hp, 1.0);
}

TEST(Partition, BlockedPolicyAssignsContiguous)
{
    PartitionFixture f;
    f.part->setPolicy(DistributionPolicy::blocked);
    const auto res = f.part->dispatch(0, f.makePacket(10));
    EXPECT_EQ(res.per_xcd_workgroups[0], 5u);
    EXPECT_EQ(res.per_xcd_workgroups[1], 5u);
}

TEST(Partition, RoundRobinBalancesOddGrids)
{
    PartitionFixture f;
    const auto res = f.part->dispatch(0, f.makePacket(7));
    EXPECT_EQ(res.per_xcd_workgroups[0], 4u);
    EXPECT_EQ(res.per_xcd_workgroups[1], 3u);
}

TEST(Partition, MultiXcdFasterThanSingle)
{
    PartitionFixture both;
    const auto two = both.part->dispatch(0, both.makePacket(152));

    PartitionFixture single;
    Partition solo(&single.root, "solo", {single.xcd0.get()},
                   &single.scopes, &single.net, {single.x0},
                   single.iod0, {0});
    const auto one = solo.dispatch(0, single.makePacket(152));
    EXPECT_LT(two.complete, one.complete);
}

TEST(Partition, EmptyPartitionFatal)
{
    SimObject root(nullptr, "root");
    EXPECT_THROW(Partition(&root, "p", {}, nullptr),
                 std::runtime_error);
}

TEST(LibraryShim, SmallProblemsStayOnCpu)
{
    // MI300A-ish rates.
    LibraryShim shim(1.4e12, 5.3e12, 60e12, 4.5e12, 5e-6);
    const auto small = shim.decide(1'000'000, 1'000'000);
    EXPECT_EQ(small.target, ShimTarget::cpu);
    const auto big = shim.decide(1ull << 40, 1ull << 34);
    EXPECT_EQ(big.target, ShimTarget::gpu);
}

TEST(Partition, BarrierAndWaitsForSignals)
{
    PartitionFixture f;
    Signal s1, s2, done;
    const auto r1 = f.part->dispatch(0, f.makePacket(8, &s1));
    const auto r2 = f.part->dispatch(0, f.makePacket(8, &s2));

    AqlPacket barrier;
    barrier.type = PacketType::barrierAnd;
    barrier.wait_signals = {&s1, &s2};
    barrier.completion = &done;
    const auto rb = f.part->dispatch(0, barrier);
    EXPECT_EQ(rb.complete, std::max(r1.complete, r2.complete));
    EXPECT_TRUE(done.done());
    EXPECT_EQ(rb.workgroups, 0u);
}

TEST(Partition, BarrierAndOnPendingSignalFatal)
{
    PartitionFixture f;
    Signal pending;     // never decremented
    AqlPacket barrier;
    barrier.type = PacketType::barrierAnd;
    barrier.wait_signals = {&pending};
    EXPECT_THROW(f.part->dispatch(0, barrier), std::runtime_error);
}

TEST(Partition, BarrierAndIgnoresNullSignals)
{
    PartitionFixture f;
    AqlPacket barrier;
    barrier.type = PacketType::barrierAnd;
    barrier.wait_signals = {nullptr};
    const auto rb = f.part->dispatch(1234, barrier);
    EXPECT_EQ(rb.complete, 1234u);
}

TEST(LibraryShim, CrossoverIsMonotonic)
{
    LibraryShim shim(1.4e12, 5.3e12, 60e12, 4.5e12, 5e-6);
    const auto cross = shim.crossoverFlops(10.0);
    EXPECT_GT(cross, 1000u);
    // Just below the crossover: CPU; just above: GPU.
    const auto below = shim.decide(
        cross - 1, static_cast<std::uint64_t>((cross - 1) / 10.0));
    const auto above = shim.decide(
        cross + 1, static_cast<std::uint64_t>((cross + 1) / 10.0));
    EXPECT_EQ(below.target, ShimTarget::cpu);
    EXPECT_EQ(above.target, ShimTarget::gpu);
}

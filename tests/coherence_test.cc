/**
 * @file
 * Tests for the probe-filter directory protocol and GPU scoped
 * coherence.
 */

#include <gtest/gtest.h>

#include "coherence/gpu_scope.hh"
#include "coherence/probe_filter.hh"
#include "sim/rng.hh"

using namespace ehpsim;
using namespace ehpsim::coherence;

TEST(ProbeFilter, ColdReadIsExclusiveFromMemory)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    const auto out = pf.read(0, 0x1000);
    EXPECT_TRUE(out.data_from_memory);
    EXPECT_EQ(out.probes, 0u);
    EXPECT_EQ(pf.lineState(0x1000), State::exclusive);
    EXPECT_EQ(pf.owner(0x1000), std::optional<AgentId>(0));
}

TEST(ProbeFilter, SecondReaderDowngradesExclusive)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.read(0, 0x1000);
    const auto out = pf.read(1, 0x1000);
    EXPECT_EQ(out.probes, 1u);
    EXPECT_TRUE(out.data_from_cache);
    EXPECT_EQ(pf.lineState(0x1000), State::shared);
    EXPECT_EQ(pf.holders(0x1000).size(), 2u);
}

TEST(ProbeFilter, ReadOfModifiedGoesOwned)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.write(0, 0x40);
    EXPECT_EQ(pf.lineState(0x40), State::modified);
    const auto out = pf.read(1, 0x40);
    EXPECT_TRUE(out.data_from_cache);
    EXPECT_EQ(pf.lineState(0x40), State::owned);
    EXPECT_EQ(pf.owner(0x40), std::optional<AgentId>(0));
}

TEST(ProbeFilter, WriteInvalidatesAllSharers)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.read(0, 0x80);
    pf.read(1, 0x80);
    pf.read(2, 0x80);
    const auto out = pf.write(3, 0x80);
    EXPECT_EQ(out.invalidations, 3u);
    EXPECT_EQ(pf.lineState(0x80), State::modified);
    EXPECT_EQ(pf.holders(0x80), std::vector<AgentId>{3});
}

TEST(ProbeFilter, WriteUpgradeByHolderProbesOthersOnly)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.read(0, 0x80);
    pf.read(1, 0x80);
    const auto out = pf.write(0, 0x80);
    EXPECT_EQ(out.invalidations, 1u);
    EXPECT_FALSE(out.data_from_memory);     // already held the data
    EXPECT_EQ(pf.owner(0x80), std::optional<AgentId>(0));
}

TEST(ProbeFilter, RepeatedAccessByHolderIsSilent)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.read(0, 0x100);
    const auto out = pf.read(0, 0x100);
    EXPECT_EQ(out.probes, 0u);
    EXPECT_FALSE(out.data_from_memory);
    EXPECT_FALSE(out.data_from_cache);
}

TEST(ProbeFilter, DirtyEvictionWritesBack)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.write(2, 0x200);
    const auto out = pf.evict(2, 0x200);
    EXPECT_TRUE(out.writeback);
    EXPECT_EQ(pf.lineState(0x200), State::invalid);
    EXPECT_EQ(pf.trackedLines(), 0u);
}

TEST(ProbeFilter, CleanEvictionLeavesSharers)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.read(0, 0x200);
    pf.read(1, 0x200);
    const auto out = pf.evict(0, 0x200);
    EXPECT_FALSE(out.writeback);
    EXPECT_EQ(pf.holders(0x200), std::vector<AgentId>{1});
    EXPECT_TRUE(pf.invariantsHold());
}

TEST(ProbeFilter, OwnedEvictionWritesBackAndDowngrades)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    pf.write(0, 0x300);
    pf.read(1, 0x300);          // 0 owned, 1 sharer
    const auto out = pf.evict(0, 0x300);
    EXPECT_TRUE(out.writeback);
    EXPECT_EQ(pf.lineState(0x300), State::shared);
    EXPECT_TRUE(pf.invariantsHold());
}

TEST(ProbeFilter, CapacityRecallInvalidatesEverywhere)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf", /*capacity=*/4);
    for (Addr a = 0; a < 4 * 64; a += 64)
        pf.read(0, a);
    EXPECT_EQ(pf.trackedLines(), 4u);
    const auto out = pf.read(1, 0x1000);
    EXPECT_TRUE(out.recall);
    EXPECT_EQ(pf.trackedLines(), 4u);
    EXPECT_GT(pf.recalls.value(), 0.0);
}

TEST(ProbeFilter, LinesAlignToLineSize)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf", 0, 64);
    pf.write(0, 0x1008);
    const auto out = pf.read(1, 0x1030);    // same 64 B line
    EXPECT_TRUE(out.data_from_cache);
}

class ProbeFilterRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ProbeFilterRandom, InvariantsUnderRandomTraffic)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf", 256);
    Rng rng(GetParam());
    for (int i = 0; i < 20000; ++i) {
        const AgentId agent = rng.nextBounded(9);   // 6 XCD + 3 CCD
        const Addr addr = rng.nextBounded(1 << 16);
        const auto op = rng.nextBounded(3);
        if (op == 0)
            pf.read(agent, addr);
        else if (op == 1)
            pf.write(agent, addr);
        else
            pf.evict(agent, addr);
        if (i % 500 == 0) {
            ASSERT_TRUE(pf.invariantsHold()) << "iteration " << i;
        }
    }
    EXPECT_TRUE(pf.invariantsHold());
    EXPECT_LE(pf.trackedLines(), 256u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProbeFilterRandom,
                         ::testing::Values(1, 2, 3, 42, 1234));

TEST(ProbeFilter, SingleWriterInvariant)
{
    SimObject root(nullptr, "root");
    ProbeFilter pf(&root, "pf");
    Rng rng(77);
    const Addr addr = 0x4000;
    for (int i = 0; i < 100; ++i) {
        const AgentId a = rng.nextBounded(8);
        if (rng.nextBool(0.5))
            pf.write(a, addr);
        else
            pf.read(a, addr);
        const auto st = pf.lineState(addr);
        if (st == State::modified || st == State::exclusive) {
            EXPECT_EQ(pf.holders(addr).size(), 1u);
        }
    }
}

// ---------------------------------------------------------------------
// GPU scoped coherence
// ---------------------------------------------------------------------

namespace
{

class NullMemory : public mem::MemDevice
{
  public:
    explicit NullMemory(SimObject *parent)
        : mem::MemDevice(parent, "null")
    {}

    mem::AccessResult
    access(Tick when, Addr, std::uint64_t, bool) override
    {
        return {when + 1000, true, 0};
    }
};

struct ScopeFixture
{
    SimObject root{nullptr, "root"};
    NullMemory memory{&root};
    mem::Cache l2;
    mem::Cache l1a;
    mem::Cache l1b;
    ScopeController ctrl{&root, "scopes"};

    static mem::CacheParams
    smallCache()
    {
        mem::CacheParams p;
        p.size_bytes = 4096;
        p.assoc = 4;
        p.line_bytes = 64;
        return p;
    }

    ScopeFixture()
        : l2(&root, "l2", smallCache(), &memory),
          l1a(&root, "l1a", smallCache(), &l2),
          l1b(&root, "l1b", smallCache(), &l2)
    {
        ctrl.addXcdCaches({&l1a, &l1b}, &l2);
    }
};

} // anonymous namespace

TEST(ScopeController, WorkgroupScopeIsFree)
{
    ScopeFixture f;
    f.l1a.access(0, 0, 64, true);
    const auto op = f.ctrl.acquire(0, 0, Scope::workgroup);
    EXPECT_EQ(op.lines_invalidated, 0u);
    const auto rel = f.ctrl.release(0, 0, Scope::workgroup);
    EXPECT_EQ(rel.bytes_written_back, 0u);
}

TEST(ScopeController, AgentAcquireInvalidatesL1s)
{
    ScopeFixture f;
    f.l1a.access(0, 0, 256, false);
    f.l1b.access(0, 512, 128, false);
    const auto op = f.ctrl.acquire(0, 0, Scope::agent);
    EXPECT_EQ(op.lines_invalidated, 4u + 2u);
    EXPECT_EQ(f.l1a.array().numValid(), 0u);
}

TEST(ScopeController, DeviceReleaseFlushesL2)
{
    ScopeFixture f;
    f.l1a.access(0, 0, 128, true);      // dirty in L1
    const auto op = f.ctrl.release(0, 0, Scope::device);
    EXPECT_GE(op.bytes_written_back, 128u);
    EXPECT_EQ(f.l2.array().numValid(), 0u);
}

TEST(ScopeController, UnknownXcdFatal)
{
    ScopeFixture f;
    EXPECT_THROW(f.ctrl.acquire(0, 5, Scope::agent),
                 std::runtime_error);
}


/**
 * @file
 * Tests for address interleaving, cache arrays, timed caches, DRAM
 * channels, the Infinity Cache, and the HBM subsystem.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "mem/cache.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/hbm_subsystem.hh"
#include "mem/infinity_cache.hh"
#include "mem/interleave.hh"
#include "sim/rng.hh"

using namespace ehpsim;
using namespace ehpsim::mem;

namespace
{

constexpr std::uint64_t testCapacity = 1ull << 30;  // 1 GiB

/** A perfect memory with fixed latency, for cache tests. */
class FlatMemory : public MemDevice
{
  public:
    FlatMemory(SimObject *parent, Tick latency)
        : MemDevice(parent, "flat"), latency_(latency)
    {}

    AccessResult
    access(Tick when, Addr, std::uint64_t bytes, bool write) override
    {
        ++accesses;
        bytes_seen += bytes;
        if (write)
            ++writes;
        return {when + latency_, true, 0};
    }

    std::uint64_t accesses = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_seen = 0;

  private:
    Tick latency_;
};

} // anonymous namespace

// ---------------------------------------------------------------------
// Interleaving
// ---------------------------------------------------------------------

TEST(Interleave, PageStaysOnOneStack)
{
    InterleaveMap map(8, 16, testCapacity);
    // Paper Sec. IV.D: every 4 KB of sequential addresses maps to
    // the same stack.
    for (Addr page = 0; page < 64; ++page) {
        const unsigned stack = map.stackOf(page * 4096);
        for (Addr off = 0; off < 4096; off += 256)
            EXPECT_EQ(map.stackOf(page * 4096 + off), stack);
    }
}

TEST(Interleave, ConsecutivePagesSpreadAcrossStacks)
{
    InterleaveMap map(8, 16, testCapacity);
    std::set<unsigned> stacks;
    for (Addr page = 0; page < 8; ++page)
        stacks.insert(map.stackOf(page * 4096));
    // Each group of 8 pages is a permutation of the 8 stacks.
    EXPECT_EQ(stacks.size(), 8u);
}

TEST(Interleave, InPageStripingUsesAllChannelsOfStack)
{
    InterleaveMap map(8, 16, testCapacity);
    const unsigned stack = map.stackOf(0);
    std::set<unsigned> channels;
    for (Addr off = 0; off < 4096; off += 256) {
        const auto loc = map.locate(off);
        EXPECT_EQ(loc.stack, stack);
        channels.insert(loc.channel);
    }
    EXPECT_EQ(channels.size(), 16u);
}

class InterleaveBijection : public ::testing::TestWithParam<NumaMode>
{
};

TEST_P(InterleaveBijection, LocateIsInvertible)
{
    InterleaveMap map(8, 16, testCapacity, GetParam());
    Rng rng(123);
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBounded(testCapacity);
        const auto loc = map.locate(a);
        EXPECT_LT(loc.channel, map.numChannels());
        EXPECT_EQ(map.addressOf(loc.channel, loc.local), a);
    }
}

TEST_P(InterleaveBijection, NoTwoAddressesCollide)
{
    InterleaveMap map(4, 4, 1ull << 24, GetParam(), 4096, 256);
    // Exhaustively map a region at line granularity and check
    // distinct (channel, local) pairs.
    std::set<std::pair<unsigned, Addr>> seen;
    for (Addr a = 0; a < (1ull << 20); a += 128) {
        const auto loc = map.locate(a);
        const auto key = std::make_pair(loc.channel, loc.local);
        EXPECT_TRUE(seen.insert(key).second) << "addr " << a;
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, InterleaveBijection,
                         ::testing::Values(NumaMode::nps1,
                                           NumaMode::nps4));

TEST(Interleave, Nps4ConfinesDomainsToStackQuadrants)
{
    InterleaveMap map(8, 16, testCapacity, NumaMode::nps4);
    const std::uint64_t domain_size = testCapacity / 4;
    for (unsigned d = 0; d < 4; ++d) {
        for (Addr off = 0; off < 1 << 20; off += 4096) {
            const Addr a = d * domain_size + off;
            EXPECT_EQ(map.domainOf(a), d);
            const unsigned stack = map.stackOf(a);
            EXPECT_GE(stack, d * 2);
            EXPECT_LT(stack, (d + 1) * 2);
        }
    }
}

TEST(Interleave, ChannelLoadIsBalanced)
{
    InterleaveMap map(8, 16, testCapacity);
    std::unordered_map<unsigned, unsigned> counts;
    for (Addr a = 0; a < (64ull << 20); a += 4096)
        ++counts[map.locate(a).channel / 16];   // per stack
    for (const auto &kv : counts) {
        EXPECT_NEAR(kv.second, 2048, 64);
    }
}

TEST(Interleave, RejectsBadGeometry)
{
    EXPECT_THROW(InterleaveMap(3, 16, testCapacity),
                 std::runtime_error);
    EXPECT_THROW(InterleaveMap(8, 16, testCapacity + 1),
                 std::runtime_error);
}

TEST(Interleave, OutOfRangeAddressFatal)
{
    InterleaveMap map(8, 16, testCapacity);
    EXPECT_THROW(map.locate(testCapacity), std::runtime_error);
}

// ---------------------------------------------------------------------
// CacheArray
// ---------------------------------------------------------------------

TEST(CacheArray, HitAfterFill)
{
    CacheArray arr(8 * 1024, 4, 64);
    EXPECT_FALSE(arr.lookup(0x1000).has_value());
    arr.fill(0x1000, false);
    EXPECT_TRUE(arr.lookup(0x1000).has_value());
    EXPECT_TRUE(arr.lookup(0x1020).has_value());    // same line
    EXPECT_FALSE(arr.lookup(0x1040).has_value());   // next line
}

TEST(CacheArray, LruEvictsOldest)
{
    // 4-way, one set per... size 4*64 = 256 B -> 1 set.
    CacheArray arr(256, 4, 64);
    for (Addr a = 0; a < 4 * 64; a += 64)
        arr.fill(a, false);
    arr.lookup(0);          // refresh line 0
    const auto victim = arr.fill(0x1000, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag, 64u);    // line 1 was least recent
    EXPECT_TRUE(arr.lookup(0).has_value());
}

TEST(CacheArray, DirtyVictimReported)
{
    CacheArray arr(256, 4, 64);
    for (Addr a = 0; a < 4 * 64; a += 64)
        arr.fill(a, true);
    const auto victim = arr.fill(0x2000, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
}

TEST(CacheArray, InvalidateReturnsLine)
{
    CacheArray arr(8 * 1024, 4, 64);
    arr.fill(0x40, true);
    const auto line = arr.invalidate(0x40);
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(line->dirty);
    EXPECT_FALSE(arr.lookup(0x40).has_value());
    EXPECT_FALSE(arr.invalidate(0x40).has_value());
}

TEST(CacheArray, FlushReturnsDirtyLines)
{
    CacheArray arr(8 * 1024, 4, 64);
    arr.fill(0x00, true);
    arr.fill(0x40, false);
    arr.fill(0x80, true);
    const auto dirty = arr.flushAll();
    EXPECT_EQ(dirty.size(), 2u);
    EXPECT_EQ(arr.numValid(), 0u);
}

TEST(CacheArray, InvariantsUnderRandomTraffic)
{
    CacheArray arr(16 * 1024, 8, 128);
    Rng rng(5);
    std::uint64_t hits = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBounded(1 << 18);
        if (arr.lookup(a)) {
            ++hits;
        } else {
            arr.fill(a, rng.nextBool(0.5));
        }
        if (i % 1024 == 0) {
            EXPECT_TRUE(arr.tagsUnique());
        }
    }
    EXPECT_TRUE(arr.tagsUnique());
    EXPECT_LE(arr.numValid(), 16384u / 128u);
    EXPECT_GT(hits, 0u);
}

TEST(CacheArray, CapacityWorkingSetAlwaysHits)
{
    // A working set exactly matching capacity, touched round-robin,
    // must stay resident under LRU.
    CacheArray arr(8 * 1024, 8, 64);
    for (Addr a = 0; a < 8 * 1024; a += 64)
        arr.fill(a, false);
    EXPECT_EQ(arr.numValid(), 128u);
    for (Addr a = 0; a < 8 * 1024; a += 64)
        EXPECT_TRUE(arr.lookup(a).has_value());
    EXPECT_TRUE(arr.tagsUnique());
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(100, 4, 64), std::runtime_error);
    EXPECT_THROW(CacheArray(8192, 0, 64), std::runtime_error);
    EXPECT_THROW(CacheArray(8192, 4, 48), std::runtime_error);
}

// ---------------------------------------------------------------------
// Timed cache
// ---------------------------------------------------------------------

TEST(Cache, MissFetchesFromBelowThenHits)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100'000);
    CacheParams cp;
    cp.size_bytes = 32 * 1024;
    cp.line_bytes = 128;
    Cache cache(&root, "l1", cp, &memory);

    const auto miss = cache.access(0, 0x1000, 128, false);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(memory.accesses, 1u);
    EXPECT_GT(miss.complete, 100'000u);

    const auto hit = cache.access(miss.complete, 0x1000, 128, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(memory.accesses, 1u);
    EXPECT_LT(hit.complete - miss.complete,
              miss.complete);
    EXPECT_DOUBLE_EQ(cache.hits.value(), 1.0);
    EXPECT_DOUBLE_EQ(cache.misses.value(), 1.0);
}

TEST(Cache, MultiLineRequestCountsEachLine)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 10'000);
    CacheParams cp;
    cp.size_bytes = 32 * 1024;
    cp.line_bytes = 128;
    Cache cache(&root, "l1", cp, &memory);
    cache.access(0, 0, 1024, false);    // 8 lines
    EXPECT_DOUBLE_EQ(cache.misses.value(), 8.0);
    EXPECT_EQ(memory.accesses, 8u);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 1'000);
    CacheParams cp;
    cp.size_bytes = 512;        // 4 lines total, 1 set x 4 ways
    cp.assoc = 4;
    cp.line_bytes = 128;
    Cache cache(&root, "tiny", cp, &memory);

    for (Addr a = 0; a < 4 * 128; a += 128)
        cache.access(0, a, 128, true);
    EXPECT_EQ(memory.writes, 0u);       // write-back: nothing yet
    cache.access(0, 0x4000, 128, false);
    EXPECT_DOUBLE_EQ(cache.writebacks.value(), 1.0);
    EXPECT_EQ(memory.writes, 1u);
}

TEST(Cache, FlushWritesDirtyAndEmpties)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 1'000);
    CacheParams cp;
    cp.size_bytes = 32 * 1024;
    cp.line_bytes = 128;
    Cache cache(&root, "l1", cp, &memory);
    cache.access(0, 0, 512, true);
    const auto flushed = cache.flush(0);
    EXPECT_EQ(flushed, 512u);
    EXPECT_EQ(cache.array().numValid(), 0u);
}

TEST(Cache, ProbeInvalidateDropsLine)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 1'000);
    CacheParams cp;
    Cache cache(&root, "l1", cp, &memory);
    cache.access(0, 0x100, 64, false);
    cache.probeInvalidate(0x100);
    EXPECT_DOUBLE_EQ(cache.probe_invalidations.value(), 1.0);
    const auto res = cache.access(0, 0x100, 64, false);
    EXPECT_FALSE(res.hit);
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(Dram, LatencyAndBandwidth)
{
    SimObject root(nullptr, "root");
    DramParams p = hbm3ChannelParams();
    DramChannel ch(&root, "ch", p);
    const auto r = ch.access(0, 0, 128, false);
    EXPECT_GT(r.complete, p.access_latency);
    // One 128 B transfer at 41.4 GB/s ~ 3 ns + latency.
    EXPECT_LT(r.complete, p.access_latency + 10'000);
}

TEST(Dram, StreamApproachesPeakBandwidth)
{
    SimObject root(nullptr, "root");
    DramParams p = hbm3ChannelParams();
    DramChannel ch(&root, "ch", p);
    Tick t = 0;
    const std::uint64_t total = 4 << 20;
    // Stream striped across rows so banks rotate.
    for (Addr a = 0; a < total; a += 256)
        t = std::max(t, ch.access(0, a, 256, false).complete);
    const double bw = ch.achievedBandwidth(t);
    EXPECT_GT(bw, 0.7 * p.bandwidth);
    EXPECT_LE(bw, 1.05 * p.bandwidth);
}

TEST(Dram, SameBankStreamIsSlower)
{
    SimObject root(nullptr, "root");
    DramParams p = hbm3ChannelParams();
    DramChannel good(&root, "good", p);
    DramChannel bad(&root, "bad", p);
    Tick tg = 0, tb = 0;
    for (int i = 0; i < 512; ++i) {
        // Rotate banks vs hammer one row's bank.
        tg = std::max(tg,
                      good.access(0, Addr(i) * p.row_bytes, 64,
                                  false).complete);
        tb = std::max(tb,
                      bad.access(0,
                                 Addr(i) * p.row_bytes *
                                     p.num_banks,
                                 64, false).complete);
    }
    EXPECT_GT(tb, tg);
    EXPECT_GT(bad.bank_conflicts.value(), 0.0);
}

// ---------------------------------------------------------------------
// Infinity Cache slice
// ---------------------------------------------------------------------

TEST(InfinityCache, HitsServeWithoutHbm)
{
    SimObject root(nullptr, "root");
    DramChannel ch(&root, "ch", hbm3ChannelParams());
    InfinityCacheParams icp;
    icp.prefetch_depth = 0;
    InfinityCacheSlice slice(&root, "mall", icp, &ch);

    slice.access(0, 0, 128, false);
    EXPECT_DOUBLE_EQ(slice.misses.value(), 1.0);
    const double hbm_before = slice.bytes_from_hbm.value();
    slice.access(0, 0, 128, false);
    EXPECT_DOUBLE_EQ(slice.hits.value(), 1.0);
    EXPECT_DOUBLE_EQ(slice.bytes_from_hbm.value(), hbm_before);
}

TEST(InfinityCache, NextLinePrefetchHits)
{
    SimObject root(nullptr, "root");
    DramChannel ch(&root, "ch", hbm3ChannelParams());
    InfinityCacheParams icp;
    icp.prefetch_depth = 2;
    InfinityCacheSlice slice(&root, "mall", icp, &ch);

    slice.access(0, 0, 128, false);         // miss; prefetch 128, 256
    slice.access(0, 128, 128, false);       // prefetch hit
    slice.access(0, 256, 128, false);       // prefetch hit
    EXPECT_DOUBLE_EQ(slice.prefetch_hits.value(), 2.0);
    EXPECT_DOUBLE_EQ(slice.misses.value(), 1.0);
}

TEST(InfinityCache, BandwidthAmplificationOnReuse)
{
    SimObject root(nullptr, "root");
    DramChannel ch(&root, "ch", hbm3ChannelParams());
    InfinityCacheParams icp;
    icp.prefetch_depth = 0;
    InfinityCacheSlice slice(&root, "mall", icp, &ch);

    // Stream a 1 MB working set (fits in the 2 MB slice) 8 times.
    for (int pass = 0; pass < 8; ++pass) {
        for (Addr a = 0; a < (1 << 20); a += 128)
            slice.access(0, a, 128, false);
    }
    // ~8x amplification: one fill, eight servings.
    EXPECT_GT(slice.amplification(), 6.0);
    EXPECT_GT(slice.hitRate(), 0.8);
}

TEST(InfinityCache, WritebacksOnDirtyEviction)
{
    SimObject root(nullptr, "root");
    DramChannel ch(&root, "ch", hbm3ChannelParams());
    InfinityCacheParams icp;
    icp.size_bytes = 64 * 1024;     // small slice to force evictions
    icp.assoc = 4;
    icp.prefetch_depth = 0;
    InfinityCacheSlice slice(&root, "mall", icp, &ch);
    for (Addr a = 0; a < (1 << 20); a += 128)
        slice.access(0, a, 128, true);
    EXPECT_GT(slice.writebacks.value(), 0.0);
}

// ---------------------------------------------------------------------
// HBM subsystem
// ---------------------------------------------------------------------

TEST(HbmSubsystem, GeometryAndPeaks)
{
    SimObject root(nullptr, "root");
    HbmSubsystemParams p;       // MI300A defaults
    HbmSubsystem sys(&root, "hbm", p);
    EXPECT_EQ(sys.numChannels(), 128u);
    // Paper: ~5.3 TB/s HBM peak, 17 TB/s Infinity Cache peak.
    EXPECT_NEAR(sys.peakHbmBandwidth() / 1e12, 5.3, 0.05);
    EXPECT_NEAR(sys.peakCacheBandwidth() / 1e12, 17.0, 0.05);
}

TEST(HbmSubsystem, StreamUsesManyChannels)
{
    SimObject root(nullptr, "root");
    HbmSubsystemParams p;
    p.cache.prefetch_depth = 0;
    HbmSubsystem sys(&root, "hbm", p);
    for (Addr a = 0; a < (1 << 20); a += 256)
        sys.access(0, a, 256, false);
    unsigned used = 0;
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
        if (sys.channel(ch)->bytes_served.value() > 0)
            ++used;
    }
    EXPECT_GT(used, 100u);
}

TEST(HbmSubsystem, LargeRequestFansOut)
{
    SimObject root(nullptr, "root");
    HbmSubsystemParams p;
    p.cache.prefetch_depth = 0;
    HbmSubsystem sys(&root, "hbm", p);
    const auto r = sys.access(0, 0, 64 * 1024, false);
    EXPECT_GT(r.complete, 0u);
    // The 64 KB spans 16 pages -> multiple stacks.
    std::set<unsigned> stacks;
    for (Addr a = 0; a < 64 * 1024; a += 4096)
        stacks.insert(sys.interleave().stackOf(a));
    EXPECT_GT(stacks.size(), 4u);
}

TEST(HbmSubsystem, NoCacheModeMatchesMi250x)
{
    SimObject root(nullptr, "root");
    HbmSubsystemParams p;
    p.num_stacks = 8;
    p.channels_per_stack = 8;
    p.channel = hbm2eChannelParams();
    p.enable_infinity_cache = false;
    HbmSubsystem sys(&root, "hbm", p);
    EXPECT_NEAR(sys.peakHbmBandwidth() / 1e12, 3.2, 0.05);
    EXPECT_EQ(sys.slice(0), nullptr);
    EXPECT_DOUBLE_EQ(sys.cacheHitRate(), 0.0);
    sys.access(0, 0, 256, false);
    EXPECT_GT(sys.channel(0)->bytes_served.value() +
                  sys.channel(1)->bytes_served.value(),
              0.0);
}

/**
 * @file
 * Tests for address interleaving, cache arrays, timed caches, DRAM
 * channels, the Infinity Cache, and the HBM subsystem.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

#include "core/apu_system.hh"
#include "mem/cache.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/hbm_subsystem.hh"
#include "mem/infinity_cache.hh"
#include "mem/interleave.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "sim/units.hh"
#include "soc/product_config.hh"

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

namespace
{

/**
 * The eagerly allocated set-major tag array CacheArray grew out of:
 * every line exists from construction, a fill takes the first
 * invalid way, else the least recently used one, and a snapshot
 * writes format 2 by hand.
 */
class EagerArray
{
  public:
    EagerArray(std::uint64_t size, unsigned assoc, unsigned line)
        : size_(size), assoc_(assoc), line_(line),
          sets_(size / (std::uint64_t{assoc} * line)),
          lines_(sets_ * assoc)
    {}

    std::optional<unsigned>
    lookup(Addr a)
    {
        const auto way = peek(a);
        if (way)
            set(a)[*way].last_use = ++clock_;
        return way;
    }

    std::optional<unsigned>
    peek(Addr a)
    {
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set(a)[w].valid && set(a)[w].tag == a / line_ * line_)
                return w;
        }
        return std::nullopt;
    }

    CacheLine &line(Addr a, unsigned way) { return set(a)[way]; }

    std::optional<CacheLine>
    fill(Addr a, bool dirty, bool prefetched)
    {
        CacheLine *base = set(a);
        unsigned way = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!base[w].valid) {
                way = w;
                break;
            }
            if (base[w].last_use < base[way].last_use)
                way = w;
        }
        std::optional<CacheLine> victim;
        if (base[way].valid)
            victim = base[way];
        base[way] = {a / line_ * line_, ++clock_, true, dirty,
                     prefetched};
        return victim;
    }

    std::optional<CacheLine>
    invalidate(Addr a)
    {
        const auto way = peek(a);
        if (!way)
            return std::nullopt;
        const CacheLine old = set(a)[*way];
        set(a)[*way].valid = set(a)[*way].dirty = false;
        return old;
    }

    std::vector<CacheLine>
    flushAll()
    {
        std::vector<CacheLine> dirty;
        for (CacheLine &l : lines_) {
            if (l.valid && l.dirty)
                dirty.push_back(l);
            l.valid = l.dirty = false;
        }
        return dirty;
    }

    std::uint64_t
    numValid() const
    {
        return std::count_if(lines_.begin(), lines_.end(),
                             [](const CacheLine &l) { return l.valid; });
    }

    std::string
    snapshot() const
    {
        SnapshotWriter w;
        w.putU64(size_);
        w.putU32(assoc_);
        w.putU32(line_);
        w.putU64(clock_);
        w.putU64(numValid());
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            if (!lines_[i].valid)
                continue;
            w.putU64(i);
            w.putU64(lines_[i].tag);
            w.putBool(lines_[i].dirty);
            w.putU64(lines_[i].last_use);
            w.putBool(lines_[i].prefetched);
        }
        return w.blob();
    }

  private:
    CacheLine *
    set(Addr a)
    {
        return &lines_[a / line_ % sets_ * assoc_];
    }

    std::uint64_t size_;
    unsigned assoc_;
    unsigned line_;
    std::uint64_t sets_;
    std::uint64_t clock_ = 0;
    std::vector<CacheLine> lines_;
};

std::string
snapshotOf(const CacheArray &a)
{
    SnapshotWriter w;
    a.snapshot(w);
    return w.blob();
}

void
expectSameLine(const std::optional<CacheLine> &got,
               const std::optional<CacheLine> &want, int op)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
    if (!want)
        return;
    EXPECT_EQ(got->tag, want->tag) << "op " << op;
    EXPECT_EQ(got->last_use, want->last_use) << "op " << op;
    EXPECT_EQ(got->valid, want->valid) << "op " << op;
    EXPECT_EQ(got->dirty, want->dirty) << "op " << op;
    EXPECT_EQ(got->prefetched, want->prefetched) << "op " << op;
}

} // anonymous namespace

class CacheArrayDiff
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>>
{
};

TEST_P(CacheArrayDiff, GrownTagsMatchEagerArray)
{
    // A seeded stream of every operation into the grown array and the
    // eager reference: way choices, victims, flushes, valid counts
    // and snapshot blobs must agree, across a snapshot -> restore
    // into a fresh array midway. Most traffic lands in a few pages,
    // so some pages stay narrow or empty while others fill up.
    const auto [assoc, seed] = GetParam();
    constexpr unsigned kSets = 512, kLine = 64;
    const std::uint64_t size = std::uint64_t{kSets} * assoc * kLine;
    auto arr = std::make_unique<CacheArray>(size, assoc, kLine);
    EagerArray ref(size, assoc, kLine);
    Rng rng(seed);
    const auto addr = [&] {
        // A hot window of 16 sets over 4x their capacity, else
        // anywhere in 8x the array.
        if (rng.nextBool(0.7)) {
            return Addr{128} * kLine + rng.nextBounded(16) * kLine +
                   rng.nextBounded(4 * assoc) * kSets * kLine;
        }
        return Addr{rng.nextBounded(8 * size)};
    };
    for (int op = 0; op < 30000; ++op) {
        const Addr a = addr();
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 60) {
            const auto way = arr->lookup(a);
            ASSERT_EQ(way, ref.lookup(a)) << "op " << op;
            if (!way) {
                const bool dirty = rng.nextBool(0.3);
                const bool pf = rng.nextBool(0.2);
                expectSameLine(arr->fill(a, dirty, pf),
                               ref.fill(a, dirty, pf), op);
            } else if (rng.nextBool(0.3)) {
                arr->line(a, *way).dirty = true;
                ref.line(a, *way).dirty = true;
            }
        } else if (kind < 72) {
            ASSERT_EQ(arr->peek(a), ref.peek(a)) << "op " << op;
        } else if (kind < 84) {
            const auto way = static_cast<unsigned>(rng.nextBounded(assoc));
            const CacheArray &view = *arr;
            const CacheLine &got = view.line(a, way);
            ASSERT_EQ(got.valid, ref.line(a, way).valid) << "op " << op;
            if (got.valid)
                expectSameLine(got, ref.line(a, way), op);
        } else if (kind < 96) {
            expectSameLine(arr->invalidate(a), ref.invalidate(a), op);
        } else if (rng.nextBool(0.01)) {
            const auto got = arr->flushAll();
            const auto want = ref.flushAll();
            ASSERT_EQ(got.size(), want.size()) << "op " << op;
            for (std::size_t i = 0; i < got.size(); ++i)
                expectSameLine(got[i], want[i], op);
        }
        if (op % 1000 == 999) {
            ASSERT_EQ(arr->numValid(), ref.numValid()) << "op " << op;
            const std::string blob = snapshotOf(*arr);
            ASSERT_EQ(blob, ref.snapshot()) << "op " << op;
            EXPECT_LE(arr->residentLines(), std::uint64_t{kSets} * assoc);
            if (op == 14999) {
                arr = std::make_unique<CacheArray>(size, assoc, kLine);
                SnapshotReader r(blob);
                arr->restore(r);
                ASSERT_EQ(snapshotOf(*arr), blob);
            }
        }
    }
    EXPECT_TRUE(arr->tagsUnique());
}

INSTANTIATE_TEST_SUITE_P(
    AssocAndSeed, CacheArrayDiff,
    ::testing::Combine(::testing::Values(1u, 4u, 12u, 16u),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{20240624})));

TEST(CacheArray, RestoreGrowsAnUntouchedPage)
{
    // 256 sets x 8 ways: four pages of 64 sets. The blob's only line
    // sits in the last way of set 130 (page 2), which nothing filled.
    CacheArray arr(256 * 8 * 64, 8, 64);
    arr.fill(0x40, true);       // page 0, restore() must drop it
    const Addr tag = Addr{130} * 64 + Addr{3} * 256 * 64;
    SnapshotWriter w;
    w.putU64(256 * 8 * 64);
    w.putU32(8);
    w.putU32(64);
    w.putU64(5);
    w.putU64(1);
    w.putU64(130 * 8 + 7);
    w.putU64(tag);
    w.putBool(true);
    w.putU64(4);
    w.putBool(false);
    SnapshotReader r(w.blob());
    arr.restore(r);
    EXPECT_EQ(arr.numValid(), 1u);
    EXPECT_EQ(arr.residentLines(), 64u * 8);
    EXPECT_EQ(arr.peek(tag), std::optional<unsigned>(7));
    EXPECT_FALSE(arr.peek(0x40).has_value());
    const CacheArray &view = arr;
    EXPECT_FALSE(view.line(0x40, 0).valid);     // a page never grown
    EXPECT_TRUE(view.line(tag, 7).dirty);
    EXPECT_EQ(snapshotOf(arr), w.blob());
}

TEST(CacheArray, FillGrowsOnlyTheTouchedPage)
{
    CacheArray arr(2 * MiB, 16, 128);       // 1024 sets, 16 pages
    EXPECT_EQ(arr.residentLines(), 0u);
    const CacheArray &view = arr;
    for (unsigned way = 0; way < 16; ++way)
        EXPECT_FALSE(view.line(0x12345 * 128, way).valid);
    arr.fill(0x80, false);
    EXPECT_EQ(arr.residentLines(), 64u);
    // A second line in the same set doubles the page's width; a
    // third fits the widened page.
    arr.fill(0x80 + 1024 * 128, false);
    EXPECT_EQ(arr.residentLines(), 128u);
    arr.fill(0x100, false);
    EXPECT_EQ(arr.residentLines(), 128u);
    // Filling every way of one set caps the width at the assoc.
    for (Addr k = 2; k < 40; ++k)
        arr.fill(0x80 + k * 1024 * 128, false);
    EXPECT_EQ(arr.residentLines(), 64u * 16);
    EXPECT_EQ(arr.numValid(), 17u);
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
    // Paper: ~5.3 TB/s HBM peak.
    EXPECT_NEAR(sys.peakHbmBandwidth() / 1e12, 5.3, 0.05);
}

namespace
{

/** Tag lines resident in every cache under @p g. */
std::uint64_t
residentTagLines(const stats::StatGroup &g, unsigned &caches)
{
    std::uint64_t n = 0;
    if (const auto *c = dynamic_cast<const Cache *>(&g)) {
        n += c->array().residentLines();
        ++caches;
    } else if (const auto *s = dynamic_cast<const InfinityCacheSlice *>(&g)) {
        n += s->array().residentLines();
        ++caches;
    }
    for (const stats::StatGroup *child : g.groupList())
        n += residentTagLines(*child, caches);
    return n;
}

} // anonymous namespace

TEST(ApuSystemTags, Mi300aBuildAllocatesNoTagLines)
{
    core::ApuSystem sys(soc::mi300aConfig());
    unsigned caches = 0;
    EXPECT_EQ(residentTagLines(sys, caches), 0u);
    EXPECT_GT(caches, 128u);    // the slices plus GPU and CPU caches
    // One access from an XCD grows one page of the one slice it
    // reached; the next-line prefetches land in the same page.
    soc::Package &pkg = sys.package();
    pkg.memAccessFrom(pkg.xcdNode(0), 0, 0, 64, false);
    caches = 0;
    EXPECT_EQ(residentTagLines(sys, caches), 64u);
}


/**
 * @file
 * Property tests for the windowed-bandwidth OccupancyTracker — the
 * contention model under every link, cache port, and DRAM bus. Every
 * case runs against both window stores, and a differential test
 * feeds the two the same seeded traffic.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "sim/units.hh"

using namespace ehpsim;
using namespace ehpsim::mem;

using Store = OccupancyTracker::Store;

namespace
{

const char *
storeName(Store s)
{
    return s == Store::runs ? "runs" : "dense";
}

} // anonymous namespace

class Occupancy : public ::testing::TestWithParam<Store>
{
  protected:
    OccupancyTracker
    make(double bytes_per_tick) const
    {
        return OccupancyTracker(bytes_per_tick, GetParam());
    }
};

TEST_P(Occupancy, ZeroBandwidthPassesThrough)
{
    OccupancyTracker t = make(0.0);
    EXPECT_EQ(t.occupy(1234, 4096), 1234u);
}

TEST_P(Occupancy, ZeroBytesPassesThrough)
{
    OccupancyTracker t = make(1.0);
    EXPECT_EQ(t.occupy(1234, 0), 1234u);
}

TEST_P(Occupancy, UncontendedTransferTakesSerializationTime)
{
    OccupancyTracker t = make(1.0);    // 1 byte per tick
    const Tick done = t.occupy(1000, 500);
    EXPECT_EQ(done, 1500u);
}

TEST_P(Occupancy, BackToBackTransfersSerialize)
{
    OccupancyTracker t = make(1.0);
    Tick last = 0;
    for (int i = 0; i < 10; ++i)
        last = t.occupy(0, 1000);
    // 10 KB at 1 B/tick from t=0: ~10000 ticks (window quantized).
    EXPECT_GE(last, 9000u);
    EXPECT_LE(last, 11500u);
}

TEST_P(Occupancy, CompletionNeverBeforeArrivalPlusSerialization)
{
    OccupancyTracker t = make(2.0);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const Tick when = rng.nextBounded(1'000'000);
        const std::uint64_t bytes = 1 + rng.nextBounded(4096);
        const Tick done = t.occupy(when, bytes);
        EXPECT_GE(done + 1, when + bytes / 2);  // +1: rounding slack
    }
}

TEST_P(Occupancy, ThroughputBoundedByBandwidth)
{
    // Saturate from t=0 and verify total time >= bytes / bandwidth.
    OccupancyTracker t = make(4.0);
    const std::uint64_t total = 1 << 20;
    Tick last = 0;
    for (std::uint64_t sent = 0; sent < total; sent += 256)
        last = std::max(last, t.occupy(0, 256));
    EXPECT_GE(last, total / 4);
    // ...and not pathologically more (allow 25% quantization).
    EXPECT_LE(last, total / 4 + total / 16 + 100'000);
}

TEST_P(Occupancy, BackfillAllowsEarlyTrafficAfterFutureReservation)
{
    // This is the property the strict next-free FIFO lacked: a
    // transfer reserved far in the future must not delay traffic
    // arriving now.
    OccupancyTracker t = make(1.0);
    const Tick future = t.occupy(1'000'000, 4096);
    EXPECT_GE(future, 1'000'000u);
    const Tick now_done = t.occupy(0, 512);
    EXPECT_LT(now_done, 10'000u);
}

TEST_P(Occupancy, ContendedWindowPushesToNextFreeWindow)
{
    OccupancyTracker t = make(1.0);    // window = 1024 ticks, 1024 B budget
    // Fill the window at t=0 completely.
    t.occupy(0, 1024);
    // The next transfer at t=0 must land in a later window.
    const Tick done = t.occupy(0, 512);
    EXPECT_GT(done, 1024u);
}

TEST_P(Occupancy, ManySmallTransfersMatchOneLarge)
{
    OccupancyTracker a = make(8.0), b = make(8.0);
    Tick last_a = 0;
    for (int i = 0; i < 64; ++i)
        last_a = std::max(last_a, a.occupy(0, 1024));
    const Tick last_b = b.occupy(0, 64 * 1024);
    // Same bytes, same bandwidth: within one window of each other.
    EXPECT_NEAR(static_cast<double>(last_a),
                static_cast<double>(last_b), 1200.0);
}

TEST_P(Occupancy, RateChangeKeepsThePastInPlace)
{
    // 1 MiB at 64 GB/s fills windows up to 16.384 us. Halving the
    // rate must not re-read those windows on a doubled grid, which
    // blocked the link until ~2x that and finished a 1 KiB send at
    // 32.8 us instead of one slow window later.
    OccupancyTracker t = make(0.064);
    EXPECT_EQ(t.occupy(0, 1 * MiB), 16'384'000u);
    t.setBandwidth(0.032);
    EXPECT_EQ(t.occupy(16'384'000, 1024), 16'416'000u);
}

TEST_P(Occupancy, ResetClearsHistory)
{
    OccupancyTracker t = make(1.0);
    t.occupy(0, 1 << 16);
    t.reset();
    EXPECT_EQ(t.nextFree(), 0u);
    const Tick done = t.occupy(0, 512);
    EXPECT_LT(done, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Stores, Occupancy,
                         ::testing::Values(Store::dense, Store::runs),
                         [](const auto &info) {
                             return std::string(storeName(info.param));
                         });

class OccupancyRandom
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Store>>
{
  protected:
    std::uint64_t seed() const { return std::get<0>(GetParam()); }

    OccupancyTracker
    make(double bytes_per_tick) const
    {
        return OccupancyTracker(bytes_per_tick, std::get<1>(GetParam()));
    }
};

TEST_P(OccupancyRandom, ConservationUnderRandomTraffic)
{
    // Total bytes pushed through any interval cannot exceed
    // bandwidth x interval: check via the maximum completion time.
    const double bw = 2.0;
    OccupancyTracker t = make(bw);
    Rng rng(seed());
    std::uint64_t total = 0;
    Tick max_done = 0;
    Tick min_when = maxTick;
    for (int i = 0; i < 5000; ++i) {
        const Tick when = rng.nextBounded(100'000);
        const std::uint64_t bytes = 64 + rng.nextBounded(2048);
        total += bytes;
        min_when = std::min(min_when, when);
        max_done = std::max(max_done, t.occupy(when, bytes));
    }
    const double span = static_cast<double>(max_done - min_when);
    EXPECT_GE(span * bw * 1.05 + 4096.0, static_cast<double>(total));
}

TEST_P(OccupancyRandom, MonotoneUnderSaturation)
{
    // When issued in nondecreasing 'when' order at saturation, the
    // completions of equal-size transfers are nondecreasing.
    OccupancyTracker t = make(1.0);
    Rng rng(seed());
    Tick when = 0;
    Tick prev_done = 0;
    for (int i = 0; i < 2000; ++i) {
        when += rng.nextBounded(3);
        const Tick done = t.occupy(when, 512);
        EXPECT_GE(done, prev_done);
        prev_done = done;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OccupancyRandom,
    ::testing::Combine(::testing::Values(1, 17, 99),
                       ::testing::Values(Store::dense, Store::runs)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "_" +
               storeName(std::get<1>(info.param));
    });

namespace
{

std::string
saveTracker(const OccupancyTracker &t, Tick horizon)
{
    SnapshotWriter w;
    w.setHorizon(horizon);
    t.snapshot(w);
    return w.blob();
}

OccupancyTracker
restoreTracker(const std::string &blob, Store store)
{
    OccupancyTracker t(0.0, store);
    SnapshotReader r(blob);
    t.restore(r);
    return t;
}

/** The first-touch watermark a saved tracker carries. */
std::uint64_t
blobWatermark(const OccupancyTracker &t)
{
    const std::string blob = saveTracker(t, 0);
    SnapshotReader r(blob);
    r.getF64();     // rate
    r.getU64();     // window
    r.getU64();     // last completion
    EXPECT_TRUE(r.getBool());   // touched
    return r.getU64();
}

} // anonymous namespace

TEST(OccupancyBlob, WatermarkCounts512WindowUnits)
{
    // The watermark is the lowest window loaded, in 512-window units
    // whatever the dense page size, so blobs do not change with it.
    for (const Store store : {Store::dense, Store::runs}) {
        OccupancyTracker t(0.064, store);   // 16'000-tick windows
        t.occupy(1000 * 16'000, 64);
        EXPECT_EQ(blobWatermark(t), 1u) << storeName(store);
        t.occupy(700 * 16'000, 64);
        EXPECT_EQ(blobWatermark(t), 1u) << storeName(store);
        t.occupy(300 * 16'000, 64);
        EXPECT_EQ(blobWatermark(t), 0u) << storeName(store);
    }
}

class OccupancyStores : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /**
     * The same seeded traffic through both stores: bulk chunks of
     * 1 KiB-4 MiB and point requests of at most one window, arriving
     * out of order, with a mid-stream derate and a snapshot ->
     * restore at a random horizon. Completion ticks, window loads
     * and the blobs themselves must agree exactly. With
     * @p reach_back the stream starts late and one request in ten
     * lands one to three dense pages before the lowest window loaded
     * so far, so the dense page table grows at its front many times.
     */
    static void
    compareStores(std::uint64_t seed, bool reach_back)
    {
        Rng rng(seed);
        const double bw =
            0.064 * static_cast<double>(1 + rng.nextBounded(4));
        OccupancyTracker dense(bw, Store::dense);
        OccupancyTracker runs(bw, Store::runs);
        const std::uint64_t window_bytes = 1024;
        const Tick page_ticks = static_cast<Tick>(1024.0 / bw)
                                << DenseWindows::kPageBits;
        Tick clock = reach_back ? 1'000'000'000 + rng.nextBounded(
                                                      1'000'000'000)
                                : 0;
        Tick lowest = clock;
        Tick horizon = 0;   // no request starts before a restore's horizon
        for (int i = 0; i < 1200; ++i) {
            if (i == 400) {
                const double f = 0.25 + 0.75 * rng.nextDouble();
                dense.setBandwidth(bw * f);
                runs.setBandwidth(bw * f);
            }
            if (i == 800) {
                horizon = clock > 0 ? rng.nextBounded(clock) : 0;
                const std::string a = saveTracker(dense, horizon);
                const std::string b = saveTracker(runs, horizon);
                ASSERT_EQ(a, b) << "blobs differ at horizon " << horizon;
                dense = restoreTracker(a, Store::dense);
                runs = restoreTracker(a, Store::runs);
            }
            clock += rng.nextBounded(40'000'000);
            const Tick back = rng.nextBounded(400'000'000);
            Tick when = clock > back ? clock - back : 0;
            if (reach_back && rng.nextBool(0.1)) {
                const Tick behind = (1 + rng.nextBounded(3)) * page_ticks +
                                    rng.nextBounded(page_ticks);
                when = lowest > behind ? lowest - behind : 0;
            }
            when = std::max(horizon, when);
            lowest = std::min(lowest, when);
            const std::uint64_t bytes =
                rng.nextBool(0.3) ? 1024 + rng.nextBounded(4 * MiB - 1024)
                                  : 1 + rng.nextBounded(window_bytes);
            const Tick d = dense.occupy(when, bytes);
            const Tick r = runs.occupy(when, bytes);
            ASSERT_EQ(d, r) << "request " << i << ": " << bytes
                            << " B at " << when;
        }
        EXPECT_EQ(dense.nextFree(), runs.nextFree());
        EXPECT_EQ(dense.windowLoads(), runs.windowLoads());
    }
};

TEST_P(OccupancyStores, RunStoreMatchesDenseStore)
{
    for (const bool reach_back : {false, true}) {
        SCOPED_TRACE(reach_back ? "late start, reaching back"
                                : "from tick 0");
        compareStores(GetParam(), reach_back);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccupancyStores,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(OccupancyStores, BackwardWalkMatchesAcrossThousandsOfPages)
{
    // Each request lands a few windows before the previous one, so
    // the dense page table keeps growing at its front, across
    // thousands of 16-window pages. Both stores must still agree on
    // every completion, on the window loads and on the blob.
    const double bw = 0.064;    // 16'000-tick windows
    const Tick window = 16'000;
    OccupancyTracker dense(bw, Store::dense);
    OccupancyTracker runs(bw, Store::runs);
    Rng rng(7);
    std::uint64_t w = 2000 << DenseWindows::kPageBits;
    while (w > 8) {
        const Tick when = w * window + rng.nextBounded(window);
        const std::uint64_t bytes = 1 + rng.nextBounded(2048);
        ASSERT_EQ(dense.occupy(when, bytes), runs.occupy(when, bytes))
            << "window " << w;
        w -= 1 + rng.nextBounded(8);
    }
    EXPECT_EQ(dense.windowLoads(), runs.windowLoads());
    const std::string blob = saveTracker(dense, 0);
    EXPECT_EQ(blob, saveTracker(runs, 0));
    EXPECT_EQ(saveTracker(restoreTracker(blob, Store::dense), 0), blob);
}

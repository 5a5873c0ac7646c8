/**
 * @file
 * Property tests for the windowed-bandwidth OccupancyTracker — the
 * contention model under every link, cache port, and DRAM bus. Every
 * case runs against both window stores, and a differential test
 * feeds the two the same seeded traffic. consumeSpan(), the closed
 * form the run store charges a span with, is checked against the
 * per-window loop it replaces. A run store given the caller's now
 * retires the windows behind it and must still agree with both.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
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

/** The (window tick, load) pairs of @p t at or after window
 *  now / @p window. */
std::vector<std::pair<Tick, double>>
loadsFrom(const OccupancyTracker &t, Tick now, Tick window)
{
    std::vector<std::pair<Tick, double>> out;
    for (const auto &wl : t.windowLoads()) {
        if (wl.first / window >= now / window)
            out.push_back(wl);
    }
    return out;
}

/** The runs @p t's window loads fall into: maximal stretches of
 *  adjacent @p window-tick windows with equal loads. */
std::size_t
maximalRuns(const OccupancyTracker &t, Tick window)
{
    std::size_t n = 0;
    std::pair<Tick, double> prev{0, 0.0};
    for (const auto &wl : t.windowLoads()) {
        if (n == 0 || wl.first != prev.first + window ||
            wl.second != prev.second)
            ++n;
        prev = wl;
    }
    return n;
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

    /**
     * Serving-shaped traffic, as TP all-reduces put it on a node
     * link: steps of one to four chunks, each starting at or just
     * after the link's last completion, so that nearly every run-store
     * charge lands at or past its last loaded window. Some steps send
     * whole window budgets from a window boundary and start the next
     * chunk on the boundary where they end, so its first window
     * merges into the full ones before it. Others first load a run of
     * equal partial windows and start inside its last one. The run
     * store is given the step's start as now, past every load, so
     * retirement empties it at times. A derate lands mid-stream, and
     * both stores are saved at now and restored. Completions, the
     * loads at or after now and the blobs must agree, and the run
     * store must hold its loads as maximal runs, no two adjacent ones
     * equal.
     */
    static void
    compareServingStream(std::uint64_t seed)
    {
        Rng rng(seed);
        // x16, x32 and x64 rates: 1024 B budgets, whole until a
        // derate by other than a half.
        double bw = 0.064 * static_cast<double>(1u << rng.nextBounded(3));
        const Tick window = static_cast<Tick>(1024.0 / bw);
        OccupancyTracker dense(bw, Store::dense);
        OccupancyTracker runs(bw, Store::runs);
        Tick now = 0;
        int emptied = 0;
        int boundary_merges = 0;
        const auto charge = [&](Tick when, std::uint64_t bytes) {
            const Tick d = dense.occupy(when, bytes);
            const Tick r = runs.occupy(when, bytes, now);
            const std::size_t held = runs.residentSpans();
            const std::size_t maximal = maximalRuns(runs, window);
            if (d == r && held == maximal)
                return ::testing::AssertionSuccess();
            return ::testing::AssertionFailure()
                   << bytes << " B at " << when << ", now " << now
                   << ": completes at " << d << " (dense), " << r
                   << " (runs); " << held << " runs held, " << maximal
                   << " maximal";
        };
        for (int step = 0; step < 600; ++step) {
            SCOPED_TRACE(step);
            if (step == 200) {
                bw *= rng.nextBool(0.5) ? 0.5
                                        : 0.25 + 0.75 * rng.nextDouble();
                dense.setBandwidth(bw);
                runs.setBandwidth(bw);
            }
            if (step == 400) {
                const std::string blob = saveTracker(dense, now);
                ASSERT_EQ(blob, saveTracker(runs, now));
                dense = restoreTracker(blob, Store::dense);
                runs = restoreTracker(blob, Store::runs);
            }
            const double budget = bw * static_cast<double>(window);
            // A step starts in the last completion's window or in one
            // of the next few, on a boundary one time in four.
            const Tick last = runs.nextFree();
            now = std::max(now, rng.nextBool(0.3)
                                    ? last
                                    : (last / window + 1 +
                                       rng.nextBounded(3)) * window);
            if (rng.nextBool(0.75))
                now += rng.nextBounded(window);
            // A charge of no bytes retires what is due and loads
            // nothing, so an emptied store shows.
            const std::size_t before = runs.residentSpans();
            ASSERT_EQ(runs.occupy(now, 0, now), now);
            if (before > 0 && runs.residentSpans() == 0)
                ++emptied;
            if (rng.nextBool(0.15)) {
                // Equal point requests on consecutive window starts
                // load one run of partial windows; the step's first
                // chunk then starts inside its last window.
                const std::uint64_t bytes = 1 + rng.nextBounded(256);
                const std::uint64_t w0 = (now + window - 1) / window;
                const std::uint64_t n = 2 + rng.nextBounded(7);
                for (std::uint64_t j = 0; j < n; ++j)
                    ASSERT_TRUE(charge((w0 + j) * window, bytes));
                now = runs.nextFree();
            }
            const int chunks = 1 + static_cast<int>(rng.nextBounded(4));
            const bool whole = budget == std::floor(budget) &&
                               rng.nextBool(0.3);
            for (int c = 0; c < chunks; ++c) {
                Tick when = c == 0 ? now : runs.nextFree();
                std::uint64_t bytes;
                if (whole) {
                    // Whole budgets from a boundary: the chunk ends
                    // with its last window full.
                    when = (when + window - 1) / window * window;
                    bytes = static_cast<std::uint64_t>(budget) *
                            (1 + rng.nextBounded(64));
                } else {
                    if (c > 0 && rng.nextBool(0.5))
                        when += rng.nextBounded(window);
                    bytes = rng.nextBool(0.4)
                                ? 1 + rng.nextBounded(2048)
                                : 2048 + rng.nextBounded(256 * 1024);
                }
                const auto loads = runs.windowLoads();
                if (!loads.empty() && when % window == 0 &&
                    loads.back() == std::make_pair(when - window, budget))
                    ++boundary_merges;
                ASSERT_TRUE(charge(when, bytes));
            }
        }
        EXPECT_GT(emptied, 0);
        EXPECT_GT(boundary_merges, 0);
        EXPECT_EQ(dense.nextFree(), runs.nextFree());
        EXPECT_EQ(loadsFrom(dense, now, window),
                  loadsFrom(runs, now, window));
        EXPECT_EQ(saveTracker(dense, now), saveTracker(runs, now));
    }
};

TEST_P(OccupancyStores, RunStoreMatchesDenseStore)
{
    for (const bool reach_back : {false, true}) {
        SCOPED_TRACE(reach_back ? "late start, reaching back"
                                : "from tick 0");
        compareStores(GetParam(), reach_back);
    }
    SCOPED_TRACE("serving-shaped");
    compareServingStream(GetParam());
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

TEST(OccupancyStores, MultiMiBTransfersAfterDerate)
{
    // 16-64 MiB transfers on a derated x16 link: every window budget
    // is non-dyadic, so the run store charges each span through
    // consumeSpan()'s closed form while the dense store steps one
    // window at a time. Point requests backfill windows the bulk
    // traffic leaves part-loaded, and a second derate lands mid-way.
    for (const std::uint64_t seed : {3, 11}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        OccupancyTracker dense(0.064, Store::dense);
        OccupancyTracker runs(0.064, Store::runs);
        const double f = 0.25 + 0.75 * rng.nextDouble();
        dense.setBandwidth(0.064 * f);
        runs.setBandwidth(0.064 * f);
        Tick clock = 0;
        for (int i = 0; i < 24; ++i) {
            if (i == 12) {
                dense.setBandwidth(0.064 * f * 0.7);
                runs.setBandwidth(0.064 * f * 0.7);
            }
            const bool bulk = i % 2 == 0;
            const std::uint64_t bytes =
                bulk ? 16 * MiB + rng.nextBounded(48 * MiB)
                     : 1 + rng.nextBounded(900);
            const Tick when =
                bulk ? clock : rng.nextBounded(clock + 1);
            const Tick d = dense.occupy(when, bytes);
            ASSERT_EQ(d, runs.occupy(when, bytes))
                << "request " << i << ": " << bytes << " B at " << when;
            if (bulk)
                clock += (d - clock) / 2;
        }
        EXPECT_EQ(dense.nextFree(), runs.nextFree());
        EXPECT_EQ(dense.windowLoads(), runs.windowLoads());
        EXPECT_EQ(saveTracker(dense, 0), saveTracker(runs, 0));
    }
}

class OccupancyRetire : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OccupancyRetire, RetiringRunStoreMatchesKeepingStores)
{
    // Seeded traffic that never starts before a moving now, through
    // a dense store, a run store never given now (both keep every
    // window) and a run store given now, which retires the windows
    // behind it. A derate lands mid-stream and the three are saved
    // at a random now and restored. Completions, the window loads at
    // or after now and the blobs must agree, while the retiring
    // store's runs stay below a bound the keeping one passes.
    Rng rng(GetParam());
    const double bw = 0.064 * static_cast<double>(1 + rng.nextBounded(4));
    const Tick window = static_cast<Tick>(1024.0 / bw);
    OccupancyTracker dense(bw, Store::dense);
    OccupancyTracker keep(bw, Store::runs);
    OccupancyTracker retiring(bw, Store::runs);
    constexpr std::size_t kBound = 48;
    std::size_t most = 0;
    Tick now = 0;
    for (int i = 0; i < 3000; ++i) {
        if (i == 1000) {
            const double f = 0.5 + 0.5 * rng.nextDouble();
            dense.setBandwidth(bw * f);
            keep.setBandwidth(bw * f);
            retiring.setBandwidth(bw * f);
        }
        if (i == 2000) {
            // saveWorld() saves at the queue's now.
            const Tick at = now + rng.nextBounded(20'000'000);
            const std::string blob = saveTracker(dense, at);
            ASSERT_EQ(blob, saveTracker(keep, at));
            ASSERT_EQ(blob, saveTracker(retiring, at));
            dense = restoreTracker(blob, Store::dense);
            keep = restoreTracker(blob, Store::runs);
            retiring = restoreTracker(blob, Store::runs);
            now = at;
        }
        // Half the steps stay within a few windows, and a third of
        // the requests start at now itself, so that charges keep
        // landing in the window now is in, next to retired ones.
        now += rng.nextBool(0.5) ? rng.nextBounded(4 * window)
                                 : rng.nextBounded(40'000'000);
        const Tick when =
            now + (rng.nextBool(0.3)   ? 0
                   : rng.nextBool(0.8) ? rng.nextBounded(2'000'000)
                                       : rng.nextBounded(200'000'000));
        const std::uint64_t bytes =
            rng.nextBool(0.3) ? 1024 + rng.nextBounded(2 * MiB)
                              : 1 + rng.nextBounded(1024);
        const Tick d = dense.occupy(when, bytes);
        ASSERT_EQ(d, keep.occupy(when, bytes)) << "request " << i;
        ASSERT_EQ(d, retiring.occupy(when, bytes, now))
            << "request " << i << ": " << bytes << " B at " << when
            << ", now " << now;
        most = std::max(most, retiring.residentSpans());
        ASSERT_LE(retiring.residentSpans(), kBound) << "request " << i;
    }
    EXPECT_GT(keep.residentSpans(), 4 * kBound);
    EXPECT_GE(most, 16u);   // retirement ran
    EXPECT_EQ(dense.nextFree(), retiring.nextFree());
    EXPECT_EQ(loadsFrom(dense, now, window),
              loadsFrom(retiring, now, window));
    EXPECT_EQ(loadsFrom(keep, now, window),
              loadsFrom(retiring, now, window));
    EXPECT_EQ(saveTracker(dense, now), saveTracker(retiring, now));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccupancyRetire,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(OccupancyRetire, NowZeroRetiresNothing)
{
    // A caller that promises nothing keeps every run.
    OccupancyTracker a(0.064, Store::runs), b(0.064, Store::runs);
    for (Tick when = 0; when < 400 * 100'000; when += 100'000) {
        ASSERT_EQ(a.occupy(when, 4096), b.occupy(when, 4096, 0));
    }
    EXPECT_EQ(a.residentSpans(), b.residentSpans());
    EXPECT_EQ(a.windowLoads(), b.windowLoads());
}

TEST(OccupancyRetireDeathTest, ChargeBeforeRetiredHorizonPanics)
{
    OccupancyTracker t(0.064, Store::runs, "node.link0");
    Tick now = 0;
    for (int i = 0; i < 64; ++i, now += 200'000)
        t.occupy(now, 8192, now);
    ASSERT_LT(t.residentSpans(), 64u);     // runs were retired
    // A charge in the window now is in is still allowed.
    t.occupy(now - now % 16'000, 64, now);
    EXPECT_DEATH(t.occupy(now / 2, 64, now),
                 "node.link0: occupancy charge at tick .* retired");
}

TEST(OccupancyRate, RateRestoreRejectsIsFatal)
{
    // fatal() throws, so a bad rate is caught here as a
    // runtime_error; uncaught it ends the program.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const Store store : {Store::dense, Store::runs}) {
        SCOPED_TRACE(storeName(store));
        // NaN, negative and infinite rates, and a positive rate too
        // small to leave a window budget above the fullness epsilon.
        for (const double bad : {nan, -1.0, -1e-300, inf, 1e-13}) {
            SCOPED_TRACE(bad);
            EXPECT_THROW(OccupancyTracker(bad, store), std::runtime_error);
            OccupancyTracker t(0.064, store);
            EXPECT_THROW(t.setBandwidth(bad), std::runtime_error);
            t.occupy(0, 1 * MiB);
            EXPECT_THROW(t.setBandwidth(bad), std::runtime_error);
            // The rejected rate left the tracker as it was, so its
            // blob still restores.
            EXPECT_EQ(t.bandwidth(), 0.064);
            const std::string blob = saveTracker(t, 0);
            EXPECT_EQ(saveTracker(restoreTracker(blob, store), 0), blob);
        }
        EXPECT_NO_THROW(OccupancyTracker(0.0, store));
    }
}

namespace
{

/** The per-window loop consumeSpan() replaces. */
std::uint64_t
literalSpan(double &r, double a, std::uint64_t k, std::uint64_t end)
{
    while (k < end && r > a) {
        r -= a;
        ++k;
    }
    return k;
}

/** consumeSpan() and the literal loop stop at the same window with
 *  the same bits left. */
::testing::AssertionResult
matchesLiteral(double r, double a, std::uint64_t k, std::uint64_t end)
{
    double lit = r;
    double got = r;
    const std::uint64_t lk = literalSpan(lit, a, k, end);
    const std::uint64_t gk = consumeSpan(got, a, k, end);
    if (lk == gk && std::bit_cast<std::uint64_t>(lit) ==
                        std::bit_cast<std::uint64_t>(got))
        return ::testing::AssertionSuccess();
    const auto hex = [](double x) {
        std::ostringstream os;
        os << std::hexfloat << x;
        return os.str();
    };
    return ::testing::AssertionFailure()
           << "r " << hex(r) << ", avail " << hex(a) << ", span [" << k
           << ", " << end << "): the loop stops at " << lk << " with "
           << hex(lit) << " left, the closed form at " << gk << " with "
           << hex(got);
}

/** avail / ulp(r): a tie when its fraction is exactly 1/2. */
double
availInUlps(double r, double a)
{
    return a / (std::ldexp(1.0, std::ilogb(r)) * 0x1p-52);
}

} // anonymous namespace

TEST(ConsumeSpan, MatchesLiteralLoopOnRandomCases)
{
    Rng rng(2024);
    const std::uint64_t cases = 1'200'000;
    std::uint64_t ties = 0;
    for (std::uint64_t i = 0; i < cases; ++i) {
        const double steps = rng.nextBool(0.5)
                                 ? 8.0 * rng.nextDouble()
                                 : 600.0 * rng.nextDouble();
        double r = 0.0;
        double a = 0.0;
        switch (rng.nextBounded(5)) {
          case 0: {
            // A derated x16 link's window budget less a partial load.
            const double budget =
                0.064 * (0.25 + 0.75 * rng.nextDouble()) * 16'000.0;
            a = budget - budget * 0.999 * rng.nextDouble();
            r = a * (1.0 + steps);
            break;
          }
          case 1:
            // A dyadic avail: exact in r's binade or a few below it.
            a = static_cast<double>(1 + rng.nextBounded(4096)) *
                std::ldexp(1.0, -static_cast<int>(rng.nextBounded(24)));
            r = rng.nextBool(0.5)
                    ? std::floor(a * (1.0 + steps))
                    : a * (1.0 + steps);
            break;
          case 2: {
            // avail an odd multiple of half of r's ulp: a tie binade.
            r = std::ldexp(1.0 + rng.nextDouble(),
                           static_cast<int>(rng.nextBounded(31)));
            const double u = std::ldexp(1.0, std::ilogb(r)) * 0x1p-52;
            a = (2.0 * std::floor(r / ((1.0 + steps) * u)) + 1.0) * u /
                2.0;
            ties += availInUlps(r, a) - std::floor(availInUlps(r, a)) ==
                    0.5;
            break;
          }
          case 3: {
            // r a few steps above its binade's floor, so that a step
            // in the binade lands within an ulp of the floor.
            a = std::exp(std::log(1e-3) + std::log(1e7) * rng.nextDouble());
            const double lo = std::ldexp(
                1.0, std::ilogb(a) + 4 + static_cast<int>(rng.nextBounded(10)));
            const double u = lo * 0x1p-52;
            const double q = a / u;
            r = lo + (std::floor(q) +
                      std::nearbyint(q) * static_cast<double>(rng.nextBounded(8)) +
                      static_cast<double>(rng.nextBounded(3)) - 1.0) *
                         u;
            break;
          }
          default:
            // Any avail from 1e-3 to 1e4 bytes.
            a = std::exp(std::log(1e-3) + std::log(1e7) * rng.nextDouble());
            r = a * (1.0 + steps) + a * rng.nextDouble();
            break;
        }
        const std::uint64_t k = rng.nextBounded(1ull << 40);
        std::uint64_t width;
        switch (rng.nextBounded(4)) {
          case 0: width = rng.nextBounded(3); break;
          case 1: width = rng.nextBounded(700); break;
          case 2: width = std::numeric_limits<std::uint64_t>::max() - k;
                  break;
          default: width = static_cast<std::uint64_t>(steps); break;
        }
        ASSERT_TRUE(matchesLiteral(r, a, k, k + width)) << "case " << i;
    }
    EXPECT_GT(ties, cases / 8);
}

TEST(ConsumeSpan, ExactMultipleSteps)
{
    // avail a multiple of ulp(r): every step is exact, and the span
    // stops on r <= avail, not before.
    double r = 4096.0;
    EXPECT_EQ(consumeSpan(r, 1024.0, 0, 100), 3u);
    EXPECT_EQ(r, 1024.0);
    for (const double a : {1024.0, 0.75, 3.0, 0x1p-10 * 77.0}) {
        for (const double r0 : {1.0 * MiB, 1.0 * MiB + 0.5, 12345.25,
                                64.0 * MiB - 1.0}) {
            for (const std::uint64_t width : {0, 1, 2, 7, 1000, 1 << 20})
                EXPECT_TRUE(matchesLiteral(r0, a, 5, 5 + width));
        }
    }
}

TEST(ConsumeSpan, TieBinade)
{
    // r in [2^20, 2^21), whose ulp is 2^-32; avail an odd multiple
    // of 2^-33 near 1000 B, so every step in r's binade is a rounding
    // tie, from both an odd and an even r / ulp.
    const double u = 0x1p-32;
    const double a = (2.0 * std::floor(1000.0 / u) + 1.0) * u / 2.0;
    for (const double r0 : {0x1p20 + 12345.0 * u, 0x1p20 + 12346.0 * u,
                            0x1.fffffp20, 0x1.8p20 + u}) {
        ASSERT_EQ(availInUlps(r0, a) - std::floor(availInUlps(r0, a)), 0.5);
        for (const std::uint64_t width : {0, 1, 2, 3, 100, 1500, 4000})
            EXPECT_TRUE(matchesLiteral(r0, a, 0, width));
    }
}

TEST(ConsumeSpan, StepOntoTheBinadeFloor)
{
    // r - lo a whole number of steps plus floor(avail / ulp) ulps:
    // the last step of the binade ends within an ulp of lo, where
    // the spacing halves, so it must be taken literally.
    const double lo = 0x1p20;
    const double u = lo * 0x1p-52;
    for (const double frac : {0.3, 0.7, 0.1, 0.9}) {
        const double a = 1000.0 + frac * u;
        const double q = a / u;
        for (const double steps : {0.0, 1.0, 5.0})
            for (const double off : {-1.0, 0.0, 1.0})
                EXPECT_TRUE(matchesLiteral(
                    lo + (std::floor(q) + std::nearbyint(q) * steps + off) * u,
                    a, 0, 10'000))
                    << "frac " << frac << ", steps " << steps;
    }
}

TEST(ConsumeSpan, SpansOfZeroOneAndTwoWindows)
{
    for (const double a : {1024.0, 307.2, 0.1, 1000.5})
        for (const double r : {a * 0.5, a, a * 1.5, a * 2.0, a * 3.7,
                               a * 1e6})
            for (const std::uint64_t width : {0, 1, 2})
                EXPECT_TRUE(matchesLiteral(r, a, 9, 9 + width))
                    << "width " << width;
}

TEST(ConsumeSpan, CrossesTwentyBinades)
{
    // ~1 GiB left against ~1 KiB or less a window: the closed form
    // walks every binade from 2^30 down to avail.
    for (const double a : {1000.3, 1024.0, 37.25, 0.064 * 0.3 * 16'000.0 -
                                                  17.1}) {
        const double r0 = 0x1p30 + 12345.678;
        double r = r0;
        consumeSpan(r, a, 0, std::numeric_limits<std::uint64_t>::max());
        EXPECT_GE(std::ilogb(r0) - std::ilogb(r), 20) << a;
        EXPECT_TRUE(matchesLiteral(r0, a, 0,
                                   std::numeric_limits<std::uint64_t>::max()));
        EXPECT_TRUE(matchesLiteral(r0, a, 0, 500'000));
    }
}

TEST(ConsumeSpan, DeratedNonDyadicBudgets)
{
    // A 64 GB/s link's 1,024 B window budget derated by non-dyadic
    // factors, less partial loads, against 1-64 MiB chunks.
    for (const double f : {0.3, 0.7, 1.0 / 3.0, 0.9, 0.55}) {
        const double budget = 0.064 * f * 16'000.0;
        for (const double used : {0.0, 100.1, budget / 3.0}) {
            const double a = budget - used;
            for (const double r : {1.0 * MiB, 1.0 * MiB - 123.4,
                                   16.0 * MiB + 0.3, 64.0 * MiB})
                for (const std::uint64_t width : {2, 1000, 70'000,
                                                  1'000'000})
                    EXPECT_TRUE(matchesLiteral(r, a, 0, width))
                        << "f " << f << ", used " << used;
        }
    }
}

TEST(ConsumeSpan, AvailBelowHalfAnUlpLeavesRemainingAlone)
{
    // Past 2^52 x avail a step rounds back to r: the span fills
    // without r moving, and r at the binade floor steps literally.
    for (const double r : {0x1p60 + 0x1p20, 0x1p60})
        for (const std::uint64_t width : {1, 2, 1000})
            EXPECT_TRUE(matchesLiteral(r, 1.0, 0, width));
}

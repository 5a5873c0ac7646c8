/**
 * @file
 * Tests for the checkpoint/fast-forward layer (DESIGN.md §16).
 *
 * The load-bearing invariant: checkpoint -> restore -> run produces
 * JSON byte-identical to the straight-through run — for the serving
 * scenario (which transitively exercises the fabric, CommGroup, HBM,
 * and fault injector). Corrupt, truncated,
 * and mismatched blobs must fail loudly (fatal(), which throws), and
 * pooled keyed events must survive a save/restore/destroy cycle
 * without leaking (the ASan job runs this file).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <atomic>

#include "comm/comm_group.hh"
#include "mem/cache_array.hh"
#include "mem/mem_device.hh"
#include "serve/scenario.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/node_topology.hh"
#include "sweep/sweep_runner.hh"

using namespace ehpsim;

namespace
{

/**
 * A TP-4 serving scenario over the octo node with every fault class
 * active: timed link derate, timed channel blackout, and transient
 * chunk errors. Small enough to run in milliseconds, rich enough
 * that a checkpoint divergence anywhere in the stack shows up in
 * the byte compare.
 */
serve::ScenarioParams
faultedTp4Params()
{
    serve::ScenarioParams p;
    p.tp = 4;
    p.num_requests = 10;
    p.load_rps = 8.0;
    p.input_tokens = 512;
    p.output_tokens = 64;
    p.seed = 7;

    p.faults.seed = 11;
    p.faults.chunk_error_rate = 0.01;
    fault::LinkFault lf;
    lf.node_a = "mi300x0";
    lf.node_b = "mi300x1";
    lf.derate = 0.5;
    p.faults.link_faults.push_back(lf);
    fault::ChannelFault cf;
    cf.channel = 3;
    p.faults.channel_faults.push_back(cf);
    return p;
}

/** The full dumpScenario() document (params + metrics + stats). */
std::string
scenarioJson(const serve::ScenarioParams &p,
             const serve::ScenarioResult &r)
{
    std::ostringstream os;
    json::JsonWriter jw(os);
    serve::dumpScenario(jw, p, r);
    return os.str();
}

/**
 * Place the faults and the checkpoint inside the run: faults at
 * ~30% of the straight-through makespan, checkpoint at ~60%, so the
 * restored half resumes after one fault already landed and with the
 * rest of the request stream still in flight.
 */
void
placeInRun(serve::ScenarioParams &p, double makespan_s)
{
    const Tick fault_at = ticksFromSeconds(0.3 * makespan_s);
    p.faults.link_faults[0].at = fault_at;
    p.faults.channel_faults[0].at = fault_at;
    p.checkpoint_at = ticksFromSeconds(0.6 * makespan_s);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Byte identity: checkpoint -> restore -> run vs straight-through
// ---------------------------------------------------------------------

TEST(ServeCheckpoint, ByteIdenticalSerial)
{
    serve::ScenarioParams p = faultedTp4Params();
    const auto probe = serve::runServingScenario(p);
    placeInRun(p, probe.makespan_s);

    serve::ScenarioParams straight = p;
    straight.checkpoint_at = 0;
    const auto base = serve::runServingScenario(straight);
    const auto forked = serve::runServingScenario(p);

    // The faults must actually have fired (otherwise this test
    // proves nothing about replaying pending keyed fault events).
    EXPECT_GT(base.channels_dark, 0u);
    EXPECT_EQ(scenarioJson(straight, base), scenarioJson(straight, forked));
}

TEST(ServeCheckpoint, SplitSaveResumeMatchesStraight)
{
    // The CLI --checkpoint path: save and resume as two separate
    // calls (in a real invocation, two separate processes bridged
    // by writeSnapshotFile/readSnapshotFile).
    serve::ScenarioParams p = faultedTp4Params();
    const auto probe = serve::runServingScenario(p);
    placeInRun(p, probe.makespan_s);

    const std::string blob = serve::checkpointServingScenario(p);
    const auto resumed = serve::resumeServingScenario(p, blob);

    serve::ScenarioParams straight = p;
    straight.checkpoint_at = 0;
    const auto base = serve::runServingScenario(straight);
    EXPECT_EQ(scenarioJson(straight, base),
              scenarioJson(straight, resumed));
}

TEST(ServeCheckpoint, DarkChannelStaysDarkAfterResume)
{
    // Channel 3 goes dark before the checkpoint and is blacked out
    // again after it. The second fault must find it dark whether the
    // run goes straight through or resumes from the blob, so the
    // dead bits are saved state.
    serve::ScenarioParams p = faultedTp4Params();
    p.faults.channel_faults = {{3, ticksFromSeconds(0.005)},
                               {3, ticksFromSeconds(0.05)}};
    p.checkpoint_at = ticksFromSeconds(0.01);
    const auto expectAlreadyDark = [](const auto &run) {
        try {
            run();
            ADD_FAILURE() << "the second blackout of channel 3 must "
                             "be fatal";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("already dark"),
                      std::string::npos)
                << e.what();
        }
    };

    serve::ScenarioParams straight = p;
    straight.checkpoint_at = 0;
    expectAlreadyDark([&] { serve::runServingScenario(straight); });

    const std::string blob = serve::checkpointServingScenario(p);
    expectAlreadyDark([&] { serve::resumeServingScenario(p, blob); });
}

TEST(ServeCheckpoint, CheckpointAfterLastEventStillResumes)
{
    // A checkpoint tick beyond the makespan quiesces to an empty
    // queue; the resume must see a finished world, not a stall.
    serve::ScenarioParams p = faultedTp4Params();
    const auto probe = serve::runServingScenario(p);

    serve::ScenarioParams straight = p;
    const auto base = serve::runServingScenario(straight);

    p.checkpoint_at = ticksFromSeconds(2.0 * probe.makespan_s);
    const auto forked = serve::runServingScenario(p);
    EXPECT_EQ(scenarioJson(straight, base), scenarioJson(straight, forked));
}

// ---------------------------------------------------------------------
// Comm world: warmup, fork, run more collectives
// ---------------------------------------------------------------------

namespace
{

/** One ring all-reduce of @p bytes, run to the op boundary. */
void
allReduce(soc::CommWorld &w, std::uint64_t bytes)
{
    w.run(comm::Collective::allReduce, bytes, comm::Algorithm::ring);
}

std::string
statsJson(const soc::CommWorld &w)
{
    std::ostringstream os;
    json::JsonWriter jw(os);
    w.root.dumpJsonStats(jw);
    return os.str();
}

} // anonymous namespace

TEST(CommCheckpoint, ForkedCollectivesMatchStraightThrough)
{
    // Straight-through reference: four all-reduces back to back.
    soc::CommWorld straight(soc::NodeKind::octo);
    allReduce(straight, 64 * MiB);
    allReduce(straight, 32 * MiB);
    allReduce(straight, 64 * MiB);
    allReduce(straight, 16 * MiB);

    // Warmup world: first two, then checkpoint at the op boundary
    // (waitAll already quiesced the queue — comm events are unkeyed,
    // so none can be pending at a legal save point).
    soc::CommWorld warm(soc::NodeKind::octo);
    allReduce(warm, 64 * MiB);
    allReduce(warm, 32 * MiB);
    ASSERT_TRUE(warm.eq.allPendingKeyed());
    const std::string blob = saveWorld(warm.eq, warm.root);

    // Forked world: restore, then the remaining two.
    soc::CommWorld forked(soc::NodeKind::octo);
    restoreWorld(blob, forked.eq, forked.root);
    allReduce(forked, 64 * MiB);
    allReduce(forked, 16 * MiB);

    EXPECT_EQ(statsJson(straight), statsJson(forked));
}

TEST(CommCheckpoint, SaveWithCollectiveInFlightIsFatal)
{
    soc::CommWorld w(soc::NodeKind::octo);
    w.group.allReduce(0, 64 * MiB, comm::Algorithm::ring);
    // Chunk events are pending and unkeyed: both the queue-level
    // gate and the CommGroup's own op-boundary check must refuse.
    ASSERT_FALSE(w.eq.allPendingKeyed());
    EXPECT_THROW(saveWorld(w.eq, w.root), std::runtime_error);
    w.group.waitAll();
}

// ---------------------------------------------------------------------
// Error paths: corrupt, truncated, mismatched
// ---------------------------------------------------------------------

namespace
{

std::string
smallServeBlob(serve::ScenarioParams &p)
{
    p = faultedTp4Params();
    p.checkpoint_at = ticksFromSeconds(0.01);
    return serve::checkpointServingScenario(p);
}

} // anonymous namespace

TEST(SnapshotErrors, TruncatedBlobIsFatal)
{
    serve::ScenarioParams p;
    const std::string blob = smallServeBlob(p);
    const std::string truncated = blob.substr(0, blob.size() / 2);
    EXPECT_THROW(serve::resumeServingScenario(p, truncated),
                 std::runtime_error);
}

TEST(SnapshotErrors, CorruptMagicIsFatal)
{
    serve::ScenarioParams p;
    std::string blob = smallServeBlob(p);
    blob[0] ^= 0x5a;
    EXPECT_THROW(serve::resumeServingScenario(p, blob),
                 std::runtime_error);
}

TEST(SnapshotErrors, FlippedPayloadByteIsFatal)
{
    serve::ScenarioParams p;
    std::string blob = smallServeBlob(p);
    // Flip the type tag of the "objects" section marker, which
    // saveWorld() writes once, between the event queue and the
    // object tree: tag 0x07, a little-endian u32 name length, the
    // name. Only the tag check can notice; the name still reads.
    const std::string marker = std::string("\x07\x07\0\0\0", 5) +
                               "objects";
    const auto at = blob.find(marker);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(blob.find(marker, at + 1), std::string::npos);
    ASSERT_GT(at, 12u);     // past the magic and version
    blob[at] ^= 0xff;
    EXPECT_THROW(serve::resumeServingScenario(p, blob),
                 std::runtime_error);
}

TEST(SnapshotErrors, OlderFormatVersionIsFatal)
{
    serve::ScenarioParams p;
    const std::string blob = smallServeBlob(p);
    // Version 2 blobs also stored the fabric's route epoch, version 3
    // ones an HBM remap table and per-channel children, version 4
    // ones a priority per pending event; this build must stop at the
    // header rather than misread them.
    for (const char ver : {2, 3, 4}) {
        std::string old = blob;
        old[8] = ver;
        const std::string want =
            "format version " + std::to_string(ver);
        try {
            serve::resumeServingScenario(p, old);
            ADD_FAILURE() << "a version-" << int(ver)
                          << " blob must not restore";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(want),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SnapshotErrors, TrailingGarbageIsFatal)
{
    serve::ScenarioParams p;
    std::string blob = smallServeBlob(p);
    blob += "garbage";
    EXPECT_THROW(serve::resumeServingScenario(p, blob),
                 std::runtime_error);
}

TEST(SnapshotErrors, MismatchedWorldIsFatal)
{
    serve::ScenarioParams p;
    const std::string blob = smallServeBlob(p);
    // Resume into a world with a different trace: the per-request
    // record count no longer matches.
    serve::ScenarioParams other = p;
    other.num_requests = p.num_requests + 3;
    EXPECT_THROW(serve::resumeServingScenario(other, blob),
                 std::runtime_error);
}

TEST(SnapshotErrors, EmptyBlobIsFatal)
{
    serve::ScenarioParams p;
    (void)smallServeBlob(p);
    EXPECT_THROW(serve::resumeServingScenario(p, ""),
                 std::runtime_error);
}

namespace
{

using mem::OccupancyTracker;

/** An occupancy blob written field by field, so a test can make it
 *  say what no tracker would. */
struct TrackerBlob
{
    double rate = 0.064;
    std::uint64_t window = 16'000;
    std::uint64_t last_done = 16'384'000;
    bool touched = true;
    std::uint64_t first_page = 0;
    std::vector<std::pair<std::uint64_t, double>> windows = {
        {0, 1024.0}, {1, 1024.0}, {1023, 1024.0}};

    std::string
    bytes() const
    {
        SnapshotWriter w;
        w.putF64(rate);
        w.putU64(window);
        w.putU64(last_done);
        w.putBool(touched);
        w.putU64(first_page);
        w.putU64(windows.size());
        for (const auto &[win, used] : windows) {
            w.putU64(win);
            w.putF64(used);
        }
        return w.blob();
    }
};

template <class T>
void
restoreInto(T &t, const std::string &blob)
{
    SnapshotReader r(blob);
    t.restore(r);
}

constexpr OccupancyTracker::Store kStores[] = {
    OccupancyTracker::Store::dense, OccupancyTracker::Store::runs};

} // anonymous namespace

TEST(SnapshotErrors, ImpossibleOccupancyBlobsAreFatal)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::pair<const char *, TrackerBlob>> bad;
    const auto add = [&](const char *what, auto edit) {
        TrackerBlob b;
        edit(b);
        bad.emplace_back(what, b);
    };
    add("zero window", [](TrackerBlob &b) { b.window = 0; });
    add("window above the clamp",
        [](TrackerBlob &b) { b.window = 1'000'001; });
    add("negative rate", [](TrackerBlob &b) { b.rate = -0.064; });
    add("NaN rate", [&](TrackerBlob &b) { b.rate = nan; });
    add("infinite rate", [](TrackerBlob &b) {
        b.rate = std::numeric_limits<double>::infinity();
    });
    add("budget below the fullness epsilon",
        [](TrackerBlob &b) { b.rate = 1e-300; });
    add("repeated window", [](TrackerBlob &b) { b.windows[1].first = 0; });
    add("descending windows",
        [](TrackerBlob &b) { std::swap(b.windows[1], b.windows[2]); });
    add("window past the last completion",
        [](TrackerBlob &b) { b.windows[2].first = 1025; });
    add("windows in an untouched tracker",
        [](TrackerBlob &b) { b.touched = false; });
    add("window before the first page",
        [](TrackerBlob &b) { b.first_page = 1; });
    add("NaN load", [&](TrackerBlob &b) { b.windows[0].second = nan; });
    add("zero load", [](TrackerBlob &b) { b.windows[0].second = 0.0; });
    add("negative load", [](TrackerBlob &b) { b.windows[0].second = -1.0; });

    for (const auto store : kStores) {
        OccupancyTracker ok(0.0, store);
        EXPECT_NO_THROW(restoreInto(ok, TrackerBlob{}.bytes()));
        EXPECT_EQ(ok.windowLoads().size(), 3u);
        for (const auto &[what, blob] : bad) {
            OccupancyTracker t(0.0, store);
            EXPECT_THROW(restoreInto(t, blob.bytes()), std::runtime_error)
                << what;
        }
    }
}

TEST(SnapshotErrors, FlippedOccupancyByteIsFatalOrHarmless)
{
    // Flip every byte of a saved tracker in turn. Each restore must
    // either fatal() or leave a tracker that still serves a request;
    // a flipped window index used to size the dense page table from
    // the corrupt value and throw std::bad_alloc.
    for (const auto store : kStores) {
        OccupancyTracker src(0.064, store);
        for (Tick when = 0; when < 12'000'000; when += 3'000'000)
            src.occupy(when, 8 * 1024);
        SnapshotWriter w;
        src.snapshot(w);
        const std::string blob = w.blob();
        for (std::size_t i = 0; i < blob.size(); ++i) {
            std::string flipped = blob;
            flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
            OccupancyTracker t(0.0, store);
            try {
                restoreInto(t, flipped);
            } catch (const std::runtime_error &) {
                continue;
            }
            EXPECT_GE(t.occupy(0, 4096), 0u) << "byte " << i;
        }
    }
}

namespace
{

using mem::CacheArray;

/** A cache-array blob written field by field, so a test can make it
 *  say what no array would. The geometry is 4 sets x 2 ways of 64 B
 *  lines; line index i lives in set i / 2. */
struct CacheBlob
{
    struct Line
    {
        std::uint64_t idx;
        Addr tag;
        bool dirty;
        std::uint64_t last_use;
        bool prefetched;
    };

    std::uint64_t use_counter = 9;
    std::array<Line, 3> lines = {{{0, 0x000, true, 3, false},
                                  {1, 0x100, false, 7, true},
                                  {5, 0x280, false, 9, false}}};
    std::optional<std::uint64_t> count;     ///< else lines.size()

    std::string
    bytes() const
    {
        SnapshotWriter w;
        w.putU64(512);
        w.putU32(2);
        w.putU32(64);
        w.putU64(use_counter);
        w.putU64(count.value_or(lines.size()));
        for (const Line &l : lines) {
            w.putU64(l.idx);
            w.putU64(l.tag);
            w.putBool(l.dirty);
            w.putU64(l.last_use);
            w.putBool(l.prefetched);
        }
        return w.blob();
    }
};

/** Every valid line sits in the set its tag maps to and is unique
 *  there, so lookup() finds each one exactly where it is. */
void
expectLinesFindable(const CacheArray &a, const std::string &what)
{
    EXPECT_TRUE(a.tagsUnique()) << what;
    for (unsigned set = 0; set < a.numSets(); ++set) {
        const Addr base = Addr{set} * a.lineBytes();
        for (unsigned way = 0; way < a.assoc(); ++way) {
            const auto &l = a.line(base, way);
            if (l.valid) {
                EXPECT_EQ(a.peek(l.tag), std::optional<unsigned>(way))
                    << what << ": set " << set << " way " << way;
            }
        }
    }
}

} // anonymous namespace

TEST(SnapshotErrors, ImpossibleCacheBlobsAreFatal)
{
    std::vector<std::pair<const char *, CacheBlob>> bad;
    const auto add = [&](const char *what, auto edit) {
        CacheBlob b;
        edit(b);
        bad.emplace_back(what, b);
    };
    add("repeated index", [](CacheBlob &b) { b.lines[1].idx = 0; });
    add("descending indices",
        [](CacheBlob &b) { std::swap(b.lines[1], b.lines[2]); });
    add("index past the array", [](CacheBlob &b) { b.lines[2].idx = 8; });
    add("unaligned tag", [](CacheBlob &b) { b.lines[0].tag = 0x004; });
    add("tag outside its set",
        [](CacheBlob &b) { b.lines[2].tag = 0x2c0; });
    add("tag repeated in one set",
        [](CacheBlob &b) { b.lines[1].tag = 0x000; });
    add("last use past the clock",
        [](CacheBlob &b) { b.lines[2].last_use = 10; });
    // Stored as is, the 61-bit field would truncate both to legal
    // values.
    add("clock past 61 bits", [](CacheBlob &b) {
        b.use_counter = std::uint64_t{1} << mem::CacheLine::kClockBits;
    });
    add("last use past 61 bits", [](CacheBlob &b) {
        b.lines[2].last_use =
            (std::uint64_t{1} << mem::CacheLine::kClockBits) + 9;
    });
    add("more lines than the array holds",
        [](CacheBlob &b) { b.count = 9; });

    CacheArray ok(512, 2, 64);
    ASSERT_NO_THROW(restoreInto(ok, CacheBlob{}.bytes()));
    EXPECT_EQ(ok.numValid(), 3u);
    for (const Addr tag : {0x000, 0x100, 0x280})
        EXPECT_TRUE(ok.lookup(tag).has_value()) << tag;
    for (const auto &[what, blob] : bad) {
        CacheArray a(512, 2, 64);
        EXPECT_THROW(restoreInto(a, blob.bytes()), std::runtime_error)
            << what;
    }
}

TEST(SnapshotErrors, FillStopsBeforeTheLruClockWraps)
{
    // A clock one short of 2^61 - 1 leaves room for one more fill.
    CacheBlob b;
    b.use_counter = (std::uint64_t{1} << mem::CacheLine::kClockBits) - 2;
    CacheArray a(512, 2, 64);
    ASSERT_NO_THROW(restoreInto(a, b.bytes()));
    ASSERT_NO_THROW(a.fill(0x040, false));
    EXPECT_EQ(a.line(0x040, *a.peek(0x040)).last_use,
              b.use_counter + 1);
    EXPECT_THROW(a.fill(0x0c0, false), std::runtime_error);
}

TEST(SnapshotErrors, FlippedCacheByteIsFatalOrHarmless)
{
    // Flip every byte of a saved populated array in turn. Each
    // restore must either fatal() or leave an array whose lines
    // lookup() can find and that still serves traffic; a flipped tag
    // used to land a line in a set lookup() never searches.
    CacheArray src(4096, 4, 64);
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
        const Addr a = rng.nextBounded(64 * 1024);
        if (rng.nextBool(0.1))
            src.invalidate(a);
        else if (!src.lookup(a))
            src.fill(a, rng.nextBool(0.5), rng.nextBool(0.25));
    }
    ASSERT_GT(src.numValid(), 32u);
    SnapshotWriter w;
    src.snapshot(w);
    const std::string blob = w.blob();
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::string flipped = blob;
        flipped[i] = static_cast<char>(flipped[i] ^ 0xff);
        CacheArray t(4096, 4, 64);
        try {
            restoreInto(t, flipped);
        } catch (const std::runtime_error &) {
            continue;
        }
        const std::string what = "byte " + std::to_string(i);
        expectLinesFindable(t, what);
        for (Addr a = 0; a < 8 * 1024; a += 64 * 3) {
            if (!t.lookup(a))
                t.fill(a, false);
            EXPECT_TRUE(t.lookup(a).has_value()) << what;
        }
        expectLinesFindable(t, what);
    }
}

// ---------------------------------------------------------------------
// Pooled keyed events: save/restore/destroy under ASan
// ---------------------------------------------------------------------

TEST(SnapshotQueue, PooledKeyedEventsRoundTrip)
{
    // Schedule a few hundred keyed one-shots at mixed ticks, save
    // while ALL of them are pending, and replay
    // into a fresh queue. The donor queue is destroyed with its
    // events still pending — its pool must reclaim every slot
    // (this is the leak half of the ASan pass).
    constexpr int numEvents = 300;
    std::uint64_t sum = 0;

    auto factoryFor = [](EventQueue &q, std::uint64_t &acc) {
        return [&q, &acc](Tick when, std::uint64_t a0,
                          std::uint64_t a1) {
            q.scheduleKeyed(when, "t.add", a0, a1,
                            [&acc, a0] { acc += a0; });
        };
    };

    SnapshotWriter w;
    {
        EventQueue donor;
        std::uint64_t donor_sum = 0;
        donor.registerKeyedFactory("t.add",
                                   factoryFor(donor, donor_sum));
        for (int i = 1; i <= numEvents; ++i) {
            donor.scheduleKeyed(
                static_cast<Tick>(100 * (i % 17)), "t.add",
                static_cast<std::uint64_t>(i), i % 3,
                [&donor_sum, i] {
                    donor_sum += static_cast<std::uint64_t>(i);
                });
        }
        ASSERT_TRUE(donor.allPendingKeyed());
        donor.save(w);
        // donor dies here with all 300 events pending.
    }

    EventQueue fresh;
    fresh.registerKeyedFactory("t.add", factoryFor(fresh, sum));
    SnapshotReader r(w.blob());
    fresh.restore(r);
    EXPECT_EQ(fresh.size(), static_cast<std::size_t>(numEvents));
    fresh.run();
    EXPECT_EQ(sum,
              static_cast<std::uint64_t>(numEvents)
                  * (numEvents + 1) / 2);
}

TEST(SnapshotQueue, RestoreWithoutFactoryIsFatal)
{
    SnapshotWriter w;
    {
        EventQueue donor;
        donor.registerKeyedFactory(
            "t.orphan", [](Tick, std::uint64_t, std::uint64_t) {});
        donor.scheduleKeyed(5, "t.orphan", 0, 0, [] {});
        donor.save(w);
    }
    EventQueue fresh; // no factory registered
    SnapshotReader r(w.blob());
    EXPECT_THROW(fresh.restore(r), std::runtime_error);
}

TEST(SnapshotQueue, SaveWithUnkeyedPendingIsFatal)
{
    EventQueue q;
    q.scheduleCallback(10, [] {});
    SnapshotWriter w;
    EXPECT_THROW(q.save(w), std::runtime_error);
    q.run();
}

// ---------------------------------------------------------------------
// SweepRunner::addForkedJob: shared-warmup dedup and fan-out
// ---------------------------------------------------------------------

TEST(SweepFork, SharedWarmupProducedOnce)
{
    // 8 points over one prefix plus 2 over another: exactly two
    // produce() calls, every job sees its own prefix's blob, and
    // the output stays deterministic across pool sizes.
    for (const unsigned workers : {1u, 4u}) {
        std::atomic<int> produced_a{0};
        std::atomic<int> produced_b{0};
        sweep::SweepRunner runner(workers);

        sweep::WarmupSpec a;
        a.config = "prefix-a";
        a.produce = [&produced_a] {
            ++produced_a;
            return std::string("blob-a");
        };
        sweep::WarmupSpec b;
        b.config = "prefix-b";
        b.produce = [&produced_b] {
            ++produced_b;
            return std::string("blob-b");
        };

        for (int i = 0; i < 8; ++i) {
            runner.addForkedJob(
                "a" + std::to_string(i), a,
                [](const std::string &blob, json::JsonWriter &jw) {
                    jw.value(blob);
                });
        }
        for (int i = 0; i < 2; ++i) {
            runner.addForkedJob(
                "b" + std::to_string(i), b,
                [](const std::string &blob, json::JsonWriter &jw) {
                    jw.value(blob);
                });
        }
        EXPECT_EQ(runner.numWarmups(), 2u);

        const auto results = runner.run();
        EXPECT_EQ(produced_a.load(), 1);
        EXPECT_EQ(produced_b.load(), 1);
        ASSERT_EQ(results.size(), 10u);
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(results[i].output,
                      i < 8 ? "\"blob-a\"" : "\"blob-b\"");
        }
    }
}

TEST(SweepFork, WarmupFailureReachesEveryForkedJob)
{
    sweep::SweepRunner runner(2);
    sweep::WarmupSpec bad;
    bad.config = "explodes";
    std::atomic<int> produced{0};
    bad.produce = [&produced]() -> std::string {
        ++produced;
        throw std::runtime_error("warmup went sideways");
    };
    for (int i = 0; i < 4; ++i) {
        runner.addForkedJob(
            "p" + std::to_string(i), bad,
            [](const std::string &, json::JsonWriter &jw) {
                jw.value("unreachable");
            });
    }
    const auto results = runner.run();
    EXPECT_EQ(produced.load(), 1);
    for (const auto &res : results) {
        EXPECT_FALSE(res.ok);
        EXPECT_EQ(res.error, "warmup went sideways");
    }
}

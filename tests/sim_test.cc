/**
 * @file
 * Unit tests for the discrete-event kernel, RNG, statistics, and
 * unit helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/units.hh"

using namespace ehpsim;

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleCallback(200, [&log] { log.push_back(2); });
    eq.scheduleCallback(100, [&log] { log.push_back(1); });
    eq.scheduleCallback(300, [&log] { log.push_back(3); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
    EXPECT_EQ(eq.numProcessed(), 3u);
}

TEST(EventQueue, SameTickFiresInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> log;
    for (int id = 1; id <= 4; ++id)
        eq.scheduleCallback(50, [&log, id] { log.push_back(id); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleCallback(100, [&log] { log.push_back(1); });
    eq.scheduleCallback(500, [&log] { log.push_back(2); });
    const Tick stopped = eq.run(250);
    EXPECT_EQ(stopped, 250u);
    EXPECT_EQ(log, std::vector<int>{1});
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleCallback(10, [&] { ++count; });
    eq.scheduleCallback(20, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleCallback(eq.curTick() + 10, chain);
    };
    eq.scheduleCallback(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleCallback(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.scheduleCallback(50, [] {}), "past");
}

TEST(EventQueue, GoldenTraceMatchesIndexedHeapKernel)
{
    // A callback-only scheduling script (overlapping ticks, callbacks
    // that schedule at their own tick from inside the dispatch, a
    // partial run, then late arrivals, one of them at the stop tick)
    // whose firing order was captured from the indexed-heap kernel
    // that kept caller-owned events and priorities. The (tick, seq)
    // total order is the byte-determinism contract every sweep JSON
    // depends on.
    EventQueue eq;
    std::string trace;
    const auto mark = [&trace, &eq](int id) {
        trace += std::to_string(id) + "@" + std::to_string(eq.curTick()) +
                 " ";
    };
    for (int i = 0; i < 40; ++i)
        eq.scheduleCallback((i * 37) % 50, [&mark, i] { mark(i); });
    eq.scheduleCallback(10, [&] {
        mark(100);
        eq.scheduleCallback(eq.curTick(), [&] {
            mark(101);
            eq.scheduleCallback(eq.curTick(), [&] { mark(102); });
        });
    });
    eq.scheduleCallback(10, [&] {
        mark(103);
        eq.scheduleCallback(eq.curTick() + 13, [&] { mark(104); });
    });

    const Tick stopped = eq.run(30);
    trace += "| stop=" + std::to_string(stopped) +
             " pending=" + std::to_string(eq.size()) + " | ";
    for (int i = 0; i < 10; ++i) {
        eq.scheduleCallback(30 + (i * 7) % 25,
                            [&mark, i] { mark(200 + i); });
    }
    eq.run();

    trace += "| processed=" + std::to_string(eq.numProcessed()) +
             " final=" + std::to_string(eq.curTick()) +
             " peak=" + std::to_string(eq.peakLive());
    EXPECT_EQ(trace,
              "0@0 23@1 19@3 15@5 38@6 11@7 34@8 7@9 30@10 100@10 "
              "103@10 101@10 102@10 3@11 26@12 22@14 18@16 14@18 37@19 "
              "10@20 33@21 6@22 29@23 104@23 2@24 25@25 21@27 17@29 "
              "| stop=30 pending=17 | 200@30 13@31 36@32 9@33 204@33 "
              "32@34 5@35 28@36 208@36 1@37 201@37 24@38 20@40 205@40 "
              "16@42 39@43 209@43 12@44 202@44 35@45 8@46 31@47 206@47 "
              "4@48 27@49 203@51 207@54 "
              "| processed=55 final=54 peak=42");
}

TEST(EventQueue, PooledCallableDestroyedAfterFiring)
{
    // The pool recycles the event's storage, but the captured state
    // must be released the moment the callback has fired.
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    eq.scheduleCallback(10, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestructorReclaimsPendingOneShots)
{
    // One-shots that never fire are reclaimed — callable destructors
    // run — when the queue dies, whether the callable sits in the
    // slot itself or in a std::function (ASan would flag the leak
    // otherwise).
    auto token = std::make_shared<int>(7);
    {
        EventQueue eq;
        eq.scheduleCallback(100, [token] {});
        eq.scheduleCallback(200, std::function<void()>([token] {}));
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, PoolCapacityBoundedAcrossWaves)
{
    // Steady-state one-shot churn must recycle slots, not grow the
    // pool: 100 waves of 200 concurrent callbacks fit in a single
    // 256-slot slab forever.
    EventQueue eq;
    int fired = 0;
    for (int wave = 0; wave < 100; ++wave) {
        const Tick base = eq.curTick() + 1;
        for (int i = 0; i < 200; ++i)
            eq.scheduleCallback(base + i, [&fired] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 20000);
    EXPECT_EQ(eq.poolCapacity(), 256u);
}

TEST(EventQueue, OversizedCallableIsBoxedInThePool)
{
    // Captures larger than the pool's inline storage are boxed in a
    // std::function that takes a pool slot like any other one-shot;
    // the captured state is released after the firing, and by the
    // queue's destructor while still pending.
    std::array<std::uint64_t, 9> payload{};
    static_assert(sizeof(payload) > inlineCallbackBytes);
    payload[8] = 42;
    auto token = std::make_shared<int>(1);
    std::uint64_t seen = 0;
    {
        EventQueue eq;
        eq.scheduleCallback(10, [payload, token, &seen] {
            seen = payload[8];
        });
        EXPECT_EQ(eq.poolCapacity(), 256u);
        EXPECT_EQ(token.use_count(), 2);
        eq.run();
        EXPECT_EQ(seen, 42u);
        EXPECT_EQ(token.use_count(), 1);

        eq.scheduleCallback(20, [payload, token, &seen] {
            seen = payload[0];
        });
        EXPECT_EQ(token.use_count(), 2);
        EXPECT_EQ(eq.poolCapacity(), 256u);
    }
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, SaveInsideDispatchPanics)
{
    // A checkpoint is taken between events; a firing callback that
    // tries to save would serialize a queue missing the event being
    // fired.
    EventQueue eq;
    SnapshotWriter w;
    eq.scheduleCallback(10, [&] { eq.save(w); });
    EXPECT_DEATH(eq.run(), "save from inside a dispatch");
    // The parent never fired the callback; the queue's destructor
    // reclaims it.
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, SameTickEventScheduledInDispatchFiresLast)
{
    // An event that a callback schedules at its own tick takes the
    // next sequence number, so it fires after every event already
    // pending at that tick.
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleCallback(10, [&] {
        log.push_back(1);
        eq.scheduleCallback(10, [&] { log.push_back(99); });
    });
    eq.scheduleCallback(10, [&] { log.push_back(2); });
    eq.scheduleCallback(10, [&] { log.push_back(3); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 99}));
}

TEST(EventQueue, ThrowingBatchMemberRestoresTail)
{
    // A callback that throws (fatal() on an error path) amid a
    // same-tick run must reclaim the throwing one-shot and leave the
    // rest of the run pending: nothing leaks, original order
    // resumes.
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleCallback(10, [&] { log.push_back(1); });
    eq.scheduleCallback(10, [] { fatal("mid-batch failure"); });
    eq.scheduleCallback(10, [&] { log.push_back(3); });
    eq.scheduleCallback(20, [&] { log.push_back(4); });
    EXPECT_THROW(eq.run(), std::runtime_error);
    EXPECT_EQ(eq.size(), 2u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 3, 4}));
    EXPECT_TRUE(eq.empty());
}

namespace
{

/**
 * One seeded scheduling script and the reference it is checked
 * against. Every scheduled callback gets the next id, which is also
 * the sequence number the queue gives it, and the reference keeps
 * (tick, id) per event: the queue must fire them in that order.
 */
class RandomScript
{
  public:
    explicit RandomScript(std::uint64_t seed) : rng_(seed) { fresh(); }

    /** Schedule one event @p delay ticks from now: keyed or not,
     *  plain, spawning or throwing, as the seed decides. */
    void
    schedule(Tick delay, bool throws = false)
    {
        const std::uint64_t id = ref_.size();
        const bool keyed = rng_.nextBool(0.4);
        // Keyed events lean late, so a fast-forward to a quiesce
        // point often leaves some pending for the checkpoint.
        const Tick when = eq_->curTick() + delay +
                          (keyed ? rng_.nextBounded(96) : 0);
        Kind kind = Kind::plain;
        if (throws || rng_.nextBool(0.02))
            kind = Kind::throws;
        else if (ref_.size() < 600 && rng_.nextBool(0.2))
            kind = Kind::spawns;
        ref_.push_back({when, id});
        kinds_.push_back(kind);
        if (keyed)
            scheduleKeyed(*eq_, when, id);
        else
            eq_->scheduleCallback(when, [this, id] { fire(id); });
        peak_ = std::max(peak_, ref_.size() - fired_.size());
    }

    /** run(@p limit) to the end, resuming after each throw. */
    void
    run(Tick limit)
    {
        for (;;) {
            try {
                eq_->run(limit);
                return;
            } catch (const std::runtime_error &) {
                ++throws_;
            }
        }
    }

    /**
     * Step to a point where every pending event is keyed, save the
     * queue, and restore it into a fresh one that the rest of the
     * script runs on. @return the events the checkpoint carried.
     */
    std::size_t
    fork()
    {
        while (!eq_->allPendingKeyed() && !eq_->empty()) {
            try {
                eq_->step();
            } catch (const std::runtime_error &) {
                ++throws_;
            }
        }
        SnapshotWriter w;
        eq_->save(w);
        const std::size_t carried = eq_->size();
        fresh();
        SnapshotReader r(w.blob());
        eq_->restore(r);
        EXPECT_TRUE(r.atEnd());
        return carried;
    }

    /** The queue's counters must match the reference's. */
    void
    expectCounters() const
    {
        EXPECT_EQ(eq_->size(), ref_.size() - fired_.size());
        EXPECT_EQ(eq_->numProcessed(), fired_.size());
        EXPECT_EQ(eq_->peakLive(), peak_);
    }

    /** Everything scheduled, sorted by (tick, scheduling order). */
    std::vector<std::uint64_t>
    expectedOrder() const
    {
        auto sorted = ref_;
        std::sort(sorted.begin(), sorted.end());
        std::vector<std::uint64_t> ids;
        for (const auto &[when, id] : sorted)
            ids.push_back(id);
        return ids;
    }

    EventQueue &eq() { return *eq_; }
    Rng &rng() { return rng_; }
    const std::vector<std::uint64_t> &fired() const { return fired_; }
    unsigned throws() const { return throws_; }

  private:
    enum class Kind { plain, spawns, throws };

    void
    scheduleKeyed(EventQueue &eq, Tick when, std::uint64_t id)
    {
        eq.scheduleKeyed(when, "test.script", id, 0,
                         [this, id] { fire(id); });
    }

    void
    fresh()
    {
        eq_ = std::make_unique<EventQueue>();
        eq_->registerKeyedFactory(
            "test.script", [this](Tick when, std::uint64_t id,
                                  std::uint64_t) {
                scheduleKeyed(*eq_, when, id);
            });
    }

    void
    fire(std::uint64_t id)
    {
        fired_.push_back(id);
        if (kinds_[id] == Kind::throws)
            throw std::runtime_error("scripted failure");
        if (kinds_[id] == Kind::spawns) {
            // Same-tick children, and now and then a later one.
            const auto n = 1 + rng_.nextBounded(2);
            for (std::uint64_t i = 0; i < n; ++i)
                schedule(0);
            if (rng_.nextBool(0.5))
                schedule(1 + rng_.nextBounded(32));
        }
    }

    Rng rng_;
    std::unique_ptr<EventQueue> eq_;
    /** (tick, id) of every event scheduled, in id order. */
    std::vector<std::pair<Tick, std::uint64_t>> ref_;
    std::vector<Kind> kinds_;
    std::vector<std::uint64_t> fired_;
    std::size_t peak_ = 0;
    unsigned throws_ = 0;
};

} // anonymous namespace

TEST(EventQueue, RandomScriptsFireInTickSeqOrder)
{
    // Seeded scripts mixing ties, same-tick scheduling from inside a
    // dispatch, partial runs with late arrivals, a throwing callback
    // and a checkpoint restored into a fresh queue mid-script.
    unsigned forks_carrying_events = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomScript s(seed);
        Rng &rng = s.rng();
        const auto initial = 20 + rng.nextBounded(40);
        const auto thrower = rng.nextBounded(initial);
        for (std::uint64_t i = 0; i < initial; ++i)
            s.schedule(rng.nextBounded(64), i == thrower);
        const auto rounds = 4 + rng.nextBounded(4);
        const auto fork_round = rng.nextBounded(rounds);
        for (std::uint64_t round = 0; round < rounds; ++round) {
            s.run(s.eq().curTick() + rng.nextBounded(48));
            s.expectCounters();
            if (round == fork_round && s.fork() > 0)
                ++forks_carrying_events;
            s.expectCounters();
            const auto late = rng.nextBounded(10);
            for (std::uint64_t i = 0; i < late; ++i)
                s.schedule(rng.nextBounded(64));
        }
        s.run(maxTick);
        EXPECT_TRUE(s.eq().empty());
        s.expectCounters();
        EXPECT_GE(s.throws(), 1u);
        EXPECT_EQ(s.fired(), s.expectedOrder());
    }
    // Most checkpoints hold pending keyed events to replay.
    EXPECT_GT(forks_carrying_events, 100u);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Stats, ScalarAccumulates)
{
    stats::StatGroup root(nullptr, "root");
    stats::Scalar s(&root, "count", "a counter");
    ++s;
    s += 4;
    EXPECT_DOUBLE_EQ(s.value(), 5.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    stats::StatGroup root(nullptr, "root");
    stats::Average a(&root, "lat", "latency");
    a.sample(10);
    a.sample(30);
    a.sample(20);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_DOUBLE_EQ(a.min(), 10.0);
    EXPECT_DOUBLE_EQ(a.max(), 30.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, DistributionBuckets)
{
    stats::StatGroup root(nullptr, "root");
    stats::Distribution d(&root, "dist", "sizes");
    d.init(0, 100, 10);
    d.sample(5);
    d.sample(15);
    d.sample(15);
    d.sample(-1);
    d.sample(100);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.count(), 5u);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    stats::StatGroup root(nullptr, "root");
    stats::Scalar hits(&root, "hits", "");
    stats::Scalar misses(&root, "misses", "");
    stats::Formula rate(&root, "hit_rate", "", [&] {
        const double a = hits.value() + misses.value();
        return a > 0 ? hits.value() / a : 0.0;
    });
    hits += 3;
    misses += 1;
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);
}

TEST(Stats, GroupPathsNestAndDump)
{
    stats::StatGroup root(nullptr, "system");
    stats::StatGroup child(&root, "cache");
    stats::Scalar s(&child, "hits", "demand hits");
    s += 2;
    EXPECT_EQ(child.statPath(), "system.cache");
    std::ostringstream oss;
    root.dumpStats(oss);
    EXPECT_NE(oss.str().find("system.cache.hits 2"), std::string::npos);
}

TEST(Stats, FindStatByName)
{
    stats::StatGroup root(nullptr, "r");
    stats::Scalar s(&root, "v", "");
    EXPECT_EQ(root.findStat("v"), &s);
    EXPECT_EQ(root.findStat("w"), nullptr);
}

TEST(SimObject, InheritsEventQueueFromParent)
{
    EventQueue eq;
    SimObject parent(nullptr, "top", &eq);
    SimObject child(&parent, "child");
    EXPECT_EQ(child.eventq(), &eq);
    EXPECT_EQ(child.statPath(), "top.child");
}

TEST(Units, TickConversions)
{
    EXPECT_EQ(periodFromGHz(1.0), 1000u);
    EXPECT_EQ(periodFromGHz(2.0), 500u);
    EXPECT_EQ(ticksFromSeconds(1e-6), 1'000'000u);
    EXPECT_DOUBLE_EQ(secondsFromTicks(ticksPerSecond), 1.0);
}

TEST(Units, SerializationTicks)
{
    // 1 GB/s -> 1 byte per ns = 1000 ticks.
    EXPECT_EQ(serializationTicks(1, gbps(1.0)), 1000u);
    EXPECT_EQ(serializationTicks(0, gbps(1.0)), 0u);
    EXPECT_EQ(serializationTicks(100, 0.0), 0u);
}

TEST(Units, Formatting)
{
    EXPECT_EQ(formatBytes(128ull * GiB), "128 GiB");
    EXPECT_EQ(formatBytes(2 * MiB), "2 MiB");
    EXPECT_EQ(formatBytes(100), "100 B");
    EXPECT_EQ(formatBandwidth(tbps(5.3)), "5.30 TB/s");
    EXPECT_EQ(formatBandwidth(gbps(64.0)), "64.00 GB/s");
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config value ", 42), std::runtime_error);
}

TEST(Logging, WarnCounts)
{
    logging_detail::setQuiet(true);
    const auto before = logging_detail::warnCount();
    warn("something odd: ", 1);
    EXPECT_EQ(logging_detail::warnCount(), before + 1);
}

TEST(Stats, PercentileNearestRankIsExact)
{
    stats::StatGroup root(nullptr, "root");
    stats::Percentile p(&root, "lat", "latency samples");
    for (const double v : {40.0, 10.0, 100.0, 20.0, 60.0, 30.0, 90.0,
                           50.0, 80.0, 70.0})
        p.sample(v);

    EXPECT_EQ(p.count(), 10u);
    EXPECT_DOUBLE_EQ(p.mean(), 55.0);
    EXPECT_DOUBLE_EQ(p.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(p.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(p.percentile(95), 100.0);
    EXPECT_DOUBLE_EQ(p.percentile(99), 100.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
}

TEST(Stats, PercentileIsInsertionOrderInvariant)
{
    stats::StatGroup root(nullptr, "root");
    stats::Percentile fwd(&root, "fwd", "");
    stats::Percentile rev(&root, "rev", "");
    for (int i = 1; i <= 101; ++i)
        fwd.sample(static_cast<double>(i));
    for (int i = 101; i >= 1; --i)
        rev.sample(static_cast<double>(i));
    for (const double q : {1.0, 25.0, 50.0, 75.0, 99.0})
        EXPECT_DOUBLE_EQ(fwd.percentile(q), rev.percentile(q));
}

TEST(Stats, PercentileEmptyIsZeroAndResets)
{
    stats::StatGroup root(nullptr, "root");
    stats::Percentile p(&root, "lat", "");
    EXPECT_EQ(p.count(), 0u);
    EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(p.mean(), 0.0);
    p.sample(3.0);
    p.reset();
    EXPECT_EQ(p.count(), 0u);
    EXPECT_DOUBLE_EQ(p.percentile(99), 0.0);
}

TEST(Stats, PercentileRangeCheckedEvenWhenEmpty)
{
    // Regression: the range check must precede the empty-samples
    // early return. The old order silently returned 0 for an
    // out-of-range p on an empty stat, hiding the caller bug until
    // the first sample arrived.
    stats::StatGroup root(nullptr, "root");
    stats::Percentile p(&root, "lat", "");
    ASSERT_EQ(p.count(), 0u);
    EXPECT_DEATH(p.percentile(-1.0), "out of range");
    EXPECT_DEATH(p.percentile(100.5), "out of range");
    p.sample(3.0);
    EXPECT_DEATH(p.percentile(101.0), "out of range");
}

TEST(Stats, PercentileDumpJsonCarriesSummary)
{
    stats::StatGroup root(nullptr, "root");
    stats::Percentile p(&root, "lat", "");
    p.sample(1.0);
    p.sample(2.0);
    std::ostringstream os;
    json::JsonWriter jw(os);
    root.dumpJsonStats(jw);
    const std::string doc = os.str();
    for (const char *key : {"\"p50\"", "\"p95\"", "\"p99\"",
                            "\"mean\"", "\"count\""})
        EXPECT_NE(doc.find(key), std::string::npos) << key;
}

// Every global operator new in this binary goes through here, so a
// test can count the allocations a block of code makes. The plain,
// nothrow and aligned forms are all replaced, and every delete form
// frees what they return: a partial set leaves the sanitizer's own
// nothrow new paired with this file's delete (std::stable_sort's
// buffer), which ASan reports as an alloc-dealloc mismatch. Kept out
// of line so GCC does not pair an inlined free() with a new
// expression (-Wmismatched-new-delete).
namespace
{
std::atomic<std::uint64_t> g_new_calls{0};

/** Counted malloc-family storage; @p align 0 means the default. */
void *
countedAlloc(std::size_t n, std::size_t align) noexcept
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (align == 0)
        return std::malloc(n ? n : 1);
    // aligned_alloc wants a nonzero multiple of the alignment.
    return std::aligned_alloc(align, n ? (n + align - 1) / align * align
                                       : align);
}
} // anonymous namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n, 0))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t a)
{
    if (void *p = countedAlloc(n, static_cast<std::size_t>(a)))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t,
                const std::nothrow_t &) noexcept
{
    std::free(p);
}

TEST(GlobalAllocator, StableSortBufferAndAlignedFormsAreCounted)
{
    // std::stable_sort takes its merge buffer from the nothrow
    // operator new and hands it back to operator delete.
    std::vector<std::pair<unsigned, unsigned>> v;
    for (unsigned i = 0; i < 4096; ++i)
        v.emplace_back(i * 7919u % 97u, i);
    const auto before = g_new_calls.load();
    std::stable_sort(v.begin(), v.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_GT(g_new_calls.load(), before);
    for (std::size_t i = 1; i < v.size(); ++i) {
        ASSERT_LE(v[i - 1].first, v[i].first);
        if (v[i - 1].first == v[i].first) {
            ASSERT_LT(v[i - 1].second, v[i].second);
        }
    }

    struct alignas(64) Line
    {
        unsigned char bytes[64];
    };
    const auto aligned_before = g_new_calls.load();
    auto line = std::make_unique<Line>();
    Line *nothrow_line = new (std::nothrow) Line;
    ASSERT_NE(nothrow_line, nullptr);
    EXPECT_EQ(g_new_calls.load() - aligned_before, 2u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(line.get()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(nothrow_line) % 64, 0u);
    delete nothrow_line;
}

// statList() and groupList() are forward ranges of pointers.
static_assert(std::forward_iterator<stats::ListIterator<stats::StatBase>>);
static_assert(std::forward_iterator<stats::ListIterator<stats::StatGroup>>);

TEST(StatsTree, RegistrationAllocatesNothing)
{
    // Names fit the string's inline buffer and the formula captures
    // two pointers, which std::function stores inline: what is left
    // to allocate is the registration itself.
    const auto before = g_new_calls.load();
    {
        stats::StatGroup root(nullptr, "system");
        stats::Scalar ticks(&root, "ticks", "simulated ticks");
        stats::StatGroup cache(&root, "cache");
        stats::Scalar hits(&cache, "hits", "demand hits");
        stats::Scalar misses(&cache, "misses", "demand misses");
        stats::Formula rate(&cache, "hit_rate", "hits per access",
                            [h = &hits, m = &misses] {
                                const double a = h->value() + m->value();
                                return a > 0 ? h->value() / a : 0.0;
                            });
        stats::StatGroup port(&cache, "port");
        stats::Scalar busy(&port, "busy", "busy ticks");
        stats::StatGroup dram(&root, "dram");
        stats::Scalar reads(&dram, "reads", "reads served");
        EXPECT_EQ(g_new_calls.load(), before);
        EXPECT_EQ(root.statList().size(), 1u);
        EXPECT_EQ(root.groupList().size(), 2u);
        EXPECT_EQ(cache.statList().size(), 3u);
        EXPECT_EQ(cache.groupList().size(), 1u);
        EXPECT_STREQ(rate.desc(), "hits per access");
    }
    EXPECT_EQ(g_new_calls.load(), before);
}

namespace
{

/** A child of the unlink tests: two stats, one in a nested group. */
struct Child
{
    Child(stats::StatGroup *parent, const char *name, double v)
        : group(parent, name), a(&group, "a", "first"),
          inner(&group, "inner"), b(&inner, "b", "second")
    {
        a.set(v);
        b.set(2 * v);
    }

    stats::StatGroup group;
    stats::Scalar a;
    stats::StatGroup inner;
    stats::Scalar b;
};

/** A root with one stat and children c0..c<n-1>, all optional. */
struct Tree
{
    static constexpr const char *kNames[] = {"c0", "c1", "c2", "c3",
                                             "c4"};

    /** Register the children in @p ids, in that order. */
    explicit Tree(const std::vector<unsigned> &ids)
    {
        total.set(7);
        for (const unsigned id : ids)
            add(id);
    }

    void add(unsigned id) { kids[id].emplace(&root, kNames[id], id + 1.0); }

    std::vector<std::string>
    groupNames() const
    {
        std::vector<std::string> names;
        for (const stats::StatGroup *g : root.groupList())
            names.push_back(g->statName());
        return names;
    }

    std::string
    text() const
    {
        std::ostringstream os;
        root.dumpStats(os);
        return os.str();
    }

    std::string
    json() const
    {
        std::ostringstream os;
        json::JsonWriter jw(os);
        root.dumpJsonStats(jw);
        return os.str();
    }

    std::string
    blob() const
    {
        SnapshotWriter w;
        root.snapshot(w);
        return w.blob();
    }

    stats::StatGroup root{nullptr, "root"};
    stats::Scalar total{&root, "total", "a root stat"};
    std::array<std::optional<Child>, std::size(kNames)> kids;
};

/**
 * @p got must read exactly as a tree built from @p ids does, and
 * restore that tree's checkpoint.
 */
void
expectSameAsBuilt(Tree &got, const std::vector<unsigned> &ids)
{
    const Tree want(ids);
    EXPECT_EQ(got.groupNames(), want.groupNames());
    EXPECT_EQ(got.root.groupList().size(), ids.size());
    EXPECT_EQ(got.root.statList().size(), 1u);
    EXPECT_EQ(*got.root.statList().begin(), &got.total);
    EXPECT_EQ(got.text(), want.text());
    EXPECT_EQ(got.json(), want.json());
    const std::string blob = want.blob();
    EXPECT_EQ(got.blob(), blob);
    SnapshotReader r(blob);
    got.root.restore(r);
    EXPECT_TRUE(r.atEnd());
}

} // anonymous namespace

TEST(StatsTree, UnlinkKeepsRegistrationOrder)
{
    // Destroy the first, a middle and the last child, in several
    // orders; after each step the tree must be indistinguishable
    // from one built without the destroyed children.
    const std::vector<std::vector<unsigned>> orders = {
        {0}, {2}, {3}, {0, 3}, {3, 0}, {1, 2}, {2, 1},
        {3, 2, 1, 0}, {0, 1, 2, 3}, {1, 3, 0, 2},
    };
    for (const auto &order : orders) {
        SCOPED_TRACE(::testing::PrintToString(order));
        std::vector<unsigned> kept = {0, 1, 2, 3};
        Tree tree(kept);
        const std::string full_blob = tree.blob();
        for (const unsigned id : order) {
            tree.kids[id].reset();
            kept.erase(std::find(kept.begin(), kept.end(), id));
            expectSameAsBuilt(tree, kept);
            // The checkpoint taken before any unlink holds more
            // children than the tree now has.
            SnapshotReader r(full_blob);
            EXPECT_THROW(tree.root.restore(r), std::runtime_error);
        }
        // A child registered after the unlinks goes last.
        tree.add(4);
        kept.push_back(4);
        expectSameAsBuilt(tree, kept);
    }
}

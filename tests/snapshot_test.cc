/**
 * @file
 * Tests for the checkpoint/fast-forward layer (DESIGN.md §16).
 *
 * The load-bearing invariant: checkpoint -> restore -> run produces
 * JSON byte-identical to the straight-through run — for the serving
 * scenario (which transitively exercises the fabric, CommGroup, HBM,
 * and fault injector), serially and under PDES. Corrupt, truncated,
 * and mismatched blobs must fail loudly (fatal(), which throws), and
 * pooled keyed events must survive a save/restore/destroy cycle
 * without leaking (the ASan job runs this file).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include <atomic>

#include "comm/comm_group.hh"
#include "serve/scenario.hh"
#include "sim/event_queue.hh"
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

TEST(ServeCheckpoint, ByteIdenticalPdes)
{
    serve::ScenarioParams p = faultedTp4Params();
    const auto probe = serve::runServingScenario(p);
    placeInRun(p, probe.makespan_s);

    serve::ScenarioParams straight = p;
    straight.checkpoint_at = 0;
    const auto base = serve::runServingScenario(straight);

    p.pdes = 8;
    const auto forked = serve::runServingScenario(p);
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
    // Flip a byte in a type tag or section name somewhere past the
    // header; the tagged stream must notice before restoring junk.
    blob[blob.size() / 3] ^= 0xff;
    EXPECT_THROW(serve::resumeServingScenario(p, blob),
                 std::runtime_error);
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

// ---------------------------------------------------------------------
// Pooled keyed events: save/restore/destroy under ASan
// ---------------------------------------------------------------------

TEST(SnapshotQueue, PooledKeyedEventsRoundTrip)
{
    // Schedule a few hundred keyed one-shots (mixed ticks and
    // priorities), save while ALL of them are pending, and replay
    // into a fresh queue. The donor queue is destroyed with its
    // events still pending — its pool must reclaim every slot
    // (this is the leak half of the ASan pass).
    constexpr int numEvents = 300;
    std::uint64_t sum = 0;

    auto factoryFor = [](EventQueue &q, std::uint64_t &acc) {
        return [&q, &acc](Tick when, std::uint64_t a0,
                          std::uint64_t a1) {
            q.scheduleKeyed(when, "t.add", a0, a1,
                            [&acc, a0] { acc += a0; },
                            static_cast<int>(a1));
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
                },
                i % 3);
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

/**
 * @file
 * Tests for the collective-communication engine: algorithmic
 * bandwidth against analytic bounds, link contention between
 * concurrent collectives, algorithm auto-selection, and determinism
 * of collective sweeps under worker-pool parallelism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>

#include "comm/comm_group.hh"
#include "sim/rng.hh"
#include "soc/node_topology.hh"
#include "sweep/sweep_runner.hh"

using namespace ehpsim;
using namespace ehpsim::comm;
using namespace ehpsim::soc;

namespace
{

/** Per-direction bandwidth of a quad-node socket pair (2x x16). */
constexpr double quadPairBw = 128e9;

/** Fine chunking keeps pipeline fill/drain small vs. total time. */
CommParams
fineGrained()
{
    CommParams p;
    p.chunk_bytes = 1 * MiB;
    return p;
}

/** A 4-socket node connected only as a ring (no diagonals). */
std::unique_ptr<NodeTopology>
makeRingOnlyQuad(SimObject *root)
{
    auto node = std::make_unique<NodeTopology>(root, "ring_quad");
    for (unsigned i = 0; i < 4; ++i)
        node->addSocket("s" + std::to_string(i), 8);
    for (unsigned i = 0; i < 4; ++i)
        node->connect(i, (i + 1) % 4, 2, false);
    return node;
}

/** Run one all-reduce on a fresh quad node; @return the op. */
OpHandle
quadAllReduce(std::uint64_t bytes, Algorithm algo)
{
    CommWorld w(NodeKind::quad, fineGrained());
    return w.run(Collective::allReduce, bytes, algo);
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Algorithmic bandwidth vs. analytic bounds
// ---------------------------------------------------------------------

TEST(CommAllReduce, RingMatchesAlgbwBound)
{
    // Ring all-reduce moves 2(N-1)/N of the buffer over every ring
    // link, so algbw is bounded by link_bw * N / (2(N-1)).
    const std::uint64_t bytes = 64 * MiB;
    const auto op = quadAllReduce(bytes, Algorithm::ring);
    ASSERT_TRUE(op->done());
    EXPECT_EQ(op->algorithm(), Algorithm::ring);

    const double bound = quadPairBw * 4.0 / (2.0 * 3.0);
    EXPECT_LT(op->algoBandwidth(), 1.02 * bound);
    EXPECT_GT(op->algoBandwidth(), 0.80 * bound);

    // 2(N-1)/N scaling, exactly: bytes * hops placed on links.
    EXPECT_EQ(op->linkBytes(), 6 * bytes);
}

TEST(CommAllReduce, DirectBeatsRingOnFullyConnected)
{
    // Direct reduce-scatter + all-gather drives all N-1 dedicated
    // links per rank in parallel: algbw bound = link_bw * N / 2.
    const std::uint64_t bytes = 64 * MiB;
    const auto ring = quadAllReduce(bytes, Algorithm::ring);
    const auto direct = quadAllReduce(bytes, Algorithm::direct);
    ASSERT_TRUE(direct->done());

    const double bound = quadPairBw * 4.0 / 2.0;
    EXPECT_LT(direct->algoBandwidth(), 1.02 * bound);
    EXPECT_GT(direct->algoBandwidth(), 0.80 * bound);

    // Same total traffic as the ring, spread over 3x the links.
    EXPECT_EQ(direct->linkBytes(), 6 * bytes);
    EXPECT_GT(direct->algoBandwidth(), 2.0 * ring->algoBandwidth());
}

TEST(CommAllReduce, SecondsAndTicksAgree)
{
    const auto op = quadAllReduce(8 * MiB, Algorithm::ring);
    EXPECT_GT(op->finishTick(), op->startTick());
    EXPECT_DOUBLE_EQ(op->seconds(),
                     secondsFromTicks(op->finishTick() -
                                      op->startTick()));
}

// ---------------------------------------------------------------------
// Contention: concurrent collectives on shared links
// ---------------------------------------------------------------------

TEST(CommContention, ConcurrentAllReducesSlowEachOther)
{
    const std::uint64_t bytes = 16 * MiB;
    const auto solo = quadAllReduce(bytes, Algorithm::ring);
    const double t_solo = solo->seconds();
    ASSERT_GT(t_solo, 0.0);

    CommWorld w(NodeKind::quad, fineGrained());
    CommGroup &group = w.group;
    auto a = group.allReduce(0, bytes, Algorithm::ring);
    auto b = group.allReduce(0, bytes, Algorithm::ring);
    group.waitAll();
    ASSERT_TRUE(a->done());
    ASSERT_TRUE(b->done());

    // Both contend for the same ring links: each must be slower
    // than when run alone, and together they cannot beat 2x the
    // solo traffic through the same bottleneck.
    EXPECT_GT(a->seconds(), 1.4 * t_solo);
    EXPECT_GT(b->seconds(), 1.4 * t_solo);
    const double makespan = secondsFromTicks(
        std::max(a->finishTick(), b->finishTick()));
    EXPECT_GT(makespan, 1.8 * t_solo);
    EXPECT_LT(makespan, 2.6 * t_solo);
}

TEST(CommContention, DisjointPairsDoNotContend)
{
    // sendRecv 0->1 and 2->3 use disjoint dedicated links: running
    // them together costs the same as one alone.
    const std::uint64_t bytes = 32 * MiB;
    Tick t_solo = 0;
    {
        CommWorld w(NodeKind::quad);
        auto op = w.group.sendRecv(0, 0, 1, bytes);
        w.group.waitAll();
        t_solo = op->finishTick();
    }
    CommWorld w(NodeKind::quad);
    CommGroup &group = w.group;
    auto a = group.sendRecv(0, 0, 1, bytes);
    auto b = group.sendRecv(0, 2, 3, bytes);
    group.waitAll();
    EXPECT_EQ(a->finishTick(), t_solo);
    EXPECT_EQ(b->finishTick(), t_solo);
}

// ---------------------------------------------------------------------
// Algorithm selection and basic collective semantics
// ---------------------------------------------------------------------

TEST(CommChoose, SizeAndTopologyDriveSelection)
{
    CommWorld w(NodeKind::quad);
    const CommGroup &on_full = w.group;
    EXPECT_TRUE(on_full.fullyConnected());
    // Fully connected: direct wins at every size.
    EXPECT_EQ(on_full.choose(Collective::allReduce, 1 * KiB),
              Algorithm::direct);
    EXPECT_EQ(on_full.choose(Collective::allReduce, 256 * MiB),
              Algorithm::direct);

    EventQueue eq;
    SimObject root(nullptr, "root");
    auto ring = makeRingOnlyQuad(&root);
    CommGroup &on_ring = *ring->commGroup(&eq);
    EXPECT_FALSE(on_ring.fullyConnected());
    // Sparse: small payloads go direct (latency), large go ring.
    EXPECT_EQ(on_ring.choose(Collective::allReduce, 1 * KiB),
              Algorithm::direct);
    EXPECT_EQ(on_ring.choose(Collective::allReduce, 256 * MiB),
              Algorithm::ring);
    EXPECT_EQ(on_ring.choose(Collective::sendRecv, 256 * MiB),
              Algorithm::direct);

    const auto op = on_ring.allReduce(0, 256 * MiB);
    on_ring.waitAll();
    EXPECT_EQ(op->algorithm(), Algorithm::ring);
}

TEST(CommCollectives, EveryKindCompletesAndCounts)
{
    CommWorld w(NodeKind::quad);
    CommGroup &group = w.group;

    const std::uint64_t bytes = 8 * MiB;
    auto ag = group.allGather(0, bytes);
    auto rs = group.reduceScatter(0, bytes);
    auto bc = group.collective(Collective::broadcast, 0, bytes);
    auto aa = group.allToAll(0, bytes);
    auto sr = group.sendRecv(0, 1, 3, bytes);
    group.waitAll();

    for (const auto &op : {ag, rs, bc, aa, sr})
        EXPECT_TRUE(op->done());
    EXPECT_DOUBLE_EQ(group.ops_completed.value(), 5.0);
    EXPECT_DOUBLE_EQ(group.allgather_bytes.value(),
                     static_cast<double>(bytes));
    EXPECT_DOUBLE_EQ(group.reduce_scatter_bytes.value(),
                     static_cast<double>(bytes));
    EXPECT_DOUBLE_EQ(group.broadcast_bytes.value(),
                     static_cast<double>(bytes));
    // all-to-all: every rank sends bytes to every other rank.
    EXPECT_DOUBLE_EQ(group.all_to_all_bytes.value(),
                     static_cast<double>(12 * bytes));
    EXPECT_DOUBLE_EQ(group.sendrecv_bytes.value(),
                     static_cast<double>(bytes));
    EXPECT_GT(group.maxLinkUtilization(), 0.0);
    EXPECT_GE(group.maxLinkUtilization(),
              group.avgLinkUtilization());
}

TEST(CommCollectives, SmallSendRecvPaysLinkLatency)
{
    CommWorld w(NodeKind::quad);
    auto op = w.group.sendRecv(0, 0, 1, 64);
    w.group.waitAll();
    // One hop on a 30 ns serdes IF link dominates 64 B of
    // serialization.
    EXPECT_GE(op->finishTick(), 30'000u);
    EXPECT_LT(op->finishTick(), 40'000u);
}

TEST(CommCollectives, ZeroBytesAndBadRanksAreHandled)
{
    CommWorld w(NodeKind::quad);
    CommGroup &group = w.group;
    auto op = group.allReduce(1000, 0);
    EXPECT_TRUE(op->done());
    EXPECT_EQ(op->finishTick(), op->startTick());
    EXPECT_THROW(group.sendRecv(0, 0, 9, 1 * MiB),
                 std::runtime_error);
    // sendRecv needs a rank pair: the generic entry point refuses it.
    EXPECT_THROW(group.collective(Collective::sendRecv, 0, 1 * MiB),
                 std::runtime_error);
}

TEST(CommFaults, RouteCacheFollowsMidSimReroute)
{
    EventQueue eq;
    SimObject root(nullptr, "root");
    auto node = makeRingOnlyQuad(&root);
    CommGroup &group = *node->commGroup(&eq, fineGrained());
    const auto ranks = node->deviceRanks();
    // Fill the Network's route tables with a collective.
    auto first = group.allReduce(0, 4 * MiB, Algorithm::ring);
    group.waitAll();
    ASSERT_TRUE(first->done());
    // Fail the ranks[0] <-> ranks[1] ring link mid-sim. killLink()
    // drops every route table; the next collective must recompute
    // and pipeline the long way round instead of replaying a dead
    // route.
    node->network()->killLink(ranks[0], ranks[1]);
    EXPECT_EQ(node->network()->hopCount(ranks[0], ranks[1]), 3u);
    auto second = group.sendRecv(eq.curTick(), 0, 1, 4 * MiB);
    group.waitAll();
    ASSERT_TRUE(second->done());
    // 4 MiB rerouted over the three surviving ring hops.
    EXPECT_EQ(second->linkBytes(), 3ull * 4 * MiB);
}

TEST(CommGroupCtor, RejectsBadRankSets)
{
    // The constructor's own argument checks: rank sets no topology
    // hands out (empty, duplicated, off the fabric).
    SimObject root(nullptr, "root");
    auto node = NodeTopology::mi300aQuadNode(&root);
    EventQueue eq;
    EXPECT_THROW(CommGroup(node.get(), "c0", node->network(), {},
                           &eq),
                 std::runtime_error);
    EXPECT_THROW(CommGroup(node.get(), "c1", node->network(),
                           {0, 1, 0}, &eq),
                 std::runtime_error);
    EXPECT_THROW(CommGroup(node.get(), "c2", node->network(),
                           {0, 99}, &eq),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// NodeTopology integration
// ---------------------------------------------------------------------

TEST(CommTopology, CommGroupFreezesTopology)
{
    EventQueue eq;
    SimObject root(nullptr, "root");
    auto node = NodeTopology::mi300aQuadNode(&root);
    auto *cg = node->commGroup(&eq);
    ASSERT_NE(cg, nullptr);
    EXPECT_EQ(cg->numRanks(), 4u);
    // One communicator per topology.
    EXPECT_THROW(node->commGroup(&eq), std::runtime_error);
    EXPECT_THROW(node->addSocket("late", 8), std::runtime_error);
    EXPECT_THROW(node->connect(0, 1, 1), std::runtime_error);
}

TEST(CommTopology, WorldGroupFreezesTopology)
{
    // The world builds its group through commGroup(), so the freeze
    // covers it too.
    CommWorld w(NodeKind::quad);
    EXPECT_THROW(w.topo->addSocket("late", 8), std::runtime_error);
    EXPECT_THROW(w.topo->connect(0, 1, 1), std::runtime_error);
}

TEST(CommTopology, OctoCommGroupExcludesHosts)
{
    CommWorld w(NodeKind::octo);
    EXPECT_EQ(w.topo->numEndpoints(), 10u);
    EXPECT_EQ(w.group.numRanks(), 8u);
    EXPECT_TRUE(w.group.fullyConnected());
}

TEST(CommTopology, OctoLinksRetireOccupancyBehindNow)
{
    // Node links forget the occupancy windows behind the queue's now
    // (DESIGN.md §12), so 200 all-reduces leave every link a few runs
    // however many chunks it carried; a link keeping every window
    // would hold a run or more per chunk.
    CommWorld w(NodeKind::octo, fineGrained());
    for (int i = 0; i < 200; ++i) {
        w.run(Collective::allReduce, 2 * MiB,
              i % 2 ? Algorithm::ring : Algorithm::direct);
    }
    std::size_t most = 0;
    double busiest = 0;
    for (const fabric::Link *l : w.topo->network()->allLinks()) {
        most = std::max(most, l->residentSpans());
        busiest = std::max(busiest, l->transfers.value());
    }
    EXPECT_LE(most, 32u);
    EXPECT_GT(busiest, 400.0);
}

TEST(CommTopology, AllToAllBackedByCommEngine)
{
    CommWorld w(NodeKind::quad);
    const auto first = w.run(Collective::allToAll, 16 * MiB,
                             Algorithm::direct);
    EXPECT_GT(first->finishTick(), 0u);
    EXPECT_DOUBLE_EQ(w.group.ops_completed.value(), 1.0);
    // A repeated exchange queues behind the first on the same links.
    const auto second = w.run(Collective::allToAll, 16 * MiB,
                              Algorithm::direct);
    EXPECT_GT(second->finishTick(), first->finishTick());
}

// ---------------------------------------------------------------------
// Schedules: every chunk attempt pinned, and op lifetime
// ---------------------------------------------------------------------

namespace
{

/** FNV-1a over the little-endian bytes of each word added. */
struct Digest
{
    std::uint64_t h = 14695981039346656037ull;

    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

constexpr Collective kAllCollectives[] = {
    Collective::allReduce, Collective::allGather,
    Collective::reduceScatter, Collective::broadcast,
    Collective::allToAll, Collective::sendRecv,
};

/**
 * Digest of every chunk attempt (tick, src, dst, bytes, op id, task
 * index, attempt) and every op's finish tick and link bytes, for two
 * concurrent ops of @p coll on a fresh @p kind world, over ring and
 * direct and over 1 and 3 chunks per shard. The fault hook that logs
 * the attempts also fails the first attempt of task 1 of every op:
 * in an all-reduce that is a reduce-scatter transfer, so its chunk's
 * all-gather waits for the retry while its siblings land early.
 */
std::uint64_t
scheduleDigest(NodeKind kind, Collective coll)
{
    constexpr std::uint64_t cb = 64 * KiB;
    Digest d;
    for (const Algorithm algo : {Algorithm::ring, Algorithm::direct}) {
        // sendRecv has one schedule whatever the algorithm.
        if (coll == Collective::sendRecv && algo == Algorithm::ring)
            continue;
        for (const std::uint64_t chunks : {1u, 3u}) {
            CommParams p;
            p.chunk_bytes = cb;
            CommWorld w(kind, p);
            CommGroup &g = w.group;
            const std::uint64_t n = g.numRanks();
            // Sharded kinds split bytes n ways, the rest chunk it
            // whole; - 3 leaves bytes % n != 0 and a short last
            // chunk.
            const bool sharded = coll == Collective::allReduce ||
                                 coll == Collective::allGather ||
                                 coll == Collective::reduceScatter;
            const std::uint64_t bytes =
                (sharded ? n : 1) * chunks * cb - 3;
            g.setChunkFaultHook([&d](const CommGroup::ChunkAttempt &a) {
                for (const std::uint64_t v :
                     {std::uint64_t{a.when}, std::uint64_t{a.src},
                      std::uint64_t{a.dst}, a.bytes, a.op_id,
                      std::uint64_t{a.task_index},
                      std::uint64_t{a.attempt}}) {
                    d.add(v);
                }
                return a.task_index == 1 && a.attempt == 1;
            });
            OpHandle ops[2];
            for (unsigned i = 0; i < 2; ++i) {
                const auto last = static_cast<unsigned>(n - 1);
                if (coll == Collective::sendRecv)
                    ops[i] = g.sendRecv(0, i, last - i, bytes);
                else
                    ops[i] = g.collective(coll, 0, bytes, algo);
            }
            g.waitAll();
            for (const OpHandle &op : ops) {
                EXPECT_TRUE(op->done());
                d.add(op->finishTick());
                d.add(op->linkBytes());
            }
        }
    }
    return d.h;
}

} // anonymous namespace

TEST(CommSchedule, ChunkAttemptLogMatchesPinnedDigest)
{
    // The digests pin each schedule's event order and ticks: a join
    // must release its tasks in index order at the latest arrival
    // among its predecessors. A change that moves one tick of one
    // attempt fails here.
    const struct
    {
        NodeKind kind;
        Collective coll;
        std::uint64_t digest;
    } pins[] = {
        {NodeKind::quad, Collective::allReduce,
         0xa947479806ef6f33ull},
        {NodeKind::quad, Collective::allGather,
         0xcb9ff7b0a25f85fbull},
        {NodeKind::quad, Collective::reduceScatter,
         0x5893c1dacb82defbull},
        {NodeKind::quad, Collective::broadcast,
         0xec1762ffd78f21acull},
        {NodeKind::quad, Collective::allToAll,
         0x66a9298ebdcbf6a0ull},
        {NodeKind::quad, Collective::sendRecv,
         0x66adee09f9930dc2ull},
        {NodeKind::octo, Collective::allReduce,
         0x75b77d05a216b42bull},
        {NodeKind::octo, Collective::allGather,
         0xaa20e56ee36b3bf6ull},
        {NodeKind::octo, Collective::reduceScatter,
         0x29ff456862897476ull},
        {NodeKind::octo, Collective::broadcast,
         0xd6abfab088419c3cull},
        {NodeKind::octo, Collective::allToAll,
         0x8f1a581706eae33aull},
        {NodeKind::octo, Collective::sendRecv,
         0x317960ca88ccf72aull},
    };
    ASSERT_EQ(std::size(pins), 2 * std::size(kAllCollectives));
    for (const auto &pin : pins) {
        const std::uint64_t got = scheduleDigest(pin.kind, pin.coll);
        EXPECT_EQ(got, pin.digest)
            << (pin.kind == NodeKind::quad ? "quad " : "octo ")
            << collectiveName(pin.coll) << ": 0x" << std::hex << got;
    }
}

TEST(CommSchedule, CallbackDropsLastHandleAndChainsNextOp)
{
    // The serving engine's pattern: an op's completion callback drops
    // the last handle to that op and starts the next one. The group
    // then retires the finished op from inside the callback, so the
    // chunk event that completed it must touch nothing afterwards
    // (ASan catches a use after free here).
    CommWorld w(NodeKind::octo, fineGrained());
    struct Chain
    {
        explicit Chain(CommGroup &group) : g(group) {}

        CommGroup &g;
        OpHandle cur;
        unsigned left = 200;
        Tick last = 0;

        void
        launch(Tick when)
        {
            cur = g.allReduce(when, 1 * MiB + 5, Algorithm::direct);
            cur->setOnComplete([this](Tick fin) {
                EXPECT_GT(fin, last);
                last = fin;
                cur.reset();
                if (--left > 0)
                    launch(fin);
            });
        }
    } chain(w.group);
    chain.launch(0);
    EXPECT_EQ(w.group.waitAll(), chain.last);
    EXPECT_EQ(chain.left, 0u);
    EXPECT_EQ(chain.cur, nullptr);
    EXPECT_DOUBLE_EQ(w.group.ops_completed.value(), 200.0);
}

TEST(CommSchedule, ReleaseRunsAsOneEvent)
{
    // An octo direct all-reduce of one chunk per shard is 56
    // reduce-scatter chunks released by start() and 8 joins that
    // each release 7 all-gather chunks: one event per release.
    CommWorld w(NodeKind::octo, fineGrained());
    constexpr std::uint64_t bytes = 1 * MiB + MiB / 4;
    w.run(Collective::allReduce, bytes, Algorithm::direct);
    EXPECT_EQ(w.eq.numProcessed(), 1u + 8u);

    // Events at the op's start tick fire in schedule order around
    // the whole start() release.
    std::vector<int> log;   // -1: before start(), -2: after
    w.group.setChunkFaultHook([&log](const CommGroup::ChunkAttempt &a) {
        log.push_back(static_cast<int>(a.task_index));
        return false;
    });
    const Tick t0 = w.eq.curTick();
    w.eq.scheduleCallback(t0, [&log] { log.push_back(-1); });
    const OpHandle op =
        w.group.allReduce(t0, bytes, Algorithm::direct);
    w.eq.scheduleCallback(t0, [&log] { log.push_back(-2); });
    const std::uint64_t before = w.eq.numProcessed();
    w.group.waitAll();
    EXPECT_TRUE(w.eq.empty());
    EXPECT_EQ(w.eq.numProcessed() - before, 2u + 1u + 8u);
    ASSERT_EQ(log.size(), 2u + 112u);
    EXPECT_EQ(log.front(), -1);
    EXPECT_EQ(log[1 + 56], -2);
    for (std::size_t i = 1; i < log.size(); ++i) {
        if (i != 1 + 56) {
            EXPECT_GE(log[i], 0) << i;
        }
    }
    // The start release ran every ungated task, in index order.
    for (std::size_t i = 2; i <= 56; ++i)
        EXPECT_LT(log[i - 1], log[i]) << i;
    EXPECT_TRUE(op->done());
}

TEST(CommSchedule, JoinlessOpCompletesInsideItsStartEvent)
{
    // A direct all-gather has no joins: its whole schedule runs in
    // the start() event, whose last chunk completes the op. The
    // callback drops the last handle, so the op is freed while that
    // event is still running (ASan catches a use after free).
    CommWorld w(NodeKind::octo, fineGrained());
    struct Chain
    {
        explicit Chain(CommGroup &group) : g(group) {}

        CommGroup &g;
        OpHandle cur;
        unsigned left = 200;
        Tick last = 0;

        void
        launch(Tick when)
        {
            cur = g.allGather(when, 3 * MiB + 5, Algorithm::direct);
            cur->setOnComplete([this](Tick fin) {
                EXPECT_GT(fin, last);
                last = fin;
                cur.reset();
                if (--left > 0)
                    launch(fin);
            });
        }
    } chain(w.group);
    chain.launch(0);
    EXPECT_EQ(w.group.waitAll(), chain.last);
    EXPECT_EQ(chain.left, 0u);
    EXPECT_EQ(chain.cur, nullptr);
    EXPECT_EQ(w.eq.numProcessed(), 200u);
    EXPECT_DOUBLE_EQ(w.group.ops_completed.value(), 200.0);
}

// ---------------------------------------------------------------------
// Determinism: collective sweeps under a worker pool
// ---------------------------------------------------------------------

namespace
{

std::string
runCollectiveSweep(unsigned jobs)
{
    sweep::SweepRunner runner(jobs);
    const std::uint64_t sizes[] = {4 * MiB, 8 * MiB, 16 * MiB,
                                   32 * MiB};
    for (const std::uint64_t bytes : sizes) {
        for (const Algorithm algo :
             {Algorithm::ring, Algorithm::direct}) {
            const std::string name =
                std::string("allreduce/") + algorithmName(algo) +
                "/" + std::to_string(bytes);
            runner.addJob(name, [bytes, algo](json::JsonWriter &jw) {
                const auto op = quadAllReduce(bytes, algo);
                jw.beginObject();
                jw.kv("bytes", static_cast<double>(bytes));
                jw.kv("algorithm", algorithmName(op->algorithm()));
                jw.kv("finish_ticks",
                      static_cast<double>(op->finishTick()));
                jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
                jw.endObject();
            });
        }
    }
    const auto results = runner.run();
    std::ostringstream os;
    sweep::SweepRunner::dumpJson(os, "comm_sweep", results);
    return os.str();
}

} // anonymous namespace

TEST(CommSweep, WorkerCountDoesNotChangeJson)
{
    const std::string serial = runCollectiveSweep(1);
    const std::string parallel = runCollectiveSweep(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

namespace
{

/**
 * A sweep where every job runs collectives on its own quad node and
 * serializes the full stat tree — CommGroup counters, Formula stats
 * (avg/max link busy fractions), and the per-link stats underneath.
 * This is the stat-aggregation path the TSan CI gate exercises at 8
 * concurrent workers.
 */
std::string
runStatAggregationSweep(unsigned jobs)
{
    sweep::SweepRunner runner(jobs);
    for (unsigned j = 0; j < 16; ++j) {
        const std::uint64_t bytes = (4 + j % 4) * MiB;
        runner.addJob(
            "stats/" + std::to_string(j),
            [bytes](json::JsonWriter &jw) {
                CommWorld w(NodeKind::quad, fineGrained());
                w.run(Collective::allReduce, bytes, Algorithm::ring);
                w.run(Collective::allGather, bytes, Algorithm::direct);
                jw.beginObject();
                jw.key("comm");
                w.group.dumpJsonStats(jw);
                jw.key("node");
                w.topo->dumpJsonStats(jw);
                jw.endObject();
            });
    }
    const auto results = runner.run();
    std::ostringstream os;
    sweep::SweepRunner::dumpJson(os, "comm_stat_aggregation", results);
    return os.str();
}

} // anonymous namespace

TEST(CommSweep, StatAggregationAtEightWorkersIsDeterministic)
{
    const std::string serial = runStatAggregationSweep(1);
    const std::string parallel = runStatAggregationSweep(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

namespace
{

/**
 * The retry/backoff path under a worker pool: every job injects
 * transient chunk faults from its own seeded Rng and serializes the
 * retry counters and distribution alongside the op timing. Any
 * cross-worker state in the retry machinery shows up as a byte diff
 * (and as a TSan report in the CI gate).
 */
std::string
runRetrySweep(unsigned jobs)
{
    sweep::SweepRunner runner(jobs);
    for (unsigned j = 0; j < 12; ++j) {
        const std::uint64_t bytes = (8 + 4 * (j % 3)) * MiB;
        runner.addJob(
            "retry/" + std::to_string(j), [j, bytes](json::JsonWriter &jw) {
                CommWorld w(NodeKind::quad, fineGrained());
                CommGroup &group = w.group;
                group.setChunkFaultHook(
                    [j](const CommGroup::ChunkAttempt &a) {
                        return counterHashUnit(1000 + j, a.op_id,
                                               a.task_index,
                                               a.attempt) < 0.05;
                    });
                auto op =
                    group.allReduce(0, bytes, Algorithm::ring);
                group.waitAll();
                jw.beginObject();
                jw.kv("finish_ticks",
                      static_cast<double>(op->finishTick()));
                jw.kv("chunk_retries", group.chunk_retries.value());
                jw.kv("retry_wait_ticks",
                      group.retry_wait_ticks.value());
                jw.key("comm");
                group.dumpJsonStats(jw);
                jw.endObject();
            });
    }
    const auto results = runner.run();
    std::ostringstream os;
    sweep::SweepRunner::dumpJson(os, "comm_retry_sweep", results);
    return os.str();
}

} // anonymous namespace

TEST(CommSweep, RetryPathAtEightWorkersIsDeterministic)
{
    const std::string serial = runRetrySweep(1);
    const std::string parallel = runRetrySweep(8);
    const std::string again = runRetrySweep(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(parallel, again);
}

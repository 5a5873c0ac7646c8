/**
 * @file
 * Determinism gates for the conservative parallel core (sim/pdes,
 * DESIGN.md §15).
 *
 * The PDES contract is absolute: a simulation run on N partitions
 * produces byte-identical output to the serial kernel, for any N.
 * Each test here renders a full run — the complete stats tree, or a
 * whole serving document — to a string under serial execution and
 * under --pdes-style execution with 1, 2, and 8 partitions, and
 * EXPECT_EQs the strings. A mismatch prints the first diverging
 * stat, which localizes the offending event ordering.
 *
 * Three workloads cover the three synchronization regimes:
 *  - the octo all-reduce: steady-state parallel windows, every
 *    partition group independent;
 *  - a fixed-seed TP-2 serving run: coordinator-heavy (the batcher
 *    lives on the serial queue) with bursts of partitioned chunks;
 *  - a fault storm with a mid-run link kill: the placement collapse
 *    path, where a detoured route forces every partition into one
 *    merged group at a window boundary.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "comm/comm_group.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "serve/scenario.hh"
#include "sim/json.hh"
#include "sim/pdes/pdes_engine.hh"
#include "soc/node_topology.hh"

using namespace ehpsim;

namespace
{

/** One run's complete observable history: the root stats tree plus
 *  the final simulated tick. */
struct RunRecord
{
    std::string stats;
    Tick final_tick = 0;
};

/** 1 MiB chunks: many chunk events per collective to interleave. */
constexpr comm::CommParams kFineGrained{.chunk_bytes = 1 * MiB};

/** @p w's complete observable history after its run. */
RunRecord
recordOf(soc::CommWorld &w)
{
    RunRecord rec;
    rec.final_tick = w.eq.curTick();
    std::ostringstream ss;
    json::JsonWriter jw(ss);
    w.root.dumpJsonStats(jw);
    rec.stats = ss.str();
    return rec;
}

/** Ring + direct all-reduce over the Fig. 18b octo node; pdes == 0
 *  runs the serial kernel. */
RunRecord
octoAllReduceRun(unsigned pdes)
{
    soc::CommWorld w(soc::NodeKind::octo, kFineGrained, pdes);
    w.group.allReduce(0, 4 * MiB, comm::Algorithm::ring);
    w.group.allReduce(0, 4 * MiB, comm::Algorithm::direct);
    w.group.waitAll();
    return recordOf(w);
}

/**
 * A collective storm under the fault injector: transient chunk
 * errors plus a link kill scheduled mid-run, so routes detour and
 * the engine must collapse its partition groups at a window
 * boundary without perturbing the schedule.
 */
RunRecord
faultStormRun(unsigned pdes)
{
    comm::CommParams params = kFineGrained;
    params.retry_timeout = 200'000'000;
    soc::CommWorld w(soc::NodeKind::octo, params, pdes);

    fault::FaultPlan plan;
    plan.seed = 7;
    plan.chunk_error_rate = 0.02;
    plan.link_faults.push_back(
        fault::LinkFault{"mi300x0", "mi300x1", 50'000'000, 0.0});
    plan.validate();
    fault::FaultInjector injector(w.topo.get(), "inj", plan, &w.eq);
    injector.attachNetwork(w.topo->network());
    injector.attachCommGroup(&w.group);
    injector.arm();

    w.run(comm::Collective::allReduce, 8 * MiB, comm::Algorithm::ring);
    w.run(comm::Collective::allReduce, 8 * MiB,
          comm::Algorithm::direct);
    // The kill at 50 us landed mid-run: the detoured route must have
    // collapsed every partition into one merged group.
    if (w.pdes()) {
        EXPECT_EQ(w.pdes()->numGroups(), 1u);
    }
    return recordOf(w);
}

/** A fixed-seed TP-2 serving run rendered as its full JSON
 *  document (params + metrics + stats tree). */
std::string
serveDoc(unsigned pdes)
{
    serve::ScenarioParams p;
    p.device = "mi300x";
    p.tp = 2;
    p.num_requests = 8;
    p.seed = 42;
    p.load_rps = 1.0;
    p.pdes = pdes;
    const auto r = serve::runServingScenario(p);
    std::ostringstream ss;
    json::JsonWriter jw(ss);
    serve::dumpScenario(jw, p, r);
    return ss.str();
}

} // anonymous namespace

TEST(Pdes, OctoAllReduceMatchesSerialForAnyPartitionCount)
{
    const RunRecord serial = octoAllReduceRun(0);
    ASSERT_FALSE(serial.stats.empty());
    for (const unsigned n : {1u, 2u, 8u}) {
        const RunRecord par = octoAllReduceRun(n);
        EXPECT_EQ(par.final_tick, serial.final_tick) << "pdes=" << n;
        EXPECT_EQ(par.stats, serial.stats) << "pdes=" << n;
    }
}

TEST(Pdes, FaultStormWithMidRunKillMatchesSerial)
{
    const RunRecord serial = faultStormRun(0);
    for (const unsigned n : {1u, 2u, 8u}) {
        const RunRecord par = faultStormRun(n);
        EXPECT_EQ(par.final_tick, serial.final_tick) << "pdes=" << n;
        EXPECT_EQ(par.stats, serial.stats) << "pdes=" << n;
    }
}

TEST(Pdes, ServingScenarioMatchesSerial)
{
    const std::string serial = serveDoc(0);
    ASSERT_NE(serial.find("\"completed\": 8"), std::string::npos);
    for (const unsigned n : {1u, 2u, 8u})
        EXPECT_EQ(serveDoc(n), serial) << "pdes=" << n;
}

TEST(Pdes, EngineReportsParallelProgress)
{
    // White-box: the octo all-reduce at 8 partitions must actually
    // exercise the parallel path — nonzero lookahead (every rank
    // pair rides a direct IF link), more than one worker group, and
    // at least one parallel window per collective.
    soc::CommWorld w(soc::NodeKind::octo, kFineGrained, 8);
    w.run(comm::Collective::allReduce, 4 * MiB, comm::Algorithm::ring);

    const pdes::PdesEngine &engine = *w.pdes();
    EXPECT_GT(engine.lookahead(), 0);
    EXPECT_GT(engine.numGroups(), 1u);
    EXPECT_GT(engine.windows(), 0u);
    EXPECT_GT(engine.totalProcessed(), 0u);
}

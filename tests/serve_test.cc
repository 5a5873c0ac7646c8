/**
 * @file
 * Tests for the LLM serving subsystem (src/serve): KV-cache
 * accounting, capacity-pressure eviction/recompute, continuous
 * batching through the engine, fault-degraded service, and
 * byte-determinism of serving sweeps under a worker pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "fault/fault_plan.hh"
#include "serve/kv_cache.hh"
#include "serve/scenario.hh"
#include "serve/serving_config.hh"
#include "serve/serving_engine.hh"
#include "sim/units.hh"
#include "sweep/sweep_runner.hh"

using namespace ehpsim;
using namespace ehpsim::serve;

// ---------------------------------------------------------------------
// Model/config footprints
// ---------------------------------------------------------------------

TEST(ServingConfig, ModelFootprints)
{
    LlmModelSpec m;  // Llama-2 70B fp16 defaults
    EXPECT_EQ(m.weightBytes(), 140'000'000'000ull);
    // 2 (K+V) x 80 layers x (8192/64) head_dim x 8 kv_heads x 2 B.
    EXPECT_EQ(m.kvBytesPerToken(), 327'680ull);
    EXPECT_EQ(m.activationBytesPerToken(), 16'384ull);

    m.dtype = gpu::DataType::fp8;
    EXPECT_EQ(m.weightBytes(), 70'000'000'000ull);
    EXPECT_EQ(m.kvBytesPerToken(), 163'840ull);
}

TEST(ServingConfig, CapacityStorySetsKvBudgets)
{
    const ServingConfig mi = mi300xServingConfig();
    const ServingConfig base = baselineGpuServingConfig();

    // FP16 weights (140 GB) fit under 192 GB with tens of GB of KV
    // headroom; the 80 GB baseline only serves at all because FP8
    // halves the weights, and keeps far less KV.
    EXPECT_EQ(mi.model.dtype, gpu::DataType::fp16);
    EXPECT_EQ(base.model.dtype, gpu::DataType::fp8);
    EXPECT_GT(mi.kvBudgetBytes(), 40ull * GiB);
    EXPECT_LT(base.kvBudgetBytes(), 12ull * GiB);
    EXPECT_GT(base.kvBudgetBytes(), 0ull);
    EXPECT_GT(mi.kvTotalBlocks(), base.kvTotalBlocks());
    EXPECT_NO_THROW(mi.validate());
    EXPECT_NO_THROW(base.validate());
}

TEST(ServingConfig, Fp16WeightsOverflowBaselineCapacity)
{
    ServingConfig cfg = baselineGpuServingConfig();
    cfg.model.dtype = gpu::DataType::fp16;
    EXPECT_EQ(cfg.kvBudgetBytes(), 0ull);
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

// ---------------------------------------------------------------------
// KV-cache accounting
// ---------------------------------------------------------------------

namespace
{

KvCacheManager::Params
smallPool(std::uint64_t blocks)
{
    KvCacheManager::Params p;
    p.total_blocks = blocks;
    p.block_tokens = 16;
    return p;
}

} // anonymous namespace

TEST(KvCache, BlocksForTokensRoundsUp)
{
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    KvCacheManager kv(&root, "kv", smallPool(8));
    EXPECT_EQ(kv.blocksForTokens(1), 1u);
    EXPECT_EQ(kv.blocksForTokens(16), 1u);
    EXPECT_EQ(kv.blocksForTokens(17), 2u);
    EXPECT_EQ(kv.blocksForTokens(160), 10u);
}

TEST(KvCache, ReserveReleaseAndFailureCounting)
{
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    KvCacheManager kv(&root, "kv", smallPool(8));

    EXPECT_TRUE(kv.tryReserve(5));
    EXPECT_EQ(kv.usedBlocks(), 5u);
    EXPECT_EQ(kv.freeBlocks(), 3u);
    EXPECT_FALSE(kv.tryReserve(4));  // 5 + 4 > 8
    EXPECT_EQ(kv.reserveFailures(), 1u);
    EXPECT_TRUE(kv.tryReserve(3));
    EXPECT_DOUBLE_EQ(kv.occupancy(), 1.0);
    EXPECT_EQ(kv.peakUsedBlocks(), 8u);

    kv.release(8);
    EXPECT_EQ(kv.usedBlocks(), 0u);
    EXPECT_EQ(kv.peakUsedBlocks(), 8u);  // high-water mark sticks
    EXPECT_THROW(kv.release(1), std::runtime_error);
}

TEST(KvCache, ShrinkingPoolOverCommits)
{
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    KvCacheManager kv(&root, "kv", smallPool(8));
    ASSERT_TRUE(kv.tryReserve(6));
    kv.setTotalBlocks(4);  // HBM blackout shrank capacity
    EXPECT_TRUE(kv.overCommitted());
    EXPECT_EQ(kv.freeBlocks(), 0u);
    EXPECT_FALSE(kv.tryReserve(1));
    kv.release(3);
    EXPECT_FALSE(kv.overCommitted());
}

// ---------------------------------------------------------------------
// End-to-end scenarios
// ---------------------------------------------------------------------

namespace
{

ScenarioParams
tinyScenario()
{
    ScenarioParams p;
    p.num_requests = 8;
    p.input_tokens = 128;
    p.output_tokens = 24;
    p.load_rps = 4.0;
    p.seed = 7;
    return p;
}

} // anonymous namespace

TEST(ServingScenario, CompletesEveryRequestAndSamplesLatencies)
{
    const ScenarioParams p = tinyScenario();
    const ScenarioResult r = runServingScenario(p);

    EXPECT_EQ(r.completed, 8u);
    EXPECT_GT(r.ttft_p50_s, 0.0);
    EXPECT_GE(r.ttft_p99_s, r.ttft_p50_s);
    EXPECT_GT(r.tpot_p50_s, 0.0);
    EXPECT_GT(r.tokens_per_s, 0.0);
    EXPECT_GT(r.iterations, 0u);
    EXPECT_EQ(r.evictions, 0u);  // tiny load on 192 GB: no pressure
    EXPECT_GT(r.makespan_s, 0.0);
    EXPECT_FALSE(r.stats_json.empty());
}

TEST(ServingScenario, LightLoadMeetsSlos)
{
    ScenarioParams p = tinyScenario();
    p.load_rps = 0.5;
    const ScenarioResult r = runServingScenario(p);
    EXPECT_DOUBLE_EQ(r.slo_attainment, 1.0);
    EXPECT_DOUBLE_EQ(r.mean_queue_depth, 0.0);
}

TEST(ServingScenario, KvPressureEvictsAndRecomputes)
{
    // Shrink the KV pool so only ~1.5 requests fit resident at once:
    // each request pins ceil((128 + 24 + 1)/16) = 10 blocks.
    ScenarioParams p = tinyScenario();
    p.load_rps = 50.0;  // all requests arrive nearly at once
    p.kv_blocks_override = 16;
    const ScenarioResult r = runServingScenario(p);

    EXPECT_EQ(r.completed, 8u);          // degrades, never deadlocks
    EXPECT_GT(r.evictions, 0u);          // capacity pressure is real
    EXPECT_GT(r.recompute_tokens, 0u);   // evicted context recomputed
    EXPECT_GT(r.kv_reserve_failures, 0u);
    EXPECT_GT(r.kv_peak_occupancy, 0.8);

    // The same trace with ample KV finishes strictly sooner.
    ScenarioParams roomy = p;
    roomy.kv_blocks_override = 0;
    const ScenarioResult rr = runServingScenario(roomy);
    EXPECT_EQ(rr.evictions, 0u);
    EXPECT_LT(rr.makespan_s, r.makespan_s);
}

TEST(ServingScenario, TensorParallelIssuesRealCollectives)
{
    ScenarioParams p = tinyScenario();
    p.tp = 2;
    const ScenarioResult r = runServingScenario(p);
    EXPECT_EQ(r.completed, 8u);
    // Every iteration all-reduces over the octo node's links; the
    // full stats tree must carry the comm group's op counters.
    EXPECT_NE(r.stats_json.find("\"ops_completed\""),
              std::string::npos);
    EXPECT_GT(r.iterations, 0u);
}

TEST(ServingScenario, FaultsDegradeServiceWithoutLosingRequests)
{
    ScenarioParams clean = tinyScenario();
    clean.tp = 2;

    ScenarioParams faulty = clean;
    faulty.faults.seed = 99;
    faulty.faults.chunk_error_rate = 0.05;
    faulty.faults.channel_faults.push_back(
        fault::ChannelFault{5, 100'000'000'000});

    const ScenarioResult rc = runServingScenario(clean);
    const ScenarioResult rf = runServingScenario(faulty);

    EXPECT_EQ(rf.completed, 8u);
    EXPECT_GT(rf.chunk_retries, 0u);
    EXPECT_EQ(rf.channels_dark, 1u);
    // Retried chunks and a darker HBM make service measurably
    // slower end to end.
    EXPECT_GT(rf.makespan_s, rc.makespan_s);
    EXPECT_GE(rf.tpot_p95_s, rc.tpot_p95_s);
}

TEST(ServingScenario, HbmGroupHoldsOnlyChannelLiveness)
{
    // The HBM a scenario builds is the blackout fault's channel map,
    // not a timed memory: no channel or slice children, and only the
    // two liveness stats.
    ScenarioParams p = tinyScenario();
    p.tp = 2;
    p.faults.channel_faults.push_back(fault::ChannelFault{5, 0});
    const ScenarioResult r = runServingScenario(p);
    EXPECT_EQ(r.channels_dark, 1u);
    const std::string &doc = r.stats_json;
    const auto at = doc.find("\"hbm\":");
    ASSERT_NE(at, std::string::npos);
    const auto open = doc.find('{', at);
    const std::string body =
        doc.substr(open + 1, doc.find('}', open) - open - 1);
    EXPECT_EQ(body.find('{'), std::string::npos) << body;
    EXPECT_EQ(std::count(body.begin(), body.end(), ':'), 2) << body;
    EXPECT_NE(body.find("\"channels_dark\":"), std::string::npos);
    EXPECT_NE(body.find("\"degraded_peak_gbps\":"), std::string::npos);
}

TEST(ServingScenario, UnknownDeviceIsFatal)
{
    ScenarioParams p = tinyScenario();
    p.device = "tpu";
    EXPECT_THROW(runServingScenario(p), std::runtime_error);
}

// ---------------------------------------------------------------------
// Determinism: serving sweeps under a worker pool
// ---------------------------------------------------------------------

namespace
{

/**
 * A device x load serving sweep, one faulted TP case included. The
 * serialized document carries the full stats tree of every job, so
 * any nondeterminism anywhere in the arrival/batcher/KV/comm/fault
 * path shows up as a byte diff.
 */
std::string
runServingSweep(unsigned jobs)
{
    sweep::SweepRunner runner(jobs);
    for (const char *device : {"mi300x", "baseline"}) {
        for (const double load : {2.0, 8.0}) {
            const std::string name = std::string("serve/") + device +
                                     "/" + std::to_string(load);
            runner.addJob(name, [device, load](json::JsonWriter &jw) {
                ScenarioParams p;
                p.device = device;
                p.load_rps = load;
                p.num_requests = 6;
                p.input_tokens = 256;
                p.output_tokens = 32;
                p.seed = 2024;
                const ScenarioResult r = runServingScenario(p);
                dumpScenario(jw, p, r);
            });
        }
    }
    runner.addJob("serve/tp2_faulted", [](json::JsonWriter &jw) {
        ScenarioParams p;
        p.tp = 2;
        p.num_requests = 6;
        p.input_tokens = 256;
        p.output_tokens = 32;
        p.load_rps = 4.0;
        p.seed = 2024;
        p.faults.seed = 77;
        p.faults.chunk_error_rate = 0.03;
        p.faults.link_faults.push_back(
            fault::parseLinkFault("mi300x0:mi300x1@50000000000"));
        const ScenarioResult r = runServingScenario(p);
        dumpScenario(jw, p, r);
    });

    const auto results = runner.run();
    std::ostringstream os;
    sweep::SweepRunner::dumpJson(os, "serving_sweep", results);
    return os.str();
}

} // anonymous namespace

TEST(ServingSweep, SameSeedIsByteIdenticalAcrossWorkersAndRuns)
{
    const std::string serial = runServingSweep(1);
    const std::string parallel = runServingSweep(8);
    const std::string again = runServingSweep(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(parallel, again);
}

/**
 * @file
 * Tests for the fault-injection subsystem: plan validation and
 * parsing, CU harvesting, link kill/derate with rerouting around
 * dead links, retry/backoff on transient chunk errors, HBM channel
 * blackout, and byte-identical fault sweeps across worker counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include "comm/comm_group.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "gpu/xcd.hh"
#include "mem/hbm_subsystem.hh"
#include "soc/node_topology.hh"
#include "sweep/sweep_runner.hh"

using namespace ehpsim;
using namespace ehpsim::comm;

namespace
{

class FlatMemory : public mem::MemDevice
{
  public:
    FlatMemory(SimObject *parent, Tick latency)
        : mem::MemDevice(parent, "flat"), latency_(latency)
    {}

    mem::AccessResult
    access(Tick when, Addr, std::uint64_t, bool) override
    {
        return {when + latency_, true, 0};
    }

  private:
    Tick latency_;
};

/** Fine chunking keeps pipeline fill/drain small vs. total time. */
CommParams
fineGrained()
{
    CommParams p;
    p.chunk_bytes = 1 * MiB;
    return p;
}

/** Small two-stack HBM config: eight channels. */
mem::HbmSubsystemParams
smallHbm()
{
    mem::HbmSubsystemParams p;
    p.num_stacks = 2;
    p.channels_per_stack = 4;
    p.capacity_bytes = 1ull << 30;
    return p;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// FaultPlan validation and parsing
// ---------------------------------------------------------------------

TEST(FaultPlan, ValidateRejectsBadValues)
{
    fault::FaultPlan plan;
    plan.validate();

    plan.chunk_error_rate = 1.5;
    EXPECT_THROW(plan.validate(), std::runtime_error);
    plan.chunk_error_rate = -0.1;
    EXPECT_THROW(plan.validate(), std::runtime_error);
    plan.chunk_error_rate = 0.0;

    plan.link_faults.push_back({"a", "a", 0, 0.0});
    EXPECT_THROW(plan.validate(), std::runtime_error);
    plan.link_faults[0] = {"a", "b", 0, 1.0};
    EXPECT_THROW(plan.validate(), std::runtime_error);
    plan.link_faults[0] = {"a", "b", 0, 0.5};
    plan.validate();
}

TEST(FaultPlan, ParseLinkFaultSpecs)
{
    auto f = fault::parseLinkFault("mi300x0:mi300x1@5000000");
    EXPECT_EQ(f.node_a, "mi300x0");
    EXPECT_EQ(f.node_b, "mi300x1");
    EXPECT_EQ(f.at, 5'000'000u);
    EXPECT_DOUBLE_EQ(f.derate, 0.0);

    f = fault::parseLinkFault("a:b@123*0.5");
    EXPECT_EQ(f.at, 123u);
    EXPECT_DOUBLE_EQ(f.derate, 0.5);

    EXPECT_THROW(fault::parseLinkFault("nope"), std::runtime_error);
    EXPECT_THROW(fault::parseLinkFault("a:b@xyz"),
                 std::runtime_error);
    EXPECT_THROW(fault::parseLinkFault(":b@1"), std::runtime_error);
    EXPECT_THROW(fault::parseLinkFault("a:b@"), std::runtime_error);
}

TEST(FaultPlan, ParseLinkFaultRejectsPartialNumbers)
{
    // Trailing text, a sign, spaces or a missing factor: each number
    // must span its whole field. A negative tick must not wrap to
    // 2^64 - 5, a fault that would never fire.
    for (const char *spec :
         {"a:b@100x", "a:b@100*0.5zz", "a:b@-5", "a:b@ 7", "a:b@7 ",
          "a:b@+7", "a:b@100*", "a:b@100*0.5*0.5", "a:b@1e3",
          "a:b@99999999999999999999"}) {
        EXPECT_THROW(fault::parseLinkFault(spec), std::runtime_error)
            << spec;
    }
}

TEST(FaultPlan, ValidateRejectsNaN)
{
    // A NaN fails both range compares; it must still fail validate()
    // rather than fatal mid-run in Link::derate.
    fault::FaultPlan plan;
    plan.link_faults.push_back(fault::parseLinkFault("a:b@100*nan"));
    ASSERT_TRUE(std::isnan(plan.link_faults[0].derate));
    EXPECT_THROW(plan.validate(), std::runtime_error);
    plan.link_faults[0] = fault::parseLinkFault("a:b@100*inf");
    EXPECT_THROW(plan.validate(), std::runtime_error);
    plan.link_faults.clear();
    plan.chunk_error_rate = std::nan("");
    EXPECT_THROW(plan.validate(), std::runtime_error);
}

TEST(FaultPlan, DescribeSummarizesThePlan)
{
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.chunk_error_rate = 0.25;
    plan.active_cus = 32;
    plan.link_faults.push_back({"a", "b", 9, 0.0});
    const std::string s = plan.describe();
    EXPECT_NE(s.find("seed=7"), std::string::npos);
    EXPECT_NE(s.find("active_cus=32"), std::string::npos);
    EXPECT_NE(s.find("link_faults=1"), std::string::npos);
}

// ---------------------------------------------------------------------
// CU harvesting beyond stock 38-of-40
// ---------------------------------------------------------------------

TEST(CuHarvest, SweepsPeakFlopsDownToTwentyEight)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 1000);

    gpu::XcdParams stock = gpu::cdna3XcdParams();
    gpu::Xcd ref(&root, "ref", stock, &memory);
    const double stock_flops =
        ref.peakFlops(gpu::Pipe::vector, gpu::DataType::fp32);

    gpu::XcdParams p = gpu::cdna3XcdParams();
    fault::applyCuHarvest(p, 28);
    gpu::Xcd harvested(&root, "harvested", p, &memory);
    EXPECT_EQ(harvested.numActiveCus(), 28u);
    EXPECT_DOUBLE_EQ(
        harvested.peakFlops(gpu::Pipe::vector, gpu::DataType::fp32),
        stock_flops * 28.0 / 38.0);
}

TEST(CuHarvest, RejectsZeroAndOverPhysical)
{
    gpu::XcdParams p = gpu::cdna3XcdParams();
    EXPECT_THROW(fault::applyCuHarvest(p, 0), std::runtime_error);
    EXPECT_THROW(fault::applyCuHarvest(p, 41), std::runtime_error);

    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 1000);
    p.active_cus = 0;
    EXPECT_THROW(gpu::Xcd(&root, "xcd", p, &memory),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// Link kill / derate and rerouting
// ---------------------------------------------------------------------

TEST(FaultReroute, OctoLinkKillMidAllReduceDegradesButCompletes)
{
    const std::uint64_t bytes = 64 * MiB;
    const auto base =
        soc::CommWorld(soc::NodeKind::octo, fineGrained())
            .run(Collective::allReduce, bytes, Algorithm::direct);
    const double base_bw = base->algoBandwidth();
    ASSERT_GT(base_bw, 0.0);

    soc::CommWorld c(soc::NodeKind::octo, fineGrained());
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.chunk_error_rate = 0.02;
    plan.link_faults.push_back(
        {"mi300x0", "mi300x1", base->finishTick() / 4, 0.0});
    fault::FaultInjector inj(c.topo.get(), "inj", plan, &c.eq);
    inj.attachNetwork(c.topo->network());
    inj.attachCommGroup(&c.group);
    inj.arm();

    const auto op = c.run(Collective::allReduce, bytes,
                          Algorithm::direct);
    ASSERT_TRUE(op->done());

    fabric::Network *net = c.topo->network();
    const auto r0 = c.topo->nodeId(0);
    const auto r1 = c.topo->nodeId(1);
    EXPECT_DOUBLE_EQ(net->links_killed.value(), 1.0);
    EXPECT_FALSE(net->linkAlive(r0, r1));
    EXPECT_TRUE(net->reachable(r0, r1));
    // The dead x16 forces a two-hop detour through a third socket.
    EXPECT_EQ(net->hopCount(r0, r1), 2u);
    EXPECT_GT(net->reroutes.value(), 0.0);

    // Transient chunk errors were retried, never dropped.
    EXPECT_GT(inj.chunk_faults.value(), 0.0);
    EXPECT_DOUBLE_EQ(c.group.chunk_retries.value(),
                     inj.chunk_faults.value());
    EXPECT_GT(c.group.retry_wait_ticks.value(), 0.0);

    // Degraded, not dead: the op finished with measurably lower
    // achieved bandwidth than the healthy node.
    EXPECT_LT(op->algoBandwidth(), 0.995 * base_bw);
}

TEST(FaultReroute, PartitioningTheFabricFatalsWithBothNames)
{
    SimObject root(nullptr, "root");
    fabric::Network net(&root, "net");
    const auto a = net.addNode("a", fabric::NodeKind::device);
    const auto b = net.addNode("b", fabric::NodeKind::device);
    const auto c = net.addNode("c", fabric::NodeKind::device);
    net.connect(a, b, fabric::serdesIfLinkParams());
    net.connect(b, c, fabric::serdesIfLinkParams());
    EXPECT_TRUE(net.reachable(a, c));

    net.killLink(b, c);
    EXPECT_FALSE(net.reachable(a, c));
    EXPECT_TRUE(net.reachable(a, b));
    try {
        net.send(0, a, c, 1 * MiB);
        FAIL() << "send to a partitioned node must fatal";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'c'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'a'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("partitioned"), std::string::npos) << msg;
    }
}

TEST(FaultReroute, KillAndDerateValidation)
{
    SimObject root(nullptr, "root");
    fabric::Network net(&root, "net");
    const auto a = net.addNode("a", fabric::NodeKind::device);
    const auto b = net.addNode("b", fabric::NodeKind::device);
    const auto c = net.addNode("c", fabric::NodeKind::device);
    net.connect(a, b, fabric::serdesIfLinkParams());

    EXPECT_THROW(net.killLink(a, c), std::runtime_error);
    EXPECT_THROW(net.derateLink(a, b, 0.0), std::runtime_error);
    EXPECT_THROW(net.derateLink(a, b, 1.5), std::runtime_error);

    net.killLink(a, b);
    EXPECT_THROW(net.killLink(a, b), std::runtime_error);
    EXPECT_THROW(net.derateLink(a, b, 0.5), std::runtime_error);
}

TEST(FaultDerate, HalvedBandwidthDoublesSerialization)
{
    auto run = [](double factor) {
        SimObject root(nullptr, "root");
        fabric::Network net(&root, "net");
        const auto a = net.addNode("a", fabric::NodeKind::device);
        const auto b = net.addNode("b", fabric::NodeKind::device);
        net.connect(a, b, fabric::serdesIfLinkParams());
        if (factor < 1.0) {
            net.derateLink(a, b, factor);
            EXPECT_DOUBLE_EQ(net.links_derated.value(), 1.0);
            EXPECT_DOUBLE_EQ(net.link(a, b)->derateFactor(), factor);
        }
        return static_cast<double>(net.send(0, a, b, 64 * MiB)
                                       .arrival);
    };
    const double full = run(1.0);
    const double half = run(0.5);
    // Serialization dominates the 30 ns propagation at 64 MiB.
    EXPECT_GT(half, 1.9 * full);
    EXPECT_LT(half, 2.1 * full);
}

// ---------------------------------------------------------------------
// Retry / timeout / exponential backoff
// ---------------------------------------------------------------------

TEST(FaultRetry, BackoffGrowsExponentially)
{
    CommParams p = fineGrained();
    p.retry_timeout = 1000;
    p.backoff_base = 2.0;
    soc::CommWorld w(soc::NodeKind::quad, p);
    const CommGroup &group = w.group;
    EXPECT_EQ(group.backoffTicks(1), 1000u);
    EXPECT_EQ(group.backoffTicks(2), 2000u);
    EXPECT_EQ(group.backoffTicks(4), 8000u);
}

TEST(FaultRetry, BackoffSaturatesInsteadOfOverflowing)
{
    // Regression: retry_timeout * backoff_base^(attempt-1) used to
    // be cast to Tick unchecked; past 2^63 that double -> unsigned
    // conversion is undefined behavior. Deep retry policies must
    // clamp at maxBackoff and stay monotone.
    CommParams p = fineGrained();
    p.retry_timeout = 1'000'000'000;    // 1 ms base
    p.backoff_base = 10.0;
    p.max_retries = 64;                 // 1 ms * 10^63 >> Tick range
    soc::CommWorld w(soc::NodeKind::quad, p);
    const CommGroup &group = w.group;
    EXPECT_EQ(group.backoffTicks(1), 1'000'000'000u);
    EXPECT_EQ(group.backoffTicks(2), 10'000'000'000u);
    EXPECT_EQ(group.backoffTicks(65), CommGroup::maxBackoff);
    EXPECT_EQ(group.backoffTicks(1000), CommGroup::maxBackoff);
    Tick prev = 0;
    for (unsigned a = 1; a <= 80; ++a) {
        const Tick b = group.backoffTicks(a);
        EXPECT_GE(b, prev) << "attempt " << a;
        EXPECT_LE(b, CommGroup::maxBackoff) << "attempt " << a;
        prev = b;
    }
}

TEST(FaultRetry, RejectsBadRetryParams)
{
    CommParams p = fineGrained();
    p.retry_timeout = 0;
    EXPECT_THROW(soc::CommWorld(soc::NodeKind::quad, p),
                 std::runtime_error);
    p = fineGrained();
    p.backoff_base = 0.5;
    EXPECT_THROW(soc::CommWorld(soc::NodeKind::quad, p),
                 std::runtime_error);
}

TEST(FaultRetry, FirstAttemptFailuresRetryAndComplete)
{
    CommParams p = fineGrained();
    p.retry_timeout = 5000;
    soc::CommWorld w(soc::NodeKind::quad, p);
    CommGroup &group = w.group;
    // Every chunk fails exactly its first attempt.
    group.setChunkFaultHook([](const CommGroup::ChunkAttempt &a) {
        return a.attempt == 1;
    });
    auto op = group.sendRecv(0, 0, 1, 4 * MiB);
    group.waitAll();
    ASSERT_TRUE(op->done());

    // 4 MiB in 1 MiB chunks = 4 tasks, each retried once.
    EXPECT_DOUBLE_EQ(group.chunk_retries.value(), 4.0);
    EXPECT_DOUBLE_EQ(group.retry_wait_ticks.value(), 4.0 * 5000.0);
    EXPECT_EQ(group.retry_latency.count(), 4u);
    EXPECT_DOUBLE_EQ(group.retry_latency.mean(), 5000.0);
    // The whole op is delayed by at least one backoff.
    EXPECT_GE(op->finishTick(), 5000u);
}

TEST(FaultRetry, ExhaustionFatalsWithNodeNames)
{
    CommParams p = fineGrained();
    p.max_retries = 2;
    p.retry_timeout = 100;
    soc::CommWorld w(soc::NodeKind::quad, p);
    CommGroup &group = w.group;
    group.setChunkFaultHook([](const CommGroup::ChunkAttempt &) {
        return true;    // the link never recovers
    });
    group.sendRecv(0, 0, 1, 1 * MiB);
    try {
        group.waitAll();
        FAIL() << "exhausting max_retries must fatal";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("max_retries"), std::string::npos) << msg;
        EXPECT_NE(msg.find("mi300a0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("mi300a1"), std::string::npos) << msg;
    }
}

// ---------------------------------------------------------------------
// HBM channel blackout
// ---------------------------------------------------------------------

TEST(HbmBlackout, DegradesLivenessAndPeak)
{
    SimObject root(nullptr, "root");
    mem::HbmSubsystem hbm(&root, "hbm", smallHbm());
    const double stock_peak = hbm.peakHbmBandwidth();
    ASSERT_EQ(hbm.numChannels(), 8u);

    hbm.blackoutChannel(1);
    EXPECT_EQ(hbm.liveChannels(), 7u);
    EXPECT_FALSE(hbm.channelAlive(1));
    EXPECT_TRUE(hbm.channelAlive(0));
    EXPECT_DOUBLE_EQ(hbm.peakHbmBandwidth(), stock_peak * 7.0 / 8.0);
    EXPECT_DOUBLE_EQ(hbm.channels_dark.value(), 1.0);
    EXPECT_DOUBLE_EQ(hbm.degraded_peak_gbps.value(),
                     hbm.peakHbmBandwidth() / 1e9);
}

TEST(HbmBlackout, Validation)
{
    SimObject root(nullptr, "root");
    mem::HbmSubsystemParams p = smallHbm();
    p.num_stacks = 1;
    p.channels_per_stack = 2;
    mem::HbmSubsystem hbm(&root, "hbm", p);

    EXPECT_THROW(hbm.blackoutChannel(5), std::runtime_error);
    hbm.blackoutChannel(0);
    EXPECT_THROW(hbm.blackoutChannel(0), std::runtime_error);
    // The last live channel must stay up.
    EXPECT_THROW(hbm.blackoutChannel(1), std::runtime_error);
}

// ---------------------------------------------------------------------
// Injector wiring
// ---------------------------------------------------------------------

TEST(FaultInjector, ArmValidatesAttachments)
{
    SimObject root(nullptr, "root");
    EventQueue eq;

    fault::FaultPlan with_link;
    with_link.link_faults.push_back({"a", "b", 0, 0.0});
    fault::FaultInjector inj(&root, "inj", with_link, &eq);
    EXPECT_THROW(inj.arm(), std::runtime_error);

    fault::FaultPlan with_rate;
    with_rate.chunk_error_rate = 0.5;
    fault::FaultInjector inj2(&root, "inj2", with_rate, &eq);
    EXPECT_THROW(inj2.arm(), std::runtime_error);

    fault::FaultInjector inj3(&root, "inj3", fault::FaultPlan{}, &eq);
    inj3.arm();
    EXPECT_THROW(inj3.arm(), std::runtime_error);

    // A channel index past the HBM's fails at arm(), not at its tick.
    mem::HbmSubsystem hbm(&root, "hbm", smallHbm());
    fault::FaultPlan with_channel;
    with_channel.channel_faults.push_back({200, 1000});
    fault::FaultInjector inj4(&root, "inj4", with_channel, &eq);
    inj4.attachHbm(&hbm);
    try {
        inj4.arm();
        FAIL() << "channel 200 of 8 must not arm";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("channel 200"), std::string::npos) << msg;
        EXPECT_NE(msg.find("8 channels"), std::string::npos) << msg;
    }
    EXPECT_TRUE(eq.empty());
}

TEST(FaultInjector, ChannelBlackoutFiresAtItsTick)
{
    SimObject root(nullptr, "root");
    EventQueue eq;
    mem::HbmSubsystem hbm(&root, "hbm", smallHbm());

    fault::FaultPlan plan;
    plan.channel_faults.push_back({3, 1000});
    fault::FaultInjector inj(&root, "inj", plan, &eq);
    inj.attachHbm(&hbm);
    inj.arm();

    EXPECT_TRUE(hbm.channelAlive(3));
    while (eq.step()) {
    }
    EXPECT_FALSE(hbm.channelAlive(3));
    EXPECT_DOUBLE_EQ(inj.channels_blacked_out.value(), 1.0);
    EXPECT_DOUBLE_EQ(inj.faults_injected.value(), 1.0);
    EXPECT_EQ(eq.curTick(), 1000u);
}

// ---------------------------------------------------------------------
// Determinism: fault sweeps under a worker pool
// ---------------------------------------------------------------------

namespace
{

/**
 * A fault-rate x algorithm sweep on the quad node, every job with
 * the same plan seed and a mid-stream link kill. The serialized
 * output covers op timing, retry counters, and the full network
 * stat tree, so any nondeterminism in the retry/backoff or reroute
 * path shows up as a byte diff.
 */
std::string
runFaultSweep(unsigned jobs)
{
    sweep::SweepRunner runner(jobs);
    const double rates[] = {0.0, 0.01, 0.05};
    for (const Algorithm algo :
         {Algorithm::ring, Algorithm::direct}) {
        for (const double rate : rates) {
            const std::string name = std::string("fault/") +
                                     algorithmName(algo) + "/" +
                                     std::to_string(rate);
            runner.addJob(name, [algo, rate](json::JsonWriter &jw) {
                soc::CommWorld w(soc::NodeKind::quad, fineGrained());
                fault::FaultPlan plan;
                plan.seed = 1234;
                plan.chunk_error_rate = rate;
                plan.link_faults.push_back(
                    {"mi300a0", "mi300a1", 50'000'000, 0.0});
                fault::FaultInjector inj(w.topo.get(), "inj", plan,
                                         &w.eq);
                inj.attachNetwork(w.topo->network());
                inj.attachCommGroup(&w.group);
                inj.arm();

                const auto op =
                    w.run(Collective::allReduce, 16 * MiB, algo);

                jw.beginObject();
                jw.kv("algorithm", algorithmName(op->algorithm()));
                jw.kv("rate", rate);
                jw.kv("finish_ticks",
                      static_cast<double>(op->finishTick()));
                jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
                jw.kv("chunk_retries",
                      w.group.chunk_retries.value());
                jw.kv("faults_injected",
                      inj.faults_injected.value());
                jw.key("net");
                w.topo->network()->dumpJsonStats(jw);
                jw.endObject();
            });
        }
    }
    const auto results = runner.run();
    std::ostringstream os;
    sweep::SweepRunner::dumpJson(os, "fault_sweep", results);
    return os.str();
}

} // anonymous namespace

TEST(FaultSweep, SameSeedIsByteIdenticalAcrossWorkersAndRuns)
{
    const std::string serial = runFaultSweep(1);
    const std::string parallel = runFaultSweep(8);
    const std::string again = runFaultSweep(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(parallel, again);
}

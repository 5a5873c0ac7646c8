/**
 * @file
 * Resilience ablation: how gracefully the modeled node degrades
 * under injected faults, the flip side of the paper's yield story
 * (Sec. III harvests 38 of 40 CUs per XCD so defective dies still
 * ship; the node designs of Fig. 18 keep extra fabric links).
 *
 * Four sweeps, all driven by the deterministic fault subsystem:
 *  - transient chunk-error rate x collective algorithm on the octo
 *    MI300X node: achieved all-reduce bandwidth with retry/backoff;
 *  - an x16 IF link killed mid-all-reduce: the fabric reroutes and
 *    the collective completes at measurably lower bandwidth;
 *  - CU harvesting swept 40 -> 28 per XCD: peak vector-fp32 flops;
 *  - HBM channel blackouts: surviving peak bandwidth after remap.
 *
 * Sweep-shaped: every configuration is an independent SweepCase
 * (--jobs N, --json FILE).
 */

#include <cmath>
#include <cstdio>

#include "bench_util.hh"
#include "comm/comm_group.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "gpu/xcd.hh"
#include "mem/hbm_subsystem.hh"
#include "soc/node_topology.hh"

using namespace ehpsim;
using namespace ehpsim::comm;
using namespace ehpsim::soc;

namespace
{

/** Flat backing store for the CU-harvest XCD sweep. */
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

constexpr std::uint64_t kBytes = 64 * MiB;
constexpr std::uint64_t kSeed = 20240624;   // arbitrary, fixed
/** 1 MiB chunks: fine enough pipelining to see per-chunk retries. */
constexpr CommParams kFineGrained{.chunk_bytes = 1 * MiB};

/**
 * One all-reduce on the octo node under a transient chunk-error
 * rate; reports achieved algorithmic bandwidth and retry count.
 */
void
faultRateCase(Algorithm algo, double rate, const std::string &label,
              bench::RowSink &sink)
{
    CommParams params = kFineGrained;
    // A timeout-based retransmit can only detect loss after the
    // chunk (and the queue ahead of it) would have drained, so the
    // timer has to cover the per-link backlog: ~130 us here.
    params.retry_timeout = 200'000'000;     // 200 us
    CommWorld w(NodeKind::octo, params);

    fault::FaultPlan plan;
    plan.seed = kSeed;
    plan.chunk_error_rate = rate;
    fault::FaultInjector inj(w.topo.get(), "inj", plan, &w.eq);
    inj.attachCommGroup(&w.group);
    inj.arm();

    const OpHandle op = w.run(Collective::allReduce, kBytes, algo);

    const std::string series =
        std::string("allreduce_octo_") + algorithmName(algo);
    sink.row(series, label, op->algoBandwidth() / 1e9, "GB/s");
    sink.row(series + "_retries", label,
             w.group.chunk_retries.value(), "chunks");
}

/**
 * Kill the mi300x0 <-> mi300x1 x16 a quarter of the way into a
 * direct all-reduce: traffic reroutes through a third socket and
 * the op completes, degraded.
 */
void
linkKillCase(bench::RowSink &sink)
{
    const OpHandle base = CommWorld(NodeKind::octo, kFineGrained)
                              .run(Collective::allReduce, kBytes,
                                   Algorithm::direct);
    const double base_bw = base->algoBandwidth();

    CommWorld w(NodeKind::octo, kFineGrained);
    fault::FaultPlan plan;
    plan.seed = kSeed;
    plan.link_faults.push_back(
        {"mi300x0", "mi300x1", base->finishTick() / 4, 0.0});
    fault::FaultInjector inj(w.topo.get(), "inj", plan, &w.eq);
    inj.attachNetwork(w.topo->network());
    inj.attachCommGroup(&w.group);
    inj.arm();

    const OpHandle op = w.run(Collective::allReduce, kBytes,
                              Algorithm::direct);

    sink.row("link_kill", "healthy", base_bw / 1e9, "GB/s");
    sink.row("link_kill", "one_x16_down", op->algoBandwidth() / 1e9,
             "GB/s");
    sink.row("link_kill_reroutes", "one_x16_down",
             w.topo->network()->reroutes.value(), "recomputes");
    sink.row("link_kill_completed", "one_x16_down",
             op->done() ? 1 : 0, "bool");
}

/** Peak vector-fp32 flops of one XCD at a given harvest level. */
void
cuHarvestCase(unsigned active_cus, bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 1000);
    gpu::XcdParams p = gpu::cdna3XcdParams();
    fault::applyCuHarvest(p, active_cus);
    gpu::Xcd xcd(&root, "xcd", p, &memory);
    sink.row("cu_harvest", std::to_string(active_cus),
             xcd.peakFlops(gpu::Pipe::vector, gpu::DataType::fp32) /
                 1e12,
             "TFLOP/s");
}

/** Surviving peak HBM bandwidth after @p dark channel blackouts. */
void
hbmBlackoutCase(unsigned dark, bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    mem::HbmSubsystem hbm(&root, "hbm", mem::HbmSubsystemParams{});
    for (unsigned c = 0; c < dark; ++c)
        hbm.blackoutChannel(c);
    sink.row("hbm_blackout", std::to_string(dark),
             hbm.peakHbmBandwidth() / 1e9, "GB/s");
    sink.row("hbm_blackout_live", std::to_string(dark),
             hbm.liveChannels(), "channels");
}

bool
report(const bench::SweepArgs &args)
{
    bench::printHeader("ablation_resilience",
                       "fault injection and graceful degradation");

    struct RatePoint
    {
        double rate;
        const char *label;
    };
    const RatePoint rates[] = {
        {0.0, "0"}, {0.005, "0.005"}, {0.02, "0.02"}};

    std::vector<bench::SweepCase> cases;
    for (const Algorithm algo : {Algorithm::ring, Algorithm::direct}) {
        for (const RatePoint &pt : rates) {
            const std::string name = std::string("rate_") +
                                     algorithmName(algo) + "_" +
                                     pt.label;
            const double rate = pt.rate;
            const std::string label = pt.label;
            cases.push_back(
                {name, [algo, rate, label](bench::RowSink &s) {
                     faultRateCase(algo, rate, label, s);
                 }});
        }
    }
    cases.push_back({"link_kill", linkKillCase});
    for (const unsigned cus : {40u, 38u, 36u, 32u, 28u}) {
        cases.push_back({"cu_harvest_" + std::to_string(cus),
                         [cus](bench::RowSink &s) {
                             cuHarvestCase(cus, s);
                         }});
    }
    for (const unsigned dark : {0u, 1u, 4u, 16u}) {
        cases.push_back({"hbm_blackout_" + std::to_string(dark),
                         [dark](bench::RowSink &s) {
                             hbmBlackoutCase(dark, s);
                         }});
    }

    const auto outcomes =
        bench::runCases("ablation_resilience", cases, args);

    // Shape checks: retries cost bandwidth, a dead link degrades but
    // never kills the collective, and compute/memory peaks scale
    // linearly with the surviving resources.
    const double ring_clean =
        bench::findRow(outcomes, "allreduce_octo_ring", "0");
    const double ring_faulty =
        bench::findRow(outcomes, "allreduce_octo_ring", "0.02");
    const double direct_clean =
        bench::findRow(outcomes, "allreduce_octo_direct", "0");
    const double direct_faulty =
        bench::findRow(outcomes, "allreduce_octo_direct", "0.02");
    const bool rate_ok = ring_faulty < ring_clean &&
                         direct_faulty < direct_clean &&
                         ring_faulty > 0 && direct_faulty > 0;

    const double kill_base =
        bench::findRow(outcomes, "link_kill", "healthy");
    const double kill_bw =
        bench::findRow(outcomes, "link_kill", "one_x16_down");
    const bool kill_ok =
        bench::findRow(outcomes, "link_kill_completed",
                       "one_x16_down") == 1 &&
        kill_bw > 0 && kill_bw < kill_base &&
        bench::findRow(outcomes, "link_kill_reroutes",
                       "one_x16_down") > 0;

    const double flops40 = bench::findRow(outcomes, "cu_harvest", "40");
    const double flops28 = bench::findRow(outcomes, "cu_harvest", "28");
    const bool harvest_ok =
        flops40 > 0 &&
        std::abs(flops28 / flops40 - 28.0 / 40.0) < 1e-9;

    const double hbm0 = bench::findRow(outcomes, "hbm_blackout", "0");
    const double hbm16 = bench::findRow(outcomes, "hbm_blackout", "16");
    const bool hbm_ok =
        hbm0 > 0 && std::abs(hbm16 / hbm0 - 112.0 / 128.0) < 1e-9;

    return bench::shapeCheck(
        "ablation_resilience",
        rate_ok && kill_ok && harvest_ok && hbm_ok,
        "retried chunks cost bandwidth but never correctness; a "
        "killed x16 reroutes and the all-reduce completes degraded; "
        "peak flops scale 28/40 under harvest and peak HBM bandwidth "
        "112/128 with 16 channels dark") &&
           bench::allOk(outcomes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv, bench::Flags::sweep);
    return report(args) ? 0 : 1;
}

/**
 * @file
 * Ablation bench for paper Fig. 13: the cooperative multi-XCD
 * dispatch protocol. Measures kernel completion versus the number
 * of XCDs cooperating in the partition, the high-priority ACE
 * synchronization traffic, and the round-robin vs blocked workgroup
 * distribution policies (L2 reuse vs bandwidth spread).
 *
 * Sweep-shaped: each partition size / policy is an independent
 * SweepCase (own ApuSystem, EventQueue, stats), so the whole figure
 * parallelizes with --jobs N and exports JSON with --json FILE.
 */

#include "bench_util.hh"
#include "core/apu_system.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;

namespace
{

hsa::AqlPacket
makeKernel(std::uint64_t grid)
{
    hsa::AqlPacket pkt;
    pkt.grid_workgroups = grid;
    pkt.work.flops = 256 * 20000;
    pkt.work.dtype = gpu::DataType::fp32;
    pkt.work.pipe = gpu::Pipe::vector;
    pkt.work.bytes_read = 8192;
    pkt.work.bytes_written = 4096;
    pkt.read_stride = 8192;
    pkt.write_stride = 4096;
    return pkt;
}

/** One point of the scaling curve: a 456-workgroup kernel (2 waves
 *  on all 228 CUs) on an n-XCD partition built from one package. */
void
dispatchCase(unsigned n, bench::RowSink &sink)
{
    ApuSystem sys(soc::mi300aConfig());
    auto &pkg = sys.package();
    std::vector<gpu::Xcd *> xs;
    std::vector<fabric::NodeId> nodes;
    std::vector<unsigned> ids;
    for (unsigned i = 0; i < n; ++i) {
        xs.push_back(pkg.xcd(i));
        nodes.push_back(pkg.xcdNode(i));
        ids.push_back(i);
    }
    hsa::Partition part(&pkg, "bench_part", xs, pkg.scopes(),
                        pkg.network(), nodes, pkg.iodNode(0), ids);
    auto pkt = makeKernel(456);
    pkt.work.read_base = 0;
    pkt.work.write_base = 1u << 30;
    const auto res = part.dispatch(0, pkt);
    const double t = secondsFromTicks(res.complete);
    const std::string x = std::to_string(n) + "_xcds";
    sink.row("kernel_time", x, t * 1e6, "us");
    sink.row("sync_messages", x, res.sync_messages, "msgs");
}

/** Policy ablation: a streaming kernel under one distribution
 *  policy (reuse-heavy kernels favor blocked; streams round-robin). */
void
policyCase(hsa::DistributionPolicy policy, const std::string &label,
           bench::RowSink &sink)
{
    ApuSystem sys(soc::mi300aConfig());
    auto w = workloads::streamTriad(1 << 19);
    w.phases[0].grid_workgroups = 512;
    const auto rep = sys.run(w, 1, policy);
    sink.row("policy_stream", label, rep.total_s * 1e6, "us");
}

bool
report(const bench::SweepArgs &args)
{
    bench::printHeader(
        "fig13", "multi-XCD cooperative dispatch scaling");

    std::vector<bench::SweepCase> cases;
    for (unsigned n : {1u, 2u, 3u, 6u}) {
        cases.push_back({"dispatch_" + std::to_string(n) + "xcd",
                         [n](bench::RowSink &s) { dispatchCase(n, s); }});
    }
    cases.push_back({"policy_round_robin", [](bench::RowSink &s) {
        policyCase(hsa::DistributionPolicy::roundRobin, "round_robin",
                   s);
    }});
    cases.push_back({"policy_blocked", [](bench::RowSink &s) {
        policyCase(hsa::DistributionPolicy::blocked, "blocked", s);
    }});

    const auto outcomes = bench::runCases("fig13", cases, args);

    bool pass = true;
    const double t1 =
        bench::findRow(outcomes, "kernel_time", "1_xcds");
    for (unsigned n : {1u, 2u, 3u, 6u}) {
        const double sync = bench::findRow(
            outcomes, "sync_messages", std::to_string(n) + "_xcds", -1);
        if (sync != n - 1)
            pass = false;
    }
    const double t6 = bench::findRow(outcomes, "kernel_time", "6_xcds");
    if (!(t6 < t1 / 3.0))
        pass = false;   // must scale well past 3x

    return bench::shapeCheck(
        "fig13", pass,
        "one AQL packet spreads across the partition's ACEs; "
        "completion needs n-1 high-priority sync messages and the "
        "kernel scales with cooperating XCDs") &&
           bench::allOk(outcomes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv, bench::Flags::sweep);
    return report(args) ? 0 : 1;
}

/**
 * @file
 * Reproduces paper Fig. 18: scalable node topologies. (a) four
 * MI300A APUs fully connected with two x16 IF links per pair;
 * (b) eight MI300X accelerators fully connected with one x16 IF
 * link per pair plus PCIe host links. Reports p2p bandwidth and
 * latency, all-to-all exchange time, and bisection bandwidth.
 *
 * Also runs RCCL-style collective microbenchmarks per topology:
 * all-reduce, all-gather, and broadcast through the comm engine
 * with the ring and direct algorithms, reporting achieved
 * algorithmic bandwidth and link busy fractions.
 *
 * Sweep-shaped: each topology, all-to-all transfer size, and
 * (collective, algorithm) pair is an independent SweepCase
 * (--jobs N, --json FILE).
 */

#include <cmath>

#include "bench_util.hh"
#include "comm/comm_group.hh"
#include "soc/node_topology.hh"

using namespace ehpsim;
using namespace ehpsim::comm;
using namespace ehpsim::soc;

namespace
{

/** Fig. 18a: the quad-MI300A node. */
void
quadCase(bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    auto quad = NodeTopology::mi300aQuadNode(&root);
    const double p2p = quad->p2pBandwidth(0, 1);
    const Tick lat = quad->p2pLatency(0, 2);
    sink.row("p2p_bandwidth", "quad_pair", p2p / 1e9, "GB/s");
    sink.row("p2p_latency", "quad_pair",
             secondsFromTicks(lat) * 1e9, "ns");
    sink.row("bisection", "2v2", quad->bisectionBandwidth() / 1e9,
             "GB/s");
    sink.row("free_links_per_socket", "nic", quad->freeLinks(0),
             "x16");
    // Two x16 per pair = 128 GB/s per direction; 2 links spare.
    const bool ok =
        std::abs(p2p / 1e9 - 128.0) < 1.0 && quad->freeLinks(0) == 2;
    sink.row("quad_ok", "shape", ok ? 1 : 0, "bool");
}

/** Fig. 18b: the octo-MI300X node with PCIe host links. */
void
octoCase(bench::RowSink &sink)
{
    SimObject root(nullptr, "root");
    auto octo = NodeTopology::mi300xOctoNode(&root);
    const double p2p = octo->p2pBandwidth(2, 5);
    sink.row("p2p_bandwidth", "octo_pair", p2p / 1e9, "GB/s");
    sink.row("bisection", "4v4", octo->bisectionBandwidth() / 1e9,
             "GB/s");
    // Host reachability over PCIe.
    const double host_bw = octo->p2pBandwidth(0, 8);
    sink.row("host_link", "pcie", host_bw / 1e9, "GB/s");
    const bool ok = std::abs(p2p / 1e9 - 64.0) < 1.0 &&
                    octo->freeLinks(0) == 0 &&
                    std::abs(host_bw / 1e9 - 64.0) < 1.0;
    sink.row("octo_ok", "shape", ok ? 1 : 0, "bool");
}

/** All-to-all exchange time on one topology at one message size:
 *  the direct algorithm with the communicator's default chunking. */
void
allToAllCase(bool quad_node, std::uint64_t bytes,
             const std::string &label, bench::RowSink &sink)
{
    CommWorld w(quad_node ? NodeKind::quad : NodeKind::octo);
    const Tick a2a =
        w.run(Collective::allToAll, bytes, Algorithm::direct)
            ->finishTick();
    sink.row(quad_node ? "all_to_all_quad" : "all_to_all_octo", label,
             secondsFromTicks(a2a) * 1e3, "ms");
}

/**
 * One collective microbenchmark: @p coll with @p algo over all the
 * devices of one topology, reporting algbw and link busy fraction.
 */
void
collectiveCase(bool quad_node, Collective coll, Algorithm algo,
               std::uint64_t bytes, bench::RowSink &sink)
{
    CommParams params;
    params.chunk_bytes = 1 * MiB;
    CommWorld w(quad_node ? NodeKind::quad : NodeKind::octo, params);
    const OpHandle op = w.run(coll, bytes, algo);

    const std::string series = std::string(collectiveName(coll)) +
                               (quad_node ? "_quad" : "_octo");
    const std::string x = algorithmName(op->algorithm());
    sink.row(series, x, op->algoBandwidth() / 1e9, "GB/s");
    sink.row(series + "_busy", x, w.group.maxLinkUtilization(),
             "fraction");
}

bool
report(const bench::SweepArgs &args)
{
    bench::printHeader("fig18", "MI300 node topologies");

    std::vector<bench::SweepCase> cases;
    cases.push_back({"quad_node", quadCase});
    cases.push_back({"octo_node", octoCase});
    // Collective microbenchmarks: 64 MiB per rank, both algorithms
    // on both topologies.
    for (const bool quad : {true, false}) {
        for (const Collective coll :
             {Collective::allReduce, Collective::allGather,
              Collective::broadcast}) {
            for (const Algorithm algo :
                 {Algorithm::ring, Algorithm::direct}) {
                const std::string name =
                    std::string("coll_") +
                    (quad ? "quad_" : "octo_") +
                    collectiveName(coll) + "_" +
                    algorithmName(algo);
                cases.push_back(
                    {name, [quad, coll, algo](bench::RowSink &s) {
                         collectiveCase(quad, coll, algo, 64 * MiB,
                                        s);
                     }});
            }
        }
    }
    cases.push_back({"a2a_quad_256MB", [](bench::RowSink &s) {
        allToAllCase(true, 256u << 20, "256MB", s);
    }});
    cases.push_back({"a2a_quad_64MB", [](bench::RowSink &s) {
        allToAllCase(true, 64u << 20, "64MB", s);
    }});
    cases.push_back({"a2a_octo_64MB", [](bench::RowSink &s) {
        allToAllCase(false, 64u << 20, "64MB", s);
    }});
    cases.push_back({"a2a_octo_16MB", [](bench::RowSink &s) {
        allToAllCase(false, 16u << 20, "16MB", s);
    }});

    const auto outcomes = bench::runCases("fig18", cases, args);

    // Analytic all-reduce bounds on the quad node (128 GB/s pair
    // links): ring <= bw*N/(2(N-1)), direct <= bw*N/2.
    const double ring_bw =
        bench::findRow(outcomes, "all_reduce_quad", "ring");
    const double direct_bw =
        bench::findRow(outcomes, "all_reduce_quad", "direct");
    const bool coll_ok = ring_bw > 0.7 * 128.0 * 4 / 6 &&
                         ring_bw < 1.02 * 128.0 * 4 / 6 &&
                         direct_bw > 2.0 * ring_bw;

    const bool pass =
        bench::findRow(outcomes, "quad_ok", "shape") == 1 &&
        bench::findRow(outcomes, "octo_ok", "shape") == 1 && coll_ok;

    return bench::shapeCheck(
        "fig18", pass,
        "quad-APU node: 2x16 IF per pair (128 GB/s), 2 links spare "
        "per socket; octo-MI300X node: fully connected at 64 GB/s "
        "with the last link as PCIe to the host; all-reduce tracks "
        "the ring bound and direct wins on the dedicated links") &&
           bench::allOk(outcomes);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const auto args = bench::parseArgs(argc, argv, bench::Flags::sweep);
    return report(args) ? 0 : 1;
}

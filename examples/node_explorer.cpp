/**
 * @file
 * Node-architecture exploration (paper Sec. VIII, Fig. 18): build
 * the quad-MI300A and octo-MI300X reference nodes plus a custom
 * topology, and compare point-to-point bandwidth, latency,
 * all-to-all exchange time, and bisection bandwidth.
 *
 *   ./build/examples/node_explorer
 */

#include <cstdio>

#include "soc/node_topology.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

namespace
{

void
describe(NodeTopology &node, EventQueue &eq, const char *title)
{
    std::printf("\n== %s ==\n", title);
    const unsigned n = node.numEndpoints();
    std::printf("p2p bandwidth matrix (GB/s, one direction):\n     ");
    for (unsigned b = 0; b < n; ++b)
        std::printf("%6u", b);
    std::printf("\n");
    for (unsigned a = 0; a < n; ++a) {
        std::printf("%4u ", a);
        for (unsigned b = 0; b < n; ++b) {
            if (a == b)
                std::printf("     -");
            else
                std::printf("%6.0f", node.p2pBandwidth(a, b) / 1e9);
        }
        std::printf("\n");
    }
    std::printf("bisection bandwidth: %.0f GB/s\n",
                node.bisectionBandwidth() / 1e9);
    comm::CommGroup &group = *node.commGroup(&eq);
    const comm::OpHandle a2a =
        group.allToAll(0, 64u << 20, comm::Algorithm::direct);
    group.waitAll();
    std::printf("64 MB all-to-all: %.2f ms\n", a2a->seconds() * 1e3);
}

} // anonymous namespace

int
main()
{
    // One queue drives every node's communicator; each exchange
    // runs on its own node's links.
    EventQueue eq;
    SimObject root(nullptr, "root", nullptr);

    // Fig. 18(a): four MI300A APUs, fully connected, 2 x16 IF links
    // per pair, two links spare per socket for NIC/storage.
    auto quad = NodeTopology::mi300aQuadNode(&root);
    describe(*quad, eq, "Fig. 18a: 4x MI300A, fully connected IF");
    for (unsigned s = 0; s < 4; ++s) {
        std::printf("socket %u free x16 links: %u\n", s,
                    quad->freeLinks(s));
    }

    // Fig. 18(b): eight MI300X accelerators + two EPYC hosts.
    auto octo = NodeTopology::mi300xOctoNode(&root);
    describe(*octo, eq, "Fig. 18b: 8x MI300X + EPYC hosts over PCIe");

    // A custom exploration: a 2D ring of four sockets with doubled
    // links on one axis (what if the node spent all eight links on
    // two neighbors?).
    NodeTopology ring(&root, "ring");
    for (unsigned i = 0; i < 4; ++i)
        ring.addSocket("s" + std::to_string(i), 8);
    for (unsigned i = 0; i < 4; ++i)
        ring.connect(i, (i + 1) % 4, 4);
    describe(ring, eq, "custom: 4-socket ring, 4x16 per edge");
    std::printf("\nObservation: the ring doubles neighbor bandwidth "
                "but halves bisection versus\nthe fully-connected "
                "Fig. 18a topology and adds a hop for opposite "
                "sockets.\n");
    return 0;
}

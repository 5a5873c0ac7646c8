/**
 * @file
 * Tests for multi-socket node topologies: point-to-point routing
 * across sockets (Fig. 18), the socket link budget, and energy
 * reporting.
 */

#include <gtest/gtest.h>

#include "core/apu_system.hh"
#include "soc/node_topology.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::soc;

// ---------------------------------------------------------------------
// Node-topology point-to-point routing (Fig. 18)
// ---------------------------------------------------------------------

TEST(NodeRouting, QuadNodePairsAreOneHop)
{
    SimObject root(nullptr, "root");
    auto node = soc::NodeTopology::mi300aQuadNode(&root);
    for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = 0; b < 4; ++b) {
            if (a == b)
                continue;
            EXPECT_EQ(node->network()->hopCount(node->nodeId(a),
                                                node->nodeId(b)),
                      1u);
            // Two ganged x16 IF links: 128 GB/s, 30 ns.
            EXPECT_DOUBLE_EQ(node->p2pBandwidth(a, b), 128e9);
            EXPECT_EQ(node->p2pLatency(a, b), 30'000u);
        }
    }
}

TEST(NodeRouting, OctoNodeDeviceAndHostHops)
{
    SimObject root(nullptr, "root");
    auto node = soc::NodeTopology::mi300xOctoNode(&root);
    auto *net = node->network();

    // Accelerator pairs: one x16 IF link, one hop.
    EXPECT_EQ(net->hopCount(node->nodeId(0), node->nodeId(7)), 1u);
    EXPECT_DOUBLE_EQ(node->p2pBandwidth(0, 7), 64e9);
    EXPECT_EQ(node->p2pLatency(0, 7), 30'000u);

    // Host to its own accelerators: one PCIe hop.
    const unsigned host0 = 8, host1 = 9;
    EXPECT_EQ(net->hopCount(node->nodeId(host0), node->nodeId(0)),
              1u);
    EXPECT_DOUBLE_EQ(node->p2pBandwidth(host0, 0), 64e9);
    EXPECT_EQ(node->p2pLatency(host0, 0), 150'000u);

    // Host to the other half's accelerators: PCIe + IF, two hops.
    EXPECT_EQ(net->hopCount(node->nodeId(host0), node->nodeId(4)),
              2u);
    EXPECT_DOUBLE_EQ(node->p2pBandwidth(host0, 4), 64e9);
    EXPECT_EQ(node->p2pLatency(host0, 4), 180'000u);

    // Host to host: PCIe, IF, PCIe — three hops, PCIe latency twice.
    EXPECT_EQ(net->hopCount(node->nodeId(host0), node->nodeId(host1)),
              3u);
    EXPECT_DOUBLE_EQ(node->p2pBandwidth(host0, host1), 64e9);
    EXPECT_EQ(node->p2pLatency(host0, host1), 330'000u);
}

TEST(NodeRouting, MultiHopSendPaysEveryHop)
{
    SimObject root(nullptr, "root");
    auto node = soc::NodeTopology::mi300xOctoNode(&root);
    auto *net = node->network();
    // One MiB host0 -> host1 crosses three links; serialization is
    // charged per hop, so arrival exceeds one-hop time plus the
    // summed propagation latencies.
    const auto res = net->send(0, node->nodeId(8), node->nodeId(9),
                               1 * MiB);
    EXPECT_EQ(res.hops, 3u);
    const Tick one_hop_ser = serializationTicks(1 * MiB, 64e9);
    EXPECT_EQ(res.arrival, 3 * one_hop_ser + 330'000u);
}

TEST(NodeTopologyLimits, SocketLinkBudgetIsValidated)
{
    SimObject root(nullptr, "root");
    soc::NodeTopology topo(&root, "caps");
    EXPECT_THROW(topo.addSocket("none", 0), std::runtime_error);
    EXPECT_THROW(topo.addSocket("nine", 9), std::runtime_error);

    const unsigned a = topo.addSocket("a", 8);
    const unsigned b = topo.addSocket("b", 8);
    const unsigned c = topo.addSocket("c", 8);
    EXPECT_THROW(topo.connect(a, a, 1), std::runtime_error);
    EXPECT_THROW(topo.connect(a, b, 0), std::runtime_error);
    topo.connect(a, b, 6);
    EXPECT_EQ(topo.freeLinks(a), 2u);
    // Over-subscribing the remaining budget fails loudly...
    EXPECT_THROW(topo.connect(a, c, 3), std::runtime_error);
    // ...and leaves the accounting untouched.
    EXPECT_EQ(topo.freeLinks(a), 2u);
    EXPECT_EQ(topo.freeLinks(c), 8u);
    topo.connect(a, c, 2);
    EXPECT_EQ(topo.freeLinks(a), 0u);
}

// ---------------------------------------------------------------------
// Energy reporting
// ---------------------------------------------------------------------

TEST(Energy, EventRunReportsEnergy)
{
    core::ApuSystem sys(mi300aConfig());
    auto w = workloads::streamTriad(1 << 18);
    w.phases[0].grid_workgroups = 256;
    const auto rep = sys.run(w);
    EXPECT_GT(rep.fabric_energy_j, 0.0);
    EXPECT_GT(rep.hbm_energy_j, 0.0);
    EXPECT_GT(rep.compute_energy_j, 0.0);
    EXPECT_GT(rep.averagePowerWatts(), 0.0);
    // A memory-bound kernel's HBM energy dwarfs its math energy.
    EXPECT_GT(rep.hbm_energy_j, rep.compute_energy_j);
}

TEST(Energy, EnergyScalesWithWork)
{
    core::ApuSystem sys(mi300aConfig());
    auto small = workloads::streamTriad(1 << 17);
    small.phases[0].grid_workgroups = 128;
    auto large = workloads::streamTriad(1 << 19);
    large.phases[0].grid_workgroups = 512;
    const auto rs = sys.run(small);
    const auto rl = sys.run(large);
    EXPECT_GT(rl.totalEnergyJoules(),
              2.0 * rs.totalEnergyJoules());
}

#include "soc/node_topology.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/pdes/pdes_engine.hh"

namespace ehpsim
{
namespace soc
{

NodeTopology::NodeTopology(SimObject *parent, const std::string &name)
    : SimObject(parent, name)
{
    net_ = std::make_unique<fabric::Network>(this, "node_fabric");
}

unsigned
NodeTopology::addEndpoint(const std::string &name, unsigned links,
                          double x16_gbps, bool is_host)
{
    checkMutable("addSocket/addHost");
    names_.push_back(name);
    nodes_.push_back(net_->addNode(name, fabric::NodeKind::device));
    // Every endpoint (socket or host) is its own partition domain:
    // the prospective PDES logical process. Declared before any
    // connect() so cross-domain links feed the lookahead table.
    net_->setNodeDomain(nodes_.back(),
                        static_cast<int>(names_.size() - 1));
    total_links_.push_back(links);
    used_links_.push_back(0);
    link_gbps_.push_back(x16_gbps);
    is_host_.push_back(is_host);
    return static_cast<unsigned>(names_.size() - 1);
}

unsigned
NodeTopology::addSocket(const std::string &name, unsigned num_x16_links,
                        double x16_gbps)
{
    // Each MI300 socket physically exposes eight x16 links (four
    // IF-only plus four IF-or-PCIe, paper Sec. VIII); anything else
    // is a configuration bug, not a modeling choice.
    if (num_x16_links == 0 || num_x16_links > mi300LinksPerSocket) {
        fatal("socket '", name, "': ", num_x16_links,
              " x16 links requested, but an MI300 socket exposes 1..",
              mi300LinksPerSocket);
    }
    return addEndpoint(name, num_x16_links, x16_gbps, false);
}

unsigned
NodeTopology::addHost(const std::string &name)
{
    // Hosts hang off PCIe; give them ample lanes.
    return addEndpoint(name, 16, 64.0, true);
}

void
NodeTopology::connect(unsigned a, unsigned b, unsigned num_x16,
                      bool pcie)
{
    checkMutable("connect");
    if (a >= numEndpoints() || b >= numEndpoints())
        fatal("bad socket indices ", a, ", ", b, " (",
              numEndpoints(), " endpoints)");
    if (a == b)
        fatal("cannot connect '", names_[a], "' to itself");
    if (num_x16 == 0)
        fatal("connect('", names_[a], "', '", names_[b],
              "'): zero x16 links");
    for (unsigned e : {a, b}) {
        if (used_links_[e] + num_x16 > total_links_[e]) {
            fatal("socket '", names_[e], "' out of x16 links: "
                  "connecting '", names_[a], "' <-> '", names_[b],
                  "' needs ", num_x16, " but only ",
                  total_links_[e] - used_links_[e], " of ",
                  total_links_[e], " remain");
        }
    }
    used_links_[a] += num_x16;
    used_links_[b] += num_x16;

    fabric::LinkParams p =
        pcie ? fabric::pcieLinkParams() : fabric::serdesIfLinkParams();
    const double per_dir =
        std::min(link_gbps_[a], link_gbps_[b]) * num_x16;
    p.bandwidth = gbps(per_dir);
    net_->connect(nodes_[a], nodes_[b], p);
    connections_.push_back(SocketLink{a, b, num_x16, pcie});
}

unsigned
NodeTopology::freeLinks(unsigned socket) const
{
    return total_links_[socket] - used_links_[socket];
}

void
NodeTopology::checkMutable(const char *what) const
{
    if (comm_) {
        fatal(name(), ": ", what, " after commGroup(): the "
              "communicator caches routes, so the topology is "
              "frozen once it exists");
    }
}

fabric::NodeId
NodeTopology::nodeId(unsigned endpoint) const
{
    if (endpoint >= numEndpoints())
        fatal("bad endpoint index ", endpoint);
    return nodes_[endpoint];
}

bool
NodeTopology::isHost(unsigned endpoint) const
{
    if (endpoint >= numEndpoints())
        fatal("bad endpoint index ", endpoint);
    return is_host_[endpoint];
}

std::vector<fabric::NodeId>
NodeTopology::deviceRanks() const
{
    std::vector<fabric::NodeId> ranks;
    for (unsigned i = 0; i < numEndpoints(); ++i) {
        if (!is_host_[i])
            ranks.push_back(nodes_[i]);
    }
    return ranks;
}

comm::CommGroup *
NodeTopology::commGroup(EventQueue *eq, const comm::CommParams &params)
{
    if (comm_)
        fatal(name(), ": commGroup() called twice (one communicator "
              "per topology)");
    comm_ = std::make_unique<comm::CommGroup>(this, "comm", net_.get(),
                                              deviceRanks(), eq, params);
    return comm_.get();
}

double
NodeTopology::p2pBandwidth(unsigned a, unsigned b) const
{
    // Bottleneck link along the route.
    const auto &path = net_->path(nodes_[a], nodes_[b]);
    double bw = 1e30;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        auto *l = const_cast<fabric::Network *>(net_.get())
                      ->link(path[i], path[i + 1]);
        bw = std::min(bw, l->params().bandwidth);
    }
    return bw;
}

Tick
NodeTopology::p2pLatency(unsigned a, unsigned b)
{
    const auto &path = net_->path(nodes_[a], nodes_[b]);
    Tick t = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        t += net_->link(path[i], path[i + 1])->params().latency;
    return t;
}

double
NodeTopology::bisectionBandwidth() const
{
    // Split endpoints into two halves by index; sum direct-link
    // bandwidth crossing the cut (a standard estimate for the
    // fully-connected topologies of Fig. 18).
    const unsigned half = numEndpoints() / 2;
    double bw = 0;
    for (const auto &c : connections_) {
        const bool a_low = c.a < half;
        const bool b_low = c.b < half;
        if (a_low != b_low) {
            const double per_dir =
                std::min(link_gbps_[c.a], link_gbps_[c.b]) * c.num_x16;
            bw += per_dir * 1e9;
        }
    }
    return bw;
}

std::unique_ptr<NodeTopology>
NodeTopology::mi300aQuadNode(SimObject *parent)
{
    auto node = std::make_unique<NodeTopology>(parent,
                                               "mi300a_quad_node");
    for (unsigned i = 0; i < 4; ++i)
        node->addSocket("mi300a" + std::to_string(i), 8);
    // Fully connected, two x16 IF links per pair: uses 6 of the 8
    // links per socket, leaving two for NIC/storage (paper Fig. 18a).
    for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = a + 1; b < 4; ++b)
            node->connect(a, b, 2, false);
    }
    return node;
}

std::unique_ptr<NodeTopology>
NodeTopology::mi300xOctoNode(SimObject *parent)
{
    auto node = std::make_unique<NodeTopology>(parent,
                                               "mi300x_octo_node");
    for (unsigned i = 0; i < 8; ++i)
        node->addSocket("mi300x" + std::to_string(i), 8);
    const unsigned host0 = node->addHost("epyc0");
    const unsigned host1 = node->addHost("epyc1");
    // Fully connected among the accelerators: one x16 IF link per
    // pair consumes 7 links per socket (paper Fig. 18b).
    for (unsigned a = 0; a < 8; ++a) {
        for (unsigned b = a + 1; b < 8; ++b)
            node->connect(a, b, 1, false);
    }
    // The last link of each accelerator is PCIe back to a host.
    for (unsigned a = 0; a < 8; ++a)
        node->connect(a, a < 4 ? host0 : host1, 1, true);
    return node;
}

CommWorld::CommWorld(NodeKind kind, const comm::CommParams &params,
                     unsigned pdes_partitions)
    : root(nullptr, "root"),
      topo(kind == NodeKind::quad
               ? NodeTopology::mi300aQuadNode(&root)
               : NodeTopology::mi300xOctoNode(&root)),
      group(*topo->commGroup(&eq, params))
{
    if (pdes_partitions > 0) {
        engine_ = std::make_unique<pdes::PdesEngine>(
            &eq, topo->network(), pdes_partitions);
        group.attachPdes(engine_.get());
    }
}

CommWorld::~CommWorld() = default;

comm::OpHandle
CommWorld::run(comm::Collective coll, std::uint64_t bytes,
               comm::Algorithm algo)
{
    comm::OpHandle op = group.collective(coll, 0, bytes, algo);
    group.waitAll();
    return op;
}

} // namespace soc
} // namespace ehpsim

#include "soc/multi_socket.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace soc
{

MultiSocketNode::MultiSocketNode(SimObject *parent,
                                 const std::string &name,
                                 const ProductConfig &cfg,
                                 unsigned num_sockets,
                                 unsigned x16_per_pair)
    : SimObject(parent, name),
      local_accesses(this, "local_accesses",
                     "flat accesses served by the local socket"),
      remote_accesses(this, "remote_accesses",
                      "flat accesses crossing IF links"),
      remote_bytes(this, "remote_bytes",
                   "bytes moved between sockets"),
      socket_capacity_(cfg.hbm.capacity_bytes)
{
    if (num_sockets < 2)
        fatal("a multi-socket node needs at least two sockets");
    topo_ = std::make_unique<NodeTopology>(this, "topology");
    for (unsigned s = 0; s < num_sockets; ++s) {
        sockets_.push_back(std::make_unique<Package>(
            this, "socket" + std::to_string(s), cfg));
        topo_->addSocket("s" + std::to_string(s),
                         cfg.iods.size() * cfg.io_links_per_iod,
                         cfg.io_link_gbps);
    }
    for (unsigned a = 0; a < num_sockets; ++a) {
        for (unsigned b = a + 1; b < num_sockets; ++b)
            topo_->connect(a, b, x16_per_pair, false);
    }
}

std::uint64_t
MultiSocketNode::totalCapacity() const
{
    return socket_capacity_ * sockets_.size();
}

unsigned
MultiSocketNode::socketOf(Addr addr) const
{
    const auto s = static_cast<unsigned>(addr / socket_capacity_);
    if (s >= sockets_.size())
        fatal("flat address 0x", std::hex, addr,
              " beyond node capacity");
    return s;
}

mem::AccessResult
MultiSocketNode::accessFlat(unsigned from_socket, unsigned xcd_index,
                            Tick when, Addr addr,
                            std::uint64_t bytes, bool write)
{
    const unsigned home = socketOf(addr);
    const Addr local = addr % socket_capacity_;
    Package &from = *sockets_[from_socket];

    if (home == from_socket) {
        ++local_accesses;
        return from.memAccessFrom(from.xcdNode(xcd_index), when,
                                  local, bytes, write);
    }

    ++remote_accesses;
    remote_bytes += static_cast<double>(bytes);
    auto *net = topo_->network();
    const auto a = net->nodeByName("s" + std::to_string(from_socket));
    const auto b = net->nodeByName("s" + std::to_string(home));

    // The remote package serves the request from its own fabric
    // entry (the IF link lands on an IOD's I/O port).
    Package &target = *sockets_[home];
    return fabric::roundTrip(*net, when, a, b, bytes, write,
                             [&](Tick t) {
                                 return target.memAccessFrom(
                                     target.ioNode(0), t, local,
                                     bytes, write);
                             });
}

Tick
MultiSocketNode::crossSocketHandoff(Tick when, unsigned producer,
                                    unsigned consumer)
{
    if (producer >= numSockets() || consumer >= numSockets())
        fatal("bad socket indices");
    // Producer releases at system scope: every XCD flushes to the
    // visibility point (software coherence, Sec. IV.D).
    Package &prod = *sockets_[producer];
    Tick released = when;
    for (unsigned x = 0; x < prod.numXcds(); ++x) {
        const auto op = prod.scopes()->release(
            when, x, coherence::Scope::system);
        released = std::max(released, op.complete);
    }
    // Flag crosses the inter-socket link.
    auto *net = topo_->network();
    const auto a = net->nodeByName("s" + std::to_string(producer));
    const auto b = net->nodeByName("s" + std::to_string(consumer));
    const Tick flag = net->send(released, a, b, 64, true).arrival;
    // Consumer acquires at system scope.
    Package &cons = *sockets_[consumer];
    Tick acquired = flag;
    for (unsigned x = 0; x < cons.numXcds(); ++x) {
        const auto op = cons.scopes()->acquire(
            flag, x, coherence::Scope::system);
        acquired = std::max(acquired, op.complete);
    }
    return acquired;
}

} // namespace soc
} // namespace ehpsim

#include "fabric/network.hh"

#include "sim/access_tracker.hh"
#include "sim/logging.hh"

namespace ehpsim
{
namespace fabric
{

Network::Network(SimObject *parent, const std::string &name)
    : SimObject(parent, name),
      messages(this, "messages", "messages sent"),
      total_hops(this, "total_hops", "sum of hops over all messages"),
      links_killed(this, "links_killed",
                   "link pairs failed by fault injection"),
      links_derated(this, "links_derated",
                    "link-pair derating events"),
      reroutes(this, "reroutes",
               "route-table recomputes forced by link faults",
               [this] {
                   return static_cast<double>(route_recomputes_);
               })
{
}

NodeId
Network::addNode(const std::string &name, NodeKind kind)
{
    const auto id = static_cast<NodeId>(node_names_.size());
    if (!id_by_name_.emplace(name, id).second)
        fatal("duplicate fabric node name '", name, "'");
    node_names_.push_back(name);
    node_kinds_.push_back(kind);
    adjacency_.emplace_back();
    invalidateRoutes();
    return id;
}

void
Network::connect(NodeId a, NodeId b, const LinkParams &params,
                 mem::OccupancyTracker::Store store)
{
    if (a >= numNodes() || b >= numNodes() || a == b)
        fatal("bad fabric connection ", a, " <-> ", b);
    const auto key_ab = std::make_pair(a, b);
    const auto key_ba = std::make_pair(b, a);
    if (links_.count(key_ab))
        fatal("duplicate link ", nodeName(a), " -> ", nodeName(b));
    links_[key_ab] = std::make_unique<Link>(
        this, nodeName(a) + "_to_" + nodeName(b), params, store);
    links_[key_ba] = std::make_unique<Link>(
        this, nodeName(b) + "_to_" + nodeName(a), params, store);
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
    invalidateRoutes();
}

NodeId
Network::nodeByName(const std::string &name) const
{
    const auto it = id_by_name_.find(name);
    if (it == id_by_name_.end())
        fatal("unknown fabric node '", name, "'");
    return it->second;
}

const std::string &
Network::nodeName(NodeId id) const
{
    if (id >= node_names_.size())
        fatal("bad node id ", id);
    return node_names_[id];
}

Link *
Network::link(NodeId a, NodeId b)
{
    auto it = links_.find(std::make_pair(a, b));
    if (it == links_.end())
        fatal("no link ", nodeName(a), " -> ", nodeName(b));
    return it->second.get();
}

void
Network::killLink(NodeId a, NodeId b)
{
    Link *ab = link(a, b);
    Link *ba = link(b, a);
    if (!ab->alive())
        fatal("link ", nodeName(a), " <-> ", nodeName(b),
              " already killed");
    ab->kill();
    ba->kill();
    // Structural mutation: any event sending over the fabric at the
    // same tick races with the route invalidation below.
    EHPSIM_TRACK_WRITE(this, "topology");
    std::erase(adjacency_[a], b);
    std::erase(adjacency_[b], a);
    faulted_ = true;
    ++links_killed;
    invalidateRoutes();
}

void
Network::derateLink(NodeId a, NodeId b, double factor)
{
    Link *ab = link(a, b);
    Link *ba = link(b, a);
    if (!ab->alive())
        fatal("cannot derate killed link ", nodeName(a), " <-> ",
              nodeName(b));
    ab->derate(factor);
    ba->derate(factor);
    ++links_derated;
}

bool
Network::linkAlive(NodeId a, NodeId b) const
{
    const auto it = links_.find(std::make_pair(a, b));
    return it != links_.end() && it->second->alive();
}

bool
Network::reachable(NodeId src, NodeId dst) const
{
    if (src >= numNodes() || dst >= numNodes())
        fatal("bad route endpoints ", src, " -> ", dst);
    if (src == dst)
        return true;
    if (!routes_valid_[src])
        computeRoutesFrom(src);
    return !routes_[src][dst].empty();
}

std::vector<Link *>
Network::allLinks()
{
    std::vector<Link *> out;
    out.reserve(links_.size());
    for (auto &kv : links_)
        out.push_back(kv.second.get());
    return out;
}

void
Network::invalidateRoutes()
{
    routes_.assign(numNodes(), {});
    routes_valid_.assign(numNodes(), false);
}

void
Network::computeRoutesFrom(NodeId src) const
{
    if (faulted_)
        ++route_recomputes_;
    const std::size_t n = numNodes();
    std::vector<NodeId> prev(n, src);
    std::vector<char> seen(n, 0);
    // Breadth-first visit order, which doubles as the frontier.
    std::vector<NodeId> order{src};
    seen[src] = 1;
    for (std::size_t head = 0; head < order.size(); ++head) {
        const NodeId u = order[head];
        for (NodeId v : adjacency_[u]) {
            if (!seen[v]) {
                seen[v] = 1;
                prev[v] = u;
                order.push_back(v);
            }
        }
    }
    // A reached node's route is its BFS parent's plus the last hop;
    // the visit order reaches every parent first. Unreachable nodes
    // keep an empty route, which route() fatals on.
    auto &table = routes_[src];
    table.assign(n, {});
    for (std::size_t i = 1; i < order.size(); ++i) {
        const NodeId v = order[i];
        table[v] = table[prev[v]];
        table[v].push_back(links_.find({prev[v], v})->second.get());
    }
    routes_valid_[src] = true;
}

const std::vector<Link *> &
Network::route(NodeId src, NodeId dst) const
{
    static const std::vector<Link *> none;
    if (src >= numNodes() || dst >= numNodes())
        fatal("bad route endpoints ", src, " -> ", dst);
    if (src == dst)
        return none;
    if (!routes_valid_[src])
        computeRoutesFrom(src);
    const auto &r = routes_[src][dst];
    if (r.empty()) {
        fatal("fabric node '", nodeName(dst),
              "' unreachable from '", nodeName(src), "'",
              links_killed.value() > 0
                  ? " (link failures partitioned the fabric)"
                  : "");
    }
    return r;
}

MessageResult
Network::send(Tick when, NodeId src, NodeId dst, std::uint64_t bytes,
              bool high_priority)
{
    if (src == dst) {
        ++messages;
        MessageResult res;
        res.arrival = when;
        return res;
    }
    // Sends consult the route tables killLink() mutates.
    EHPSIM_TRACK_READ(this, "topology");
    EHPSIM_TRACK_WRITE(this, "stats.messages");
    MessageResult res;
    Tick t = when;
    for (Link *l : route(src, dst)) {
        t = l->transfer(t, bytes, high_priority);
        res.energy_pj += static_cast<double>(bytes) *
                         l->params().energy_pj_per_byte;
        ++res.hops;
    }
    ++messages;
    total_hops += res.hops;
    res.arrival = t;
    return res;
}

void
Network::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    w.putBool(faulted_);
    w.putU64(route_recomputes_);
    std::uint64_t valid = 0;
    for (std::size_t src = 0; src < routes_valid_.size(); ++src) {
        if (routes_valid_[src])
            ++valid;
    }
    w.putU64(valid);
    for (std::size_t src = 0; src < routes_valid_.size(); ++src) {
        if (routes_valid_[src])
            w.putU32(static_cast<std::uint32_t>(src));
    }
}

void
Network::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    // The base walk restored each Link's killed_ flag; mirror the
    // kills structurally by erasing dead edges from the adjacency
    // lists (order-preserving, so the BFS visits neighbors in the
    // same order the straight-through run would).
    for (const auto &kv : links_) {
        if (!kv.second->alive())
            std::erase(adjacency_[kv.first.first], kv.first.second);
    }
    invalidateRoutes();
    const bool faulted = r.getBool();
    const std::uint64_t recomputes = r.getU64();
    // Prewarm the sources that had valid route tables at save time
    // while faulted_ is still false: the checkpointed run computed
    // these before the save, so the replay must not count them as
    // post-fault recomputes.
    const std::uint64_t valid = r.getU64();
    for (std::uint64_t i = 0; i < valid; ++i) {
        const NodeId src = r.getU32();
        if (src >= numNodes())
            fatal("snapshot: route source ", src,
                  " out of range for a ", numNodes(),
                  "-node fabric — checkpoint/topology mismatch");
        computeRoutesFrom(src);
    }
    faulted_ = faulted;
    route_recomputes_ = recomputes;
}

double
Network::totalEnergyJoules() const
{
    double e = 0;
    for (const auto &kv : links_)
        e += kv.second->energyJoules();
    return e;
}

} // namespace fabric
} // namespace ehpsim

/**
 * @file
 * The Infinity Fabric network: named nodes joined by Link pairs,
 * with shortest-path routing.
 *
 * The "NoC" of MI300 spans multiple chips (paper Sec. IV.A): XCDs and
 * CCDs attach to their IOD's data fabric, the four IODs connect over
 * USR PHYs, HBM stacks hang off each IOD over the 2.5D interposer,
 * and x16 links leave the package. A Network models all of these as
 * one graph; messages traverse the minimum-hop path, paying each
 * link's serialization + latency, and cut-through is approximated by
 * charging serialization on every hop but overlapping propagation.
 */

#ifndef EHPSIM_FABRIC_NETWORK_HH
#define EHPSIM_FABRIC_NETWORK_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fabric/link.hh"

namespace ehpsim
{
namespace fabric
{

using NodeId = unsigned;

/** What a node represents; used for diagnostics and power mapping. */
enum class NodeKind
{
    iod,
    xcd,
    ccd,
    hbmStack,
    ioPort,
    device,     ///< external host, NIC, switch...
};

struct MessageResult
{
    Tick arrival = 0;
    unsigned hops = 0;
    double energy_pj = 0;
};

class Network : public SimObject
{
  public:
    Network(SimObject *parent, const std::string &name);

    /** Add a node; names must be unique. */
    NodeId addNode(const std::string &name, NodeKind kind);

    /** Connect two nodes with a pair of opposing links whose
     *  occupancy lives in @p store (see Link). */
    void connect(NodeId a, NodeId b, const LinkParams &params,
                 mem::OccupancyTracker::Store store =
                     mem::OccupancyTracker::Store::dense);

    std::size_t numNodes() const { return node_names_.size(); }

    NodeId nodeByName(const std::string &name) const;

    const std::string &nodeName(NodeId id) const;

    NodeKind nodeKind(NodeId id) const { return node_kinds_[id]; }

    /** The unidirectional link from @p a to @p b (fatal if absent). */
    Link *link(NodeId a, NodeId b);

    /**
     * Fail both directions of the a <-> b link pair at once (fault
     * injection). Routes are invalidated and recomputed around the
     * dead link on next use; sending to a node the failure cut off
     * fatals with both node names. Fatal when no live link joins
     * the pair.
     */
    void killLink(NodeId a, NodeId b);

    /**
     * Degrade both directions of the a <-> b link pair to
     * @p factor of their current rate (cumulative; 0 < factor <= 1).
     * Routing is unchanged: min-hop paths ignore bandwidth.
     */
    void derateLink(NodeId a, NodeId b, double factor);

    /** True while a live link joins @p a directly to @p b. */
    bool linkAlive(NodeId a, NodeId b) const;

    /** True when @p dst can still be reached from @p src. */
    bool reachable(NodeId src, NodeId dst) const;

    /** All links (both directions), for stats sweeps. */
    std::vector<Link *> allLinks();

    /**
     * The minimum-hop path from @p src to @p dst as its Links, in
     * hop order: empty when src == dst, fatal when @p dst is
     * unreachable. Tables are filled per source on first use and
     * dropped by every topology mutation (addNode, connect,
     * killLink), so do not hold the reference across one.
     */
    const std::vector<Link *> &route(NodeId src, NodeId dst) const;

    /** Hop count of the minimum path (0 when src == dst). */
    unsigned hopCount(NodeId src, NodeId dst) const
    {
        return static_cast<unsigned>(route(src, dst).size());
    }

    /**
     * Send @p bytes from @p src to @p dst starting at @p when.
     * Charges serialization+occupancy on every hop of route();
     * propagation latencies accumulate.
     */
    MessageResult send(Tick when, NodeId src, NodeId dst,
                       std::uint64_t bytes,
                       bool high_priority = false);

    /** Sum of transfer energy over all links, joules. */
    double totalEnergyJoules() const;

    /** @{ statistics */
    stats::Scalar messages;
    stats::Scalar total_hops;
    stats::Scalar links_killed;
    stats::Scalar links_derated;
    stats::Formula reroutes;
    /** @} */

    /**
     * @{ checkpoint (DESIGN.md §16). The base walk serializes every
     * Link child (liveness included); the Network appends its fault
     * flag, recompute counter, and the set of sources whose route
     * tables were valid. restore() erases dead edges
     * from the rebuilt adjacency (std::erase preserves the order of
     * the survivors, matching the straight-through kill sequence)
     * and recomputes the saved sources' routes *before* re-arming
     * the fault flag, so the prewarm never double-counts reroutes.
     */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    void invalidateRoutes();

    void computeRoutesFrom(NodeId src) const;

    std::vector<std::string> node_names_;
    std::vector<NodeKind> node_kinds_;
    std::map<std::string, NodeId> id_by_name_;
    std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Link>> links_;
    std::vector<std::vector<NodeId>> adjacency_;

    /**
     * Route table: routes_[src][dst] = the Links of the min-hop
     * path, filled per source on first use (routes_valid_[src]).
     */
    mutable std::vector<std::vector<std::vector<Link *>>> routes_;
    mutable std::vector<char> routes_valid_;

    /** Per-source route recomputes forced by link faults. */
    mutable std::uint64_t route_recomputes_ = 0;
    bool faulted_ = false;
};

} // namespace fabric
} // namespace ehpsim

#endif // EHPSIM_FABRIC_NETWORK_HH

/**
 * @file
 * Multi-XCD partitions and the cooperative dispatch protocol
 * (paper Sec. VI.A and Fig. 13).
 *
 * A Partition groups one or more XCDs into a single logical GPU.
 * When a dispatch packet arrives:
 *  1. an ACE in *each* XCD reads the AQL packet from the queue;
 *  2. each ACE launches only its subset of the grid's workgroups
 *     (the subset choice is a configurable policy trading L2 reuse
 *     against memory-bandwidth spread);
 *  3. the ACEs synchronize over the Infinity Fabric's high-priority
 *     channel as workgroups complete;
 *  4. a nominated XCD performs the release-scope operation and
 *     signals the completion signal.
 */

#ifndef EHPSIM_HSA_PARTITION_HH
#define EHPSIM_HSA_PARTITION_HH

#include <vector>

#include "coherence/gpu_scope.hh"
#include "fabric/network.hh"
#include "gpu/xcd.hh"
#include "hsa/aql.hh"

namespace ehpsim
{
namespace hsa
{

/** How workgroups are distributed across the partition's XCDs. */
enum class DistributionPolicy
{
    roundRobin,     ///< spread consecutive workgroups (max bandwidth)
    blocked,        ///< contiguous blocks per XCD (max L2 reuse)
};

/** Outcome of one kernel dispatch. */
struct DispatchResult
{
    Tick complete = 0;              ///< completion signal time
    std::uint64_t workgroups = 0;
    unsigned sync_messages = 0;     ///< ACE-to-ACE HP messages
    std::vector<std::uint64_t> per_xcd_workgroups;
};

class Partition : public SimObject
{
  public:
    /**
     * @param net Fabric for packet reads and ACE sync (may be null
     *        for fabric-less unit tests).
     * @param xcd_nodes Fabric node of each XCD (parallel to xcds).
     * @param queue_node Fabric node where queue memory lives.
     * @param scope_ids Index of each XCD within @p scopes (defaults
     *        to 0..n-1 when the controller holds only these XCDs).
     */
    Partition(SimObject *parent, const std::string &name,
              std::vector<gpu::Xcd *> xcds,
              coherence::ScopeController *scopes,
              fabric::Network *net = nullptr,
              std::vector<fabric::NodeId> xcd_nodes = {},
              fabric::NodeId queue_node = 0,
              std::vector<unsigned> scope_ids = {});

    unsigned numXcds() const
    {
        return static_cast<unsigned>(xcds_.size());
    }

    gpu::Xcd *xcd(unsigned i) { return xcds_[i]; }

    void setPolicy(DistributionPolicy p) { policy_ = p; }

    DistributionPolicy policy() const { return policy_; }

    /** Scope-controller index of each XCD (parallel to xcds). */
    const std::vector<unsigned> &scopeIds() const
    {
        return scope_ids_;
    }

    /** Dispatch one packet (Fig. 13 flow). */
    DispatchResult dispatch(Tick when, const AqlPacket &pkt);

    /** @{ statistics */
    stats::Scalar dispatches;
    stats::Scalar workgroups_launched;
    stats::Scalar sync_messages;
    /** @} */

  private:
    /** Workgroup index -> XCD assignment under the current policy. */
    unsigned xcdFor(std::uint64_t wg_index,
                    std::uint64_t grid_size) const;

    std::vector<gpu::Xcd *> xcds_;
    coherence::ScopeController *scopes_;
    fabric::Network *net_;
    std::vector<fabric::NodeId> xcd_nodes_;
    fabric::NodeId queue_node_;
    std::vector<unsigned> scope_ids_;
    DistributionPolicy policy_ = DistributionPolicy::roundRobin;
};

} // namespace hsa
} // namespace ehpsim

#endif // EHPSIM_HSA_PARTITION_HH

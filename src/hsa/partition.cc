#include "hsa/partition.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace hsa
{

namespace
{
/** AQL packet size: one 64 B cache line. */
constexpr std::uint64_t aqlPacketBytes = 64;
/** ACE-to-ACE synchronization message payload. */
constexpr std::uint64_t syncMessageBytes = 32;
} // anonymous namespace

Partition::Partition(SimObject *parent, const std::string &name,
                     std::vector<gpu::Xcd *> xcds,
                     coherence::ScopeController *scopes,
                     fabric::Network *net,
                     std::vector<fabric::NodeId> xcd_nodes,
                     fabric::NodeId queue_node,
                     std::vector<unsigned> scope_ids)
    : SimObject(parent, name),
      dispatches(this, "dispatches", "kernel dispatches"),
      workgroups_launched(this, "workgroups_launched",
                          "workgroups launched across all XCDs"),
      sync_messages(this, "sync_messages",
                    "high-priority ACE synchronization messages"),
      xcds_(std::move(xcds)),
      scopes_(scopes),
      net_(net),
      xcd_nodes_(std::move(xcd_nodes)),
      queue_node_(queue_node),
      scope_ids_(std::move(scope_ids))
{
    if (xcds_.empty())
        fatal("a partition needs at least one XCD");
    if (net_ && xcd_nodes_.size() != xcds_.size())
        fatal("xcd_nodes must parallel xcds when a fabric is given");
    if (scope_ids_.empty()) {
        for (unsigned i = 0; i < xcds_.size(); ++i)
            scope_ids_.push_back(i);
    }
    if (scope_ids_.size() != xcds_.size())
        fatal("scope_ids must parallel xcds");
}

unsigned
Partition::xcdFor(std::uint64_t wg_index, std::uint64_t grid_size) const
{
    const auto n = static_cast<std::uint64_t>(xcds_.size());
    switch (policy_) {
      case DistributionPolicy::roundRobin:
        return static_cast<unsigned>(wg_index % n);
      case DistributionPolicy::blocked: {
        const std::uint64_t block = (grid_size + n - 1) / n;
        return static_cast<unsigned>(
            std::min(wg_index / block, n - 1));
      }
    }
    panic("bad distribution policy");
}

DispatchResult
Partition::dispatch(Tick when, const AqlPacket &pkt)
{
    ++dispatches;

    if (pkt.type == PacketType::barrierAnd) {
        // HSA barrier-AND packet: complete once every listed signal
        // has completed; no workgroups launch.
        DispatchResult res;
        res.complete = when;
        for (const auto *sig : pkt.wait_signals) {
            if (!sig)
                continue;
            if (!sig->done())
                fatal("barrierAnd waits on a signal that never "
                      "completes (deadlock)");
            res.complete = std::max(res.complete,
                                    sig->completed_at);
        }
        if (pkt.completion) {
            pkt.completion->value -= 1;
            pkt.completion->completed_at = res.complete;
        }
        return res;
    }

    const unsigned n = numXcds();
    DispatchResult res;
    res.workgroups = pkt.grid_workgroups;
    res.per_xcd_workgroups.assign(n, 0);

    // Step 1 (Fig. 13 (1)): an ACE in each XCD reads the AQL packet
    // from the user-mode queue in memory.
    std::vector<Tick> ready(n, when);
    for (unsigned i = 0; i < n; ++i) {
        if (net_) {
            ready[i] = net_->send(when, queue_node_, xcd_nodes_[i],
                                  aqlPacketBytes).arrival;
        }
        // Kernel-begin acquire at the packet's scope.
        if (scopes_) {
            auto op = scopes_->acquire(ready[i], scope_ids_[i],
                                       pkt.acquire_scope);
            ready[i] = std::max(ready[i], op.complete);
        }
    }

    // Step 2 (Fig. 13 (2)): each ACE launches its subset of the
    // grid; the assignment policy is configurable (L2 reuse vs
    // bandwidth spread).
    std::vector<Tick> xcd_done = ready;
    for (std::uint64_t wg = 0; wg < pkt.grid_workgroups; ++wg) {
        const unsigned i = xcdFor(wg, pkt.grid_workgroups);
        gpu::WorkgroupWork work = pkt.work;
        work.read_base = pkt.work.read_base + wg * pkt.read_stride;
        work.write_base = pkt.work.write_base + wg * pkt.write_stride;
        const Tick done = xcds_[i]->dispatchWorkgroup(ready[i], work);
        xcd_done[i] = std::max(xcd_done[i], done);
        ++res.per_xcd_workgroups[i];
        ++workgroups_launched;
    }

    // Step 3 (Fig. 13 (3)): the ACEs synchronize; every XCD reports
    // completion to the nominated XCD 0 over the high-priority
    // fabric channel.
    Tick all_done = xcd_done[0];
    for (unsigned i = 1; i < n; ++i) {
        Tick arrive = xcd_done[i];
        if (net_) {
            arrive = net_->send(xcd_done[i], xcd_nodes_[i],
                                xcd_nodes_[0], syncMessageBytes,
                                true).arrival;
        }
        ++res.sync_messages;
        ++sync_messages;
        all_done = std::max(all_done, arrive);
    }

    // Step 4 (Fig. 13 (4)): the nominated XCD ensures release-scope
    // visibility of every XCD's writes, then signals completion.
    Tick release_done = all_done;
    if (scopes_) {
        for (unsigned i = 0; i < n; ++i) {
            auto op = scopes_->release(all_done, scope_ids_[i],
                                       pkt.release_scope);
            release_done = std::max(release_done, op.complete);
        }
    }
    if (pkt.completion) {
        pkt.completion->value -= 1;
        pkt.completion->completed_at = release_done;
    }
    res.complete = release_done;
    return res;
}

} // namespace hsa
} // namespace ehpsim

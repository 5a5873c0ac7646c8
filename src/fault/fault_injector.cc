#include "fault/fault_injector.hh"

#include <algorithm>

#include "sim/access_tracker.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace fault
{

FaultInjector::FaultInjector(SimObject *parent,
                             const std::string &name, FaultPlan plan,
                             EventQueue *eq)
    : SimObject(parent, name, eq),
      faults_injected(this, "faults_injected",
                      "faults of any kind delivered"),
      links_cut(this, "links_cut", "fabric link pairs killed"),
      links_derated(this, "links_derated",
                    "fabric link pairs derated"),
      channels_blacked_out(this, "channels_blacked_out",
                           "HBM channels blacked out"),
      chunk_faults(this, "chunk_faults",
                   "chunk transfer attempts failed in transit"),
      plan_(std::move(plan))
{
    if (!eventq())
        fatal(name, ": no event queue (pass one explicitly; faults "
              "are scheduled as events)");
    plan_.validate();
    // Timed faults are keyed one-shots so a checkpoint can save them
    // pending and a restore can replay them without re-arming.
    eventq()->registerKeyedFactory(
        "fault.link",
        [this](Tick when, std::uint64_t a0, std::uint64_t) {
            scheduleLinkFault(when, a0);
        });
    eventq()->registerKeyedFactory(
        "fault.chan",
        [this](Tick when, std::uint64_t a0, std::uint64_t) {
            scheduleChannelFault(when, a0);
        });
}

void
FaultInjector::attachNetwork(fabric::Network *net)
{
    if (!net)
        fatal(name(), ": null network");
    net_ = net;
}

void
FaultInjector::attachCommGroup(comm::CommGroup *group)
{
    if (!group)
        fatal(name(), ": null comm group");
    comm_ = group;
    // Stateless counter-based draw: the verdict is a pure hash of
    // (plan seed, op id, task index, attempt), so the failure
    // history is a property of the schedule, not of event order.
    const double rate = plan_.chunk_error_rate;
    const std::uint64_t seed = plan_.seed;
    comm_->setChunkFaultHook(
        [this, rate, seed](const comm::CommGroup::ChunkAttempt &a) {
            if (counterHashUnit(seed, a.op_id, a.task_index,
                                a.attempt) >= rate)
                return false;
            ++chunk_faults;
            ++faults_injected;
            return true;
        });
}

void
FaultInjector::attachHbm(mem::HbmSubsystem *hbm)
{
    if (!hbm)
        fatal(name(), ": null HBM subsystem");
    hbm_ = hbm;
}

void
FaultInjector::arm()
{
    if (armed_)
        fatal(name(), ": arm() called twice");
    armed_ = true;
    if (!plan_.link_faults.empty() && !net_)
        fatal(name(), ": plan has link faults but no network is "
              "attached");
    if (!plan_.channel_faults.empty() && !hbm_)
        fatal(name(), ": plan has channel faults but no HBM "
              "subsystem is attached");
    if (plan_.chunk_error_rate > 0.0 && !comm_)
        fatal(name(), ": plan has a chunk_error_rate but no comm "
              "group is attached");

    for (std::size_t i = 0; i < plan_.link_faults.size(); ++i) {
        // Resolve names now so a typo fails at arm() time, not
        // mid-run (the event callback re-resolves by plan index).
        const auto &lf = plan_.link_faults[i];
        net_->nodeByName(lf.node_a);
        net_->nodeByName(lf.node_b);
        scheduleLinkFault(std::max(lf.at, eventq()->curTick()), i);
    }
    for (std::size_t i = 0; i < plan_.channel_faults.size(); ++i) {
        const unsigned ch = plan_.channel_faults[i].channel;
        if (ch >= hbm_->numChannels())
            fatal(name(), ": plan blacks out HBM channel ", ch,
                  " but ", hbm_->name(), " has ",
                  hbm_->numChannels(), " channels");
        scheduleChannelFault(
            std::max(plan_.channel_faults[i].at, eventq()->curTick()),
            i);
    }
}

void
FaultInjector::scheduleLinkFault(Tick when, std::uint64_t i)
{
    eventq()->scheduleKeyed(when, "fault.link", i, 0, [this, i] {
        const auto &lf = plan_.link_faults[i];
        const fabric::NodeId a = net_->nodeByName(lf.node_a);
        const fabric::NodeId b = net_->nodeByName(lf.node_b);
        // Fault application mutates fabric state other events may be
        // using this very tick; the tracker pairs this write with
        // Link/Network reads to flag collisions.
        EHPSIM_TRACK_WRITE(this, "injected");
        if (lf.derate == 0.0) {
            net_->killLink(a, b);
            ++links_cut;
        } else {
            net_->derateLink(a, b, lf.derate);
            ++links_derated;
        }
        ++faults_injected;
    });
}

void
FaultInjector::scheduleChannelFault(Tick when, std::uint64_t i)
{
    eventq()->scheduleKeyed(when, "fault.chan", i, 0, [this, i] {
        EHPSIM_TRACK_WRITE(this, "injected");
        hbm_->blackoutChannel(plan_.channel_faults[i].channel);
        ++channels_blacked_out;
        ++faults_injected;
    });
}

void
FaultInjector::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    w.putBool(armed_);
}

void
FaultInjector::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    armed_ = r.getBool();
}

} // namespace fault
} // namespace ehpsim

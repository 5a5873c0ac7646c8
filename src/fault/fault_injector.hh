/**
 * @file
 * Turns a FaultPlan into scheduled events against live components.
 *
 * The injector is a SimObject so its stats land in the same tree as
 * everything else: attach the fabric, comm group, and memory it
 * should break, then arm() once. Timed faults (link kill/derate,
 * HBM channel blackout) become EventQueue lambdas; transient chunk
 * errors become a CommGroup fault hook drawing a counter-based hash
 * of (plan seed, op id, task index, attempt), so the whole failure
 * history replays byte-for-byte from one seed.
 */

#ifndef EHPSIM_FAULT_FAULT_INJECTOR_HH
#define EHPSIM_FAULT_FAULT_INJECTOR_HH

#include <string>

#include "comm/comm_group.hh"
#include "fabric/network.hh"
#include "fault/fault_plan.hh"
#include "mem/hbm_subsystem.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

namespace ehpsim
{
namespace fault
{

class FaultInjector : public SimObject
{
  public:
    /**
     * @param eq Queue the faults are scheduled on (must match the
     *        attached components'; required).
     */
    FaultInjector(SimObject *parent, const std::string &name,
                  FaultPlan plan, EventQueue *eq);

    /** Fabric whose links the plan's link faults hit. */
    void attachNetwork(fabric::Network *net);

    /**
     * Comm group whose chunk transfers see transient errors; this
     * installs the group's fault hook.
     */
    void attachCommGroup(comm::CommGroup *group);

    /** Memory whose channels the plan's channel faults black out. */
    void attachHbm(mem::HbmSubsystem *hbm);

    /**
     * Validate the plan against the attached components and
     * schedule every timed fault. Call exactly once, after
     * attaching.
     */
    void arm();

    const FaultPlan &plan() const { return plan_; }

    /** @{ statistics */
    stats::Scalar faults_injected;
    stats::Scalar links_cut;
    stats::Scalar links_derated;
    stats::Scalar channels_blacked_out;
    stats::Scalar chunk_faults;
    /** @} */

    /** @{ checkpoint: stats (base) + the armed flag (DESIGN.md §16).
     *  Pending timed faults are KEYED events ("fault.link" /
     *  "fault.chan" with the plan index as payload), so the
     *  EventQueue replays them from its own snapshot — a restored
     *  world must NOT call arm() again. */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    /** Schedule link fault @p i of the plan as a keyed one-shot at
     *  @p when (also the "fault.link" replay factory). */
    void scheduleLinkFault(Tick when, std::uint64_t i);

    /** Schedule channel fault @p i of the plan as a keyed one-shot
     *  at @p when (also the "fault.chan" replay factory). */
    void scheduleChannelFault(Tick when, std::uint64_t i);

    FaultPlan plan_;
    fabric::Network *net_ = nullptr;
    comm::CommGroup *comm_ = nullptr;
    mem::HbmSubsystem *hbm_ = nullptr;
    bool armed_ = false;
};

} // namespace fault
} // namespace ehpsim

#endif // EHPSIM_FAULT_FAULT_INJECTOR_HH

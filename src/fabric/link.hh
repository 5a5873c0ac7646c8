/**
 * @file
 * Point-to-point fabric links.
 *
 * The paper contrasts several physical link classes:
 *  - USR PHYs between adjacent IODs: >10x the area bandwidth density
 *    of SerDes, 0.4 pJ/bit, multiple TB/s (Sec. V.A, Fig. 7);
 *  - 2D organic-substrate SerDes IF links (MI250X GCD-GCD, EHPv4,
 *    socket-to-socket): ~64 GB/s per direction per x16;
 *  - PCIe Gen5 x16 to hosts/NICs;
 *  - on-die data-fabric segments and 2.5D interposer links to HBM.
 *
 * A Link is unidirectional: bandwidth with an occupancy queue, a
 * propagation latency, and a transfer energy. High-priority traffic
 * (the ACE-to-ACE synchronization channel of Sec. VI.A) bypasses the
 * occupancy queue, modeling a reserved virtual channel.
 */

#ifndef EHPSIM_FABRIC_LINK_HH
#define EHPSIM_FABRIC_LINK_HH

#include <string>

#include "mem/mem_device.hh"
#include "sim/units.hh"

namespace ehpsim
{
namespace fabric
{

enum class LinkKind
{
    onDie,          ///< data fabric within one IOD
    usr,            ///< ultra-short-reach IOD-to-IOD PHY
    interposer,     ///< 2.5D link from IOD to an HBM stack
    serdesIf,       ///< x16 Infinity Fabric SerDes (2D/off-package)
    pcie,           ///< x16 PCIe Gen5
};

struct LinkParams
{
    LinkKind kind = LinkKind::onDie;
    BytesPerSecond bandwidth = tbps(2.0);   ///< per direction
    Tick latency = 2'000;                   ///< ps propagation
    double energy_pj_per_byte = 0.5;        ///< transfer energy
};

/** Published defaults for each link class. */
LinkParams onDieLinkParams();
LinkParams usrLinkParams();
LinkParams interposerLinkParams();
LinkParams serdesIfLinkParams();
LinkParams pcieLinkParams();

class Link : public SimObject
{
  public:
    /** @param store Where the bulk channel keeps its window loads
     *  (DESIGN.md §12): runs for node-fabric links, whose requests
     *  span many windows; dense for the rest. */
    Link(SimObject *parent, const std::string &name,
         const LinkParams &params,
         mem::OccupancyTracker::Store store =
             mem::OccupancyTracker::Store::dense);

    const LinkParams &params() const { return params_; }

    /**
     * Move @p bytes across the link starting at @p when.
     * @param high_priority Reserved-VC traffic (bypasses queueing).
     * @return arrival tick of the last byte.
     */
    Tick transfer(Tick when, std::uint64_t bytes,
                  bool high_priority = false);

    /**
     * Permanently fail this link (fault injection). The Network
     * stops routing over dead links, so a transfer on one is a
     * simulator bug and panics.
     */
    void kill();

    bool alive() const { return !killed_; }

    /**
     * Degrade the link to @p factor of its current rate
     * (cumulative; 0 < factor <= 1), modeling lane retirement or a
     * retrain to a lower speed.
     */
    void derate(double factor);

    /** Remaining fraction of the nominal bandwidth. */
    double derateFactor() const { return derate_; }

    /** Nominal bandwidth scaled by the accumulated derating. */
    BytesPerSecond effectiveBandwidth() const
    {
        return params_.bandwidth * derate_;
    }

    /** Total energy spent on this link, in joules. */
    double energyJoules() const;

    /** Achieved bandwidth between the first and last transfer. */
    double achievedBandwidth() const;

    /** Occupancy window spans this link holds in host memory
     *  (mem::OccupancyTracker::residentSpans(); never in stats). */
    std::size_t residentSpans() const
    {
        return occupancy_.residentSpans();
    }

    /** The bulk channel's window loads, to inspect. */
    const mem::OccupancyTracker &occupancy() const { return occupancy_; }

    /** Utilization = busy time / wall time observed (bulk VC). */
    double utilization() const;

    /**
     * Reserved-VC utilization: high-priority serialization time /
     * wall time observed. Kept separate from utilization() so bulk
     * busy_frac keeps its meaning (occupancy-queue pressure) while
     * HP-only links no longer report zero busy time.
     */
    double hpUtilization() const;

    /** @{ statistics */
    stats::Scalar transfers;
    stats::Scalar bytes_moved;
    stats::Scalar hp_transfers;
    stats::Formula busy_frac;
    stats::Formula hp_busy_frac;
    stats::Formula achieved_gbps;
    /** @} */

    /** @{ checkpoint: stats (base) + occupancy windows, timing
     *  watermarks, derate, and liveness (DESIGN.md §16) */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    LinkParams params_;
    mem::OccupancyTracker occupancy_;
    Tick first_use_ = maxTick;
    Tick last_done_ = 0;
    Tick busy_ticks_ = 0;
    Tick hp_busy_ticks_ = 0;
    double derate_ = 1.0;
    bool killed_ = false;
};

} // namespace fabric
} // namespace ehpsim

#endif // EHPSIM_FABRIC_LINK_HH

#include "fabric/link.hh"

#include <algorithm>

#include "sim/access_tracker.hh"
#include "sim/logging.hh"

namespace ehpsim
{
namespace fabric
{

LinkParams
onDieLinkParams()
{
    // Data-fabric segment within one IOD.
    return {LinkKind::onDie, tbps(2.0), 2'000, 0.4};
}

LinkParams
usrLinkParams()
{
    // One IOD-to-IOD USR edge. The USR interfaces are sized so HBM
    // and Infinity Cache "can be accessed as if the Infinity Fabric
    // were implemented on a single monolithic IOD" (Sec. V.A), i.e.
    // they do not bottleneck the 17 TB/s cache: ~3 TB/s per edge
    // per direction. 0.4 mW/Gbps == 3.2 pJ/byte.
    return {LinkKind::usr, tbps(3.0), 5'000, 3.2};
}

LinkParams
interposerLinkParams()
{
    // IOD to one HBM stack over the 2.5D interposer: the stack's
    // 16 channels x ~41.4 GB/s.
    return {LinkKind::interposer, gbps(663.0), 3'000, 1.2};
}

LinkParams
serdesIfLinkParams()
{
    // One x16 IF link: 64 GB/s per direction (paper Sec. VIII).
    return {LinkKind::serdesIf, gbps(64.0), 30'000, 11.0};
}

LinkParams
pcieLinkParams()
{
    // One x16 PCIe Gen5 link: 64 GB/s per direction.
    return {LinkKind::pcie, gbps(64.0), 150'000, 14.0};
}

Link::Link(SimObject *parent, const std::string &name,
           const LinkParams &params, mem::OccupancyTracker::Store store)
    : SimObject(parent, name),
      transfers(this, "transfers", "payload transfers"),
      bytes_moved(this, "bytes_moved", "total bytes moved"),
      hp_transfers(this, "hp_transfers",
                   "high-priority (reserved VC) transfers"),
      busy_frac(this, "busy_frac",
                "busy ticks / observed wall ticks",
                [this] { return utilization(); }),
      hp_busy_frac(this, "hp_busy_frac",
                   "reserved-VC serialization ticks / observed "
                   "wall ticks",
                   [this] { return hpUtilization(); }),
      achieved_gbps(this, "achieved_gbps",
                    "achieved bandwidth first-to-last transfer, GB/s",
                    [this] { return achievedBandwidth() / 1e9; }),
      params_(params),
      occupancy_(params.bandwidth / static_cast<double>(ticksPerSecond),
                 store, this->name().c_str())
{
}

Tick
Link::transfer(Tick when, std::uint64_t bytes, bool high_priority)
{
    if (killed_)
        panic(name(), ": transfer on a killed link (routing should "
              "have gone around it)");
    // Same-tick transfers from different events contend for the
    // occupancy queue; the tracker decides whether that order can
    // matter. The rate/liveness read pairs with the kill()/derate()
    // writes so a same-tick fault-vs-transfer collision is flagged.
    EHPSIM_TRACK_READ(this, "state");
    EHPSIM_TRACK_WRITE(this, "occupancy");
    // Serialization at the current (possibly derated) rate: the
    // occupancy charge for bulk traffic, the whole delay for
    // reserved-VC traffic, and the busy-accounting increment for
    // both classes.
    const Tick ser =
        serializationTicks(bytes, effectiveBandwidth());
    Tick done;
    if (high_priority) {
        ++hp_transfers;
        // Reserved VC: pays serialization at link rate but does not
        // queue behind bulk data. Still accounted as busy time —
        // a link carrying only HP traffic used to report
        // busy_frac == 0 (see hp_busy_frac).
        hp_busy_ticks_ += ser;
        done = when + ser;
    } else {
        // No transfer starts before the queue's now, so a run store
        // may forget the windows behind it (DESIGN.md §12).
        done = occupancy_.occupy(when, bytes, curTick());
        busy_ticks_ += ser;
    }
    // One batched bookkeeping touch per hop: counters and the
    // first/last activity window update together, after the timing
    // math, so a multi-hop send writes each link's state once.
    ++transfers;
    bytes_moved += static_cast<double>(bytes);
    if (when < first_use_)
        first_use_ = when;
    const Tick arrival = done + params_.latency;
    if (arrival > last_done_)
        last_done_ = arrival;
    return arrival;
}

void
Link::kill()
{
    if (killed_)
        fatal(name(), ": already killed");
    EHPSIM_TRACK_WRITE(this, "state");
    killed_ = true;
}

void
Link::derate(double factor)
{
    if (killed_)
        fatal(name(), ": cannot derate a killed link");
    if (!(factor > 0.0) || factor > 1.0)
        fatal(name(), ": derate factor ", factor,
              " out of range (0, 1]");
    // Rate change races with any same-tick transfer over this link.
    EHPSIM_TRACK_WRITE(this, "state");
    derate_ *= factor;
    occupancy_.setBandwidth(effectiveBandwidth() /
                            static_cast<double>(ticksPerSecond));
}

void
Link::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    occupancy_.snapshot(w);
    w.putU64(first_use_);
    w.putU64(last_done_);
    w.putU64(busy_ticks_);
    w.putU64(hp_busy_ticks_);
    w.putF64(derate_);
    w.putBool(killed_);
}

void
Link::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    // The tracker restore sets the derated rate and the window grid
    // directly; going through derate()/setBandwidth() here would
    // double-apply the derating.
    occupancy_.restore(r);
    first_use_ = r.getU64();
    last_done_ = r.getU64();
    busy_ticks_ = r.getU64();
    hp_busy_ticks_ = r.getU64();
    derate_ = r.getF64();
    killed_ = r.getBool();
}

double
Link::energyJoules() const
{
    return bytes_moved.value() * params_.energy_pj_per_byte * 1e-12;
}

double
Link::achievedBandwidth() const
{
    if (last_done_ <= first_use_ || first_use_ == maxTick)
        return 0.0;
    return bytes_moved.value() / secondsFromTicks(last_done_ -
                                                  first_use_);
}

double
Link::utilization() const
{
    if (last_done_ <= first_use_ || first_use_ == maxTick)
        return 0.0;
    return static_cast<double>(busy_ticks_) /
           static_cast<double>(last_done_ - first_use_);
}

double
Link::hpUtilization() const
{
    if (last_done_ <= first_use_ || first_use_ == maxTick)
        return 0.0;
    return static_cast<double>(hp_busy_ticks_) /
           static_cast<double>(last_done_ - first_use_);
}

} // namespace fabric
} // namespace ehpsim

#include "mem/dram.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace mem
{

DramParams
hbm3ChannelParams()
{
    DramParams p;
    p.bandwidth = gbps(41.4);   // 5.3 TB/s over 128 channels
    p.access_latency = 120'000;
    p.num_banks = 16;
    p.t_rc = 45'000;
    p.row_bytes = 1024;
    return p;
}

DramParams
hbm2eChannelParams()
{
    DramParams p;
    p.bandwidth = gbps(50.3);   // 3.2 TB/s over 64 channels
    p.access_latency = 130'000;
    p.num_banks = 16;
    p.t_rc = 45'000;
    p.row_bytes = 1024;
    return p;
}

DramChannel::DramChannel(SimObject *parent, const std::string &name,
                         const DramParams &params)
    : MemDevice(parent, name),
      reads(this, "reads", "read requests"),
      writes(this, "writes", "write requests"),
      bytes_served(this, "bytes_served", "total bytes transferred"),
      bank_conflicts(this, "bank_conflicts",
                     "requests delayed by a busy bank"),
      params_(params),
      bus_(params.bandwidth / static_cast<double>(ticksPerSecond)),
      bank_free_(params.num_banks, 0),
      bank_open_(params.num_banks, false),
      open_row_(params.num_banks, 0)
{
}

AccessResult
DramChannel::access(Tick when, Addr addr, std::uint64_t bytes,
                    bool write)
{
    if (write)
        ++writes;
    else
        ++reads;
    bytes_served += static_cast<double>(bytes);
    first_access_ = std::min(first_access_, when);

    // Bank model with open-row awareness: a row hit proceeds
    // immediately; activating a new row waits for the bank's
    // row-cycle time from its previous activation.
    const std::uint64_t row = addr / params_.row_bytes;
    const unsigned bank =
        static_cast<unsigned>(row % params_.num_banks);
    Tick start = when;
    const bool row_hit = bank_open_[bank] && open_row_[bank] == row;
    if (!row_hit) {
        if (bank_free_[bank] > start) {
            ++bank_conflicts;
            start = bank_free_[bank];
        }
        bank_free_[bank] = start + params_.t_rc;
        bank_open_[bank] = true;
        open_row_[bank] = row;
    }

    // The data bus serializes the payload.
    const Tick bus_done = bus_.occupy(start, bytes);
    const Tick complete = bus_done + params_.access_latency;
    last_complete_ = std::max(last_complete_, complete);

    AccessResult res;
    res.complete = complete;
    res.hit = true;
    res.bytes_below = 0;
    return res;
}

void
DramChannel::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    bus_.snapshot(w);
    w.putU32(params_.num_banks);
    for (unsigned b = 0; b < params_.num_banks; ++b) {
        w.putU64(bank_free_[b]);
        w.putBool(bank_open_[b]);
        w.putU64(open_row_[b]);
    }
    w.putU64(first_access_);
    w.putU64(last_complete_);
}

void
DramChannel::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    bus_.restore(r);
    const std::uint32_t banks = r.getU32();
    if (banks != params_.num_banks) {
        fatal(name(), ": snapshot saved with ", banks,
              " banks but channel configured with ",
              params_.num_banks, " — checkpoint/config mismatch");
    }
    for (unsigned b = 0; b < params_.num_banks; ++b) {
        bank_free_[b] = r.getU64();
        bank_open_[b] = r.getBool();
        open_row_[b] = r.getU64();
    }
    first_access_ = r.getU64();
    last_complete_ = r.getU64();
}

double
DramChannel::achievedBandwidth(Tick now) const
{
    const Tick start = first_access_ == maxTick ? 0 : first_access_;
    const Tick end = std::max(now, last_complete_);
    if (end <= start)
        return 0.0;
    return bytes_served.value() / secondsFromTicks(end - start);
}

} // namespace mem
} // namespace ehpsim

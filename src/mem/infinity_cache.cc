#include "mem/infinity_cache.hh"

#include <algorithm>

namespace ehpsim
{
namespace mem
{

InfinityCacheSlice::InfinityCacheSlice(SimObject *parent,
                                       const std::string &name,
                                       const InfinityCacheParams &params,
                                       MemDevice *channel)
    : MemDevice(parent, name),
      hits(this, "hits", "demand hits"),
      misses(this, "misses", "demand misses"),
      prefetch_issued(this, "prefetch_issued", "prefetches issued"),
      prefetch_hits(this, "prefetch_hits",
                    "demand hits on prefetched lines"),
      writebacks(this, "writebacks", "dirty victim writebacks to HBM"),
      bytes_served(this, "bytes_served", "bytes served to requestors"),
      bytes_from_hbm(this, "bytes_from_hbm",
                     "bytes moved between slice and HBM channel"),
      params_(params),
      array_(params.size_bytes, params.assoc, params.line_bytes),
      channel_(channel),
      port_(params.hit_bandwidth / static_cast<double>(ticksPerSecond))
{
}

AccessResult
InfinityCacheSlice::access(Tick when, Addr addr, std::uint64_t bytes,
                           bool write)
{
    bytes_served += static_cast<double>(bytes);

    const unsigned line = params_.line_bytes;
    const Addr first = array_.lineAlign(addr);
    const Addr last = array_.lineAlign(addr + bytes - 1);

    AccessResult res;
    res.hit = true;
    Tick complete = when;

    for (Addr la = first;; la += line) {
        const Tick issue =
            port_.occupy(when, line) + params_.hit_latency;
        Tick line_done = issue;
        if (auto way = array_.lookup(la)) {
            ++hits;
            CacheLine &l = array_.line(la, *way);
            if (l.prefetched) {
                ++prefetch_hits;
                l.prefetched = false;
            }
            if (write)
                l.dirty = true;
        } else {
            ++misses;
            res.hit = false;
            // Fetch the line from HBM (even writes fill: memory-side
            // caches absorb partial-line writes by read-modify-write).
            auto r = channel_->access(issue, la, line, false);
            bytes_from_hbm += line;
            res.bytes_below += line;
            line_done = r.complete;
            auto victim = array_.fill(la, write);
            if (victim && victim->dirty) {
                // The writeback enters the channel queue right behind
                // the fetch; issuing it at the (later) response time
                // would reserve the bus in the future and stall
                // earlier-arriving demands.
                ++writebacks;
                channel_->access(issue, victim->tag, line, true);
                bytes_from_hbm += line;
                res.bytes_below += line;
            }
            // Next-line hardware prefetch (paper Sec. IV.D): queued
            // behind the demand fetch, off the critical path.
            Addr pf = la + line;
            for (unsigned d = 0; d < params_.prefetch_depth; ++d) {
                if (!array_.peek(pf)) {
                    ++prefetch_issued;
                    channel_->access(issue, pf, line, false);
                    bytes_from_hbm += line;
                    auto pf_victim = array_.fill(pf, false, true);
                    if (pf_victim && pf_victim->dirty) {
                        ++writebacks;
                        channel_->access(issue, pf_victim->tag,
                                         line, true);
                        bytes_from_hbm += line;
                    }
                }
                pf += line;
            }
        }
        complete = std::max(complete, line_done);
        if (la == last)
            break;
    }
    res.complete = complete;
    return res;
}

void
InfinityCacheSlice::snapshot(SnapshotWriter &w) const
{
    StatGroup::snapshot(w);
    array_.snapshot(w);
    port_.snapshot(w);
}

void
InfinityCacheSlice::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    array_.restore(r);
    port_.restore(r);
}

double
InfinityCacheSlice::amplification() const
{
    const double below = bytes_from_hbm.value();
    return below > 0 ? bytes_served.value() / below : 1.0;
}

} // namespace mem
} // namespace ehpsim

#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace mem
{

Cache::Cache(SimObject *parent, const std::string &name,
             const CacheParams &params, MemDevice *below)
    : MemDevice(parent, name),
      hits(this, "hits", "demand hits"),
      misses(this, "misses", "demand misses"),
      writebacks(this, "writebacks", "dirty victim writebacks"),
      bytes_read(this, "bytes_read", "bytes read by requestors"),
      bytes_written(this, "bytes_written", "bytes written by requestors"),
      probe_invalidations(this, "probe_invalidations",
                          "lines invalidated by coherence probes"),
      params_(params),
      array_(params.size_bytes, params.assoc, params.line_bytes),
      below_(below)
{
    const Tick period = periodFromGHz(params.clock_ghz);
    latency_ticks_ = params.latency_cycles * period;
    port_.setBandwidth(params.bytes_per_cycle /
                       static_cast<double>(period));
}

AccessResult
Cache::access(Tick when, Addr addr, std::uint64_t bytes, bool write)
{
    if (bytes == 0)
        return {when, true, 0};

    if (write)
        bytes_written += static_cast<double>(bytes);
    else
        bytes_read += static_cast<double>(bytes);

    // Split the request into lines; the completion is the last line's.
    const unsigned line = params_.line_bytes;
    const Addr first = array_.lineAlign(addr);
    const Addr last = array_.lineAlign(addr + bytes - 1);

    AccessResult res;
    res.hit = true;
    Tick complete = when;

    for (Addr la = first;; la += line) {
        const Tick issue = port_.occupy(when, line) + latency_ticks_;
        Tick line_done = issue;
        if (auto way = array_.lookup(la)) {
            ++hits;
            if (write)
                array_.line(la, *way).dirty = true;
        } else {
            ++misses;
            res.hit = false;
            if (below_) {
                // Fetch the line below; a write miss allocates too.
                auto r = below_->access(issue, la, line, false);
                res.bytes_below += line;
                line_done = r.complete;
            }
            auto victim = array_.fill(la, write);
            if (victim && victim->dirty) {
                // Issued at miss time, behind the fetch: issuing at
                // the response time would reserve downstream
                // bandwidth in the future and stall other requestors
                // (no-backfill occupancy model).
                ++writebacks;
                if (below_) {
                    below_->access(issue, victim->tag, line, true);
                    res.bytes_below += line;
                }
            }
        }
        complete = std::max(complete, line_done);
        if (la == last)
            break;
    }
    res.complete = complete;
    return res;
}

std::uint64_t
Cache::flush(Tick when)
{
    auto dirty = array_.flushAll();
    std::uint64_t bytes = 0;
    for (const auto &l : dirty) {
        // Writebacks pipeline at the downstream bandwidth; the
        // occupancy trackers below serialize them naturally.
        if (below_)
            below_->access(when, l.tag, params_.line_bytes, true);
        ++writebacks;
        bytes += params_.line_bytes;
    }
    return bytes;
}

} // namespace mem
} // namespace ehpsim

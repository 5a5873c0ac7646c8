#include "coherence/probe_filter.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/ordered.hh"

namespace ehpsim
{
namespace coherence
{

ProbeFilter::ProbeFilter(SimObject *parent, const std::string &name,
                         std::size_t capacity_lines,
                         unsigned line_bytes)
    : SimObject(parent, name),
      lookups(this, "lookups", "directory lookups"),
      probes_sent(this, "probes_sent", "probes sent to caches"),
      cache_transfers(this, "cache_transfers",
                      "cache-to-cache data transfers"),
      memory_fetches(this, "memory_fetches", "fills from memory"),
      writebacks(this, "writebacks", "dirty data written to memory"),
      recalls(this, "recalls", "directory-eviction recalls"),
      capacity_(capacity_lines),
      line_mask_(line_bytes - 1)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)))
        fatal("probe filter line size must be a power of two");
}

void
ProbeFilter::makeRoom(CoherenceOutcome &out)
{
    if (capacity_ == 0 || dir_.size() < capacity_)
        return;
    // Recall the oldest tracked line: probe and invalidate every
    // holder, writing back dirty data.
    while (!insertion_order_.empty()) {
        const Addr victim = insertion_order_.front();
        insertion_order_.erase(insertion_order_.begin());
        auto it = dir_.find(victim);
        if (it == dir_.end())
            continue;
        const DirEntry &e = it->second;
        out.recall = true;
        ++recalls;
        const unsigned n = e.numSharers();
        out.probes += n;
        probes_sent += n;
        out.invalidations += n;
        if (e.state == State::modified || e.state == State::owned) {
            out.writeback = true;
            ++writebacks;
        }
        dir_.erase(it);
        return;
    }
}

CoherenceOutcome
ProbeFilter::read(AgentId agent, Addr addr)
{
    if (agent >= maxAgents)
        fatal("agent id ", agent, " out of range");
    ++lookups;
    const Addr line = align(addr);
    CoherenceOutcome out;

    auto it = dir_.find(line);
    if (it == dir_.end()) {
        makeRoom(out);
        DirEntry e;
        e.state = State::exclusive;
        e.owner = agent;
        e.sharers = 1ull << agent;
        dir_[line] = e;
        insertion_order_.push_back(line);
        out.data_from_memory = true;
        ++memory_fetches;
        return out;
    }

    DirEntry &e = it->second;
    if (e.sharers & (1ull << agent)) {
        // Requester already holds the line; local hit, no traffic.
        return out;
    }

    switch (e.state) {
      case State::exclusive:
      case State::modified:
        // Probe the owner; it supplies data and downgrades.
        out.probes = 1;
        ++probes_sent;
        out.data_from_cache = true;
        ++cache_transfers;
        e.state = e.state == State::modified ? State::owned
                                             : State::shared;
        e.sharers |= 1ull << agent;
        break;
      case State::owned:
        // Owner supplies data; requester joins the sharers.
        out.probes = 1;
        ++probes_sent;
        out.data_from_cache = true;
        ++cache_transfers;
        e.sharers |= 1ull << agent;
        break;
      case State::shared:
        // Clean sharers; fetch from memory (no forwarding state).
        out.data_from_memory = true;
        ++memory_fetches;
        e.sharers |= 1ull << agent;
        break;
      case State::invalid:
        panic("invalid directory entry present");
    }
    return out;
}

CoherenceOutcome
ProbeFilter::write(AgentId agent, Addr addr)
{
    if (agent >= maxAgents)
        fatal("agent id ", agent, " out of range");
    ++lookups;
    const Addr line = align(addr);
    CoherenceOutcome out;

    auto it = dir_.find(line);
    if (it == dir_.end()) {
        makeRoom(out);
        DirEntry e;
        e.state = State::modified;
        e.owner = agent;
        e.sharers = 1ull << agent;
        dir_[line] = e;
        insertion_order_.push_back(line);
        out.data_from_memory = true;
        ++memory_fetches;
        return out;
    }

    DirEntry &e = it->second;
    const std::uint64_t self = 1ull << agent;
    const bool had_copy = e.sharers & self;

    // Invalidate every other holder.
    const std::uint64_t others = e.sharers & ~self;
    const unsigned n_others =
        static_cast<unsigned>(__builtin_popcountll(others));
    out.probes += n_others;
    probes_sent += n_others;
    out.invalidations += n_others;

    const bool dirty_elsewhere =
        (e.state == State::modified || e.state == State::owned) &&
        e.owner != agent;
    if (dirty_elsewhere) {
        out.data_from_cache = true;
        ++cache_transfers;
    } else if (!had_copy) {
        out.data_from_memory = true;
        ++memory_fetches;
    }

    e.state = State::modified;
    e.owner = agent;
    e.sharers = self;
    return out;
}

CoherenceOutcome
ProbeFilter::evict(AgentId agent, Addr addr)
{
    ++lookups;
    const Addr line = align(addr);
    CoherenceOutcome out;
    auto it = dir_.find(line);
    if (it == dir_.end())
        return out;
    DirEntry &e = it->second;
    const std::uint64_t self = 1ull << agent;
    if (!(e.sharers & self))
        return out;

    const bool was_dirty_owner =
        (e.state == State::modified || e.state == State::owned) &&
        e.owner == agent;
    if (was_dirty_owner) {
        out.writeback = true;
        ++writebacks;
    }

    e.sharers &= ~self;
    if (e.sharers == 0) {
        dir_.erase(it);
        insertion_order_.erase(
            std::remove(insertion_order_.begin(),
                        insertion_order_.end(), line),
            insertion_order_.end());
        return out;
    }
    if (was_dirty_owner || e.state == State::exclusive ||
        (e.owner == agent)) {
        // Remaining copies are read-only and memory is now current
        // (after the writeback, if any).
        e.state = State::shared;
        e.owner = static_cast<AgentId>(__builtin_ctzll(e.sharers));
    }
    return out;
}

State
ProbeFilter::lineState(Addr addr) const
{
    auto it = dir_.find(align(addr));
    return it == dir_.end() ? State::invalid : it->second.state;
}

std::vector<AgentId>
ProbeFilter::holders(Addr addr) const
{
    std::vector<AgentId> out;
    auto it = dir_.find(align(addr));
    if (it == dir_.end())
        return out;
    std::uint64_t s = it->second.sharers;
    while (s) {
        const unsigned b = __builtin_ctzll(s);
        out.push_back(b);
        s &= s - 1;
    }
    return out;
}

std::optional<AgentId>
ProbeFilter::owner(Addr addr) const
{
    auto it = dir_.find(align(addr));
    if (it == dir_.end())
        return std::nullopt;
    const DirEntry &e = it->second;
    if (e.state == State::shared)
        return std::nullopt;
    return e.owner;
}

bool
ProbeFilter::invariantsHold() const
{
    // Sorted traversal: the check is order-insensitive today, but
    // any future diagnostic (first failing line, JSON dump) must not
    // inherit hash order.
    for (const Addr line : sortedKeys(dir_)) {
        const DirEntry &e = dir_.at(line);
        if (e.state == State::invalid)
            return false;
        if (e.sharers == 0)
            return false;
        const unsigned n = e.numSharers();
        switch (e.state) {
          case State::modified:
          case State::exclusive:
            if (n != 1)
                return false;
            if (!(e.sharers & (1ull << e.owner)))
                return false;
            break;
          case State::owned:
            if (!(e.sharers & (1ull << e.owner)))
                return false;
            break;
          case State::shared:
            break;
          case State::invalid:
            return false;
        }
    }
    return true;
}

} // namespace coherence
} // namespace ehpsim

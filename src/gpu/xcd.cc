#include "gpu/xcd.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace gpu
{

XcdParams
cdna3XcdParams()
{
    XcdParams p;
    p.cu = cdna3CuParams();
    p.physical_cus = 40;
    p.active_cus = 38;
    p.num_aces = 4;
    p.l2.size_bytes = 4 * 1024 * 1024;
    p.l2.assoc = 16;
    p.l2.line_bytes = 128;
    p.l2.latency_cycles = 40;
    p.l2.clock_ghz = p.cu.clock_ghz;
    p.l2.bytes_per_cycle = 2048;    // coalesces the whole die
    p.icache.size_bytes = 64 * 1024;
    p.icache.assoc = 8;
    p.icache.line_bytes = 128;
    p.icache.latency_cycles = 4;
    p.icache.clock_ghz = p.cu.clock_ghz;
    p.icache.bytes_per_cycle = 64;
    return p;
}

XcdParams
cdna2GcdParams()
{
    XcdParams p;
    p.cu = cdna2CuParams();
    p.physical_cus = 112;
    p.active_cus = 110;
    p.num_aces = 4;
    p.l2.size_bytes = 8 * 1024 * 1024;
    p.l2.assoc = 16;
    p.l2.line_bytes = 64;
    p.l2.latency_cycles = 40;
    p.l2.clock_ghz = p.cu.clock_ghz;
    p.l2.bytes_per_cycle = 2048;
    p.icache.size_bytes = 32 * 1024;
    p.icache.assoc = 8;
    p.icache.line_bytes = 64;
    p.icache.latency_cycles = 4;
    p.icache.clock_ghz = p.cu.clock_ghz;
    p.icache.bytes_per_cycle = 64;
    return p;
}

Xcd::Xcd(SimObject *parent, const std::string &name,
         const XcdParams &params, mem::MemDevice *below)
    : SimObject(parent, name),
      workgroups_dispatched(this, "workgroups_dispatched",
                            "workgroups launched by the ACEs"),
      ace_stall_ticks(this, "ace_stall_ticks",
                      "ticks dispatches waited for a free ACE"),
      params_(params)
{
    if (params.active_cus == 0)
        fatal(name, ": an XCD needs at least one active CU");
    if (params.active_cus > params.physical_cus)
        fatal("cannot enable ", params.active_cus, " of ",
              params.physical_cus, " CUs");
    l2_ = std::make_unique<mem::Cache>(this, "l2", params.l2, below);

    // One instruction cache per CU pair (paper Sec. IV.B).
    const unsigned n_icaches = (params.active_cus + 1) / 2;
    for (unsigned i = 0; i < n_icaches; ++i) {
        icaches_.push_back(std::make_unique<mem::Cache>(
            this, "ic" + std::to_string(i), params.icache, l2_.get()));
    }
    for (unsigned i = 0; i < params.active_cus; ++i) {
        cus_.push_back(std::make_unique<ComputeUnit>(
            this, "cu" + std::to_string(i), params.cu, l2_.get(),
            icaches_[i / 2].get()));
    }
    ace_free_.assign(params.num_aces, 0);
    dispatch_period_ =
        params.dispatch_cycles * periodFromGHz(params.cu.clock_ghz);
}

std::vector<mem::Cache *>
Xcd::l1Caches()
{
    std::vector<mem::Cache *> out;
    out.reserve(cus_.size());
    for (auto &cu : cus_)
        out.push_back(cu->l1());
    return out;
}

double
Xcd::peakFlops(Pipe pipe, DataType dt, bool sparse) const
{
    if (cus_.empty())
        return 0.0;
    return cus_[0]->peakFlops(pipe, dt, sparse) *
           static_cast<double>(params_.active_cus);
}

Tick
Xcd::dispatchWorkgroup(Tick when, const WorkgroupWork &work)
{
    // Round-robin over the four ACEs; each launch occupies the ACE
    // for dispatch_cycles, bounding workgroup launch throughput.
    unsigned ace = next_ace_;
    next_ace_ = (next_ace_ + 1) % params_.num_aces;
    const Tick ready = std::max(when, ace_free_[ace]);
    if (ready > when)
        ace_stall_ticks += static_cast<double>(ready - when);
    ace_free_[ace] = ready + dispatch_period_;

    // Least-loaded CU receives the workgroup.
    ComputeUnit *best = cus_[0].get();
    for (auto &cu : cus_) {
        if (cu->busyUntil() < best->busyUntil())
            best = cu.get();
    }
    ++workgroups_dispatched;
    return best->runWorkgroup(ready + dispatch_period_, work);
}

double
Xcd::averageCuUtilization(Tick now) const
{
    if (now == 0 || cus_.empty())
        return 0.0;
    double busy = 0;
    for (const auto &cu : cus_) {
        busy += static_cast<double>(
                    cu->compute_ticks.value() +
                    cu->memory_ticks.value());
    }
    return busy /
           (static_cast<double>(now) * static_cast<double>(cus_.size()));
}

} // namespace gpu
} // namespace ehpsim

#include "cpu/zen_core.hh"

#include <algorithm>

namespace ehpsim
{
namespace cpu
{

ZenCoreParams
zen4CoreParams()
{
    ZenCoreParams p;
    p.gen = ZenGen::zen4;
    p.clock_ghz = 3.7;
    p.sustained_ipc = 4.0;
    p.fp64_flops_per_cycle = 16.0;
    p.fp32_flops_per_cycle = 32.0;
    p.l1d.size_bytes = 32 * 1024;
    p.l1d.assoc = 8;
    p.l1d.line_bytes = 64;
    p.l1d.latency_cycles = 4;
    p.l1d.clock_ghz = p.clock_ghz;
    p.l1d.bytes_per_cycle = 64;
    // Zen 4 doubled the per-core L2 to 1 MB (paper Sec. IV.C).
    p.l2.size_bytes = 1024 * 1024;
    p.l2.assoc = 8;
    p.l2.line_bytes = 64;
    p.l2.latency_cycles = 14;
    p.l2.clock_ghz = p.clock_ghz;
    p.l2.bytes_per_cycle = 64;
    return p;
}

ZenCoreParams
zen3CoreParams()
{
    ZenCoreParams p = zen4CoreParams();
    p.gen = ZenGen::zen3;
    p.clock_ghz = 3.4;
    p.sustained_ipc = 3.6;
    // No AVX-512: half the vector rate.
    p.fp64_flops_per_cycle = 8.0;
    p.fp32_flops_per_cycle = 16.0;
    p.l2.size_bytes = 512 * 1024;
    p.l1d.clock_ghz = p.clock_ghz;
    p.l2.clock_ghz = p.clock_ghz;
    return p;
}

ZenCore::ZenCore(SimObject *parent, const std::string &name,
                 const ZenCoreParams &params, mem::MemDevice *l3)
    : SimObject(parent, name),
      instructions(this, "instructions", "scalar instructions retired"),
      total_flops(this, "total_flops", "vector flops executed"),
      spin_polls(this, "spin_polls", "spin-wait poll iterations"),
      params_(params),
      period_(periodFromGHz(params.clock_ghz))
{
    l2_ = std::make_unique<mem::Cache>(this, "l2", params.l2, l3);
    l1d_ = std::make_unique<mem::Cache>(this, "l1d", params.l1d,
                                        l2_.get());
}

Tick
ZenCore::run(Tick start, const CpuWork &work)
{
    const Tick begin = std::max(start, busy_until_);
    instructions += static_cast<double>(work.scalar_ops);
    total_flops += static_cast<double>(work.flops);

    const double scalar_cycles =
        static_cast<double>(work.scalar_ops) / params_.sustained_ipc;
    const double flop_rate = work.fp64 ? params_.fp64_flops_per_cycle
                                       : params_.fp32_flops_per_cycle;
    const double vector_cycles =
        static_cast<double>(work.flops) / flop_rate;
    const Tick compute = static_cast<Tick>(
        (scalar_cycles + vector_cycles) *
        static_cast<double>(period_));

    Tick mem_done = begin;
    if (work.bytes_read > 0) {
        mem_done = l1d_->access(begin, work.read_base, work.bytes_read,
                                false).complete;
    }
    if (work.bytes_written > 0) {
        mem_done = std::max(
            mem_done, l1d_->access(begin, work.write_base,
                                   work.bytes_written, true).complete);
    }
    const Tick mem_time = mem_done > begin ? mem_done - begin : 0;
    const Tick busy = std::max({compute, mem_time, Tick(1)});
    busy_until_ = begin + busy;
    return busy_until_;
}

Tick
ZenCore::spinWait(Tick start, Tick flag_set_at, Tick poll_interval,
                  Tick observe_latency)
{
    const Tick begin = std::max(start, busy_until_);
    if (poll_interval == 0)
        poll_interval = period_ * 16;
    Tick t = begin;
    std::uint64_t polls = 1;
    if (flag_set_at > t) {
        const Tick wait = flag_set_at - t;
        polls += wait / poll_interval + 1;
        // The poll that observes the flag starts at the first
        // interval boundary after the flag is set.
        const Tick rounded =
            ((wait + poll_interval - 1) / poll_interval) *
            poll_interval;
        t = begin + rounded;
    }
    spin_polls += static_cast<double>(polls);
    busy_until_ = t + observe_latency;
    return busy_until_;
}

} // namespace cpu
} // namespace ehpsim

#include "cpu/ccd.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace cpu
{

CcdParams
zen4CcdParams()
{
    CcdParams p;
    p.core = zen4CoreParams();
    p.num_cores = 8;
    p.l3.size_bytes = 32ull * 1024 * 1024;
    p.l3.assoc = 16;
    p.l3.line_bytes = 64;
    p.l3.latency_cycles = 50;
    p.l3.clock_ghz = p.core.clock_ghz;
    p.l3.bytes_per_cycle = 256;
    return p;
}

CcdParams
zen3CcdParams()
{
    CcdParams p = zen4CcdParams();
    p.core = zen3CoreParams();
    p.l3.clock_ghz = p.core.clock_ghz;
    return p;
}

Ccd::Ccd(SimObject *parent, const std::string &name,
         const CcdParams &params, mem::MemDevice *below)
    : SimObject(parent, name), params_(params)
{
    l3_ = std::make_unique<mem::Cache>(this, "l3", params.l3, below);
    for (unsigned i = 0; i < params.num_cores; ++i) {
        cores_.push_back(std::make_unique<ZenCore>(
            this, "core" + std::to_string(i), params.core, l3_.get()));
    }
}

Tick
Ccd::runParallel(Tick start, const CpuWork &work, unsigned n_cores)
{
    if (n_cores == 0 || n_cores > params_.num_cores)
        n_cores = params_.num_cores;

    Tick done = start;
    for (unsigned i = 0; i < n_cores; ++i) {
        CpuWork shard = work;
        shard.scalar_ops = work.scalar_ops / n_cores;
        shard.flops = work.flops / n_cores;
        shard.bytes_read = work.bytes_read / n_cores;
        shard.bytes_written = work.bytes_written / n_cores;
        shard.read_base =
            work.read_base + static_cast<Addr>(i) * shard.bytes_read;
        shard.write_base =
            work.write_base +
            static_cast<Addr>(i) * shard.bytes_written;
        done = std::max(done, cores_[i]->run(start, shard));
    }
    return done;
}

Tick
Ccd::drainTime() const
{
    Tick t = 0;
    for (const auto &c : cores_)
        t = std::max(t, c->busyUntil());
    return t;
}

} // namespace cpu
} // namespace ehpsim

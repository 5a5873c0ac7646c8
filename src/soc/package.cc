#include "soc/package.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ehpsim
{
namespace soc
{

Package::Package(SimObject *parent, const std::string &name,
                 const ProductConfig &cfg, EventQueue *eq,
                 mem::NumaMode numa)
    : SimObject(parent, name, eq), cfg_(cfg)
{
    if (cfg.totalStacks() != cfg.hbm.num_stacks)
        fatal("product '", cfg.name, "': IODs attach ",
              cfg.totalStacks(), " stacks but the memory config has ",
              cfg.hbm.num_stacks);

    net_ = std::make_unique<fabric::Network>(this, "fabric");

    // --- Fabric nodes ------------------------------------------------
    const unsigned n_iods = static_cast<unsigned>(cfg.iods.size());
    for (unsigned i = 0; i < n_iods; ++i) {
        iod_nodes_.push_back(net_->addNode(
            "iod" + std::to_string(i), fabric::NodeKind::iod));
    }
    unsigned xcd_id = 0, ccd_id = 0, stack_id = 0;
    std::vector<unsigned> xcd_iod, ccd_iod, stack_iod;
    for (unsigned i = 0; i < n_iods; ++i) {
        for (unsigned j = 0; j < cfg.iods[i].num_xcds; ++j) {
            xcd_nodes_.push_back(net_->addNode(
                "xcd" + std::to_string(xcd_id++),
                fabric::NodeKind::xcd));
            xcd_iod.push_back(i);
        }
        for (unsigned j = 0; j < cfg.iods[i].num_ccds; ++j) {
            ccd_nodes_.push_back(net_->addNode(
                "ccd" + std::to_string(ccd_id++),
                fabric::NodeKind::ccd));
            ccd_iod.push_back(i);
        }
        for (unsigned j = 0; j < cfg.iods[i].num_hbm_stacks; ++j) {
            stack_nodes_.push_back(net_->addNode(
                "hbm" + std::to_string(stack_id++),
                fabric::NodeKind::hbmStack));
            stack_iod.push_back(i);
        }
        for (unsigned k = 0; k < cfg.io_links_per_iod; ++k) {
            io_nodes_.push_back(net_->addNode(
                "io" + std::to_string(i) + "_" + std::to_string(k),
                fabric::NodeKind::ioPort));
        }
    }

    // --- Fabric links ------------------------------------------------
    for (std::size_t x = 0; x < xcd_nodes_.size(); ++x)
        net_->connect(xcd_nodes_[x], iod_nodes_[xcd_iod[x]],
                      cfg.compute_link);
    for (std::size_t c = 0; c < ccd_nodes_.size(); ++c)
        net_->connect(ccd_nodes_[c], iod_nodes_[ccd_iod[c]],
                      cfg.compute_link);
    for (std::size_t s = 0; s < stack_nodes_.size(); ++s)
        net_->connect(stack_nodes_[s], iod_nodes_[stack_iod[s]],
                      cfg.hbm_link);
    for (unsigned i = 0; i + 1 < n_iods; ++i)
        net_->connect(iod_nodes_[i], iod_nodes_[i + 1], cfg.iod_link);
    for (const auto &[a, b] : cfg.extra_iod_edges)
        net_->connect(iod_nodes_[a], iod_nodes_[b], cfg.iod_link);

    fabric::LinkParams io_link = fabric::serdesIfLinkParams();
    io_link.bandwidth = gbps(cfg.io_link_gbps);
    unsigned io_idx = 0;
    for (unsigned i = 0; i < n_iods; ++i) {
        for (unsigned k = 0; k < cfg.io_links_per_iod; ++k)
            net_->connect(io_nodes_[io_idx++], iod_nodes_[i], io_link);
    }

    // --- Memory ------------------------------------------------------
    stack_iod_ = stack_iod;
    mem::HbmSubsystemParams hp = cfg.hbm;
    hp.numa = numa;
    map_ = std::make_unique<mem::InterleaveMap>(
        hp.num_stacks, hp.channels_per_stack, hp.capacity_bytes,
        hp.numa);
    const unsigned n_channels = map_->numChannels();
    for (unsigned ch = 0; ch < n_channels; ++ch) {
        channels_.push_back(std::make_unique<mem::DramChannel>(
            this, "ch" + std::to_string(ch), hp.channel));
        if (hp.enable_infinity_cache) {
            // The Infinity Cache SRAM lives in the IOD (paper
            // Fig. 10); its misses cross the 2.5D interposer to the
            // stack's channel.
            const unsigned stack = ch / hp.channels_per_stack;
            channel_links_.push_back(
                std::make_unique<fabric::RemoteMemDevice>(
                    this, "ch" + std::to_string(ch) + "_phy",
                    net_.get(), iod_nodes_[stack_iod_[stack]],
                    stack_nodes_[stack], channels_.back().get()));
            slices_.push_back(std::make_unique<mem::InfinityCacheSlice>(
                this, "mall" + std::to_string(ch), hp.cache,
                channel_links_.back().get()));
        }
    }

    // --- Compute -----------------------------------------------------
    for (std::size_t x = 0; x < xcd_nodes_.size(); ++x) {
        xcd_ports_.push_back(std::make_unique<MemPort>(
            this, "xcd" + std::to_string(x) + "_memport",
            xcd_nodes_[x]));
        xcds_.push_back(std::make_unique<gpu::Xcd>(
            this, "xcd" + std::to_string(x), cfg.xcd,
            xcd_ports_.back().get()));
    }
    for (std::size_t c = 0; c < ccd_nodes_.size(); ++c) {
        ccd_ports_.push_back(std::make_unique<MemPort>(
            this, "ccd" + std::to_string(c) + "_memport",
            ccd_nodes_[c]));
        ccds_.push_back(std::make_unique<cpu::Ccd>(
            this, "ccd" + std::to_string(c), cfg.ccd,
            ccd_ports_.back().get()));
    }

    // --- Coherence ---------------------------------------------------
    scopes_ = std::make_unique<coherence::ScopeController>(this,
                                                           "scopes");
    for (auto &x : xcds_)
        scopes_->addXcdCaches(x->l1Caches(), x->l2());
    filter_ = std::make_unique<coherence::ProbeFilter>(
        this, "probe_filter", /*capacity=*/0, /*line=*/64);
}

mem::AccessResult
Package::memAccessFrom(fabric::NodeId src, Tick when, Addr addr,
                       std::uint64_t bytes, bool write)
{
    constexpr std::uint64_t stripe = 256;

    mem::AccessResult res;
    res.hit = true;
    Tick complete = when;
    Addr a = addr;
    std::uint64_t remaining = bytes;
    const unsigned cps = map_->channelsPerStack();
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min(remaining, stripe - (a % stripe));
        const auto loc = map_->locate(a);
        const unsigned stack = loc.channel / cps;
        // With an Infinity Cache the request targets the cache slice
        // in the stack's IOD; without one it goes to the stack
        // itself (MI250X-style).
        const fabric::NodeId dst =
            slices_.empty() ? stack_nodes_[stack]
                            : iod_nodes_[stack_iod_[stack]];

        const auto r = fabric::roundTrip(
            *net_, when, src, dst, chunk, write, [&](Tick t) {
                if (slices_.empty())
                    return channels_[loc.channel]->access(
                        t, loc.local, chunk, write);
                return slices_[loc.channel]->access(t, loc.local,
                                                    chunk, write);
            });
        res.hit = res.hit && r.hit;
        res.bytes_below += r.bytes_below;
        complete = std::max(complete, r.complete);
        a += chunk;
        remaining -= chunk;
    }
    res.complete = complete;
    return res;
}

std::vector<unsigned>
Package::supportedPartitionCounts() const
{
    const unsigned n = numXcds();
    if (n == 6)
        return {1, 3};              // MI300A (paper Fig. 17a)
    if (n == 8)
        return {1, 2, 4, 8};        // MI300X (paper Fig. 17b)
    std::vector<unsigned> out = {1};
    if (n > 1)
        out.push_back(n);
    return out;
}

std::vector<hsa::Partition *>
Package::partitionInto(unsigned n)
{
    const auto legal = supportedPartitionCounts();
    if (std::find(legal.begin(), legal.end(), n) == legal.end())
        fatal(cfg_.name, " does not support ", n, " partitions");
    const unsigned per = numXcds() / n;

    std::vector<hsa::Partition *> out;
    for (unsigned p = 0; p < n; ++p) {
        std::vector<gpu::Xcd *> xs;
        std::vector<fabric::NodeId> nodes;
        std::vector<unsigned> scope_ids;
        for (unsigned j = 0; j < per; ++j) {
            const unsigned g = p * per + j;
            xs.push_back(xcds_[g].get());
            nodes.push_back(xcd_nodes_[g]);
            scope_ids.push_back(g);
        }
        partitions_.push_back(std::make_unique<hsa::Partition>(
            this,
            "part" + std::to_string(partitions_.size()),
            std::move(xs), scopes_.get(), net_.get(),
            std::move(nodes), iod_nodes_[0], std::move(scope_ids)));
        out.push_back(partitions_.back().get());
    }
    return out;
}

double
Package::peakGpuFlops(gpu::Pipe pipe, gpu::DataType dt,
                      bool sparse) const
{
    double f = 0;
    for (const auto &x : xcds_)
        f += x->peakFlops(pipe, dt, sparse);
    return f;
}

BytesPerSecond
Package::peakMemBandwidth() const
{
    return cfg_.hbm.channel.bandwidth *
           static_cast<double>(map_->numChannels());
}

BytesPerSecond
Package::peakCacheBandwidth() const
{
    if (slices_.empty())
        return peakMemBandwidth();
    return cfg_.hbm.cache.hit_bandwidth *
           static_cast<double>(map_->numChannels());
}

double
Package::ioBandwidthGBs() const
{
    const double links = static_cast<double>(cfg_.iods.size()) *
                         cfg_.io_links_per_iod;
    return links * cfg_.io_link_gbps * 2.0;
}

unsigned
Package::totalCus() const
{
    unsigned n = 0;
    for (const auto &x : xcds_)
        n += x->numActiveCus();
    return n;
}

double
Package::cacheHitRate() const
{
    if (slices_.empty())
        return 0.0;
    double h = 0, m = 0;
    for (const auto &s : slices_) {
        h += s->hits.value();
        m += s->misses.value();
    }
    const double a = h + m;
    return a > 0 ? h / a : 0.0;
}

} // namespace soc
} // namespace ehpsim

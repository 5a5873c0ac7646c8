/**
 * @file
 * A full processor package: chiplets + fabric + memory, built from a
 * ProductConfig.
 *
 * The Package instantiates the Infinity Fabric graph (IOD nodes,
 * compute-die nodes, HBM-stack nodes, I/O nodes), the HBM channels
 * and Infinity Cache slices grouped under their stacks, the XCDs and
 * CCDs whose cache hierarchies bottom out in fabric-routed memory
 * ports, the GPU scope controller, the CPU probe filter, and the
 * HSA partitions (paper Figs. 5, 16, 17).
 */

#ifndef EHPSIM_SOC_PACKAGE_HH
#define EHPSIM_SOC_PACKAGE_HH

#include <memory>
#include <vector>

#include "coherence/gpu_scope.hh"
#include "coherence/probe_filter.hh"
#include "cpu/ccd.hh"
#include "fabric/network.hh"
#include "fabric/remote_device.hh"
#include "gpu/xcd.hh"
#include "hsa/partition.hh"
#include "mem/dram.hh"
#include "mem/infinity_cache.hh"
#include "mem/interleave.hh"
#include "soc/product_config.hh"

namespace ehpsim
{
namespace soc
{

class Package : public SimObject
{
  public:
    Package(SimObject *parent, const std::string &name,
            const ProductConfig &cfg, EventQueue *eq = nullptr,
            mem::NumaMode numa = mem::NumaMode::nps1);

    const ProductConfig &config() const { return cfg_; }

    fabric::Network *network() { return net_.get(); }

    const mem::InterleaveMap &memMap() const { return *map_; }

    unsigned numXcds() const
    {
        return static_cast<unsigned>(xcds_.size());
    }

    unsigned numCcds() const
    {
        return static_cast<unsigned>(ccds_.size());
    }

    gpu::Xcd *xcd(unsigned i) { return xcds_[i].get(); }

    cpu::Ccd *ccd(unsigned i) { return ccds_[i].get(); }

    coherence::ScopeController *scopes() { return scopes_.get(); }

    coherence::ProbeFilter *probeFilter() { return filter_.get(); }

    /** @{ fabric node ids */
    fabric::NodeId iodNode(unsigned i) const { return iod_nodes_[i]; }

    fabric::NodeId xcdNode(unsigned i) const { return xcd_nodes_[i]; }

    fabric::NodeId ccdNode(unsigned i) const { return ccd_nodes_[i]; }

    fabric::NodeId stackNode(unsigned s) const
    {
        return stack_nodes_[s];
    }

    unsigned numIoPorts() const
    {
        return static_cast<unsigned>(io_nodes_.size());
    }

    fabric::NodeId ioNode(unsigned k) const { return io_nodes_[k]; }
    /** @} */

    /**
     * A fabric-routed memory access originating at node @p src
     * (the package's load/store path: interleave, route, Infinity
     * Cache, HBM).
     */
    mem::AccessResult memAccessFrom(fabric::NodeId src, Tick when,
                                    Addr addr, std::uint64_t bytes,
                                    bool write);

    /** Memory port used by XCD @p i's L2 misses. */
    mem::MemDevice *xcdMemPort(unsigned i)
    {
        return xcd_ports_[i].get();
    }

    /** Memory port used by CCD @p i's L3 misses. */
    mem::MemDevice *ccdMemPort(unsigned i)
    {
        return ccd_ports_[i].get();
    }

    /** @{ partitioning (paper Fig. 17) */

    /** Legal partition counts for this product. */
    std::vector<unsigned> supportedPartitionCounts() const;

    /**
     * Split the XCDs into @p n equal partitions (fatal if not a
     * legal count). Partition objects are owned by the package.
     */
    std::vector<hsa::Partition *> partitionInto(unsigned n);
    /** @} */

    /** @{ headline metrics (paper Fig. 19) */
    double peakGpuFlops(gpu::Pipe pipe, gpu::DataType dt,
                        bool sparse = false) const;

    BytesPerSecond peakMemBandwidth() const;

    BytesPerSecond peakCacheBandwidth() const;

    std::uint64_t memCapacity() const
    {
        return cfg_.hbm.capacity_bytes;
    }

    /** Aggregate x16 I/O bandwidth, both directions (GB/s). */
    double ioBandwidthGBs() const;

    unsigned totalCus() const;
    /** @} */

    mem::InfinityCacheSlice *slice(unsigned ch)
    {
        return ch < slices_.size() ? slices_[ch].get() : nullptr;
    }

    mem::DramChannel *channel(unsigned ch)
    {
        return channels_[ch].get();
    }

    /** Aggregate Infinity-Cache hit rate (0 when absent). */
    double cacheHitRate() const;

  private:
    /** Memory port: a MemDevice bound to an originating node. */
    class MemPort : public mem::MemDevice
    {
      public:
        MemPort(Package *pkg, const std::string &name,
                fabric::NodeId src)
            : mem::MemDevice(pkg, name), pkg_(pkg), src_(src)
        {}

        mem::AccessResult
        access(Tick when, Addr addr, std::uint64_t bytes,
               bool write) override
        {
            return pkg_->memAccessFrom(src_, when, addr, bytes,
                                       write);
        }

      private:
        Package *pkg_;
        fabric::NodeId src_;
    };

    ProductConfig cfg_;
    std::unique_ptr<fabric::Network> net_;
    std::unique_ptr<mem::InterleaveMap> map_;

    std::vector<fabric::NodeId> iod_nodes_;
    std::vector<fabric::NodeId> xcd_nodes_;
    std::vector<fabric::NodeId> ccd_nodes_;
    std::vector<fabric::NodeId> stack_nodes_;
    std::vector<fabric::NodeId> io_nodes_;

    std::vector<unsigned> stack_iod_;   ///< owning IOD per stack
    std::vector<std::unique_ptr<mem::DramChannel>> channels_;
    /** Cache-miss path: IOD -> interposer -> stack's channel. */
    std::vector<std::unique_ptr<fabric::RemoteMemDevice>>
        channel_links_;
    std::vector<std::unique_ptr<mem::InfinityCacheSlice>> slices_;

    std::vector<std::unique_ptr<MemPort>> xcd_ports_;
    std::vector<std::unique_ptr<MemPort>> ccd_ports_;

    std::vector<std::unique_ptr<gpu::Xcd>> xcds_;
    std::vector<std::unique_ptr<cpu::Ccd>> ccds_;

    std::unique_ptr<coherence::ScopeController> scopes_;
    std::unique_ptr<coherence::ProbeFilter> filter_;

    std::vector<std::unique_ptr<hsa::Partition>> partitions_;
};

} // namespace soc
} // namespace ehpsim

#endif // EHPSIM_SOC_PACKAGE_HH

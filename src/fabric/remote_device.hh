/**
 * @file
 * Memory behind the fabric: the request/response exchange every
 * fabric-routed memory access makes, and an adapter exposing a
 * MemDevice across the network with it.
 *
 * A RemoteMemDevice makes "memory behind the network" composable.
 * It models, e.g., an IOD's Infinity Cache reaching its HBM stack
 * over the interposer, or a host CPU reaching a discrete GPU's HBM
 * over PCIe.
 */

#ifndef EHPSIM_FABRIC_REMOTE_DEVICE_HH
#define EHPSIM_FABRIC_REMOTE_DEVICE_HH

#include "fabric/network.hh"
#include "mem/mem_device.hh"

namespace ehpsim
{
namespace fabric
{

/** Command/ack packet overhead in bytes. */
inline constexpr std::uint64_t controlBytes = 32;

/**
 * Carry a @p bytes access from @p src to @p dst and back, starting
 * at @p when: the request (command, plus the payload when writing)
 * goes out, @p serve(arrival) performs the access and returns its
 * mem::AccessResult, and the response (payload when reading, ack
 * when writing) returns. The result comes back with `complete`
 * moved to the response's arrival.
 */
template <typename Serve>
inline mem::AccessResult
roundTrip(Network &net, Tick when, NodeId src, NodeId dst,
          std::uint64_t bytes, bool write, Serve &&serve)
{
    const Tick arrival =
        net.send(when, src, dst, controlBytes + (write ? bytes : 0))
            .arrival;
    mem::AccessResult r = serve(arrival);
    r.complete = net.send(r.complete, dst, src,
                          controlBytes + (write ? 0 : bytes))
                     .arrival;
    return r;
}

class RemoteMemDevice : public mem::MemDevice
{
  public:
    RemoteMemDevice(SimObject *parent, const std::string &name,
                    Network *net, NodeId src, NodeId dst,
                    mem::MemDevice *target)
        : mem::MemDevice(parent, name),
          net_(net), src_(src), dst_(dst), target_(target)
    {}

    mem::AccessResult
    access(Tick when, Addr addr, std::uint64_t bytes,
           bool write) override
    {
        return roundTrip(*net_, when, src_, dst_, bytes, write,
                         [&](Tick arrival) {
                             return target_->access(arrival, addr,
                                                    bytes, write);
                         });
    }

  private:
    Network *net_;
    NodeId src_;
    NodeId dst_;
    mem::MemDevice *target_;
};

} // namespace fabric
} // namespace ehpsim

#endif // EHPSIM_FABRIC_REMOTE_DEVICE_HH

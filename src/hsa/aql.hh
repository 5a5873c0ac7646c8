/**
 * @file
 * HSA Architected Queueing Language structures (paper Sec. VI.A).
 *
 * AQL packets describe a high-level goal — "launch kernel X with Y
 * workgroups of Z threads" — rather than register-level commands.
 * That abstraction is what lets an ACE on *each* XCD of a partition
 * independently read the same packet and launch its own subset of
 * the workgroups.
 */

#ifndef EHPSIM_HSA_AQL_HH
#define EHPSIM_HSA_AQL_HH

#include <cstdint>
#include <vector>

#include "coherence/gpu_scope.hh"
#include "gpu/compute_unit.hh"

namespace ehpsim
{
namespace hsa
{

/** Completion signal: decremented when the kernel finishes. */
struct Signal
{
    std::int64_t value = 1;
    Tick completed_at = 0;

    bool done() const { return value <= 0; }
};

/** Packet types (subset of the HSA AQL formats). */
enum class PacketType
{
    kernelDispatch,
    barrierAnd,     ///< wait for signals, then proceed
};

/** A kernel-dispatch AQL packet. */
struct AqlPacket
{
    PacketType type = PacketType::kernelDispatch;

    /** Grid: total workgroups and threads per workgroup. */
    std::uint64_t grid_workgroups = 1;
    std::uint32_t workgroup_size = 256;

    /** Per-workgroup execution requirements (uniform grid). */
    gpu::WorkgroupWork work;

    /** Stride between consecutive workgroups' memory footprints. */
    std::uint64_t read_stride = 0;
    std::uint64_t write_stride = 0;

    /** Memory ordering scopes applied at kernel begin/end. */
    coherence::Scope acquire_scope = coherence::Scope::device;
    coherence::Scope release_scope = coherence::Scope::device;

    /** For barrierAnd packets: proceed once all of these are done. */
    std::vector<const Signal *> wait_signals;

    Signal *completion = nullptr;
};

} // namespace hsa
} // namespace ehpsim

#endif // EHPSIM_HSA_AQL_HH

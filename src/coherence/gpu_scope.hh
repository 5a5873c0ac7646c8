/**
 * @file
 * GPU scoped (acquire/release) coherence (paper Sec. IV.D, VI.A).
 *
 * Within a socket the XCDs are hardware coherent through a simpler
 * directory; across sockets the GPUs are *software* coherent: kernels
 * bracket their memory with acquire (invalidate stale local copies)
 * and release (make writes visible) operations at a chosen scope.
 * The ScopeController turns acquire/release at each scope into cache
 * maintenance on the registered cache levels and accounts the
 * resulting traffic, which is what the "coherence scope" step of the
 * multi-XCD dispatch flow (Fig. 13) costs.
 */

#ifndef EHPSIM_COHERENCE_GPU_SCOPE_HH
#define EHPSIM_COHERENCE_GPU_SCOPE_HH

#include <vector>

#include "mem/cache.hh"
#include "sim/sim_object.hh"

namespace ehpsim
{
namespace coherence
{

/** HSA-style memory scopes, from narrowest to widest. */
enum class Scope
{
    workgroup,  ///< visible within one CU's workgroup (LDS/L1)
    agent,      ///< visible across one XCD (flush L1s to L2)
    device,     ///< visible across the socket (flush L2 to fabric)
    system,     ///< visible across sockets (software coherence)
};

/** Cache maintenance cost of one acquire or release. */
struct ScopeOp
{
    std::uint64_t lines_invalidated = 0;
    std::uint64_t bytes_written_back = 0;
    Tick complete = 0;
};

class ScopeController : public SimObject
{
  public:
    ScopeController(SimObject *parent, const std::string &name);

    /** Register an XCD's L1 caches and its L2. */
    void addXcdCaches(std::vector<mem::Cache *> l1s, mem::Cache *l2);

    unsigned numXcds() const
    {
        return static_cast<unsigned>(l2s_.size());
    }

    /**
     * Acquire at @p scope for XCD @p xcd: invalidate caches that may
     * hold stale data.
     */
    ScopeOp acquire(Tick when, unsigned xcd, Scope scope);

    /**
     * Release at @p scope for XCD @p xcd: write dirty data out to the
     * visibility point.
     */
    ScopeOp release(Tick when, unsigned xcd, Scope scope);

    /** @{ statistics */
    stats::Scalar acquires;
    stats::Scalar releases;
    stats::Scalar l1_invalidations;
    stats::Scalar l2_flush_bytes;
    /** @} */

  private:
    std::vector<std::vector<mem::Cache *>> l1s_;  ///< per XCD
    std::vector<mem::Cache *> l2s_;               ///< per XCD
};

} // namespace coherence
} // namespace ehpsim

#endif // EHPSIM_COHERENCE_GPU_SCOPE_HH

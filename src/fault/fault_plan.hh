/**
 * @file
 * Declarative fault plans for resilience studies (DESIGN.md §10).
 *
 * The paper's products are built around imperfect silicon: every
 * XCD ships with 38 of its 40 CUs enabled for yield harvesting
 * (Sec. IV.B), and the Fig. 18 node topologies only reach their
 * rated bandwidth while all eight x16 links per socket are healthy.
 * A FaultPlan describes, deterministically, what breaks and when:
 * CU harvesting beyond stock, fabric links dying or derating at a
 * given tick, HBM channels blacking out, and a transient per-chunk
 * transfer error rate drawn from a seeded Rng. A FaultInjector
 * turns the plan into events on the simulation's EventQueue.
 */

#ifndef EHPSIM_FAULT_FAULT_PLAN_HH
#define EHPSIM_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/xcd.hh"
#include "sim/types.hh"

namespace ehpsim
{
namespace fault
{

/** One fabric link pair failing or degrading at a given tick. */
struct LinkFault
{
    std::string node_a;
    std::string node_b;
    Tick at = 0;
    /** 0 kills the link pair; (0, 1) derates it to this fraction. */
    double derate = 0.0;
};

/** One HBM channel blacking out at a given tick. */
struct ChannelFault
{
    unsigned channel = 0;
    Tick at = 0;
};

/**
 * Everything a resilience run injects. Plans are plain data so
 * sweeps can build them per job; the same plan + seed always
 * produces the same faults at the same ticks.
 */
struct FaultPlan
{
    /** Seeds the transient-error draw: a counter-based hash of
     *  (seed, op, task, attempt), independent of event order
     *  (sim/rng.hh counterHashUnit). */
    std::uint64_t seed = 1;

    /** Probability each chunk transfer attempt fails in transit. */
    double chunk_error_rate = 0.0;

    /**
     * CU harvest level applied at construction via applyCuHarvest()
     * (0 = leave the product's stock harvesting untouched).
     */
    unsigned active_cus = 0;

    std::vector<LinkFault> link_faults;
    std::vector<ChannelFault> channel_faults;

    /** Fatal on out-of-range rates or derate factors. */
    void validate() const;

    /** One-line human-readable summary. */
    std::string describe() const;
};

/**
 * Parse "a:b@TICK" (kill the a <-> b pair at TICK) with an optional
 * "*F" suffix derating to fraction F instead: "a:b@5000000*0.5".
 */
LinkFault parseLinkFault(const std::string &spec);

/**
 * Harvest an XCD down to @p active_cus enabled CUs (stock MI300
 * ships 38 of 40). Flows into dispatch, peak flops and
 * utilization. Fatal on 0 or more CUs than physically present.
 */
void applyCuHarvest(gpu::XcdParams &params, unsigned active_cus);

} // namespace fault
} // namespace ehpsim

#endif // EHPSIM_FAULT_FAULT_PLAN_HH

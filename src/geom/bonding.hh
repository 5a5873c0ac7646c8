/**
 * @file
 * Die-attach interface models (paper Secs. V.A, V.D, Figs. 3, 6, 11).
 *
 * MI300 mixes three vertical interconnect classes:
 *  - hybrid bonding (direct Cu-Cu fusion): 9 um pad pitch for both
 *    V-Cache and MI300A, superior thermal conduction, used to stack
 *    CCDs/XCDs on the IODs;
 *  - microbumps: 35 um minimum pitch (the USR interface), used
 *    between the IODs and the 2.5D interposer and for HBM stacks;
 *  - conventional C4/organic-substrate bumps (~130 um), the EHPv4-
 *    era 2D interconnect.
 *
 * The BondInterface model exposes the figure-of-merit comparisons
 * the paper makes: connection density, areal bandwidth density, and
 * thermal conduction. Fig. 11's BPV change (landing the bond-pad via
 * on the aluminum RDL instead of top-level metal) is modeled as a
 * power-delivery resistance difference.
 */

#ifndef EHPSIM_GEOM_BONDING_HH
#define EHPSIM_GEOM_BONDING_HH

#include <string>

namespace ehpsim
{
namespace geom
{

enum class BondKind
{
    hybridBond,     ///< Cu-Cu direct bond (V-Cache, MI300 3D)
    microbump,      ///< solder microbumps (2.5D, HBM, USR)
    c4Bump,         ///< conventional flip-chip bumps (2D substrate)
};

struct BondInterface
{
    BondKind kind = BondKind::hybridBond;
    double pitch_um = 9.0;
    /** Signal bandwidth per connection (Gbit/s). */
    double gbps_per_connection = 4.0;
    /** Thermal conductance per mm^2 of interface (W/(K*mm^2)). */
    double thermal_w_per_k_mm2 = 2.0;
    /** Series resistance per connection (mOhm). */
    double resistance_mohm = 50.0;

    /** Connections per mm^2 (square grid at the pitch). */
    double connectionsPerMm2() const;

    /** Areal bandwidth density in Tbps/mm^2. */
    double bandwidthDensityTbpsMm2() const;

    /**
     * Vertical thermal resistance (K/W) of an @p area_mm2 interface.
     */
    double thermalResistance(double area_mm2) const;

    /**
     * Effective power-delivery resistance (mOhm) of an @p area_mm2
     * field with a @p pg_fraction share of power/ground connections.
     */
    double powerResistanceMohm(double area_mm2,
                               double pg_fraction) const;
};

/** The 9 um hybrid-bond interface of V-Cache and MI300A. */
BondInterface hybridBond9um();

/** The 35 um microbump interface (USR minimum pitch). */
BondInterface microbump35um();

/** Conventional ~130 um flip-chip bumps (2D packaging). */
BondInterface c4Bump130um();

/**
 * Fig. 11 contrast: effective bond-pad-via resistance when landing
 * on top-level metal (V-Cache-era SRAM die) vs directly on the
 * aluminum RDL (MI300A compute die), in mOhm per connection. The
 * RDL path is lower resistance, which is what lets the same hybrid
 * bond process feed high-power compute chiplets.
 */
double bpvResistanceMohm(bool lands_on_rdl);

} // namespace geom
} // namespace ehpsim

#endif // EHPSIM_GEOM_BONDING_HH

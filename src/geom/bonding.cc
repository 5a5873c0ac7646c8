#include "geom/bonding.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace geom
{

double
BondInterface::connectionsPerMm2() const
{
    const double pitch_mm = pitch_um * 1e-3;
    return 1.0 / (pitch_mm * pitch_mm);
}

double
BondInterface::bandwidthDensityTbpsMm2() const
{
    return connectionsPerMm2() * gbps_per_connection / 1000.0;
}

double
BondInterface::thermalResistance(double area_mm2) const
{
    if (area_mm2 <= 0)
        fatal("bond interface area must be positive");
    return 1.0 / (thermal_w_per_k_mm2 * area_mm2);
}

double
BondInterface::powerResistanceMohm(double area_mm2,
                                   double pg_fraction) const
{
    const double n = connectionsPerMm2() * area_mm2 * pg_fraction;
    if (n <= 0)
        fatal("no power/ground connections in bond field");
    return resistance_mohm / n;
}

BondInterface
hybridBond9um()
{
    BondInterface b;
    b.kind = BondKind::hybridBond;
    b.pitch_um = 9.0;           // V-Cache and MI300A (Sec. V.A)
    b.gbps_per_connection = 2.0;
    b.thermal_w_per_k_mm2 = 5.0;    // fused Cu: superior conduction
    b.resistance_mohm = 20.0;
    return b;
}

BondInterface
microbump35um()
{
    BondInterface b;
    b.kind = BondKind::microbump;
    b.pitch_um = 35.0;          // USR minimum pitch (Sec. V.A)
    b.gbps_per_connection = 8.0;
    b.thermal_w_per_k_mm2 = 0.8;
    b.resistance_mohm = 80.0;
    return b;
}

BondInterface
c4Bump130um()
{
    BondInterface b;
    b.kind = BondKind::c4Bump;
    b.pitch_um = 130.0;
    b.gbps_per_connection = 16.0;
    b.thermal_w_per_k_mm2 = 0.15;
    b.resistance_mohm = 300.0;
    return b;
}

double
bpvResistanceMohm(bool lands_on_rdl)
{
    // Fig. 11: (a) V-Cache-era BPV lands on the SRAM die's top-level
    // metal; (b) MI300A lands the BPV directly on the aluminum RDL,
    // a lower-resistance path sized for compute-chiplet current.
    return lands_on_rdl ? 6.0 : 18.0;
}

} // namespace geom
} // namespace ehpsim

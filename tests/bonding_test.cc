/**
 * @file
 * Tests for the die-attach interface models (paper Secs. V.A/V.D,
 * Figs. 3, 6, 11).
 */

#include <gtest/gtest.h>

#include "geom/bonding.hh"

using namespace ehpsim;
using namespace ehpsim::geom;

TEST(Bonding, PitchesMatchPaper)
{
    // Sec. V.A: 9 um hybrid bond (V-Cache and MI300A); 35 um USR
    // microbump minimum pitch.
    EXPECT_DOUBLE_EQ(hybridBond9um().pitch_um, 9.0);
    EXPECT_DOUBLE_EQ(microbump35um().pitch_um, 35.0);
    EXPECT_GT(c4Bump130um().pitch_um, 100.0);
}

TEST(Bonding, ConnectionDensityScalesInversePitchSquared)
{
    const auto hb = hybridBond9um();
    const auto ub = microbump35um();
    const double ratio =
        hb.connectionsPerMm2() / ub.connectionsPerMm2();
    EXPECT_NEAR(ratio, (35.0 * 35.0) / (9.0 * 9.0), 1e-6);
}

TEST(Bonding, HybridBondBeatsMicrobumpBandwidthDensity)
{
    // The >10x area-bandwidth-density claim is for USR-vs-SerDes,
    // but hybrid bonding must also beat microbumps per mm^2 even at
    // a lower per-connection rate.
    EXPECT_GT(hybridBond9um().bandwidthDensityTbpsMm2(),
              3.0 * microbump35um().bandwidthDensityTbpsMm2());
}

TEST(Bonding, HybridBondThermallySuperior)
{
    // Sec. V.A: hybrid bonding has superior thermal conduction
    // versus microbump stacking — essential for compute-on-IOD.
    const double area = 70.0;   // an XCD footprint
    EXPECT_LT(hybridBond9um().thermalResistance(area),
              microbump35um().thermalResistance(area) / 3.0);
}

TEST(Bonding, PowerResistanceDropsWithArea)
{
    const auto hb = hybridBond9um();
    EXPECT_LT(hb.powerResistanceMohm(100.0, 0.5),
              hb.powerResistanceMohm(10.0, 0.5));
}

TEST(Bonding, BpvOnRdlIsLowerResistance)
{
    // Fig. 11: MI300A lands the bond-pad via on the aluminum RDL,
    // the lower-resistance path that feeds compute chiplets.
    EXPECT_LT(bpvResistanceMohm(true), bpvResistanceMohm(false));
}

TEST(Bonding, InvalidAreasFatal)
{
    EXPECT_THROW(hybridBond9um().thermalResistance(0.0),
                 std::runtime_error);
    EXPECT_THROW(hybridBond9um().powerResistanceMohm(10.0, 0.0),
                 std::runtime_error);
}

TEST(Bonding, VCacheVsMi300PowerDelivery)
{
    // The same hybrid-bond process, but MI300A's RDL landing halves
    // the per-connection delivery resistance versus the V-Cache-era
    // interface: more current per pad for the compute chiplets.
    auto vcache = hybridBond9um();
    vcache.resistance_mohm += bpvResistanceMohm(false);
    auto mi300 = hybridBond9um();
    mi300.resistance_mohm += bpvResistanceMohm(true);
    EXPECT_LT(mi300.powerResistanceMohm(70.0, 0.5),
              vcache.powerResistanceMohm(70.0, 0.5));
}

/**
 * @file
 * Tests for package geometry: transforms, TSV grids, the Fig. 9
 * mirroring-redundancy property, floorplans, and power delivery.
 */

#include <gtest/gtest.h>

#include "geom/alignment.hh"
#include "geom/floorplan.hh"
#include "geom/footprint.hh"
#include "geom/power_delivery.hh"
#include "geom/rect.hh"
#include "geom/transform.hh"
#include "geom/tsv_grid.hh"

using namespace ehpsim;
using namespace ehpsim::geom;

TEST(Rect, BasicPredicates)
{
    Rect r{1, 2, 4, 3};
    EXPECT_DOUBLE_EQ(r.area(), 12.0);
    EXPECT_TRUE(r.contains(Point{3, 4}));
    EXPECT_FALSE(r.contains(Point{0, 0}));
    EXPECT_TRUE(r.contains(Rect{2, 3, 1, 1}));
    EXPECT_FALSE(r.contains(Rect{4, 4, 3, 3}));
}

TEST(Rect, IntersectionAndBbox)
{
    Rect a{0, 0, 4, 4};
    Rect b{2, 2, 4, 4};
    EXPECT_TRUE(a.intersects(b));
    const Rect i = a.intersection(b);
    EXPECT_DOUBLE_EQ(i.area(), 4.0);
    const Rect u = a.bbox(b);
    EXPECT_DOUBLE_EQ(u.area(), 36.0);
    Rect c{10, 10, 1, 1};
    EXPECT_FALSE(a.intersects(c));
    EXPECT_DOUBLE_EQ(a.intersection(c).area(), 0.0);
}

TEST(Rect, AbuttingRectsDoNotIntersect)
{
    Rect a{0, 0, 2, 2};
    Rect b{2, 0, 2, 2};
    EXPECT_FALSE(a.intersects(b));
}

TEST(Transform, PointMapping)
{
    const double w = 10, h = 6;
    const Point p{1, 2};
    EXPECT_EQ(Transform(w, h, Orient::r0).apply(p), (Point{1, 2}));
    EXPECT_EQ(Transform(w, h, Orient::r180).apply(p), (Point{9, 4}));
    EXPECT_EQ(Transform(w, h, Orient::mirrored).apply(p),
              (Point{9, 2}));
    EXPECT_EQ(Transform(w, h, Orient::mirroredR180).apply(p),
              (Point{1, 4}));
}

TEST(Transform, OffsetApplies)
{
    Transform t(10, 6, Orient::r0, 100, 200);
    EXPECT_EQ(t.apply(Point{1, 2}), (Point{101, 202}));
}

class OrientInvolution : public ::testing::TestWithParam<Orient>
{
};

TEST_P(OrientInvolution, EveryOrientIsItsOwnInverse)
{
    const Orient o = GetParam();
    Transform t(12, 8, o);
    const Point p{3.5, 1.25};
    EXPECT_EQ(t.apply(t.apply(p)), p);
}

INSTANTIATE_TEST_SUITE_P(AllOrients, OrientInvolution,
                         ::testing::ValuesIn(allOrients));

TEST(TsvSiteSet, MembershipWithTolerance)
{
    TsvSiteSet s({{1, 1}, {2, 2}});
    EXPECT_TRUE(s.containsSite({1.0005, 1.0}));
    EXPECT_FALSE(s.containsSite({1.1, 1.0}));
    EXPECT_EQ(s.countAligned({{1, 1}, {3, 3}}), 1u);
}

TEST(PowerTsvGrid, CenteredGridIsSymmetric)
{
    PowerTsvGrid grid({0, 0, 10, 8}, 0.5);
    TsvSiteSet sites(grid.sites());
    for (Orient o : allOrients)
        EXPECT_TRUE(sites.symmetricUnder(o, 10, 8))
            << orientName(o);
}

TEST(PowerTsvGrid, DensityAndCurrent)
{
    PowerTsvGrid grid({0, 0, 10, 10}, 1.0);
    EXPECT_EQ(grid.numSites(), 121u);   // 11 x 11
    // Paper Sec. V.D: >1.5 A/mm^2 through the chiplet TSV grid.
    EXPECT_DOUBLE_EQ(grid.currentCapacity(1.5), 150.0);
}

TEST(PowerTsvGrid, ChannelWidthForSramMacros)
{
    PowerTsvGrid grid({0, 0, 10, 10}, 0.5);
    // Fig. 10: Infinity Cache arrays pitch-matched between stripes.
    EXPECT_DOUBLE_EQ(grid.channelWidth(0.1), 0.4);
    EXPECT_DOUBLE_EQ(grid.channelWidth(0.6), 0.0);
}

namespace
{

/** A small XCD-like chiplet with one off-center signal bank. */
ChipletFootprint
makeChiplet()
{
    ChipletFootprint fp("xcd", 6.0, 4.0);
    fp.addBank({"tsv_main", {0.5, 0.5, 1.0, 1.0}, 0.25});
    fp.addBank({"tsv_aux", {4.0, 2.5, 1.0, 1.0}, 0.25});
    return fp;
}

/** IOD plan whose banks line up with the chiplet at offset (2, 3). */
IodTsvPlan
makeIodPlan(bool redundant)
{
    IodTsvPlan plan(10.0, 10.0);
    plan.addBank({"land_main", {2.5, 3.5, 1.0, 1.0}, 0.25});
    plan.addBank({"land_aux", {6.0, 5.5, 1.0, 1.0}, 0.25});
    if (redundant)
        plan.addMirrorRedundancy();
    return plan;
}

} // anonymous namespace

TEST(Alignment, ChipletAlignsOnNormalIod)
{
    const auto chiplet = makeChiplet();
    const auto plan = makeIodPlan(false);
    const auto res = plan.checkStackAlignment(chiplet, Orient::r0,
                                              2.0, 3.0, Orient::r0);
    EXPECT_TRUE(res.aligned);
    EXPECT_EQ(res.pads_checked, res.pads_aligned);
    EXPECT_GT(res.pads_checked, 0u);
}

TEST(Alignment, ChipletMisalignsOnMirroredIodWithoutRedundancy)
{
    const auto chiplet = makeChiplet();
    const auto plan = makeIodPlan(false);
    // The unmirrored chiplet on a mirrored IOD: the banks are
    // asymmetric, so alignment must fail (this is the Fig. 9
    // problem statement).
    const auto res = plan.checkStackAlignment(
        chiplet, Orient::r0, 2.0, 3.0, Orient::mirrored);
    EXPECT_FALSE(res.aligned);
}

/**
 * Fig. 9's property: with mirror-redundant TSVs the redundant site
 * set is invariant under mirroring, so the *unmirrored* chiplet at
 * its *original* placement still lands on TSVs when the IOD below
 * is a mirrored instance.
 */
TEST(Alignment, RedundantTsvsEnableMirroredIods)
{
    const auto chiplet = makeChiplet();
    const auto plan = makeIodPlan(true);

    const auto normal = plan.checkStackAlignment(
        chiplet, Orient::r0, 2.0, 3.0, Orient::r0);
    EXPECT_TRUE(normal.aligned);

    const auto on_mirrored_iod = plan.checkStackAlignment(
        chiplet, Orient::r0, 2.0, 3.0, Orient::mirrored);
    EXPECT_TRUE(on_mirrored_iod.aligned);
    EXPECT_EQ(normal.pads_checked, on_mirrored_iod.pads_checked);
}

/**
 * The full MI300 assembly matrix: the paper pairs rotated chiplets
 * with rotated IOD instances (one XCD per IOD is rotated 180°) and
 * mirror-redundant TSVs cover the mirrored instances. Sweep every
 * IOD orientation with the correspondingly placed chiplet.
 */
class AssemblyMatrix : public ::testing::TestWithParam<Orient>
{
};

TEST_P(AssemblyMatrix, ChipletAlignsOnEveryIodInstance)
{
    const Orient iod_o = GetParam();
    const auto chiplet = makeChiplet();
    const auto plan = makeIodPlan(true);

    // The chiplet is never mirrored (no mirrored XCD masks exist);
    // rotated IOD instances carry a rotated chiplet at the rotated
    // offset, mirrored instances carry the unrotated chiplet at the
    // original offset (redundant TSVs absorb the mirror).
    Orient chip_o = Orient::r0;
    double ox = 2.0, oy = 3.0;
    if (iod_o == Orient::r180 || iod_o == Orient::mirroredR180) {
        chip_o = Orient::r180;
        ox = plan.width() - 2.0 - chiplet.width();
        oy = plan.height() - 3.0 - chiplet.height();
    }
    const auto res =
        plan.checkStackAlignment(chiplet, chip_o, ox, oy, iod_o);
    EXPECT_TRUE(res.aligned) << orientName(iod_o);
}

INSTANTIATE_TEST_SUITE_P(AllIodOrients, AssemblyMatrix,
                         ::testing::ValuesIn(allOrients));

TEST(Alignment, RedundancyAtMostDoublesSites)
{
    auto plan = makeIodPlan(false);
    const auto before = plan.numSites();
    auto plan_r = makeIodPlan(true);
    EXPECT_GT(plan_r.numSites(), before);
    EXPECT_LE(plan_r.numSites(), 2 * before);
}

TEST(Floorplan, RejectsOutOfBounds)
{
    Floorplan fp({0, 0, 10, 10});
    EXPECT_THROW(fp.add("big", {5, 5, 10, 10}, RegionKind::compute),
                 std::runtime_error);
}

TEST(Floorplan, DetectsOverlaps)
{
    Floorplan fp({0, 0, 10, 10});
    fp.add("a", {0, 0, 5, 5}, RegionKind::compute);
    fp.add("b", {4, 4, 5, 5}, RegionKind::cache);
    EXPECT_FALSE(fp.overlapFree());
    EXPECT_EQ(fp.overlaps().size(), 1u);
}

TEST(Floorplan, UtilizationExcludesUnused)
{
    Floorplan fp({0, 0, 10, 10});
    fp.add("a", {0, 0, 5, 10}, RegionKind::compute);
    fp.add("waste", {5, 0, 5, 10}, RegionKind::unused);
    EXPECT_DOUBLE_EQ(fp.utilization(), 0.5);
}

TEST(Floorplan, FindAndByKind)
{
    Floorplan fp({0, 0, 10, 10});
    fp.add("a", {0, 0, 2, 2}, RegionKind::compute);
    fp.add("b", {3, 3, 2, 2}, RegionKind::compute);
    fp.add("c", {6, 6, 2, 2}, RegionKind::memory);
    EXPECT_NE(fp.find("a"), nullptr);
    EXPECT_EQ(fp.find("zz"), nullptr);
}

TEST(PowerDelivery, CapacityCheck)
{
    PowerDeliveryModel pdn(0.75);
    // Paper Sec. V.D: 1.5 A/mm^2 TSV grid + 0.5 A/mm^2 microbumps.
    pdn.addPath({"tsv_grid", 100.0, 1.5, 0.05});
    pdn.addPath({"ubump", 100.0, 0.5, 0.1});

    const auto ok = pdn.check("tsv_grid", 100.0);    // 133 A demand
    EXPECT_TRUE(ok.ok);
    EXPECT_NEAR(ok.demand_a, 133.3, 0.1);
    EXPECT_DOUBLE_EQ(ok.capacity_a, 150.0);

    const auto bad = pdn.check("ubump", 100.0);      // only 50 A
    EXPECT_FALSE(bad.ok);
}

TEST(PowerDelivery, I2rLossGrowsQuadratically)
{
    PowerDeliveryModel pdn(1.0);
    pdn.addPath({"p", 1000.0, 10.0, 1.0});
    const auto a = pdn.check("p", 10.0);
    const auto b = pdn.check("p", 20.0);
    EXPECT_NEAR(b.i2r_loss_w / a.i2r_loss_w, 4.0, 1e-9);
}

TEST(PowerDelivery, UnknownPathFatal)
{
    PowerDeliveryModel pdn(1.0);
    EXPECT_THROW(pdn.check("nope", 1.0), std::runtime_error);
}

TEST(Footprint, BankOutsideDieRejected)
{
    ChipletFootprint fp("die", 5, 5);
    EXPECT_THROW(
        fp.addBank({"bad", {4, 4, 2, 2}, 0.5}),
        std::runtime_error);
}


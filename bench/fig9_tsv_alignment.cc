/**
 * @file
 * Reproduces paper Fig. 9: TSV replication (redundant signal TSVs)
 * lets unmirrored compute chiplets land on mirrored and rotated IOD
 * instances, and quantifies the redundancy overhead.
 */

#include "bench_util.hh"
#include "geom/alignment.hh"

using namespace ehpsim;
using namespace ehpsim::geom;

namespace
{

ChipletFootprint
makeXcd()
{
    // XCD-scale die with two asymmetric 3D interface banks.
    ChipletFootprint fp("xcd", 7.5, 5.5);
    fp.addBank({"tsv_w", {0.8, 1.0, 1.5, 3.0}, 0.25});
    fp.addBank({"tsv_e", {4.8, 0.8, 1.5, 3.0}, 0.25});
    return fp;
}

IodTsvPlan
makeIod(bool redundant)
{
    IodTsvPlan plan(11.5, 11.5);
    // Landing banks for an XCD placed at (2.0, 3.0).
    plan.addBank({"land_w", {2.8, 4.0, 1.5, 3.0}, 0.25});
    plan.addBank({"land_e", {6.8, 3.8, 1.5, 3.0}, 0.25});
    if (redundant)
        plan.addMirrorRedundancy();
    return plan;
}

bool
report()
{
    bench::printHeader("fig9",
                       "TSV redundancy vs mirrored/rotated IODs");
    const auto xcd = makeXcd();
    const auto base = makeIod(false);
    const auto redundant = makeIod(true);

    bench::printRow("fig9", "tsv_sites", "base",
                    static_cast<double>(base.numSites()), "sites");
    bench::printRow("fig9", "tsv_sites", "with_redundancy",
                    static_cast<double>(redundant.numSites()),
                    "sites");
    const double overhead =
        static_cast<double>(redundant.numSites()) / base.numSites();
    bench::printRow("fig9", "tsv_sites", "overhead_factor", overhead,
                    "x");

    bool pass = true;
    for (Orient iod_o : allOrients) {
        // Rotated IOD instances carry the rotated chiplet at the
        // rotated offset; mirroring is absorbed by redundancy.
        Orient chip_o = Orient::r0;
        double ox = 2.0, oy = 3.0;
        if (iod_o == Orient::r180 || iod_o == Orient::mirroredR180) {
            chip_o = Orient::r180;
            ox = redundant.width() - 2.0 - xcd.width();
            oy = redundant.height() - 3.0 - xcd.height();
        }
        const auto with =
            redundant.checkStackAlignment(xcd, chip_o, ox, oy, iod_o);
        const auto without =
            base.checkStackAlignment(xcd, chip_o, ox, oy, iod_o);
        bench::printRow("fig9", "aligned_pads_redundant",
                        orientName(iod_o),
                        static_cast<double>(with.pads_aligned),
                        "pads");
        bench::printRow("fig9", "aligned_pads_base",
                        orientName(iod_o),
                        static_cast<double>(without.pads_aligned),
                        "pads");
        if (!with.aligned)
            pass = false;
        if (isMirrored(iod_o) && without.aligned)
            pass = false;       // base plan must fail on mirrors
    }
    return bench::shapeCheck(
        "fig9", pass,
        "unmirrored chiplets align on all four IOD instances only "
        "with mirror-redundant TSVs (overhead < 2x sites)");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

/**
 * @file
 * Reproduces paper Fig. 12: (a) socket power distributions for
 * compute-intensive vs memory-intensive scenarios under the dynamic
 * power-shifting governor, and (b)/(c) steady-state thermal maps
 * showing XCD hotspots in the compute case and visible HBM-PHY /
 * USR-PHY heating in the memory case. Also checks the Sec. V.D
 * power-delivery ratings (1.5 A/mm^2 TSV grid + 0.5 A/mm^2 bumps).
 */

#include "bench_util.hh"
#include "core/apu_system.hh"
#include "geom/power_delivery.hh"
#include "power/governor.hh"
#include "power/thermal.hh"
#include "soc/floorplan_builder.hh"
#include "soc/utilization.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::power;

namespace
{

struct Scenario
{
    const char *name;
    PowerDistribution dist;
};

bool
report()
{
    bench::printHeader("fig12",
                       "power shifting and thermal scenarios");
    SimObject root(nullptr, "root");
    PowerModel *model = PowerModel::makeMi300a(&root);
    PowerGovernor gov(&root, "gov", model);
    const auto plan =
        soc::buildPackageFloorplan(soc::mi300aConfig());

    const Scenario scenarios[] = {
        {"compute_intensive", computeIntensiveDistribution()},
        {"memory_intensive", memoryIntensiveDistribution()},
    };

    double xcd_watts[2] = {0, 0};
    double hbm_watts[2] = {0, 0};
    double usr_watts[2] = {0, 0};
    double xcd_temp[2] = {0, 0};
    double usr_temp[2] = {0, 0};
    std::string hottest[2];

    for (int s = 0; s < 2; ++s) {
        const auto alloc = gov.allocateForDistribution(
            scenarios[s].dist);
        const auto per_domain = alloc.perDomain(*model);
        for (unsigned d = 0; d < numDomains; ++d) {
            bench::printRow("fig12a", scenarios[s].name,
                            domainName(static_cast<Domain>(d)),
                            per_domain[d] / alloc.total, "fraction");
        }
        xcd_watts[s] =
            per_domain[static_cast<unsigned>(Domain::xcd)];
        hbm_watts[s] =
            per_domain[static_cast<unsigned>(Domain::hbm)];
        usr_watts[s] =
            per_domain[static_cast<unsigned>(Domain::usr)];

        // Thermal map from the allocation.
        ThermalGrid grid(&root,
                         std::string("thermal_") + scenarios[s].name,
                         &plan);
        const auto region_watts =
            soc::regionPowerVector(plan, per_domain);
        grid.solve(region_watts);
        hottest[s] = grid.hottestRegion();
        xcd_temp[s] = grid.regionTemperature("xcd0");
        usr_temp[s] = grid.regionTemperature("iod0.usr_e");
        bench::printRow("fig12bc", scenarios[s].name, "max_temp",
                        grid.maxTemperature(), "C");
        bench::printRow("fig12bc", scenarios[s].name, "xcd0_temp",
                        xcd_temp[s], "C");
        bench::printRow("fig12bc", scenarios[s].name, "usr_temp",
                        usr_temp[s], "C");
        bench::printRow("fig12bc", scenarios[s].name, "hbm0_temp",
                        grid.regionTemperature("hbm0"), "C");
        std::printf("-- %s heat map --\n%s", scenarios[s].name,
                    grid.asciiHeatMap(48, 20).c_str());
    }

    // Sec. V.D: check power delivery for the worst (compute) case.
    // The TSV grid feeds the stacked compute chiplets (XCDs + CCDs);
    // the bottom-side microbumps feed the IOD's own logic (fabric,
    // Infinity Cache, USR, I/O, misc).
    geom::PowerDeliveryModel pdn(0.75);
    pdn.addPath({"tsv_grid", 6 * 72.0 + 3 * 71.0, 1.5, 0.02});
    pdn.addPath({"iod_ubump", 4 * 115.0, 0.5, 0.05});
    const auto compute_alloc =
        gov.allocateForDistribution(computeIntensiveDistribution());
    const auto cd = compute_alloc.perDomain(*model);
    const double chiplet_w =
        cd[static_cast<unsigned>(Domain::xcd)] +
        cd[static_cast<unsigned>(Domain::ccd)];
    const double iod_w =
        cd[static_cast<unsigned>(Domain::fabric)] +
        cd[static_cast<unsigned>(Domain::infinityCache)] +
        cd[static_cast<unsigned>(Domain::usr)] +
        cd[static_cast<unsigned>(Domain::io)] +
        cd[static_cast<unsigned>(Domain::other)];
    const auto tsv = pdn.check("tsv_grid", chiplet_w);
    const auto ubump = pdn.check("iod_ubump", iod_w);
    bench::printRow("sec5d", "tsv_grid", "margin", tsv.margin, "x");
    bench::printRow("sec5d", "iod_ubump", "margin", ubump.margin,
                    "x");

    // Workload-measured scenarios: drive the governor from actual
    // event-engine runs instead of hand-written distributions. A
    // compute-heavy GEMM vs a memory-heavy triad must reproduce the
    // same power shift.
    double meas_xcd[2] = {0, 0}, meas_hbm[2] = {0, 0};
    {
        const char *mnames[2] = {"measured_compute",
                                 "measured_memory"};
        for (int s = 0; s < 2; ++s) {
            core::ApuSystem sys(soc::mi300aConfig());
            workloads::Workload w;
            if (s == 0) {
                w = workloads::gemm(3072, 3072, 3072,
                                    gpu::DataType::fp16,
                                    gpu::Pipe::matrix);
                w.phases[0].grid_workgroups = 512;
            } else {
                w = workloads::streamTriad(1 << 19);
                w.phases[0].grid_workgroups = 512;
            }
            const auto rep = sys.run(w);
            const Tick span = ticksFromSeconds(rep.total_s);
            auto *wm = soc::makePowerModelFor(&root, sys.package());
            PowerGovernor wgov(&root,
                               std::string("gov_") + mnames[s], wm);
            const auto alloc = wgov.allocate(
                soc::measuredUtilization(sys.package(), span));
            const auto pd = alloc.perDomain(*wm);
            meas_xcd[s] =
                pd[static_cast<unsigned>(Domain::xcd)] / alloc.total;
            meas_hbm[s] =
                (pd[static_cast<unsigned>(Domain::hbm)] +
                 pd[static_cast<unsigned>(Domain::infinityCache)]) /
                alloc.total;
            bench::printRow("fig12a", mnames[s], "xcd_fraction",
                            meas_xcd[s], "fraction");
            bench::printRow("fig12a", mnames[s], "mem_fraction",
                            meas_hbm[s], "fraction");
            delete wm;
        }
    }

    // Fig. 12c's signature is *relative*: the USR PHYs stand out
    // against the compute dies in the memory scenario, while the
    // XCDs dominate in the compute scenario.
    const bool pass =
        meas_xcd[0] > meas_xcd[1] &&            // measured shift too
        meas_hbm[1] > meas_hbm[0] &&
        xcd_watts[0] > xcd_watts[1] &&          // compute shifts to XCD
        hbm_watts[1] > hbm_watts[0] &&          // memory shifts to HBM
        usr_watts[1] > usr_watts[0] &&
        hottest[0].rfind("xcd", 0) == 0 &&      // Fig 12b: XCD hotspot
        xcd_temp[0] > usr_temp[0] &&            // compute: XCD >> USR
        usr_temp[1] > xcd_temp[1] &&            // memory: USR stands out
        tsv.ok && ubump.ok;
    return bench::shapeCheck(
        "fig12", pass,
        "governor shifts power between compute chiplets and the "
        "memory/fabric system; hotspots sit on the XCDs in the "
        "compute scenario and USR/HBM PHYs heat in the memory "
        "scenario; delivery stays within the TSV/bump ratings");
    delete model;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

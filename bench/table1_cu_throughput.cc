/**
 * @file
 * Reproduces paper Table 1: peak operations-per-clock-per-CU for
 * CDNA 2 (MI250X) versus CDNA 3 (MI300A), vector and Matrix Core
 * pipes, including FP8 and 4:2 sparsity.
 *
 * The modeled rate is *measured* by timing a compute-bound
 * workgroup on a simulated CU and converting back to ops/clk, so
 * this checks the executable model, not just the table constants.
 */

#include "bench_util.hh"
#include "gpu/compute_unit.hh"

using namespace ehpsim;
using namespace ehpsim::gpu;

namespace
{

class FlatMemory : public mem::MemDevice
{
  public:
    explicit FlatMemory(SimObject *parent)
        : mem::MemDevice(parent, "flat")
    {}

    mem::AccessResult
    access(Tick when, Addr, std::uint64_t, bool) override
    {
        return {when + 1000, true, 0};
    }
};

/** Measure achieved ops/clk/CU for one pipe/type on a CU model. */
double
measuredOpsPerClock(CdnaGen gen, Pipe pipe, DataType dt, bool sparse)
{
    const std::uint64_t rate = opsPerClockPerCu(gen, pipe, dt, sparse);
    if (rate == 0)
        return 0.0;
    SimObject root(nullptr, "root");
    FlatMemory memory(&root);
    const CuParams params =
        gen == CdnaGen::cdna3 ? cdna3CuParams() : cdna2CuParams();
    ComputeUnit cu(&root, "cu", params, &memory, nullptr);

    WorkgroupWork work;
    work.flops = rate * 100000;     // 100k cycles of math
    work.dtype = dt;
    work.pipe = pipe;
    work.sparse = sparse;
    work.inst_bytes = 0;
    const Tick done = cu.runWorkgroup(0, work);
    const double cycles =
        static_cast<double>(done) /
        static_cast<double>(periodFromGHz(params.clock_ghz));
    return static_cast<double>(work.flops) / cycles;
}

struct Row
{
    const char *name;
    Pipe pipe;
    DataType dt;
    bool sparse;
    double paper_cdna2;
    double paper_cdna3;
};

const Row rows[] = {
    {"vector FP64", Pipe::vector, DataType::fp64, false, 128, 128},
    {"vector FP32", Pipe::vector, DataType::fp32, false, 128, 256},
    {"matrix FP64", Pipe::matrix, DataType::fp64, false, 256, 256},
    {"matrix FP32", Pipe::matrix, DataType::fp32, false, 256, 256},
    {"matrix TF32", Pipe::matrix, DataType::tf32, false, 0, 1024},
    {"matrix FP16", Pipe::matrix, DataType::fp16, false, 1024, 2048},
    {"matrix BF16", Pipe::matrix, DataType::bf16, false, 1024, 2048},
    {"matrix FP8", Pipe::matrix, DataType::fp8, false, 0, 4096},
    {"matrix INT8", Pipe::matrix, DataType::int8, false, 1024, 4096},
    {"matrix FP8 4:2", Pipe::matrix, DataType::fp8, true, 0, 8192},
    {"matrix INT8 4:2", Pipe::matrix, DataType::int8, true, 1024,
     8192},
};

bool
report()
{
    bench::printHeader("table1",
                       "peak ops/clock/CU, CDNA2 vs CDNA3");
    bool pass = true;
    for (const auto &r : rows) {
        const double c2 =
            measuredOpsPerClock(CdnaGen::cdna2, r.pipe, r.dt,
                                r.sparse);
        const double c3 =
            measuredOpsPerClock(CdnaGen::cdna3, r.pipe, r.dt,
                                r.sparse);
        bench::printRow("table1", "CDNA2", r.name, c2, "ops/clk/CU");
        bench::printRow("table1", "CDNA3", r.name, c3, "ops/clk/CU");
        if (c2 < r.paper_cdna2 * 0.95 || c2 > r.paper_cdna2 * 1.0001)
            pass = false;
        if (c3 < r.paper_cdna3 * 0.95 || c3 > r.paper_cdna3 * 1.0001)
            pass = false;
    }
    return bench::shapeCheck("table1", pass,
                             "measured CU rates match Table 1 within 5%; "
                             "FP8/TF32 absent on CDNA2; 4:2 sparsity "
                             "doubles FP8/INT8 to 8192");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv, bench::Flags::none);
    return report() ? 0 : 1;
}

/**
 * @file
 * Tests for machine models and the roofline engine.
 */

#include <gtest/gtest.h>

#include "core/machine_model.hh"
#include "core/roofline.hh"
#include "sim/logging.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;
using namespace ehpsim::workloads;

TEST(MachineModel, Mi300aRates)
{
    const auto m = mi300aModel();
    // 228 CUs x 256 FP32 x 1.7 GHz ~ 99.2 Tflops vector FP32.
    EXPECT_NEAR(m.gpuPeakFlops(gpu::Pipe::vector,
                               gpu::DataType::fp32) /
                    1e12,
                99.2, 0.5);
    // FP8 matrix with sparsity doubles.
    const double fp8 =
        m.gpuPeakFlops(gpu::Pipe::matrix, gpu::DataType::fp8);
    EXPECT_DOUBLE_EQ(
        m.gpuPeakFlops(gpu::Pipe::matrix, gpu::DataType::fp8, true),
        2 * fp8);
    EXPECT_TRUE(m.unified);
}

TEST(MachineModel, ExplicitOverridesWin)
{
    const auto m = baselineGpuModel();
    EXPECT_NEAR(m.gpuPeakFlops(gpu::Pipe::matrix,
                               gpu::DataType::fp16) /
                    1e12,
                989.0, 0.1);
    EXPECT_FALSE(m.unified);
}

TEST(MachineModel, EffectiveBandwidthBlends)
{
    const auto m = mi300aModel();
    const double small = m.effectiveMemBandwidth(64ull << 20);
    const double large = m.effectiveMemBandwidth(8ull << 30);
    // Cache-resident streams run at cache speed; huge ones near HBM.
    EXPECT_GT(small, m.mem_bw);
    EXPECT_LT(large, m.mem_bw);
    EXPECT_GT(large, 0.5 * m.mem_bw);
}

TEST(Roofline, TriadTimeMatchesBandwidth)
{
    auto m = mi300aModel();
    m.cache_capacity = 0;       // pure HBM stream
    RooflineEngine eng(m);
    const std::uint64_t n = 1ull << 30;     // 8 GiB per array
    const auto rep = eng.run(streamTriad(n));
    const double bytes = 3.0 * 8.0 * static_cast<double>(n);
    const double expect = bytes / (m.mem_bw * m.mem_efficiency);
    EXPECT_NEAR(rep.total_s, expect, expect * 0.05);
}

TEST(Roofline, GemmHitsComputeRoof)
{
    const auto m = mi300aModel();
    RooflineEngine eng(m);
    const auto w = gemm(8192, 8192, 8192, gpu::DataType::fp16,
                        gpu::Pipe::matrix);
    const auto rep = eng.run(w);
    const double peak = m.gpuPeakFlops(gpu::Pipe::matrix,
                                       gpu::DataType::fp16) *
                        m.gpu_efficiency;
    const double expect =
        static_cast<double>(w.totalGpuFlops()) / peak;
    EXPECT_NEAR(rep.gpuSeconds(), expect, expect * 0.1);
}

TEST(Roofline, UnifiedSkipsTransfers)
{
    const auto w = cfdSolver(4'000'000, 5);
    RooflineEngine apu(mi300aModel());
    const auto rep = apu.run(w);
    EXPECT_DOUBLE_EQ(rep.transferSeconds(), 0.0);

    RooflineEngine discrete(mi250xNodeModel());
    const auto drep = discrete.run(w);
    EXPECT_GT(drep.transferSeconds(), 0.0);
}

TEST(Roofline, ApuBeatsDiscreteOnCoupledWorkload)
{
    // The Fig. 20 OpenFOAM story: CPU<->GPU coupling dominates on
    // the discrete node.
    const auto w = cfdSolver(8'000'000, 10);
    const auto apu = RooflineEngine(mi300aModel()).run(w);
    const auto discrete = RooflineEngine(mi250xNodeModel()).run(w);
    EXPECT_GT(discrete.total_s / apu.total_s, 1.5);
}

TEST(Roofline, FineGrainedOverlapHelps)
{
    const auto w = cfdSolver(8'000'000, 5);
    RooflineEngine eng(mi300aModel());
    const auto fine = eng.run(w, CouplingMode::fineGrained);
    const auto coarse = eng.run(w, CouplingMode::coarseSync);
    EXPECT_LT(fine.total_s, coarse.total_s);
}

TEST(Roofline, DecodeLatencyTracksBandwidth)
{
    LlmConfig cfg;
    const auto w = llmDecode(cfg);
    const auto mi300x = RooflineEngine(mi300xModel()).run(w);
    const auto base = RooflineEngine(baselineGpuModel()).run(w);
    // 5.3 vs 3.35 TB/s: MI300X generates tokens faster.
    EXPECT_GT(base.total_s / mi300x.total_s, 1.3);
}

TEST(Roofline, CapacityWarningForOversizedModel)
{
    logging_detail::setQuiet(true);
    const auto before = logging_detail::warnCount();
    LlmConfig cfg;                      // 140 GB of weights
    RooflineEngine eng(baselineGpuModel());     // 80 GB device
    eng.run(llmDecode(cfg));
    EXPECT_GT(logging_detail::warnCount(), before);
}

TEST(Roofline, UnsupportedDataTypeFatal)
{
    auto w = gemm(1024, 1024, 1024, gpu::DataType::fp8,
                  gpu::Pipe::matrix);
    RooflineEngine eng(mi250xNodeModel());      // CDNA2: no FP8
    EXPECT_THROW(eng.run(w), std::runtime_error);
}

TEST(Roofline, ReportBreakdownSums)
{
    const auto w = cfdSolver(1'000'000, 2);
    const auto rep = RooflineEngine(mi250xNodeModel()).run(w);
    EXPECT_EQ(rep.phases.size(), w.phases.size());
    double sum = 0;
    for (const auto &p : rep.phases)
        sum += p.total_s;
    EXPECT_NEAR(sum, rep.total_s, 1e-12);
}

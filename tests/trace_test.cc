/**
 * @file
 * Tests for the Chrome-trace exporter and the coherence-sampling
 * integration of the event engine.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/apu_system.hh"
#include "core/machine_model.hh"
#include "core/roofline.hh"
#include "core/trace.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;

TEST(Trace, EmitsValidSkeleton)
{
    const RooflineEngine eng(mi300aModel());
    const auto rep = eng.run(workloads::cfdSolver(1'000'000, 2));
    std::ostringstream oss;
    writeChromeTrace(rep, oss);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"GPU\""), std::string::npos);
    EXPECT_NE(json.find("\"CPU\""), std::string::npos);
    EXPECT_NE(json.find("gpu_solve0"), std::string::npos);
    // Balanced braces/brackets at the top level.
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, DiscreteRunsShowCopies)
{
    const RooflineEngine eng(mi250xNodeModel());
    const auto rep = eng.run(workloads::cfdSolver(1'000'000, 1));
    std::ostringstream oss;
    writeChromeTrace(rep, oss);
    EXPECT_NE(oss.str().find("(copy)"), std::string::npos);
}

TEST(Trace, UnifiedRunsShowNoCopies)
{
    const RooflineEngine eng(mi300aModel());
    const auto rep = eng.run(workloads::cfdSolver(1'000'000, 1));
    std::ostringstream oss;
    writeChromeTrace(rep, oss);
    EXPECT_EQ(oss.str().find("(copy)"), std::string::npos);
}

TEST(Trace, EscapesControlCharactersAndKeepsTimestampDigits)
{
    // Phase names are free text: control characters must come out as
    // JSON escapes, and a timestamp past a second must keep its
    // sub-microsecond digits.
    RunReport rep;
    PhaseTiming first;
    first.name = "warm";
    first.gpu_s = first.total_s = 1.2345678;
    PhaseTiming odd;
    odd.name = "line\nbreak\x01" "end";
    odd.gpu_s = odd.total_s = 1e-3;
    rep.phases = {first, odd};
    std::ostringstream oss;
    writeChromeTrace(rep, oss);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"line\\nbreak\\u0001end\""), std::string::npos)
        << json;
    EXPECT_EQ(json.find("\nbreak"), std::string::npos);
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 1234567.8"), std::string::npos) << json;
}

TEST(Trace, BadPathFatal)
{
    const RooflineEngine eng(mi300aModel());
    const auto rep = eng.run(workloads::streamTriad(1024));
    EXPECT_THROW(writeChromeTrace(rep, "/nonexistent/dir/x.json"),
                 std::runtime_error);
}

TEST(CoherenceSampling, GpuToCpuHandoffGeneratesProbes)
{
    ApuSystem sys(soc::mi300aConfig());
    auto w = workloads::cfdSolver(100'000, 2);
    for (auto &p : w.phases)
        p.grid_workgroups = 128;
    sys.run(w);
    auto *pf = sys.package().probeFilter();
    // The CPU consumed GPU-produced lines: cache-to-cache transfers
    // and probes must have occurred, and the directory must stay
    // consistent.
    EXPECT_GT(pf->lookups.value(), 0.0);
    EXPECT_GT(pf->probes_sent.value(), 0.0);
    EXPECT_GT(pf->cache_transfers.value(), 0.0);
    EXPECT_TRUE(pf->invariantsHold());
}

TEST(CoherenceSampling, GpuOnlyWorkloadsGenerateNoProbes)
{
    ApuSystem sys(soc::mi300aConfig());
    auto w = workloads::streamTriad(1 << 17);
    w.phases[0].grid_workgroups = 128;
    sys.run(w);
    // Pure GPU phases take ownership but nothing ever probes.
    EXPECT_DOUBLE_EQ(
        sys.package().probeFilter()->cache_transfers.value(), 0.0);
}

TEST(CoherenceSampling, NoCcdsMeansNoSampling)
{
    ApuSystem sys(soc::mi300xConfig());
    auto w = workloads::streamTriad(1 << 17);
    w.phases[0].grid_workgroups = 128;
    sys.run(w);
    EXPECT_DOUBLE_EQ(sys.package().probeFilter()->lookups.value(),
                     0.0);
}

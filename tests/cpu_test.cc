/**
 * @file
 * Tests for the Zen core model and the CCD.
 */

#include <gtest/gtest.h>

#include "cpu/ccd.hh"
#include "cpu/zen_core.hh"

using namespace ehpsim;
using namespace ehpsim::cpu;

namespace
{

class FlatMemory : public mem::MemDevice
{
  public:
    FlatMemory(SimObject *parent, Tick latency)
        : mem::MemDevice(parent, "flat"), latency_(latency)
    {}

    mem::AccessResult
    access(Tick when, Addr, std::uint64_t, bool) override
    {
        return {when + latency_, true, 0};
    }

  private:
    Tick latency_;
};

} // anonymous namespace

TEST(ZenCore, ComputeBoundTimeMatchesFlopRate)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    ZenCore core(&root, "core", zen4CoreParams(), &memory);

    CpuWork work;
    work.flops = 16'000'000;    // 1e6 cycles at 16 flops/cycle
    const Tick done = core.run(0, work);
    // 1e6 cycles at 3.7 GHz = 270.27 us.
    const double seconds = secondsFromTicks(done);
    EXPECT_NEAR(seconds, 1e6 / 3.7e9, 1e-6);
}

TEST(ZenCore, ScalarIpcModel)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    ZenCore core(&root, "core", zen4CoreParams(), &memory);
    CpuWork work;
    work.scalar_ops = 4'000'000;    // 1e6 cycles at IPC 4
    const Tick done = core.run(0, work);
    EXPECT_NEAR(secondsFromTicks(done), 1e6 / 3.7e9, 1e-6);
    EXPECT_DOUBLE_EQ(core.instructions.value(), 4e6);
}

TEST(ZenCore, MemoryBoundWorkGatedByHierarchy)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 200'000);  // slow memory
    ZenCore core(&root, "core", zen4CoreParams(), &memory);
    CpuWork small;
    small.flops = 1000;
    small.bytes_read = 64 * 1024;   // misses L1, mostly misses L2
    const Tick done = core.run(0, small);
    // Far slower than the compute alone.
    EXPECT_GT(done, 200'000u);
}

TEST(ZenCore, Zen4BeatsZen3OnVectorWork)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    ZenCore z4(&root, "z4", zen4CoreParams(), &memory);
    ZenCore z3(&root, "z3", zen3CoreParams(), &memory);
    CpuWork work;
    work.flops = 32'000'000;
    const Tick t4 = z4.run(0, work);
    const Tick t3 = z3.run(0, work);
    // AVX-512 + clocks: roughly 2.2x (paper Sec. IV.C highlights).
    EXPECT_GT(static_cast<double>(t3) / t4, 1.8);
}

TEST(ZenCore, SpinWaitPollsUntilFlag)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    ZenCore core(&root, "core", zen4CoreParams(), &memory);
    const Tick flag_at = 1'000'000;
    const Tick t = core.spinWait(0, flag_at, 10'000, 50'000);
    EXPECT_GE(t, flag_at);
    EXPECT_LE(t, flag_at + 10'000 + 50'000);
    EXPECT_GT(core.spin_polls.value(), 50.0);
}

TEST(ZenCore, SpinWaitOnSetFlagReturnsQuickly)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    ZenCore core(&root, "core", zen4CoreParams(), &memory);
    const Tick t = core.spinWait(500, 100, 10'000, 1'000);
    EXPECT_EQ(t, 1'500u);
}

TEST(ZenCore, WorkSerializesOnOneCore)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    ZenCore core(&root, "core", zen4CoreParams(), &memory);
    CpuWork work;
    work.flops = 16'000'000;
    const Tick first = core.run(0, work);
    const Tick second = core.run(0, work);
    EXPECT_NEAR(static_cast<double>(second),
                2.0 * static_cast<double>(first),
                static_cast<double>(first) * 0.01);
}

TEST(Ccd, GeometryAndPeaks)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100'000);
    Ccd ccd(&root, "ccd", zen4CcdParams(), &memory);
    EXPECT_EQ(ccd.numCores(), 8u);
}

TEST(Ccd, ParallelSplitsWork)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    Ccd ccd(&root, "ccd", zen4CcdParams(), &memory);
    CpuWork work;
    work.flops = 128'000'000;
    const Tick parallel = ccd.runParallel(0, work, 8);
    Ccd ccd1(&root, "ccd1", zen4CcdParams(), &memory);
    const Tick serial = ccd1.runParallel(0, work, 1);
    EXPECT_NEAR(static_cast<double>(serial) / parallel, 8.0, 0.5);
}

TEST(Ccd, DrainTimeTracksLatestCore)
{
    SimObject root(nullptr, "root");
    FlatMemory memory(&root, 100);
    Ccd ccd(&root, "ccd", zen4CcdParams(), &memory);
    CpuWork work;
    work.flops = 1'000'000;
    const Tick done = ccd.runParallel(0, work, 4);
    EXPECT_EQ(ccd.drainTime(), done);
}

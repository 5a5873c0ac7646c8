/**
 * @file
 * End-to-end checks of ehpsim_cli flag handling that unit tests
 * can't see: `sweep --pdes` must be rejected with a clear error (it
 * was silently accepted and ignored through PR 9), and the comm
 * checkpoint/fork path must produce byte-identical JSON to the
 * straight-through run while actually sharing the warmup (DESIGN.md
 * §16). The figure benches' flag parser is checked the same way: a
 * flag a bench does not take must exit 2, not be silently ignored.
 * Malformed values (garbage or negative numbers, overflowing sizes,
 * bad fault specs) exit 2 with one message instead of aborting.
 * The binaries come in via EHPSIM_CLI_BIN, EHPSIM_SWEEP_BENCH_BIN
 * (a sweep-shaped bench), EHPSIM_PLAIN_BENCH_BIN (a flagless one)
 * and EHPSIM_PERF_KERNEL_BIN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace
{

struct CmdResult
{
    int exit_code = -1;
    std::string stderr_text;
};

/** Run @p bin with @p args; capture exit code and stderr. */
CmdResult
runBin(const std::string &bin, const std::string &args,
       const std::string &tag)
{
    const std::string err_path =
        std::string("cli_test_") + tag + ".err";
    const std::string cmd =
        bin + " " + args + " > /dev/null 2> " + err_path;
    CmdResult res;
    const int rc = std::system(cmd.c_str());
    res.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    std::ifstream in(err_path);
    std::ostringstream ss;
    ss << in.rdbuf();
    res.stderr_text = ss.str();
    std::remove(err_path.c_str());
    return res;
}

CmdResult
runCli(const std::string &args, const std::string &tag)
{
    return runBin(EHPSIM_CLI_BIN, args, tag);
}

/** A bench given @p args must print its usage line and exit 2. */
void
expectUsageError(const std::string &bin, const std::string &args,
                 const std::string &tag)
{
    const auto res = runBin(bin, args, tag);
    EXPECT_EQ(res.exit_code, 2) << args;
    EXPECT_NE(res.stderr_text.find("usage:"), std::string::npos)
        << res.stderr_text;
}

/** @p args must exit 2 with exactly one line on stderr. */
void
expectArgError(const std::string &bin, const std::string &args,
               const std::string &tag)
{
    const auto res = runBin(bin, args, tag);
    EXPECT_EQ(res.exit_code, 2) << args << "\n" << res.stderr_text;
    EXPECT_EQ(std::count(res.stderr_text.begin(),
                         res.stderr_text.end(), '\n'),
              1)
        << args << "\n" << res.stderr_text;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // anonymous namespace

TEST(CliSweep, PdesFlagIsRejectedWithClearError)
{
    const auto res = runCli(
        "sweep --products mi300a --workloads triad --pdes 4",
        "sweep_pdes");
    EXPECT_EQ(res.exit_code, 2);
    EXPECT_NE(res.stderr_text.find("--pdes is not supported"),
              std::string::npos)
        << res.stderr_text;
    // The error must point at the supported alternatives.
    EXPECT_NE(res.stderr_text.find("--jobs"), std::string::npos)
        << res.stderr_text;
}

TEST(CliSweep, PlainSweepStillWorks)
{
    const auto res = runCli(
        "sweep --products mi300a --workloads triad "
        "--json cli_test_sweep.json",
        "sweep_ok");
    EXPECT_EQ(res.exit_code, 0) << res.stderr_text;
    EXPECT_FALSE(slurp("cli_test_sweep.json").empty());
    std::remove("cli_test_sweep.json");
}

TEST(CliComm, ForkedWarmupSweepIsByteIdentical)
{
    const std::string common =
        "comm --topology octo --collective all_reduce "
        "--algos ring,direct --sizes 1M,4M --warmup 2 ";
    const auto straight =
        runCli(common + "--json cli_test_straight.json", "straight");
    ASSERT_EQ(straight.exit_code, 0) << straight.stderr_text;
    const auto forked = runCli(
        common + "--fork --jobs 4 --json cli_test_fork.json", "fork");
    ASSERT_EQ(forked.exit_code, 0) << forked.stderr_text;

    EXPECT_EQ(slurp("cli_test_straight.json"),
              slurp("cli_test_fork.json"));
    std::remove("cli_test_straight.json");
    std::remove("cli_test_fork.json");
}

TEST(CliComm, CheckpointFileSavesThenLoads)
{
    std::remove("cli_test_warm.ckpt");
    const std::string common =
        "comm --topology octo --algos ring --sizes 1M --warmup 2 "
        "--fork --checkpoint cli_test_warm.ckpt ";
    const auto save =
        runCli(common + "--json cli_test_c1.json", "ckpt_save");
    ASSERT_EQ(save.exit_code, 0) << save.stderr_text;
    EXPECT_NE(save.stderr_text.find("checkpoint saved"),
              std::string::npos)
        << save.stderr_text;

    const auto load =
        runCli(common + "--json cli_test_c2.json", "ckpt_load");
    ASSERT_EQ(load.exit_code, 0) << load.stderr_text;
    EXPECT_NE(load.stderr_text.find("loading warmup checkpoint"),
              std::string::npos)
        << load.stderr_text;

    EXPECT_EQ(slurp("cli_test_c1.json"), slurp("cli_test_c2.json"));
    std::remove("cli_test_warm.ckpt");
    std::remove("cli_test_c1.json");
    std::remove("cli_test_c2.json");
}

TEST(CliComm, ForkWithoutWarmupIsRejected)
{
    const auto res = runCli(
        "comm --topology octo --algos ring --sizes 1M --fork",
        "fork_bare");
    EXPECT_NE(res.exit_code, 0);
    EXPECT_NE(res.stderr_text.find("--fork needs a warmup prefix"),
              std::string::npos)
        << res.stderr_text;
}

TEST(CliServe, CheckpointAtIsByteIdentical)
{
    const std::string common =
        "serve --devices mi300x --loads 1.0 --tp 2 --requests 6 "
        "--seed 42 --input-tokens 256 --output-tokens 32 ";
    const auto straight =
        runCli(common + "--json cli_test_s1.json", "serve_straight");
    ASSERT_EQ(straight.exit_code, 0) << straight.stderr_text;
    const auto forked = runCli(common +
                                   "--checkpoint-at 500000000000 "
                                   "--json cli_test_s2.json",
                               "serve_ckpt");
    ASSERT_EQ(forked.exit_code, 0) << forked.stderr_text;

    EXPECT_EQ(slurp("cli_test_s1.json"), slurp("cli_test_s2.json"));
    std::remove("cli_test_s1.json");
    std::remove("cli_test_s2.json");
}

TEST(BenchFlags, UnknownFlagIsRejected)
{
    expectUsageError(EHPSIM_SWEEP_BENCH_BIN, "--frobnicate",
                     "bench_unknown");
    expectUsageError(EHPSIM_PLAIN_BENCH_BIN, "--frobnicate",
                     "plain_unknown");
}

TEST(BenchFlags, GoogleBenchmarkFlagIsRejected)
{
    expectUsageError(EHPSIM_SWEEP_BENCH_BIN, "--benchmark_filter=x",
                     "bench_gbench");
}

TEST(BenchFlags, JobsMustBeAPositiveInteger)
{
    expectUsageError(EHPSIM_SWEEP_BENCH_BIN, "--jobs 0", "jobs_zero");
    expectUsageError(EHPSIM_SWEEP_BENCH_BIN, "--jobs banana",
                     "jobs_banana");

    const auto res = runBin(EHPSIM_SWEEP_BENCH_BIN,
                            "--jobs 2 --json cli_test_bench.json",
                            "jobs_ok");
    EXPECT_EQ(res.exit_code, 0) << res.stderr_text;
    EXPECT_FALSE(slurp("cli_test_bench.json").empty());
    std::remove("cli_test_bench.json");
}

TEST(BenchFlags, TrailingJsonWithoutValueIsRejected)
{
    expectUsageError(EHPSIM_SWEEP_BENCH_BIN, "--json", "json_bare");
}

TEST(BenchFlags, PlainBenchTakesNoSweepFlags)
{
    expectUsageError(EHPSIM_PLAIN_BENCH_BIN, "--jobs 2", "plain_jobs");
}

TEST(CliArgs, MalformedNumbersExitTwo)
{
    const std::string cli = EHPSIM_CLI_BIN;
    expectArgError(cli, "comm --jobs banana", "jobs_banana");
    expectArgError(cli, "comm --jobs -1", "jobs_negative");
    expectArgError(cli, "comm --pdes 4x", "pdes_junk");
    expectArgError(cli, "fault --max-retries 99999999999",
                   "retries_overflow");
    expectArgError(cli, "serve --requests 1e3", "requests_float");
    expectArgError(cli, "serve --loads 1.0,nan", "loads_nan");
    expectArgError(cli, "sweep --scale -2", "scale_negative");
    expectArgError(cli, "race --requests x", "race_requests");
}

TEST(CliArgs, OverflowingSizeExitsTwo)
{
    const std::string cli = EHPSIM_CLI_BIN;
    expectArgError(cli, "comm --sizes 99999999999999G", "size_wrap");
    expectArgError(cli, "comm --sizes 4Q", "size_suffix");
    expectArgError(cli, "comm --warmup-bytes 16MB", "size_trailing");
}

TEST(CliArgs, BadNamesAndSpecsExitTwo)
{
    const std::string cli = EHPSIM_CLI_BIN;
    expectArgError(cli, "comm --topology bogus", "topology");
    expectArgError(cli, "comm --collective all_sum", "collective");
    expectArgError(cli, "fault --algos ring,best", "algorithm");
    expectArgError(cli, "fault --kill bad", "kill");
    expectArgError(cli, "fault --rates 1.5", "rate_range");
    expectArgError(cli, "serve --blackout 3@x", "blackout");
}

TEST(BenchFlags, PerfKernelRepeatMustBeAPositiveInteger)
{
    expectArgError(EHPSIM_PERF_KERNEL_BIN, "--repeat banana",
                   "repeat_banana");
    expectArgError(EHPSIM_PERF_KERNEL_BIN, "--repeat 0", "repeat_zero");
}

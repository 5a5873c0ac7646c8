/**
 * @file
 * Shape and determinism checks for the kernel microbenchmark's JSON
 * output (bench/perf_kernel.cc).
 *
 * The bench measures wall time, which is inherently run-dependent, so
 * the contract is split: every value under a benchmark's
 * "deterministic" object must be byte-identical across runs, while
 * wall-dependent values may only ever appear under "wall". The test
 * runs the bench twice in quick mode and diffs the documents with the
 * wall-valued lines stripped.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace
{

/**
 * Keys whose values depend on wall time or the toolchain, never on
 * the simulation.
 */
const char *const wallKeys[] = {
    "best_seconds",
    "events_per_sec",
    "ops_per_sec",
    "allocs_per_build",
    "alloc_bytes_per_build",
};

std::string
runQuick(const std::string &json_path)
{
    const std::string cmd = std::string(EHPSIM_PERF_KERNEL_BIN) +
                            " --quick --repeat 1 --json " + json_path +
                            " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_EQ(rc, 0) << "perf_kernel failed: " << cmd;
    std::ifstream in(json_path);
    EXPECT_TRUE(in.good()) << "missing " << json_path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The document's lines with wall-valued ones removed. */
std::vector<std::string>
deterministicLines(const std::string &doc)
{
    std::vector<std::string> out;
    std::istringstream in(doc);
    std::string line;
    while (std::getline(in, line)) {
        bool wall = false;
        for (const char *key : wallKeys) {
            if (line.find(key) != std::string::npos) {
                wall = true;
                break;
            }
        }
        if (!wall)
            out.push_back(line);
    }
    return out;
}

} // anonymous namespace

TEST(PerfKernel, QuickJsonHasSchemaAndBenchmarks)
{
    const std::string doc = runQuick("perf_kernel_shape.json");
    EXPECT_NE(doc.find("\"schema\": \"ehpsim-bench-kernel-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"quick\": true"), std::string::npos);
    for (const char *name :
         {"schedule_churn", "oneshot_storm", "oneshot_storm_pooled",
          "comm_allreduce_octo", "comm_direct_tp8", "fault_storm",
          "link_occupancy", "cache_lookup", "apu_triad",
          "checkpoint_fork", "system_build"}) {
        EXPECT_NE(doc.find(std::string("\"name\": \"") + name + "\""),
                  std::string::npos)
            << "missing benchmark " << name;
    }
    // Every benchmark carries both sections, and the wall keys exist
    // (under "wall" only — determinism of the rest is checked below).
    EXPECT_NE(doc.find("\"deterministic\""), std::string::npos);
    EXPECT_NE(doc.find("\"wall\""), std::string::npos);
    for (const char *key : wallKeys)
        EXPECT_NE(doc.find(key), std::string::npos);
}

TEST(PerfKernel, QuickJsonDeterministicModuloWall)
{
    const std::string a = runQuick("perf_kernel_det_a.json");
    const std::string b = runQuick("perf_kernel_det_b.json");
    EXPECT_EQ(deterministicLines(a), deterministicLines(b))
        << "benchmark JSON differs beyond the wall-valued fields";
}

TEST(PerfKernel, FabricBenchCountersMatchGoldens)
{
    // Pin the fabric-bound benches' deterministic counters to golden
    // values. Run-to-run determinism (the test above) would not
    // catch a systematic timing change — e.g. a fast-path rewrite
    // that silently alters occupancy completion ticks or the chunk
    // DAG. These values encode the exact simulated schedule; a
    // legitimate model change must update them consciously,
    // alongside BENCH_kernel.json.
    const std::string doc = runQuick("perf_kernel_golden.json");
    const struct
    {
        const char *key;
        const char *value;
    } goldens[] = {
        // comm_allreduce_octo, quick: 1 iteration of 16 MiB ring +
        // direct all-reduce over the octo node, 1 MiB chunks. Events
        // count releases, not chunks: one start event per op plus one
        // per join (208 ring hops, 16 direct chunk joins).
        {"events_processed", "226"},
        {"final_tick", "491550000"},
        {"link_bytes", "469762048"},
        // comm_direct_tp8, quick: 20 direct all-reduces of 1.25 MiB
        // over the octo node, one 1 MiB chunk per shard, each shard's
        // all-gather released by one chunk join: 1 + 8 events an op.
        {"events_processed", "180"},
        {"final_tick", "100378000"},
        {"link_bytes", "367001600"},
        // fault_storm, quick: seeded fault plan over the octo node.
        // (Re-pinned when the transient-fault draw moved from a
        // sequential Rng stream to the counter-based hash of
        // (seed, op, task, attempt) — a schedule-keyed model that is
        // independent of event order, and again when a derate stopped
        // stretching the link's past windows, and when a release of
        // ready chunks became one event; retries keep their own.)
        {"events_processed", "222"},
        {"final_tick", "1170378000"},
        {"chunk_retries", "11"},
        {"faults_injected", "13"},
    };
    for (const auto &g : goldens) {
        const std::string needle =
            std::string("\"") + g.key + "\": " + g.value;
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "golden counter not found: " << needle;
    }
}

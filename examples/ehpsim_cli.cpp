/**
 * @file
 * ehpsim command-line driver: pick a product, a workload, an engine,
 * and run it — or sweep a whole configuration matrix in parallel.
 *
 *   ehpsim_cli [--product mi300a|mi300x|mi250x|ehpv3|ehpv4]
 *              [--workload triad|gemm|nbody|hpcg|cfd|gromacs|llm]
 *              [--engine event|roofline]
 *              [--partitions N] [--policy rr|blocked] [--nps 1|4]
 *              [--scale N] [--trace out.json] [--stats]
 *
 *   ehpsim_cli sweep [--products a,b,...] [--workloads x,y,...]
 *              [--engine event|roofline] [--jobs N] [--json FILE]
 *              [--scale N] [--stats]
 *
 *   ehpsim_cli comm [--topology quad|octo]
 *              [--collective all_reduce|all_gather|reduce_scatter|
 *               broadcast|all_to_all]
 *              [--algos ring,direct,auto] [--sizes 1M,16M,64M]
 *              [--warmup N] [--warmup-bytes SIZE] [--fork]
 *              [--checkpoint FILE]
 *              [--pdes N] [--jobs N] [--json FILE]
 *
 *   ehpsim_cli fault [--topology quad|octo] [--collective C]
 *              [--algos ring,direct] [--sizes 1M,16M,64M]
 *              [--rates 0,0.005,0.02] [--seed N]
 *              [--kill a:b@tick[*factor]] [--max-retries N]
 *              [--retry-timeout TICKS] [--pdes N] [--jobs N]
 *              [--json FILE]
 *
 *   ehpsim_cli serve [--devices mi300x,baseline] [--loads 0.25,1.0]
 *              [--tp 1|2|4|8] [--requests N] [--input-tokens N]
 *              [--output-tokens N] [--seed N] [--bursty]
 *              [--token-budget N] [--max-batch N] [--kv-blocks N]
 *              [--error-rate R] [--kill a:b@tick[*factor]]
 *              [--blackout ch@tick] [--pdes N] [--checkpoint-at T]
 *              [--jobs N] [--json FILE]
 *
 *   ehpsim_cli race [--bytes SIZE] [--requests N] [--seed N]
 *              [--jobs N] [--json FILE]
 *
 * The sweep subcommand runs the products x workloads cross product
 * as independent jobs on a sweep::SweepRunner worker pool and emits
 * an ehpsim-sweep-v1 JSON document (stdout, or FILE with --json).
 * Output is byte-identical for any --jobs value. The comm
 * subcommand does the same for collective microbenchmarks over the
 * Fig. 18 node fabrics: each (algorithm, size) point simulates the
 * collective as chunked transfers on the event queue and reports
 * achieved algorithmic bandwidth and link utilization.
 *
 * The fault subcommand reruns those collectives under the fault
 * injector: a seeded transient chunk-error rate (survived via
 * retry/backoff) and optional scheduled link kills or derates
 * (--kill, repeatable; a *factor suffix derates instead of
 * killing). Each job reports the degraded bandwidth plus the
 * retry/reroute counters; same seed means byte-identical JSON for
 * any --jobs value.
 *
 * The serve subcommand replays a seeded open-loop LLM serving trace
 * (Poisson, or MMPP with --bursty) through the src/serve continuous
 * batcher for every (device, load) grid point: paged KV cache sized
 * by device memory minus weights, TP decode all-reduces on the
 * Fig. 18b octo node, and — with --error-rate / --kill /
 * --blackout — the fault injector degrading service mid-run. Each
 * job reports TTFT/TPOT percentiles, tokens/s, SLO attainment, and
 * the KV eviction/retry counters.
 *
 * The comm, fault, and serve subcommands accept --pdes N to run
 * each job's simulation on the conservative parallel core
 * (DESIGN.md §15): the node graph is partitioned into N logical
 * processes synchronized by min-link-latency lookahead. Output is
 * byte-identical to the serial run — `cmp` the two JSON documents to
 * check — so the knob trades wall time only. sweep REJECTS the flag
 * with an error (its jobs are per-partition roofline/event sims
 * with no cross-partition traffic to overlap; use --jobs instead).
 *
 * Checkpoint/fast-forward (DESIGN.md §16): `comm --warmup N` runs N
 * ring all-reduces before each measured point; adding `--fork`
 * simulates that shared prefix ONCE, snapshots the warmed world,
 * and forks every (algorithm, size) point from the in-memory blob —
 * JSON stays byte-identical to the unforked run, so only wall time
 * changes. `--checkpoint FILE` persists the warmup blob across
 * invocations (missing file: simulate and save; existing file: load
 * and skip the warmup). `serve --checkpoint-at T` rehearses the
 * same machinery end to end: run to tick T, snapshot, and finish
 * the run on a restored copy of the world.
 *
 * The race subcommand (requires a -DEHPSIM_RACE=ON build; exits 2
 * otherwise) runs the octo all-reduce and a fixed-seed serving
 * scenario under the ehpsim-race AccessTracker and emits the merged
 * ehpsim-race-v1 report: order/partition conflicts with waiver
 * status plus the partition dependency graph and PDES lookahead
 * table (DESIGN.md §14). Exit 1 when any conflict is unwaived. The
 * report is byte-identical for any --jobs value.
 *
 * A malformed flag value (not a number of the flag's type, a size
 * past 2^64, an unknown name, a bad fault spec) prints one line and
 * exits 2 before any job runs.
 *
 * Examples:
 *   ehpsim_cli --product mi300a --workload cfd --engine roofline
 *   ehpsim_cli --product mi300x --workload triad --partitions 8
 *   ehpsim_cli sweep --products mi300a,mi300x,mi250x \
 *       --workloads triad,gemm,cfd --jobs 8 --json sweep.json
 *   ehpsim_cli comm --topology octo --collective all_reduce \
 *       --algos ring,direct --sizes 1M,64M,256M --jobs 8
 *   ehpsim_cli fault --topology octo --rates 0,0.02 \
 *       --kill mi300x0:mi300x1@50000000 --jobs 8
 *   ehpsim_cli serve --devices mi300x,baseline --loads 0.25,1.0 \
 *       --requests 32 --jobs 8 --json serve.json
 *   ehpsim_cli serve --tp 4 --loads 1.5 --error-rate 0.02 \
 *       --kill mi300x0:mi300x1@2000000000000 --blackout 3@3000000000000
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/comm_group.hh"
#include "core/apu_system.hh"
#include "sim/access_tracker.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "core/machine_model.hh"
#include "core/roofline.hh"
#include "core/trace.hh"
#include "serve/scenario.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "soc/node_topology.hh"
#include "sweep/sweep_runner.hh"
#include "workloads/generators.hh"

using namespace ehpsim;
using namespace ehpsim::core;
using namespace ehpsim::workloads;

namespace
{

struct Options
{
    std::string product = "mi300a";
    std::string workload = "triad";
    std::string engine = "event";
    unsigned partitions = 1;
    std::string policy = "rr";
    unsigned nps = 1;
    std::uint64_t scale = 1;
    std::string trace_path;
    bool dump_stats = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--product P] [--workload W] "
                 "[--engine event|roofline]\n"
                 "          [--partitions N] [--policy rr|blocked] "
                 "[--nps 1|4] [--scale N]\n"
                 "          [--trace FILE] [--stats]\n"
                 "       %s sweep [--products a,b,...] "
                 "[--workloads x,y,...]\n"
                 "          [--engine event|roofline] [--jobs N] "
                 "[--json FILE] [--scale N] [--stats]\n"
                 "       %s comm [--topology quad|octo] "
                 "[--collective C] [--algos a,b,...]\n"
                 "          [--sizes 1M,64M,...] [--warmup N] "
                 "[--warmup-bytes SIZE]\n"
                 "          [--fork] [--checkpoint FILE] [--pdes N] "
                 "[--jobs N] [--json FILE]\n"
                 "       %s fault [--topology quad|octo] "
                 "[--collective C] [--algos a,b,...]\n"
                 "          [--sizes 1M,...] [--rates 0,0.02,...] "
                 "[--seed N]\n"
                 "          [--kill a:b@tick[*factor]] "
                 "[--max-retries N]\n"
                 "          [--retry-timeout TICKS] [--pdes N] "
                 "[--jobs N] [--json FILE]\n"
                 "       %s serve [--devices a,b] [--loads r,s,...] "
                 "[--tp N]\n"
                 "          [--requests N] [--input-tokens N] "
                 "[--output-tokens N]\n"
                 "          [--seed N] [--bursty] [--token-budget N] "
                 "[--max-batch N]\n"
                 "          [--kv-blocks N] [--error-rate R] "
                 "[--kill a:b@tick[*factor]]\n"
                 "          [--blackout ch@tick] [--pdes N] "
                 "[--checkpoint-at T] [--jobs N] [--json FILE]\n"
                 "       %s race [--bytes SIZE] [--requests N] "
                 "[--seed N]\n"
                 "          [--jobs N] [--json FILE]   "
                 "(needs -DEHPSIM_RACE=ON)\n",
                 argv0, argv0, argv0, argv0, argv0, argv0);
    std::exit(2);
}

/** Report a malformed command line in one line and exit 2. */
template <typename... Args>
[[noreturn]] void
argError(Args &&...args)
{
    std::ostringstream ss;
    (ss << ... << args);
    std::fprintf(stderr, "ehpsim_cli: %s\n", ss.str().c_str());
    std::exit(2);
}

/**
 * Parse @p flag's value @p s into @p out with std::from_chars: the
 * whole string must be a number of @p out's type (no sign for
 * unsigned types, no overflow, no trailing junk); floating values
 * must also be finite and non-negative. Anything else exits 2.
 */
template <typename T>
void
parseNum(const std::string &flag, const std::string &s, T &out)
{
    T v{};
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    bool ok = !s.empty() && ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(v) && v >= 0;
    if (!ok)
        argError("bad ", flag, " value '", s, "'");
    out = v;
}

/**
 * Run a library parser or validator at argument time. The fatal()
 * it raises on bad input has already printed its one-line message,
 * so exit 2 instead of letting the exception abort the process.
 */
template <typename Fn>
auto
argCheck(Fn &&fn)
{
    try {
        return fn();
    } catch (const std::runtime_error &) {
        std::exit(2);
    }
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--product")
            opt.product = next();
        else if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--engine")
            opt.engine = next();
        else if (arg == "--partitions")
            parseNum(arg, next(), opt.partitions);
        else if (arg == "--policy")
            opt.policy = next();
        else if (arg == "--nps")
            parseNum(arg, next(), opt.nps);
        else if (arg == "--scale")
            parseNum(arg, next(), opt.scale);
        else if (arg == "--trace")
            opt.trace_path = next();
        else if (arg == "--stats")
            opt.dump_stats = true;
        else
            usage(argv[0]);
    }
    return opt;
}

soc::ProductConfig
productFor(const std::string &name)
{
    if (name == "mi300a")
        return soc::mi300aConfig();
    if (name == "mi300x")
        return soc::mi300xConfig();
    if (name == "mi250x")
        return soc::mi250xConfig();
    if (name == "ehpv3")
        return soc::ehpv3Config();
    if (name == "ehpv4")
        return soc::ehpv4Config();
    fatal("unknown product '", name, "'");
}

MachineModel
modelFor(const std::string &name)
{
    if (name == "mi300a")
        return mi300aModel();
    if (name == "mi300x")
        return mi300xModel();
    if (name == "mi250x")
        return mi250xNodeModel();
    fatal("no analytical model for product '", name,
          "' (use --engine event)");
}

Workload
workloadFor(const std::string &name, std::uint64_t scale)
{
    if (name == "triad") {
        auto w = streamTriad((1u << 19) * scale);
        w.phases[0].grid_workgroups = 512;
        return w;
    }
    if (name == "gemm")
        return gemm(2048 * scale, 2048, 2048, gpu::DataType::fp16,
                    gpu::Pipe::matrix);
    if (name == "nbody")
        return nbody(100'000 * scale, 5);
    if (name == "hpcg")
        return hpcg(128 * scale, 128, 128, 10);
    if (name == "cfd")
        return cfdSolver(2'000'000 * scale, 5);
    if (name == "gromacs")
        return gromacsLike(1'000'000 * scale, 5);
    if (name == "llm")
        return llmInference(LlmConfig{});
    fatal("unknown workload '", name, "'");
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

/** Run one (product, workload) sweep job and serialize its report. */
void
runSweepJob(const std::string &product, const std::string &workload,
            const std::string &engine, std::uint64_t scale,
            bool with_stats, json::JsonWriter &jw)
{
    const auto w = workloadFor(workload, scale);

    jw.beginObject();
    jw.kv("product", product);
    jw.kv("workload", workload);
    jw.kv("engine", engine);

    RunReport report;
    std::unique_ptr<ApuSystem> sys;
    if (engine == "roofline") {
        const RooflineEngine eng(modelFor(product));
        report = eng.run(w);
    } else {
        sys = std::make_unique<ApuSystem>(productFor(product));
        report = sys->run(w);
    }

    jw.key("phases");
    jw.beginArray();
    for (const auto &p : report.phases) {
        jw.beginObject();
        jw.kv("name", p.name);
        jw.kv("total_s", p.total_s);
        jw.kv("gpu_s", p.gpu_s);
        jw.kv("cpu_s", p.cpu_s);
        jw.kv("transfer_s", p.transfer_s);
        jw.endObject();
    }
    jw.endArray();
    jw.kv("total_s", report.total_s);

    const double flops = static_cast<double>(w.totalGpuFlops());
    if (flops > 0 && report.total_s > 0) {
        jw.kv("achieved_tflops", flops / report.total_s / 1e12);
        jw.kv("achieved_tbps",
              static_cast<double>(w.totalGpuBytes()) /
                  report.total_s / 1e12);
    }
    if (with_stats && sys) {
        jw.key("stats");
        sys->dumpJsonStats(jw);
    }
    jw.endObject();
}

/**
 * The tail every sweep-shaped subcommand shares: run @p runner's
 * jobs, report the job time and every failed job on stderr (lines
 * prefixed "@p cmd: "), then write the ehpsim-sweep-v1 document for
 * @p tool to stdout or @p json_path. @return the exit code: 0, or 1
 * when a job failed or the JSON could not be written.
 */
int
runSweep(sweep::SweepRunner &runner, const char *cmd, const char *tool,
         const std::string &json_path)
{
    const auto results = runner.run();

    std::fprintf(stderr,
                 "%s: %zu jobs on %u workers, %.3f s of job time\n",
                 cmd, results.size(), runner.workers(),
                 sweep::SweepRunner::totalJobSeconds(results));
    int failures = 0;
    for (const auto &res : results) {
        if (!res.ok) {
            ++failures;
            std::fprintf(stderr, "%s: job %zu (%s) failed: %s\n", cmd,
                         res.index, res.name.c_str(),
                         res.error.c_str());
        }
    }

    if (json_path.empty()) {
        sweep::SweepRunner::dumpJson(std::cout, tool, results);
    } else {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "%s: cannot open %s for writing\n",
                         cmd, json_path.c_str());
            return 1;
        }
        sweep::SweepRunner::dumpJson(out, tool, results);
        if (!out.flush()) {
            std::fprintf(stderr, "%s: error writing %s\n", cmd,
                         json_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "%s: JSON written to %s\n", cmd,
                     json_path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

int
sweepMain(int argc, char **argv)
{
    std::vector<std::string> products = {"mi300a", "mi300x", "mi250x"};
    std::vector<std::string> workloads = {"triad"};
    std::string engine = "event";
    std::string json_path;
    unsigned jobs = 1;
    std::uint64_t scale = 1;
    bool with_stats = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--products")
            products = splitList(next());
        else if (arg == "--workloads")
            workloads = splitList(next());
        else if (arg == "--engine")
            engine = next();
        else if (arg == "--jobs")
            parseNum(arg, next(), jobs);
        else if (arg == "--json")
            json_path = next();
        else if (arg == "--scale")
            parseNum(arg, next(), scale);
        else if (arg == "--stats")
            with_stats = true;
        else if (arg == "--pdes") {
            // Refused rather than silently ignored (it used to be
            // accepted for driver symmetry): sweep jobs are
            // independent single-partition sims with nothing for
            // the parallel core to overlap, so a user passing the
            // flag is expecting a speedup they will not get.
            std::fprintf(stderr,
                         "sweep: --pdes is not supported: sweep "
                         "jobs are independent single-partition "
                         "sims with no cross-partition traffic to "
                         "parallelize; use --jobs N to run points "
                         "concurrently (comm, fault, and serve do "
                         "accept --pdes)\n");
            return 2;
        } else
            usage(argv[0]);
    }
    if (products.empty() || workloads.empty() || jobs == 0)
        usage(argv[0]);

    sweep::SweepRunner runner(jobs);
    for (const auto &product : products) {
        for (const auto &workload : workloads) {
            runner.addJob(product + "/" + workload,
                          [=](json::JsonWriter &jw) {
                              runSweepJob(product, workload, engine,
                                          scale, with_stats, jw);
                          });
        }
    }

    return runSweep(runner, "sweep", "ehpsim_cli", json_path);
}

/** Parse @p flag's size value "64", "4K", "16M", "1G" into bytes;
 *  anything else, or a size past 2^64, exits 2. */
std::uint64_t
parseSize(const std::string &flag, const std::string &s)
{
    std::uint64_t value = 0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, value);
    const std::string suffix(ptr, end);
    std::uint64_t mult = 0;
    if (suffix.empty())
        mult = 1;
    else if (suffix == "K" || suffix == "k")
        mult = KiB;
    else if (suffix == "M" || suffix == "m")
        mult = MiB;
    else if (suffix == "G" || suffix == "g")
        mult = GiB;
    if (ec != std::errc() || mult == 0)
        argError("bad ", flag, " size '", s, "' (want N, NK, NM or NG)");
    if (value > UINT64_MAX / mult)
        argError(flag, " size '", s, "' overflows 64 bits");
    return value * mult;
}

comm::Collective
collectiveFor(const std::string &name)
{
    for (const auto c :
         {comm::Collective::allReduce, comm::Collective::allGather,
          comm::Collective::reduceScatter,
          comm::Collective::broadcast, comm::Collective::allToAll}) {
        if (name == comm::collectiveName(c))
            return c;
    }
    argError("unknown collective '", name, "'");
}

comm::Algorithm
algorithmFor(const std::string &name)
{
    for (const auto a :
         {comm::Algorithm::automatic, comm::Algorithm::ring,
          comm::Algorithm::direct}) {
        if (name == comm::algorithmName(a))
            return a;
    }
    argError("unknown algorithm '", name, "' (ring, direct, auto)");
}

soc::NodeKind
nodeKindFor(const std::string &topology)
{
    if (topology == "quad")
        return soc::NodeKind::quad;
    if (topology == "octo")
        return soc::NodeKind::octo;
    argError("unknown topology '", topology, "' (quad, octo)");
}

/** The comm and race microbenchmarks' communicator: 1 MiB chunks.
 *  A forked job's world must match the warmup world's. */
constexpr comm::CommParams kMicrobenchParams{.chunk_bytes = 1 * MiB};

/** @p n ring all-reduces of @p bytes each, run to the op boundary
 *  (a legal checkpoint quiesce point). */
void
runWarmup(soc::CommWorld &w, unsigned n, std::uint64_t bytes)
{
    for (unsigned i = 0; i < n; ++i)
        w.run(comm::Collective::allReduce, bytes, comm::Algorithm::ring);
}

/**
 * The shared warmup prefix of a forked comm sweep: load the blob
 * from @p checkpoint_path when the file exists, otherwise simulate
 * the warmup once (and save it there for the next run when a path
 * was given).
 */
std::string
commWarmupBlob(const std::string &topology, unsigned warmup,
               std::uint64_t warmup_bytes,
               const std::string &checkpoint_path)
{
    if (!checkpoint_path.empty()) {
        std::ifstream probe(checkpoint_path, std::ios::binary);
        if (probe.good()) {
            std::fprintf(stderr,
                         "comm: loading warmup checkpoint from %s\n",
                         checkpoint_path.c_str());
            return readSnapshotFile(checkpoint_path);
        }
    }
    soc::CommWorld w(nodeKindFor(topology), kMicrobenchParams);
    runWarmup(w, warmup, warmup_bytes);
    std::string blob = saveWorld(w.eq, w.root);
    if (!checkpoint_path.empty()) {
        writeSnapshotFile(checkpoint_path, blob);
        std::fprintf(stderr,
                     "comm: warmup checkpoint saved to %s\n",
                     checkpoint_path.c_str());
    }
    return blob;
}

/**
 * Run one collective microbenchmark point and serialize it. pdes >
 * 0 runs the simulation on that many conservative partitions. When
 * @p fork_blob is set the point resumes from the shared warmup
 * checkpoint instead of simulating the warmup itself; either way
 * the JSON below is byte-identical (the CI checkpoint-smoke job
 * cmp's the two documents).
 */
void
runCommJob(const std::string &topology, comm::Collective coll,
           comm::Algorithm algo, std::uint64_t bytes,
           unsigned warmup, std::uint64_t warmup_bytes, unsigned pdes,
           const std::string *fork_blob, json::JsonWriter &jw)
{
    soc::CommWorld w(nodeKindFor(topology), kMicrobenchParams, pdes);
    // Straight-through reference path for a warmed sweep: simulate
    // the warmup prefix inline. Forked jobs restore it instead.
    if (fork_blob)
        restoreWorld(*fork_blob, w.eq, w.root);
    else
        runWarmup(w, warmup, warmup_bytes);
    const comm::OpHandle op = w.run(coll, bytes, algo);
    const comm::CommGroup &group = w.group;

    jw.beginObject();
    jw.kv("topology", topology);
    jw.kv("collective", comm::collectiveName(coll));
    jw.kv("algorithm", comm::algorithmName(op->algorithm()));
    jw.kv("ranks", static_cast<double>(group.numRanks()));
    jw.kv("bytes", static_cast<double>(bytes));
    jw.kv("seconds", op->seconds());
    jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
    jw.kv("link_bytes", static_cast<double>(op->linkBytes()));
    jw.kv("max_link_busy", group.maxLinkUtilization());
    jw.kv("avg_link_busy", group.avgLinkUtilization());
    jw.endObject();
}

int
commMain(int argc, char **argv)
{
    std::string topology = "quad";
    std::string collective = "all_reduce";
    std::vector<std::string> algos = {"ring", "direct"};
    std::vector<std::string> sizes = {"1M", "16M", "64M"};
    std::string json_path;
    std::string checkpoint_path;
    unsigned jobs = 1;
    unsigned pdes = 0;
    unsigned warmup = 0;
    std::uint64_t warmup_bytes = 16 * MiB;
    bool fork = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--topology")
            topology = next();
        else if (arg == "--collective")
            collective = next();
        else if (arg == "--algos")
            algos = splitList(next());
        else if (arg == "--sizes")
            sizes = splitList(next());
        else if (arg == "--warmup")
            parseNum(arg, next(), warmup);
        else if (arg == "--warmup-bytes")
            warmup_bytes = parseSize(arg, next());
        else if (arg == "--fork")
            fork = true;
        else if (arg == "--checkpoint")
            checkpoint_path = next();
        else if (arg == "--pdes")
            parseNum(arg, next(), pdes);
        else if (arg == "--jobs")
            parseNum(arg, next(), jobs);
        else if (arg == "--json")
            json_path = next();
        else
            usage(argv[0]);
    }
    nodeKindFor(topology);
    if (algos.empty() || sizes.empty() || jobs == 0)
        usage(argv[0]);
    if (!checkpoint_path.empty() && !fork)
        argError("comm: --checkpoint needs --fork (the file holds "
                 "the forked warmup prefix)");
    if (fork && warmup == 0 && checkpoint_path.empty())
        argError("comm: --fork needs a warmup prefix to share (set "
                 "--warmup N, or --checkpoint F to load one)");
    const comm::Collective coll = collectiveFor(collective);

    // Every point of the sweep shares one warmup prefix: with
    // --fork it is simulated (or loaded) once and each point
    // restores the blob; without, each point re-simulates it — the
    // straight-through reference the byte-identity gate cmp's
    // against.
    sweep::WarmupSpec warm;
    warm.config = "comm|" + topology + "|w" + std::to_string(warmup) +
                  "|b" + std::to_string(warmup_bytes);
    warm.produce = [topology, warmup, warmup_bytes,
                    checkpoint_path] {
        return commWarmupBlob(topology, warmup, warmup_bytes,
                              checkpoint_path);
    };

    sweep::SweepRunner runner(jobs);
    for (const auto &algo_name : algos) {
        const comm::Algorithm algo = algorithmFor(algo_name);
        for (const auto &size : sizes) {
            const std::uint64_t bytes = parseSize("--sizes", size);
            const std::string name = topology + "/" + collective +
                                     "/" + algo_name + "/" + size;
            if (fork) {
                runner.addForkedJob(
                    name, warm,
                    [=](const std::string &blob,
                        json::JsonWriter &jw) {
                        runCommJob(topology, coll, algo, bytes,
                                   warmup, warmup_bytes, pdes, &blob,
                                   jw);
                    });
            } else {
                runner.addJob(name, [=](json::JsonWriter &jw) {
                    runCommJob(topology, coll, algo, bytes, warmup,
                               warmup_bytes, pdes, nullptr, jw);
                });
            }
        }
    }

    return runSweep(runner, "comm", "ehpsim_cli_comm", json_path);
}

/**
 * Run one collective under the fault injector and serialize the
 * degraded result plus the retry/reroute counters.
 */
void
runFaultJob(const std::string &topology, comm::Collective coll,
            comm::Algorithm algo, std::uint64_t bytes,
            const fault::FaultPlan &plan, const comm::CommParams &params,
            unsigned pdes, json::JsonWriter &jw)
{
    // Scheduled link kills land on the coordinator queue and bump
    // the route epoch; under PDES the engine collapses partition
    // groups at the next window boundary, so the faulted schedule
    // (and the JSON below) is byte-identical to the serial run's.
    soc::CommWorld w(nodeKindFor(topology), params, pdes);
    fault::FaultInjector injector(w.topo.get(), "inj", plan, &w.eq);
    injector.attachNetwork(w.topo->network());
    injector.attachCommGroup(&w.group);
    injector.arm();
    const comm::OpHandle op = w.run(coll, bytes, algo);
    const comm::CommGroup &group = w.group;
    const fabric::Network &net = *w.topo->network();

    jw.beginObject();
    jw.kv("topology", topology);
    jw.kv("collective", comm::collectiveName(coll));
    jw.kv("algorithm", comm::algorithmName(op->algorithm()));
    jw.kv("bytes", static_cast<double>(bytes));
    jw.kv("seed", static_cast<double>(plan.seed));
    jw.kv("chunk_error_rate", plan.chunk_error_rate);
    jw.kv("completed", op->done() ? 1.0 : 0.0);
    jw.kv("seconds", op->seconds());
    jw.kv("algbw_gbps", op->algoBandwidth() / 1e9);
    jw.kv("faults_injected", injector.faults_injected.value());
    jw.kv("chunk_retries", group.chunk_retries.value());
    jw.kv("retry_wait_ticks", group.retry_wait_ticks.value());
    jw.kv("links_killed", net.links_killed.value());
    jw.kv("links_derated", net.links_derated.value());
    jw.kv("reroutes", net.reroutes.value());
    jw.kv("max_link_busy", group.maxLinkUtilization());
    jw.endObject();
}

int
faultMain(int argc, char **argv)
{
    std::string topology = "octo";
    std::string collective = "all_reduce";
    std::vector<std::string> algos = {"ring", "direct"};
    std::vector<std::string> sizes = {"64M"};
    std::vector<std::string> rates = {"0", "0.005", "0.02"};
    std::vector<fault::LinkFault> kills;
    std::uint64_t seed = 1;
    std::string json_path;
    unsigned jobs = 1;
    unsigned pdes = 0;
    comm::CommParams params;
    params.chunk_bytes = 1 * MiB;
    // See ablation_resilience: a timeout-based retransmit has to
    // cover the per-link chunk backlog to detect loss at all.
    params.retry_timeout = 200'000'000;     // 200 us

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--topology")
            topology = next();
        else if (arg == "--collective")
            collective = next();
        else if (arg == "--algos")
            algos = splitList(next());
        else if (arg == "--sizes")
            sizes = splitList(next());
        else if (arg == "--rates")
            rates = splitList(next());
        else if (arg == "--seed")
            parseNum(arg, next(), seed);
        else if (arg == "--kill")
            kills.push_back(argCheck(
                [&] { return fault::parseLinkFault(next()); }));
        else if (arg == "--max-retries")
            parseNum(arg, next(), params.max_retries);
        else if (arg == "--retry-timeout")
            parseNum(arg, next(), params.retry_timeout);
        else if (arg == "--pdes")
            parseNum(arg, next(), pdes);
        else if (arg == "--jobs")
            parseNum(arg, next(), jobs);
        else if (arg == "--json")
            json_path = next();
        else
            usage(argv[0]);
    }
    nodeKindFor(topology);
    if (algos.empty() || sizes.empty() || rates.empty() || jobs == 0)
        usage(argv[0]);
    const comm::Collective coll = collectiveFor(collective);

    sweep::SweepRunner runner(jobs);
    for (const auto &algo_name : algos) {
        const comm::Algorithm algo = algorithmFor(algo_name);
        for (const auto &size : sizes) {
            const std::uint64_t bytes = parseSize("--sizes", size);
            for (const auto &rate : rates) {
                fault::FaultPlan plan;
                plan.seed = seed;
                parseNum("--rates", rate, plan.chunk_error_rate);
                plan.link_faults = kills;
                argCheck([&] { plan.validate(); });
                runner.addJob(topology + "/" + collective + "/" +
                                  algo_name + "/" + size + "/" + rate,
                              [=](json::JsonWriter &jw) {
                                  runFaultJob(topology, coll, algo,
                                              bytes, plan, params,
                                              pdes, jw);
                              });
            }
        }
    }

    return runSweep(runner, "fault", "ehpsim_cli_fault", json_path);
}

/** Parse "ch@tick" into a scheduled HBM channel blackout. */
fault::ChannelFault
parseChannelFault(const std::string &spec)
{
    const auto at = spec.find('@');
    if (at == std::string::npos)
        argError("bad --blackout '", spec, "' (want ch@tick)");
    fault::ChannelFault f;
    parseNum("--blackout channel", spec.substr(0, at), f.channel);
    parseNum("--blackout tick", spec.substr(at + 1), f.at);
    return f;
}

int
serveMain(int argc, char **argv)
{
    std::vector<std::string> devices = {"mi300x", "baseline"};
    std::vector<std::string> loads = {"0.25", "1.0"};
    serve::ScenarioParams base;
    std::string json_path;
    unsigned jobs = 1;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--devices")
            devices = splitList(next());
        else if (arg == "--loads")
            loads = splitList(next());
        else if (arg == "--tp")
            parseNum(arg, next(), base.tp);
        else if (arg == "--requests")
            parseNum(arg, next(), base.num_requests);
        else if (arg == "--input-tokens")
            parseNum(arg, next(), base.input_tokens);
        else if (arg == "--output-tokens")
            parseNum(arg, next(), base.output_tokens);
        else if (arg == "--seed")
            parseNum(arg, next(), base.seed);
        else if (arg == "--bursty")
            base.bursty = true;
        else if (arg == "--token-budget")
            parseNum(arg, next(), base.token_budget);
        else if (arg == "--max-batch")
            parseNum(arg, next(), base.max_batch);
        else if (arg == "--kv-blocks")
            parseNum(arg, next(), base.kv_blocks_override);
        else if (arg == "--error-rate")
            parseNum(arg, next(), base.faults.chunk_error_rate);
        else if (arg == "--kill")
            base.faults.link_faults.push_back(argCheck(
                [&] { return fault::parseLinkFault(next()); }));
        else if (arg == "--blackout")
            base.faults.channel_faults.push_back(
                parseChannelFault(next()));
        else if (arg == "--pdes")
            parseNum(arg, next(), base.pdes);
        else if (arg == "--checkpoint-at")
            parseNum(arg, next(), base.checkpoint_at);
        else if (arg == "--jobs")
            parseNum(arg, next(), jobs);
        else if (arg == "--json")
            json_path = next();
        else
            usage(argv[0]);
    }
    if (devices.empty() || loads.empty() || jobs == 0)
        usage(argv[0]);
    base.faults.seed = base.seed;
    argCheck([&] { base.faults.validate(); });

    sweep::SweepRunner runner(jobs);
    for (const auto &device : devices) {
        for (const auto &load : loads) {
            serve::ScenarioParams p = base;
            p.device = device;
            parseNum("--loads", load, p.load_rps);
            runner.addJob(device + "/load" + load,
                          [p](json::JsonWriter &jw) {
                              const auto r =
                                  serve::runServingScenario(p);
                              serve::dumpScenario(jw, p, r);
                          });
        }
    }

    return runSweep(runner, "serve", "ehpsim_cli_serve", json_path);
}

#ifdef EHPSIM_RACE
/**
 * Per-scenario data the race jobs extract for the merged top-level
 * report. Slots are preallocated per job index and each written by
 * exactly one worker, so no synchronization is needed beyond the
 * runner's own join. Only compiled with the tracker hooks: in a
 * plain build raceMain exits early and these helpers would trip
 * -Wunused-function under the -Werror gate.
 */
struct RaceJobData
{
    std::map<std::pair<int, int>, Tick> lookahead;
    std::map<std::pair<int, int>, std::uint64_t> flows;
    std::uint64_t conflicts = 0;
    std::uint64_t waived = 0;
    std::uint64_t unwaived = 0;
    std::uint64_t events = 0;
    std::uint64_t accesses = 0;
};

/** Serialize one scenario's result: its name plus the full
 *  ehpsim-race-v1 tracker report. */
void
dumpRaceScenario(json::JsonWriter &jw, const std::string &name,
                 const race::AccessTracker &t)
{
    jw.beginObject();
    jw.kv("scenario", name);
    jw.key("report");
    t.dumpJson(jw);
    jw.endObject();
}

void
extractRaceData(const race::AccessTracker &t, RaceJobData &out)
{
    out.lookahead = t.lookahead();
    out.flows = t.flows();
    out.conflicts = t.conflictCount();
    out.waived = t.waivedCount();
    out.unwaived = t.unwaivedCount();
    out.events = t.eventCount();
    out.accesses = t.accessCount();
}

/** The octo-node ring all-reduce under the tracker: the collective
 *  hot path whose batched completions PR 5 made reorderable. */
void
runRaceCommJob(std::uint64_t bytes, json::JsonWriter &jw,
               RaceJobData &out)
{
    race::AccessTracker t;
    race::addStandardWaivers(t);
    {
        race::TrackerScope scope(&t);
        soc::CommWorld w(soc::NodeKind::octo, kMicrobenchParams);
        w.run(comm::Collective::allReduce, bytes, comm::Algorithm::ring);
    }
    dumpRaceScenario(jw, "comm_allreduce_octo", t);
    extractRaceData(t, out);
}

/** A fixed-seed TP-decode serving run under the tracker (no fault
 *  plan: scheduled faults are exercised by race_test instead). */
void
runRaceServeJob(unsigned requests, std::uint64_t seed,
                json::JsonWriter &jw, RaceJobData &out)
{
    race::AccessTracker t;
    race::addStandardWaivers(t);
    {
        race::TrackerScope scope(&t);
        serve::ScenarioParams p;
        p.device = "mi300x";
        p.tp = 2;
        p.num_requests = requests;
        p.seed = seed;
        p.load_rps = 1.0;
        serve::runServingScenario(p);
    }
    dumpRaceScenario(jw, "serve_octo_tp2", t);
    extractRaceData(t, out);
}
#endif // EHPSIM_RACE

int
raceMain(int argc, char **argv)
{
    std::uint64_t bytes = 4 * MiB;
    unsigned requests = 8;
    std::uint64_t seed = 42;
    std::string json_path;
    unsigned jobs = 1;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--bytes")
            bytes = parseSize(arg, next());
        else if (arg == "--requests")
            parseNum(arg, next(), requests);
        else if (arg == "--seed")
            parseNum(arg, next(), seed);
        else if (arg == "--jobs")
            parseNum(arg, next(), jobs);
        else if (arg == "--json")
            json_path = next();
        else
            usage(argv[0]);
    }
    if (jobs == 0)
        usage(argv[0]);

#ifndef EHPSIM_RACE
    (void)bytes;
    (void)requests;
    (void)seed;
    std::fprintf(stderr,
                 "race: this binary was built without the tracker "
                 "hooks; reconfigure with -DEHPSIM_RACE=ON\n");
    return 2;
#else
    std::vector<RaceJobData> data(2);
    sweep::SweepRunner runner(jobs);
    runner.addJob("comm_allreduce_octo",
                  [bytes, &data](json::JsonWriter &jw) {
                      runRaceCommJob(bytes, jw, data[0]);
                  });
    runner.addJob("serve_octo_tp2",
                  [requests, seed, &data](json::JsonWriter &jw) {
                      runRaceServeJob(requests, seed, jw, data[1]);
                  });

    const auto results = runner.run();

    int failures = 0;
    for (const auto &res : results) {
        if (!res.ok) {
            ++failures;
            std::fprintf(stderr, "race: job %zu (%s) failed: %s\n",
                         res.index, res.name.c_str(),
                         res.error.c_str());
        }
    }

    RaceJobData total;
    for (const auto &d : data) {
        total.conflicts += d.conflicts;
        total.waived += d.waived;
        total.unwaived += d.unwaived;
        total.events += d.events;
        total.accesses += d.accesses;
        for (const auto &[pair, latency] : d.lookahead) {
            auto [it, inserted] = total.lookahead.emplace(pair, latency);
            if (!inserted)
                it->second = std::min(it->second, latency);
        }
        for (const auto &[pair, count] : d.flows)
            total.flows[pair] += count;
    }

    std::ostringstream doc;
    {
        json::JsonWriter jw(doc);
        jw.beginObject();
        jw.kv("schema", "ehpsim-race-v1");
        jw.key("summary");
        jw.beginObject();
        jw.kv("scenarios", std::uint64_t(results.size()));
        jw.kv("events", total.events);
        jw.kv("accesses", total.accesses);
        jw.kv("conflicts", total.conflicts);
        jw.kv("waived", total.waived);
        jw.kv("unwaived", total.unwaived);
        jw.endObject();
        jw.key("scenarios");
        jw.beginArray();
        for (const auto &res : results) {
            if (res.ok)
                jw.rawValue(res.output);
        }
        jw.endArray();
        // The merged PDES partition-dependency table: every domain
        // pair that exchanged messages, with the conservative
        // lookahead (minimum link latency) joining it.
        jw.key("partitions");
        jw.beginObject();
        jw.key("flows");
        jw.beginArray();
        for (const auto &[pair, count] : total.flows) {
            jw.beginObject();
            jw.kv("src", pair.first);
            jw.kv("dst", pair.second);
            jw.kv("count", count);
            jw.endObject();
        }
        jw.endArray();
        jw.key("lookahead");
        jw.beginArray();
        for (const auto &[pair, latency] : total.lookahead) {
            jw.beginObject();
            jw.kv("a", pair.first);
            jw.kv("b", pair.second);
            jw.kv("min_link_latency", latency);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        jw.endObject();
    }
    doc << "\n";

    if (json_path.empty()) {
        std::cout << doc.str();
        std::cout.flush();
    } else {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "race: cannot open %s for writing\n",
                         json_path.c_str());
            return 1;
        }
        out << doc.str();
        if (!out.flush()) {
            std::fprintf(stderr, "race: error writing %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "race: JSON written to %s\n",
                     json_path.c_str());
    }

    std::fprintf(stderr,
                 "race: %zu scenarios, %llu events, %llu accesses, "
                 "%llu conflicts (%llu waived, %llu unwaived)\n",
                 results.size(),
                 static_cast<unsigned long long>(total.events),
                 static_cast<unsigned long long>(total.accesses),
                 static_cast<unsigned long long>(total.conflicts),
                 static_cast<unsigned long long>(total.waived),
                 static_cast<unsigned long long>(total.unwaived));
    return (failures == 0 && total.unwaived == 0) ? 0 : 1;
#endif // EHPSIM_RACE
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "race") == 0)
        return raceMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
        return sweepMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "comm") == 0)
        return commMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "fault") == 0)
        return faultMain(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
        return serveMain(argc, argv);

    const Options opt = parseArgs(argc, argv);
    const auto workload = workloadFor(opt.workload, opt.scale);
    std::printf("ehpsim: %s on %s via %s engine\n",
                workload.name.c_str(), opt.product.c_str(),
                opt.engine.c_str());

    RunReport report;
    if (opt.engine == "roofline") {
        const RooflineEngine eng(modelFor(opt.product));
        report = eng.run(workload);
    } else if (opt.engine == "event") {
        ApuSystem sys(productFor(opt.product),
                      opt.nps == 4 ? mem::NumaMode::nps4
                                   : mem::NumaMode::nps1);
        const auto policy = opt.policy == "blocked"
                                ? hsa::DistributionPolicy::blocked
                                : hsa::DistributionPolicy::roundRobin;
        report = sys.run(workload, opt.partitions, policy);
        if (opt.dump_stats)
            sys.dumpStats(std::cout);
    } else {
        usage(argv[0]);
    }

    std::printf("\n%-24s %12s %10s %10s %10s\n", "phase", "total",
                "gpu", "cpu", "copies");
    for (const auto &p : report.phases) {
        std::printf("%-24s %9.3f ms %7.3f ms %7.3f ms %7.3f ms\n",
                    p.name.c_str(), p.total_s * 1e3, p.gpu_s * 1e3,
                    p.cpu_s * 1e3, p.transfer_s * 1e3);
    }
    std::printf("%-24s %9.3f ms\n", "TOTAL", report.total_s * 1e3);
    const double flops =
        static_cast<double>(workload.totalGpuFlops());
    if (flops > 0 && report.total_s > 0) {
        std::printf("achieved: %.2f Tflops, %.2f TB/s\n",
                    flops / report.total_s / 1e12,
                    static_cast<double>(workload.totalGpuBytes()) /
                        report.total_s / 1e12);
    }
    if (!opt.trace_path.empty()) {
        writeChromeTrace(report, opt.trace_path);
        std::printf("trace written to %s\n", opt.trace_path.c_str());
    }
    return 0;
}

/**
 * @file
 * Event-kernel performance microbenchmark (the repo's tracked perf
 * baseline, DESIGN.md §11).
 *
 * Every figure-level sweep funnels through EventQueue, so kernel
 * throughput bounds how large a sweep the repo can run. This bench
 * measures the kernel hot paths directly and emits BENCH_kernel.json:
 *
 *   schedule_churn   schedule/deschedule/reschedule mix over a pool
 *                    of persistent events (the deschedule-heavy
 *                    pattern retry/timeout logic produces)
 *   oneshot_storm    chains of one-shot callback events through the
 *                    std::function compat path (scheduleLambda)
 *   oneshot_storm_pooled  the same chains through the
 *                    scheduleCallback() pool fast path
 *   comm_allreduce   ring + direct all-reduce on the Fig. 18 octo
 *                    MI300X node, driven through CommGroup
 *   comm_allreduce_octo_pdes  the same workload on the conservative
 *                    PDES core (8 partitions, DESIGN.md §15) — the
 *                    deterministic counters must equal the serial
 *                    bench's
 *   fault_storm      all-reduce under a transient chunk-error rate
 *                    plus mid-flight link derates (retry/backoff)
 *   checkpoint_fork  the sweep fast-forward cycle (DESIGN.md §16):
 *                    warm one world with ring all-reduces, save it,
 *                    then fork eight sweep points by restoring the
 *                    blob into fresh worlds — the per-point cost a
 *                    forked sweep pays instead of re-simulating the
 *                    shared warmup prefix
 *
 * JSON contract: everything under a benchmark's "deterministic" key
 * is byte-identical run-to-run (same build, any host); everything
 * host-dependent (WallTimer readings and rates derived from them)
 * lives under "wall" and is excluded from determinism checks, per
 * the sim/wall_timer.hh contract. perf_kernel_test asserts this.
 *
 * Flags: --quick (CI-sized inputs), --json FILE, --repeat N (take
 * the best wall time of N runs; deterministic fields are identical
 * across runs by construction).
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/pdes/pdes_engine.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/units.hh"
#include "sim/wall_timer.hh"
#include "soc/node_topology.hh"

using namespace ehpsim;

namespace
{

struct BenchResult
{
    std::string name;
    /** Deterministic payload: (key, integer value) pairs. */
    std::vector<std::pair<std::string, std::uint64_t>> det;
    double best_seconds = 0;
    /** Events fired per wall second (processed / best_seconds). */
    double events_per_sec = 0;
    /** All kernel ops (schedule+deschedule+reschedule+fire) per s. */
    double ops_per_sec = 0;
};

struct Sizes
{
    // schedule_churn
    std::size_t churn_events;
    unsigned churn_rounds;
    // oneshot_storm
    std::size_t storm_chains;
    std::uint64_t storm_depth;
    // comm / fault
    std::uint64_t comm_bytes;
    unsigned comm_iters;
    std::uint64_t fault_bytes;
};

Sizes
sizesFor(bool quick)
{
    if (quick)
        return {2'000, 20, 64, 1'000, 16 * MiB, 1, 16 * MiB};
    return {20'000, 100, 256, 5'000, 64 * MiB, 4, 64 * MiB};
}

/** The comm benches' communicator: 1 MiB pipelining chunks. */
constexpr comm::CommParams kCommParams{.chunk_bytes = 1 * MiB};

/**
 * @p iters rounds of one ring then one direct all-reduce of
 * @p bytes on @p w. @return the bytes x hops they placed on links.
 */
std::uint64_t
ringThenDirect(soc::CommWorld &w, unsigned iters, std::uint64_t bytes)
{
    std::uint64_t lb = 0;
    for (unsigned it = 0; it < iters; ++it) {
        lb += w.run(comm::Collective::allReduce, bytes,
                    comm::Algorithm::ring)
                  ->linkBytes();
        lb += w.run(comm::Collective::allReduce, bytes,
                    comm::Algorithm::direct)
                  ->linkBytes();
    }
    return lb;
}

class CountingEvent : public Event
{
  public:
    explicit CountingEvent(std::uint64_t *fired) : fired_(fired) {}

    void process() override { ++*fired_; }

  private:
    std::uint64_t *fired_;
};

/**
 * The deschedule-heavy pattern: every round schedules the whole
 * population, reschedules all of it once (retry/timeout idiom),
 * deschedules a quarter (cancelled timeouts), then drains. On the
 * tombstone kernel each reschedule/deschedule grows dead_seqs_ and
 * leaves a stale heap entry to skip; the indexed heap removes in
 * place.
 */
BenchResult
benchScheduleChurn(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "schedule_churn";
    double best = -1;
    std::uint64_t fired = 0, ops = 0, final_tick = 0;
    std::uint64_t processed = 0, peak_live = 0, heap_capacity = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        fired = ops = 0;
        EventQueue eq;
        std::vector<CountingEvent> events(sz.churn_events,
                                          CountingEvent(&fired));
        Rng rng(12345);
        WallTimer wt;
        for (unsigned round = 0; round < sz.churn_rounds; ++round) {
            const Tick base = eq.curTick() + 1;
            for (auto &ev : events) {
                eq.schedule(&ev, base + rng.nextBounded(1024));
                ++ops;
            }
            for (auto &ev : events) {
                eq.reschedule(&ev, base + rng.nextBounded(1024));
                ++ops;
            }
            for (std::size_t i = 0; i < events.size(); i += 4) {
                eq.deschedule(&events[i]);
                ++ops;
            }
            eq.run();
            ops += fired;
        }
        final_tick = eq.curTick();
        processed = eq.numProcessed();
        peak_live = eq.peakLive();
        heap_capacity = eq.capacity();
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"events_fired", fired},
             {"events_processed", processed},
             {"kernel_ops", ops},
             {"final_tick", final_tick},
             {"peak_live", peak_live},
             {"heap_capacity", heap_capacity}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = static_cast<double>(ops) / best;
    return r;
}

/** Forward decl so the chain lambda can re-arm itself. */
void hop(EventQueue &eq, std::vector<std::uint64_t> &left,
         std::size_t i);

void
hop(EventQueue &eq, std::vector<std::uint64_t> &left, std::size_t i)
{
    // Intentionally the std::function compat path, so baseline and
    // pooled kernels run the same call site.
    // ehpsim-lint: allow(event-alloc)
    eq.scheduleLambda(eq.curTick() + 1 + (i % 7), [&eq, &left, i] {
        if (--left[i] > 0)
            hop(eq, left, i);
    });
}

/**
 * Independent chains of one-shot callbacks, each event scheduling
 * its successor: steady-state one-shot allocation, the pattern of
 * every chunk-completion and fault event in the tree.
 */
BenchResult
benchOneshotStorm(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "oneshot_storm";
    double best = -1;
    std::uint64_t processed = 0, final_tick = 0, pool_capacity = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        EventQueue eq;
        std::vector<std::uint64_t> left(sz.storm_chains,
                                        sz.storm_depth);
        WallTimer wt;
        for (std::size_t i = 0; i < left.size(); ++i)
            hop(eq, left, i);
        eq.run();
        processed = eq.numProcessed();
        final_tick = eq.curTick();
        pool_capacity = eq.poolCapacity();
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"events_processed", processed},
             {"final_tick", final_tick},
             {"pool_capacity", pool_capacity}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = 2 * r.events_per_sec; // one schedule per fire
    return r;
}

void poolHop(EventQueue &eq, std::vector<std::uint64_t> &left,
             std::size_t i);

void
poolHop(EventQueue &eq, std::vector<std::uint64_t> &left,
        std::size_t i)
{
    eq.scheduleCallback(eq.curTick() + 1 + (i % 7), [&eq, &left, i] {
        if (--left[i] > 0)
            poolHop(eq, left, i);
    });
}

/** The same chains through the scheduleCallback() pool fast path:
 *  no std::function, no per-event allocation in steady state. */
BenchResult
benchOneshotStormPooled(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "oneshot_storm_pooled";
    double best = -1;
    std::uint64_t processed = 0, final_tick = 0, pool_capacity = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        EventQueue eq;
        std::vector<std::uint64_t> left(sz.storm_chains,
                                        sz.storm_depth);
        WallTimer wt;
        for (std::size_t i = 0; i < left.size(); ++i)
            poolHop(eq, left, i);
        eq.run();
        processed = eq.numProcessed();
        final_tick = eq.curTick();
        pool_capacity = eq.poolCapacity();
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"events_processed", processed},
             {"final_tick", final_tick},
             {"pool_capacity", pool_capacity}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = 2 * r.events_per_sec;
    return r;
}

/** Ring + direct all-reduce on the octo node (Fig. 18b). */
BenchResult
benchCommAllReduce(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "comm_allreduce_octo";
    double best = -1;
    std::uint64_t processed = 0, final_tick = 0, link_bytes = 0;
    std::uint64_t peak_live = 0, heap_capacity = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        soc::CommWorld w(soc::NodeKind::octo, kCommParams);
        WallTimer wt;
        link_bytes = ringThenDirect(w, sz.comm_iters, sz.comm_bytes);
        processed = w.eq.numProcessed();
        final_tick = w.eq.curTick();
        peak_live = w.eq.peakLive();
        heap_capacity = w.eq.capacity();
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"events_processed", processed},
             {"final_tick", final_tick},
             {"link_bytes", link_bytes},
             {"peak_live", peak_live},
             {"heap_capacity", heap_capacity}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = 2 * r.events_per_sec;
    return r;
}

/**
 * The comm_allreduce_octo workload on the conservative parallel
 * core: the eight socket domains become eight PDES partitions, each
 * with its own indexed-heap queue, windowed by the octo node's
 * min-link-latency lookahead. The deterministic counters must match
 * the serial bench exactly (same schedule, same ticks, same bytes) —
 * partitions/windows/lookahead are additionally pinned so placement
 * regressions show up as counter diffs, not just wall-time noise.
 */
BenchResult
benchCommAllReducePdes(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "comm_allreduce_octo_pdes";
    double best = -1;
    std::uint64_t processed = 0, final_tick = 0, link_bytes = 0;
    std::uint64_t peak_live = 0, windows = 0, lookahead = 0;
    std::uint64_t partitions = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        soc::CommWorld w(soc::NodeKind::octo, kCommParams, 8);
        WallTimer wt;
        link_bytes = ringThenDirect(w, sz.comm_iters, sz.comm_bytes);
        const pdes::PdesEngine &engine = *w.pdes();
        processed = engine.totalProcessed();
        final_tick = w.eq.curTick();
        peak_live = engine.peakLiveTotal();
        windows = engine.windows();
        lookahead = engine.lookahead();
        partitions = engine.partitions();
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"events_processed", processed},
             {"final_tick", final_tick},
             {"link_bytes", link_bytes},
             {"peak_live", peak_live},
             {"partitions", partitions},
             {"windows", windows},
             {"lookahead_ticks", lookahead}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = 2 * r.events_per_sec;
    return r;
}

/**
 * All-reduce under a 5% transient chunk-error rate plus two x16
 * derates mid-flight: the retry/backoff path reschedules heavily.
 */
BenchResult
benchFaultStorm(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "fault_storm";
    double best = -1;
    std::uint64_t processed = 0, final_tick = 0, retries = 0;
    std::uint64_t faults = 0, peak_live = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        comm::CommParams params = kCommParams;
        params.retry_timeout = 200'000'000;     // 200 us
        params.max_retries = 16;
        soc::CommWorld w(soc::NodeKind::octo, params);
        fault::FaultPlan plan;
        plan.seed = 20240624;
        plan.chunk_error_rate = 0.05;
        plan.link_faults.push_back(
            {"mi300x0", "mi300x1", 5'000'000, 0.5});
        plan.link_faults.push_back(
            {"mi300x2", "mi300x3", 9'000'000, 0.5});
        fault::FaultInjector inj(w.topo.get(), "inj", plan, &w.eq);
        inj.attachNetwork(w.topo->network());
        inj.attachCommGroup(&w.group);
        inj.arm();
        WallTimer wt;
        w.run(comm::Collective::allReduce, sz.fault_bytes,
              comm::Algorithm::ring);
        w.eq.run();     // drain any faults scheduled past completion
        processed = w.eq.numProcessed();
        final_tick = w.eq.curTick();
        retries = static_cast<std::uint64_t>(
            w.group.chunk_retries.value());
        faults = static_cast<std::uint64_t>(
            inj.faults_injected.value());
        peak_live = w.eq.peakLive();
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"events_processed", processed},
             {"final_tick", final_tick},
             {"chunk_retries", retries},
             {"faults_injected", faults},
             {"peak_live", peak_live}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = 2 * r.events_per_sec;
    return r;
}

/**
 * The sweep fast-forward cycle (DESIGN.md §16): simulate a shared
 * warmup prefix of ring all-reduces once, saveWorld() the quiesced
 * world, then fork eight sweep points — each restores the blob into
 * a freshly built world and runs one measured collective. The wall
 * time is what a forked sweep pays end to end (warmup once + save +
 * eight restores + eight measured ops); a straight-through sweep
 * would re-simulate warmup_events_skipped extra kernel events to
 * reach the same eight results. Byte-identity of the forked results
 * is the snapshot_test/cli_test contract; this bench tracks the
 * cost side.
 */
BenchResult
benchCheckpointFork(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "checkpoint_fork";
    constexpr std::uint64_t kPoints = 8;
    double best = -1;
    std::uint64_t warm_events = 0, snapshot_bytes = 0;
    std::uint64_t processed = 0, final_tick = 0, link_bytes = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        WallTimer wt;
        std::string blob;
        {
            soc::CommWorld w(soc::NodeKind::octo, kCommParams);
            for (unsigned it = 0; it < sz.comm_iters; ++it) {
                w.run(comm::Collective::allReduce, sz.comm_bytes,
                      comm::Algorithm::ring);
            }
            warm_events = w.eq.numProcessed();
            blob = saveWorld(w.eq, w.root);
            snapshot_bytes = blob.size();
        }
        std::uint64_t total = 0, lb = 0;
        for (std::uint64_t pt = 0; pt < kPoints; ++pt) {
            soc::CommWorld w(soc::NodeKind::octo, kCommParams);
            restoreWorld(blob, w.eq, w.root);
            lb += w.run(comm::Collective::allReduce, sz.comm_bytes,
                        comm::Algorithm::direct)
                      ->linkBytes();
            total += w.eq.numProcessed() - warm_events;
            final_tick = w.eq.curTick();
        }
        processed = total;
        link_bytes = lb;
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"fork_points", kPoints},
             {"warmup_events", warm_events},
             {"warmup_events_skipped", (kPoints - 1) * warm_events},
             {"snapshot_bytes", snapshot_bytes},
             {"events_processed", processed},
             {"final_tick", final_tick},
             {"link_bytes", link_bytes}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(processed) / best;
    r.ops_per_sec = 2 * r.events_per_sec;
    return r;
}

void
dumpJson(std::ostream &os, bool quick,
         const std::vector<BenchResult> &results)
{
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "ehpsim-bench-kernel-v1");
    jw.kv("quick", quick);
    jw.key("benchmarks");
    jw.beginArray();
    for (const auto &r : results) {
        jw.beginObject();
        jw.kv("name", r.name);
        jw.key("deterministic");
        jw.beginObject();
        for (const auto &[k, v] : r.det)
            jw.kv(k, v);
        jw.endObject();
        jw.key("wall");
        jw.beginObject();
        jw.kv("best_seconds", r.best_seconds);
        jw.kv("events_per_sec", r.events_per_sec);
        jw.kv("ops_per_sec", r.ops_per_sec);
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned repeat = 3;
    std::string json_path;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--repeat" && i + 1 < argc) {
            const std::string val = argv[++i];
            const char *end = val.data() + val.size();
            const auto [ptr, ec] =
                std::from_chars(val.data(), end, repeat);
            if (ec != std::errc() || ptr != end || repeat == 0) {
                std::fprintf(stderr,
                             "perf_kernel: --repeat wants a positive "
                             "integer, got '%s'\n",
                             val.c_str());
                return 2;
            }
        } else if (arg == "--only" && i + 1 < argc) {
            only = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: perf_kernel [--quick] [--json FILE] "
                         "[--repeat N] [--only NAME]\n");
            return 2;
        }
    }

    const Sizes sz = sizesFor(quick);
    using BenchFn = BenchResult (*)(const Sizes &, unsigned);
    const struct
    {
        const char *name;
        BenchFn fn;
    } benches[] = {
        {"schedule_churn", benchScheduleChurn},
        {"oneshot_storm", benchOneshotStorm},
        {"oneshot_storm_pooled", benchOneshotStormPooled},
        {"comm_allreduce_octo", benchCommAllReduce},
        {"comm_allreduce_octo_pdes", benchCommAllReducePdes},
        {"fault_storm", benchFaultStorm},
        {"checkpoint_fork", benchCheckpointFork},
    };
    std::vector<BenchResult> results;
    for (const auto &b : benches) {
        if (only.empty() || only == b.name)
            results.push_back(b.fn(sz, repeat));
    }
    if (results.empty()) {
        std::fprintf(stderr, "perf_kernel: no benchmark named '%s'\n",
                     only.c_str());
        return 2;
    }

    for (const auto &r : results) {
        std::printf("[kernel_bench] %s: %.3f s best, %.3g events/s, "
                    "%.3g ops/s\n",
                    r.name.c_str(), r.best_seconds, r.events_per_sec,
                    r.ops_per_sec);
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "perf_kernel: cannot open %s\n",
                         json_path.c_str());
            return 2;
        }
        dumpJson(out, quick, results);
        std::printf("[kernel_bench] JSON -> %s\n", json_path.c_str());
    }
    return 0;
}

/**
 * @file
 * Event-kernel performance microbenchmark (the repo's tracked perf
 * baseline, DESIGN.md §11).
 *
 * Every figure-level sweep funnels through EventQueue, so kernel
 * throughput bounds how large a sweep the repo can run. This bench
 * measures the kernel hot paths directly and emits BENCH_kernel.json:
 *
 *   schedule_churn   rounds of a large population of one-shots at
 *                    random ticks, each round drained: a deep live
 *                    heap
 *   oneshot_storm    chains of one-shot callback events, each boxed
 *                    in a std::function
 *   oneshot_storm_pooled  the same chains with the callable inline
 *                    in its pool slot
 *   comm_allreduce   ring + direct all-reduces on the Fig. 18 octo
 *                    MI300X node, driven through CommGroup
 *   comm_direct_tp8  back-to-back serving-sized (1.25 MiB) direct
 *                    all-reduces over the eight octo ranks: the
 *                    per-layer collective of TP-8 LLM serving, where
 *                    building each op's chunk schedule is a large
 *                    share of the work
 *   fault_storm      back-to-back all-reduces under a transient
 *                    chunk-error rate plus mid-flight link derates
 *                    (retry/backoff)
 *   link_occupancy   the occupancy layer alone, in the two shapes the
 *                    simulator produces: 1 MiB chunks on a node x16
 *                    link (run store) and 288 B stripes arriving out
 *                    of order on a package link (dense store)
 *   cache_lookup     the cache layer alone: a seeded address stream
 *                    through one XCD L2 over one Infinity Cache
 *                    slice and its HBM3 channel
 *   apu_triad        the package memory path: one STREAM triad GPU
 *                    phase on a freshly built MI300A ApuSystem, from
 *                    cold caches through the XCD L2s, the fabric,
 *                    the Infinity Cache slices and HBM, with the
 *                    calls it took: fabric sends, link transfers and
 *                    cache, slice and DRAM port charges
 *   checkpoint_fork  the sweep fast-forward cycle (DESIGN.md §16):
 *                    warm one world with ring all-reduces, save it,
 *                    then fork eight sweep points by restoring the
 *                    blob into fresh worlds — the per-point cost a
 *                    forked sweep pays instead of re-simulating the
 *                    shared warmup prefix
 *   system_build     building and destroying an MI300A ApuSystem and
 *                    an octo MI300X NodeTopology: the set-up every
 *                    world pays, counted in stats and groups
 *                    registered and heap allocations per build
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
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "core/apu_system.hh"
#include "fabric/link.hh"
#include "fabric/network.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "gpu/xcd.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/infinity_cache.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/units.hh"
#include "sim/wall_timer.hh"
#include "soc/node_topology.hh"
#include "soc/product_config.hh"
#include "workloads/generators.hh"

using namespace ehpsim;

namespace
{

/** Heap allocations and bytes requested through operator new. */
std::uint64_t g_heap_allocs = 0;
std::uint64_t g_heap_bytes = 0;

/** Counted malloc-family storage; @p align 0 means the default. */
void *
countedAlloc(std::size_t n, std::size_t align) noexcept
{
    ++g_heap_allocs;
    g_heap_bytes += n;
    if (align == 0)
        return std::malloc(n ? n : 1);
    // aligned_alloc wants a nonzero multiple of the alignment.
    return std::aligned_alloc(align, n ? (n + align - 1) / align * align
                                       : align);
}

} // anonymous namespace

// Every global operator new in this (single-threaded) binary counts
// itself, so system_build can report the allocations a build makes.
// The plain, nothrow and aligned forms are all replaced, and every
// delete form frees what they return: a partial set leaves the
// sanitizer's own nothrow new paired with this file's delete
// (std::stable_sort's buffer), an ASan alloc-dealloc mismatch. Kept
// out of line so GCC does not pair an inlined free() with a new
// expression (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n, 0))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n, 0);
}

[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t a)
{
    if (void *p = countedAlloc(n, static_cast<std::size_t>(a)))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t,
                const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

struct BenchResult
{
    std::string name;
    /** Deterministic payload: (key, integer value) pairs. */
    std::vector<std::pair<std::string, std::uint64_t>> det;
    /**
     * Counts that depend on the toolchain rather than the
     * simulation (heap allocations), reported under "wall".
     */
    std::vector<std::pair<std::string, std::uint64_t>> host;
    double best_seconds = 0;
    /** Events fired per wall second (processed / best_seconds). */
    double events_per_sec = 0;
    /** All kernel ops (schedules and fires) per s. */
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
    // comm / fault / checkpoint_fork
    std::uint64_t comm_bytes;
    unsigned comm_iters;
    std::uint64_t fault_bytes;
    // fault_storm: faulted all-reduces per timed repetition
    unsigned fault_rounds;
    // comm_allreduce_octo: ring + direct rounds
    unsigned octo_iters;
    // comm_direct_tp8
    unsigned tp8_ops;
    // link_occupancy
    std::uint64_t link_chunks;
    std::uint64_t link_stripes;
    // cache_lookup
    std::uint64_t cache_accesses;
    // apu_triad: elements per triad array
    std::uint64_t triad_elems;
    // system_build: MI300A + octo builds per timed repetition
    unsigned builds;
};

Sizes
sizesFor(bool quick)
{
    if (quick)
        return {2'000,   20,       64,      1'000,   16 * MiB,
                1,       16 * MiB, 1,       1,       20,
                512,     200'000,  100'000, 1 << 17, 2};
    return {20'000,    100,       256,       5'000,     64 * MiB,
            4,         64 * MiB,  500,       500,       8'000,
            8'192,     2'000'000, 2'000'000, 1 << 21,   20};
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

/**
 * Every round schedules the whole population of one-shots at random
 * ticks, then drains it: the heap holds the whole population at its
 * peak, so each pop sifts through its full depth.
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
        Rng rng(12345);
        WallTimer wt;
        for (unsigned round = 0; round < sz.churn_rounds; ++round) {
            const Tick base = eq.curTick() + 1;
            for (std::size_t i = 0; i < sz.churn_events; ++i) {
                eq.scheduleCallback(base + rng.nextBounded(1024),
                                    [&fired] { ++fired; });
            }
            ops += sz.churn_events;
            eq.run();
        }
        ops += fired;
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
    // Boxed in a std::function on purpose: the boxed one-shot path
    // the pooled storm below skips.
    // ehpsim-lint: allow(event-alloc)
    eq.scheduleCallback(eq.curTick() + 1 + (i % 7),
                        std::function<void()>([&eq, &left, i] {
                            if (--left[i] > 0)
                                hop(eq, left, i);
                        }));
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

/** The same chains with the callable inline in its pool slot: no
 *  std::function, no per-event allocation in steady state. */
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

/**
 * Time @p drive on a fresh octo world with the comm benches'
 * communicator; @p drive returns the bytes x hops it placed.
 */
template <typename F>
BenchResult
octoCommBench(const char *name, unsigned repeat, F &&drive)
{
    BenchResult r;
    r.name = name;
    double best = -1;
    std::uint64_t processed = 0, final_tick = 0, link_bytes = 0;
    std::uint64_t peak_live = 0, heap_capacity = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        soc::CommWorld w(soc::NodeKind::octo, kCommParams);
        WallTimer wt;
        link_bytes = drive(w);
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

/** Ring + direct all-reduce on the octo node (Fig. 18b). */
BenchResult
benchCommAllReduce(const Sizes &sz, unsigned repeat)
{
    return octoCommBench("comm_allreduce_octo", repeat,
                         [&sz](soc::CommWorld &w) {
                             return ringThenDirect(w, sz.octo_iters,
                                                   sz.comm_bytes);
                         });
}

/**
 * TP-8 serving's per-layer all-reduce: 80 decode tokens of a
 * Llama-2-70B hidden state (8192 x fp16) is 1.25 MiB, one 1 MiB
 * chunk per shard, so each op is 112 transfers behind eight chunk
 * joins and the run is mostly schedule building and dispatch.
 */
BenchResult
benchCommDirectTp8(const Sizes &sz, unsigned repeat)
{
    constexpr std::uint64_t bytes = std::uint64_t{80} * 8192 * 2;
    BenchResult r = octoCommBench(
        "comm_direct_tp8", repeat, [&sz](soc::CommWorld &w) {
            std::uint64_t lb = 0;
            for (unsigned i = 0; i < sz.tp8_ops; ++i) {
                lb += w.run(comm::Collective::allReduce, bytes,
                            comm::Algorithm::direct)
                          ->linkBytes();
            }
            return lb;
        });
    // With ops, events_processed shows the dispatch shape: one
    // start event plus one per join release, 1 + 8 per op.
    r.det.emplace_back("ops", sz.tp8_ops);
    return r;
}

/**
 * Back-to-back all-reduces under a 5% transient chunk-error rate,
 * plus two x16 derates during the first: the retry/backoff path
 * reschedules heavily. The full size runs 500 of them (~0.1 s), so
 * a repetition is long enough to time a retry-path change.
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
        for (unsigned i = 0; i < sz.fault_rounds; ++i) {
            w.run(comm::Collective::allReduce, sz.fault_bytes,
                  comm::Algorithm::ring);
        }
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
 * Link occupancy without the comm layer above it. A node x16 link
 * takes 1 MiB chunks about one serialization time apart, each
 * jittered up to half of one either way, so chunks queue and
 * backfill; a package link takes 288 B stripes, each arriving up to
 * 50 ns behind the stream's front.
 */
BenchResult
benchLinkOccupancy(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "link_occupancy";
    constexpr Tick kChunkGap = 16'000'000;     // ~1 MiB at 64 GB/s
    constexpr Tick kStripeGap = 144;           // 288 B at 2 TB/s
    double best = -1;
    std::uint64_t chunk_last = 0, chunk_sum = 0;
    std::uint64_t stripe_last = 0, stripe_sum = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        SimObject root(nullptr, "root");
        fabric::Link node(&root, "x16", fabric::serdesIfLinkParams(),
                          mem::OccupancyTracker::Store::runs);
        fabric::Link pkg(&root, "iod", fabric::onDieLinkParams());
        Rng rng(20240624);
        chunk_last = chunk_sum = stripe_last = stripe_sum = 0;
        WallTimer wt;
        for (std::uint64_t i = 0; i < sz.link_chunks; ++i) {
            const Tick when = (i + 1) * kChunkGap -
                              kChunkGap / 2 + rng.nextBounded(kChunkGap);
            const Tick t = node.transfer(when, 1 * MiB);
            chunk_last = std::max(chunk_last, t);
            chunk_sum += t;
        }
        for (std::uint64_t i = 0; i < sz.link_stripes; ++i) {
            const Tick front = i * kStripeGap;
            const Tick back = rng.nextBounded(50'000);
            const Tick t =
                pkg.transfer(front > back ? front - back : 0, 288);
            stripe_last = std::max(stripe_last, t);
            stripe_sum += t;
        }
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"chunks", sz.link_chunks},
             {"chunk_last_arrival", chunk_last},
             {"chunk_arrival_sum", chunk_sum},
             {"stripes", sz.link_stripes},
             {"stripe_last_arrival", stripe_last},
             {"stripe_arrival_sum", stripe_sum}};
    r.best_seconds = best;
    r.events_per_sec =
        static_cast<double>(sz.link_chunks + sz.link_stripes) / best;
    r.ops_per_sec = r.events_per_sec;
    return r;
}

/**
 * The cache layer without the SoC around it: one XCD L2 (4 MB,
 * 16-way, 128 B lines) over one 2 MB Infinity Cache slice and its
 * HBM3 channel. Half the accesses walk a 64 MiB stream, which
 * misses the L2 and turns the slice's next-line prefetches into
 * hits; the rest land at random in a 1 MiB hot set the L2 mostly
 * keeps. One in four accesses is a write, so dirty victims write
 * back through both levels.
 */
BenchResult
benchCacheLookup(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "cache_lookup";
    constexpr Tick kGap = 4'000;                // one access per 4 ns
    constexpr Addr kStreamBase = 256 * MiB;
    constexpr std::uint64_t kLine = 128;
    double best = -1;
    std::uint64_t l2_hits = 0, l2_misses = 0, l2_writebacks = 0;
    std::uint64_t ic_hits = 0, ic_misses = 0, ic_writebacks = 0;
    std::uint64_t prefetch_hits = 0, last_complete = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        SimObject root(nullptr, "root");
        mem::DramChannel hbm(&root, "hbm", mem::hbm3ChannelParams());
        mem::InfinityCacheSlice ic(&root, "ic", {}, &hbm);
        mem::Cache l2(&root, "l2", gpu::cdna3XcdParams().l2, &ic);
        Rng rng(20240624);
        Addr stream = 0;
        last_complete = 0;
        WallTimer wt;
        for (std::uint64_t i = 0; i < sz.cache_accesses; ++i) {
            Addr addr;
            if (rng.nextBool(0.5)) {
                addr = kStreamBase + stream;
                stream = (stream + kLine) % (64 * MiB);
            } else {
                addr = rng.nextBounded(1 * MiB / kLine) * kLine;
            }
            const auto res =
                l2.access(i * kGap, addr, kLine, rng.nextBool(0.25));
            last_complete = std::max(last_complete, res.complete);
        }
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
        const auto count = [](const stats::Scalar &v) {
            return static_cast<std::uint64_t>(v.value());
        };
        l2_hits = count(l2.hits);
        l2_misses = count(l2.misses);
        l2_writebacks = count(l2.writebacks);
        ic_hits = count(ic.hits);
        ic_misses = count(ic.misses);
        ic_writebacks = count(ic.writebacks);
        prefetch_hits = count(ic.prefetch_hits);
    }
    r.det = {{"accesses", sz.cache_accesses},
             {"l2_hits", l2_hits},
             {"l2_misses", l2_misses},
             {"l2_writebacks", l2_writebacks},
             {"ic_hits", ic_hits},
             {"ic_misses", ic_misses},
             {"ic_writebacks", ic_writebacks},
             {"prefetch_hits", prefetch_hits},
             {"last_complete", last_complete}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(sz.cache_accesses) / best;
    r.ops_per_sec = r.events_per_sec;
    return r;
}

/** f(g) for @p g and every group below it, parents first. */
template <class F>
void
forEachGroup(const stats::StatGroup &g, F &&f)
{
    f(g);
    for (const stats::StatGroup *c : g.groupList())
        forEachGroup(*c, f);
}

/**
 * The package memory path an ApuSystem GPU phase takes: one STREAM
 * triad (two arrays read, one written) on a freshly built MI300A,
 * from cold caches. Its stripes cross the XCD L2s, the package
 * fabric, the Infinity Cache slices and the HBM channels. The wall
 * time covers the run, not the build. Besides the traffic it moved,
 * it counts the calls that moved it, summed over the stats tree:
 * fabric sends, link transfers, and port charges (cache and
 * Infinity Cache slice hits and misses, DRAM reads and writes).
 */
BenchResult
benchApuTriad(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "apu_triad";
    const workloads::Workload triad =
        workloads::streamTriad(sz.triad_elems);
    double best = -1;
    std::uint64_t sends = 0, transfers = 0, port_charges = 0;
    std::uint64_t mall_hits = 0, mall_misses = 0;
    std::uint64_t hbm_bytes = 0, last_complete = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        core::ApuSystem sys(soc::mi300aConfig());
        WallTimer wt;
        sys.run(triad);
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
        const auto count = [](const stats::Scalar &v) {
            return static_cast<std::uint64_t>(v.value());
        };
        sends = transfers = port_charges = 0;
        forEachGroup(sys, [&](const stats::StatGroup &g) {
            if (const auto *n = dynamic_cast<const fabric::Network *>(&g))
                sends += count(n->messages);
            else if (const auto *l = dynamic_cast<const fabric::Link *>(&g))
                transfers += count(l->transfers);
            else if (const auto *c = dynamic_cast<const mem::Cache *>(&g))
                port_charges += count(c->hits) + count(c->misses);
            else if (const auto *ic =
                         dynamic_cast<const mem::InfinityCacheSlice *>(&g))
                port_charges += count(ic->hits) + count(ic->misses);
            else if (const auto *d =
                         dynamic_cast<const mem::DramChannel *>(&g))
                port_charges += count(d->reads) + count(d->writes);
        });
        soc::Package &pkg = sys.package();
        mall_hits = mall_misses = hbm_bytes = 0;
        for (unsigned c = 0; c < pkg.memMap().numChannels(); ++c) {
            mall_hits += count(pkg.slice(c)->hits);
            mall_misses += count(pkg.slice(c)->misses);
            hbm_bytes += count(pkg.channel(c)->bytes_served);
        }
        last_complete = ticksFromSeconds(sys.elapsedSeconds());
    }
    r.det = {{"triad_elems", sz.triad_elems},
             {"fabric_transfers", transfers},
             {"mall_hits", mall_hits},
             {"mall_misses", mall_misses},
             {"hbm_bytes", hbm_bytes},
             {"last_complete", last_complete},
             {"fabric_sends", sends},
             {"port_charges", port_charges}};
    r.best_seconds = best;
    r.events_per_sec = static_cast<double>(transfers) / best;
    r.ops_per_sec = r.events_per_sec;
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

/**
 * World set-up: build and destroy an MI300A ApuSystem and an octo
 * MI300X NodeTopology, sz.builds times each per repetition. Every
 * CU, cache, slice, HBM channel and link is a SimObject with its own
 * stats, so set-up is mostly stat registration. The counters are the
 * stats and groups each tree registers; the heap allocations and
 * bytes one build of both make go under "wall", since they depend on
 * the standard library. Its events_per_sec counts stats registered
 * and its ops_per_sec builds (of both trees).
 */
BenchResult
benchSystemBuild(const Sizes &sz, unsigned repeat)
{
    BenchResult r;
    r.name = "system_build";
    const soc::ProductConfig mi300a = soc::mi300aConfig();
    const auto tally = [](const stats::StatGroup &root,
                          std::uint64_t &nstats, std::uint64_t &ngroups) {
        nstats = ngroups = 0;
        forEachGroup(root, [&](const stats::StatGroup &g) {
            nstats += g.statList().size();
            ++ngroups;
        });
    };
    double best = -1;
    std::uint64_t apu_stats = 0, apu_groups = 0;
    std::uint64_t octo_stats = 0, octo_groups = 0;
    std::uint64_t allocs = 0, bytes = 0;
    for (unsigned rep = 0; rep < repeat; ++rep) {
        WallTimer wt;
        for (unsigned b = 0; b < sz.builds; ++b) {
            const std::uint64_t allocs0 = g_heap_allocs;
            const std::uint64_t bytes0 = g_heap_bytes;
            {
                core::ApuSystem sys(mi300a);
                tally(sys, apu_stats, apu_groups);
            }
            {
                EventQueue eq;
                SimObject root(nullptr, "root", &eq);
                const auto topo = soc::NodeTopology::mi300xOctoNode(&root);
                tally(root, octo_stats, octo_groups);
            }
            allocs = g_heap_allocs - allocs0;
            bytes = g_heap_bytes - bytes0;
        }
        const double s = wt.seconds();
        if (best < 0 || s < best)
            best = s;
    }
    r.det = {{"builds", sz.builds},
             {"apu_stats", apu_stats},
             {"apu_groups", apu_groups},
             {"octo_stats", octo_stats},
             {"octo_groups", octo_groups}};
    r.host = {{"allocs_per_build", allocs},
              {"alloc_bytes_per_build", bytes}};
    r.best_seconds = best;
    r.events_per_sec =
        static_cast<double>(sz.builds * (apu_stats + octo_stats)) / best;
    r.ops_per_sec = static_cast<double>(sz.builds) / best;
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
        for (const auto &[k, v] : r.host)
            jw.kv(k, v);
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
        {"comm_direct_tp8", benchCommDirectTp8},
        {"fault_storm", benchFaultStorm},
        {"link_occupancy", benchLinkOccupancy},
        {"cache_lookup", benchCacheLookup},
        {"apu_triad", benchApuTriad},
        {"checkpoint_fork", benchCheckpointFork},
        {"system_build", benchSystemBuild},
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

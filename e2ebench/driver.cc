/**
 * @file
 * One repetition of one end-to-end benchmark workload.
 *
 *   e2e_driver --workload NAME --seed N [--trace 0|1] [--size full|tiny]
 *
 * Builds the workload's world from public constructors, runs it to
 * completion, checks its outputs against invariants, and prints one
 * JSON object on stdout: host timings of the set-up and measured
 * phases, the deterministic simulated results, counters read from
 * the public stats tree, the checks, and (with --trace 1) per-layer
 * spans. run.py repeats this in fresh processes and aggregates.
 *
 * A span wraps one call the driver makes into a simulator layer and
 * records wall time, user/system CPU time and minor page faults
 * (getrusage deltas), each as self time: a span's children are
 * subtracted from it. With --trace 0 spans record nothing.
 *
 * After the workload, every repetition also times two fixed reference
 * kernels that share no code with the simulator (hostSpeed()), so
 * run.py can express CPU time at a reference host speed.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comm/comm_group.hh"
#include "core/apu_system.hh"
#include "fault/fault_injector.hh"
#include "mem/hbm_subsystem.hh"
#include "serve/scenario.hh"
#include "serve/serving_engine.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "soc/node_topology.hh"
#include "soc/product_config.hh"
#include "workloads/generators.hh"

using namespace ehpsim;

namespace
{

/** Host clocks at one instant. */
struct Usage
{
    double wall = 0;
    double user = 0;
    double sys = 0;
    double faults = 0;

    static Usage
    now()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        Usage u;
        u.wall = std::chrono::duration<double>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
        u.user = static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
        u.sys = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
        u.faults = static_cast<double>(ru.ru_minflt);
        return u;
    }

    Usage
    operator-(const Usage &o) const
    {
        return {wall - o.wall, user - o.user, sys - o.sys,
                faults - o.faults};
    }

    Usage &
    operator+=(const Usage &o)
    {
        wall += o.wall;
        user += o.user;
        sys += o.sys;
        faults += o.faults;
        return *this;
    }
};

/** Self-time spans, aggregated by name. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    class Span
    {
      public:
        Span(Tracer *t, const char *name) : t_(t)
        {
            if (t_)
                t_->open(name);
        }
        ~Span()
        {
            if (t_)
                t_->close();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *t_;
    };

    Span span(const char *name) { return Span(on_ ? this : nullptr, name); }

    struct Total
    {
        Usage self;
        unsigned calls = 0;
    };

    const std::map<std::string, Total> &totals() const { return totals_; }

  private:
    struct Frame
    {
        const char *name;
        Usage start;
        Usage children;
    };

    void
    open(const char *name)
    {
        stack_.push_back({name, Usage::now(), Usage{}});
    }

    void
    close()
    {
        const Frame f = stack_.back();
        stack_.pop_back();
        const Usage inclusive = Usage::now() - f.start;
        Total &tot = totals_[f.name];
        tot.self += inclusive - f.children;
        ++tot.calls;
        if (!stack_.empty())
            stack_.back().children += inclusive;
    }

    bool on_;
    std::vector<Frame> stack_;
    std::map<std::string, Total> totals_;
};

/** Every Scalar and Formula of a stats subtree as (path, value). */
class StatIndex
{
  public:
    explicit StatIndex(const stats::StatGroup &root)
    {
        walk(root, root.statName());
    }

    /** Sum of the stats whose leaf name is @p leaf and whose parent
     *  group's name starts with @p group_prefix. */
    double
    sum(const std::string &leaf, const std::string &group_prefix = "") const
    {
        double s = 0;
        for (const auto &e : entries_) {
            if (e.leaf == leaf && e.group.rfind(group_prefix, 0) == 0)
                s += e.value;
        }
        return s;
    }

    double
    max(const std::string &leaf) const
    {
        double m = 0;
        for (const auto &e : entries_) {
            if (e.leaf == leaf)
                m = std::max(m, e.value);
        }
        return m;
    }

  private:
    struct Entry
    {
        std::string group;
        std::string leaf;
        double value;
    };

    void
    walk(const stats::StatGroup &g, const std::string &name)
    {
        for (const stats::StatBase *s : g.statList()) {
            if (auto *sc = dynamic_cast<const stats::Scalar *>(s))
                entries_.push_back({name, s->name(), sc->value()});
            else if (auto *f = dynamic_cast<const stats::Formula *>(s))
                entries_.push_back({name, s->name(), f->value()});
        }
        for (const stats::StatGroup *c : g.groupList())
            walk(*c, c->statName());
    }

    std::vector<Entry> entries_;
};

/** Everything one repetition reports. */
struct Result
{
    Usage setup;
    Usage run;
    /** Deterministic simulated outputs, in emission order. */
    std::vector<std::pair<std::string, double>> sim;
    /** Deterministic counters from the stats tree. */
    std::vector<std::pair<std::string, double>> counters;
    std::vector<std::pair<std::string, bool>> checks;
    unsigned ops = 0;
    unsigned failed_ops = 0;

    /** Print the attempt count up front, so a run that dies later
     *  can still be charged with every attempt failed. */
    void
    announce(unsigned planned_ops, unsigned planned_checks) const
    {
        std::printf("{\"planned_attempts\":%u}\n",
                    planned_ops + planned_checks);
        std::fflush(stdout);
    }

    void check(const std::string &name, bool ok)
    {
        checks.emplace_back(name, ok);
    }
};

/** Counters every workload reports (zero where a layer is unused). */
void
addTreeCounters(Result &r, const stats::StatGroup &root)
{
    const StatIndex idx(root);
    const double hits = idx.sum("hits", "mall");
    const double misses = idx.sum("misses", "mall");
    r.counters.insert(
        r.counters.end(),
        {{"comm.ops", idx.sum("ops_completed")},
         {"comm.chunk_retries", idx.sum("chunk_retries")},
         {"fabric.transfers", idx.sum("transfers")},
         {"fabric.bytes_moved", idx.sum("bytes_moved")},
         {"fabric.busy_frac_max", idx.max("busy_frac")},
         {"mem.mall_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0},
         {"mem.hbm_bytes", idx.sum("bytes_served", "ch")},
         {"fault.injected", idx.sum("faults_injected")},
         {"hsa.dispatches", idx.sum("dispatches")},
         {"coherence.probes", idx.sum("probes_sent")}});
}

void
addQueueCounters(Result &r, const EventQueue &eq)
{
    r.counters.emplace_back("sim.events",
                            static_cast<double>(eq.numProcessed()));
    r.counters.emplace_back("sim.peak_live",
                            static_cast<double>(eq.peakLive()));
}

// --------------------------------------------------------------------
// collectives_octo
// --------------------------------------------------------------------

struct CollectiveStep
{
    comm::Collective kind;
    comm::Algorithm algo;
    std::uint64_t bytes;
};

Result
runCollectives(std::uint64_t seed, bool tiny, Tracer &tr)
{
    using comm::Algorithm;
    using comm::Collective;
    const std::uint64_t big = tiny ? 2 * MiB : 32 * MiB;
    const std::uint64_t a2a = tiny ? 1 * MiB : 4 * MiB;
    // Ring and direct variants of every collective, then a faulted
    // segment: seeded transient chunk errors plus two x16 derates
    // landing while its first collective is in flight.
    const std::vector<CollectiveStep> clean = {
        {Collective::allReduce, Algorithm::ring, big},
        {Collective::allReduce, Algorithm::direct, big},
        {Collective::allGather, Algorithm::ring, big},
        {Collective::allGather, Algorithm::direct, big},
        {Collective::reduceScatter, Algorithm::ring, big},
        {Collective::reduceScatter, Algorithm::direct, big},
        {Collective::allToAll, Algorithm::direct, a2a},
        {Collective::allToAll, Algorithm::ring, a2a},
    };
    const std::vector<CollectiveStep> faulted = {
        {Collective::allReduce, Algorithm::ring, big},
        {Collective::allReduce, Algorithm::direct, big},
        {Collective::allGather, Algorithm::direct, big},
        {Collective::allToAll, Algorithm::direct, a2a},
    };

    Result r;
    const Usage t0 = Usage::now();
    SimObject root(nullptr, "bench");
    EventQueue eq;
    std::unique_ptr<soc::NodeTopology> topo;
    std::unique_ptr<comm::CommGroup> group;
    {
        auto s = tr.span("bench.setup");
        {
            auto s2 = tr.span("soc.build");
            topo = soc::NodeTopology::mi300xOctoNode(&root);
        }
        auto s3 = tr.span("comm.build");
        comm::CommParams params;
        params.chunk_bytes = 1 * MiB;
        // A retransmit timeout that covers the per-link chunk
        // backlog, as the CLI fault subcommand uses.
        params.retry_timeout = 200'000'000;
        group = std::make_unique<comm::CommGroup>(
            topo.get(), "comm", topo->network(), topo->deviceRanks(),
            &eq, params);
    }
    r.setup = Usage::now() - t0;
    r.announce(static_cast<unsigned>(clean.size() + faulted.size()), 3);

    fabric::Network &net = *topo->network();
    const StatIndex before(root);
    const double bytes_before = before.sum("bytes_moved");
    const double msgs_before = net.messages.value();

    std::vector<comm::OpHandle> ops;
    std::unique_ptr<fault::FaultInjector> injector;
    auto issue = [&](const CollectiveStep &st) {
        auto s = tr.span("comm.issue");
        const Tick now = eq.curTick();
        switch (st.kind) {
          case Collective::allReduce:
            ops.push_back(group->allReduce(now, st.bytes, st.algo));
            break;
          case Collective::allGather:
            ops.push_back(group->allGather(now, st.bytes, st.algo));
            break;
          case Collective::reduceScatter:
            ops.push_back(group->reduceScatter(now, st.bytes, st.algo));
            break;
          default:
            ops.push_back(group->allToAll(now, st.bytes, st.algo));
            break;
        }
    };
    auto drain = [&] {
        auto s = tr.span("comm.drain");
        group->waitAll();
    };

    const Usage run0 = Usage::now();
    {
        auto s = tr.span("bench.run");
        for (const auto &st : clean) {
            issue(st);
            drain();
        }
        {
            auto s2 = tr.span("fault.arm");
            // The seed drives the transient-error draw. The derated
            // pairs are fixed: one ring-neighbour link, one that only
            // direct algorithms use. A seeded choice would move the
            // simulated makespan by ~30% from seed to seed.
            fault::FaultPlan plan;
            plan.seed = seed;
            plan.chunk_error_rate = 0.01;
            const Tick at = eq.curTick();
            const char *pairs[2][2] = {{"mi300x0", "mi300x1"},
                                       {"mi300x4", "mi300x6"}};
            for (unsigned k = 0; k < 2; ++k) {
                fault::LinkFault lf;
                lf.node_a = pairs[k][0];
                lf.node_b = pairs[k][1];
                lf.at = at + (k + 1) * 50'000'000;
                lf.derate = 0.5;
                plan.link_faults.push_back(lf);
            }
            injector = std::make_unique<fault::FaultInjector>(
                &root, "faults", plan, &eq);
            injector->attachNetwork(&net);
            injector->attachCommGroup(group.get());
            injector->arm();
        }
        for (const auto &st : faulted) {
            issue(st);
            drain();
        }
    }
    r.run = Usage::now() - run0;

    // Outputs and invariants.
    double link_bytes = 0;
    double weighted_bw = 0;
    double data_bytes = 0;
    r.ops = static_cast<unsigned>(ops.size());
    for (const auto &op : ops) {
        if (!op->done()) {
            ++r.failed_ops;
            continue;
        }
        link_bytes += static_cast<double>(op->linkBytes());
        data_bytes += static_cast<double>(op->dataBytes());
        weighted_bw += static_cast<double>(op->dataBytes()) *
                       op->algoBandwidth();
    }
    const StatIndex after(root);
    r.check("every collective retires", r.failed_ops == 0);
    r.check("sum of op linkBytes equals link bytes_moved delta",
            link_bytes == after.sum("bytes_moved") - bytes_before);
    r.check("both derates applied",
            injector->links_derated.value() == 2.0);

    r.sim = {{"sim_s", secondsFromTicks(eq.curTick())},
             {"algbw_gbps", weighted_bw / data_bytes / 1e9}};
    addTreeCounters(r, root);
    r.counters.emplace_back("comm.tasks",
                            net.messages.value() - msgs_before);
    addQueueCounters(r, eq);
    return r;
}

// --------------------------------------------------------------------
// serving_tp8 / serving_kv
// --------------------------------------------------------------------

/** Highest percentile of a fixed ladder with >= 10 samples above
 *  its nearest-rank sample; 50 when the sample is that small. */
double
tailPercentile(std::uint64_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n >= rank + 10)
            return p;
    }
    return 50.0;
}

Result
runServing(const serve::ScenarioParams &p, Tracer &tr)
{
    Result r;
    const Usage t0 = Usage::now();
    const serve::ServingConfig cfg = serve::scenarioConfig(p);
    EventQueue eq;
    SimObject root(nullptr, "serving", &eq);
    std::unique_ptr<soc::NodeTopology> topo;
    std::unique_ptr<comm::CommGroup> group;
    std::unique_ptr<mem::HbmSubsystem> hbm;
    std::unique_ptr<serve::ServingEngine> engine;
    {
        auto s = tr.span("bench.setup");
        // The wiring of serve::runServingScenario, one public piece
        // at a time so each layer's construction is its own span.
        if (cfg.tp > 1) {
            {
                auto s2 = tr.span("soc.build");
                topo = soc::NodeTopology::mi300xOctoNode(&root);
            }
            auto s3 = tr.span("comm.build");
            std::vector<fabric::NodeId> ranks;
            for (unsigned i = 0; i < cfg.tp; ++i)
                ranks.push_back(topo->nodeId(i));
            comm::CommParams cp;
            cp.chunk_bytes = 1 * MiB;
            cp.retry_timeout = 200'000'000;
            group = std::make_unique<comm::CommGroup>(
                topo.get(), "tp_comm", topo->network(),
                std::move(ranks), &eq, cp);
        }
        {
            auto s2 = tr.span("mem.hbm_build");
            mem::HbmSubsystemParams hp;
            hp.capacity_bytes = cfg.mem_capacity;
            hbm = std::make_unique<mem::HbmSubsystem>(&root, "hbm", hp);
        }
        std::vector<workloads::ServingRequestSpec> trace;
        {
            auto s2 = tr.span("workloads.gen");
            trace = serve::scenarioTrace(p);
            // Condition the Poisson stream on its count: stretch it so
            // the last arrival lands at num_requests / load_rps. The
            // gaps keep their seeded proportions, but the offered
            // window no longer varies with the seed.
            const double window = static_cast<double>(
                ticksFromSeconds(p.num_requests / p.load_rps));
            const double last =
                static_cast<double>(trace.back().arrival);
            for (auto &spec : trace) {
                spec.arrival = static_cast<Tick>(
                    static_cast<double>(spec.arrival) * window / last);
            }
        }
        auto s3 = tr.span("serve.build");
        engine = std::make_unique<serve::ServingEngine>(
            &root, "engine", &eq, cfg, std::move(trace), group.get(),
            hbm.get());
        engine->start();
    }
    r.setup = Usage::now() - t0;
    r.announce(p.num_requests, 4);

    const Usage run0 = Usage::now();
    {
        auto s = tr.span("bench.run");
        auto s2 = tr.span("serve.run");
        eq.run();
    }
    r.run = Usage::now() - run0;

    const auto &reqs = engine->requests();
    r.ops = p.num_requests;
    for (const auto &q : reqs) {
        const bool ok = q.state == serve::RequestState::finished &&
                        q.generated == q.output_tokens &&
                        q.first_token >= q.arrival &&
                        q.finish >= q.first_token;
        if (!ok)
            ++r.failed_ops;
    }
    r.failed_ops += p.num_requests - static_cast<unsigned>(
                        std::min<std::size_t>(reqs.size(),
                                              p.num_requests));
    const std::uint64_t n = engine->ttft_s.count();
    r.check("every request completes",
            r.failed_ops == 0 && engine->allDone());
    r.check("TTFT sample count equals request count",
            n == p.num_requests);
    r.check("TPOT sample count equals request count",
            engine->tpot_s.count() == p.num_requests);
    r.check("no KV blocks resident at the end",
            engine->kvCache().usedBlocks() == 0);

    const double tail = tailPercentile(n);
    r.sim = {{"sim_s", secondsFromTicks(engine->makespan())},
             {"ttft_p50_s", engine->ttft_s.percentile(50)},
             {"ttft_tail_s", engine->ttft_s.percentile(tail)},
             {"tpot_p50_s", engine->tpot_s.percentile(50)},
             {"tpot_tail_s", engine->tpot_s.percentile(tail)},
             {"tokens_per_s", engine->tokens_per_s.value()},
             {"slo_attainment", engine->slo_attainment.value()},
             {"tail_pct", tail},
             {"samples", static_cast<double>(n)}};
    addTreeCounters(r, root);
    r.counters.emplace_back(
        "comm.tasks", topo ? topo->network()->messages.value() : 0.0);
    addQueueCounters(r, eq);
    r.counters.insert(
        r.counters.end(),
        {{"serve.iterations", engine->iterations.value()},
         {"serve.comm_iterations", engine->comm_iterations.value()},
         {"serve.kv_reserve_failures",
          static_cast<double>(engine->kvCache().reserveFailures())},
         {"serve.evictions",
          static_cast<double>(engine->batcher().evictions())},
         {"serve.recompute_tokens",
          static_cast<double>(engine->batcher().recomputeTokens())}});
    return r;
}

serve::ScenarioParams
servingTp8(std::uint64_t seed, bool tiny)
{
    serve::ScenarioParams p;
    p.device = "mi300x";
    p.tp = 8;
    p.seed = seed;
    p.load_rps = 100.0;
    p.num_requests = tiny ? 16 : 100;
    p.input_tokens = 128;
    p.output_tokens = 16;
    return p;
}

serve::ScenarioParams
servingKv(std::uint64_t seed, bool tiny)
{
    serve::ScenarioParams p;
    p.device = "baseline";
    p.tp = 1;
    p.seed = seed;
    p.load_rps = 0.55;
    p.num_requests = tiny ? 64 : 20000;
    p.input_tokens = 3584;
    p.output_tokens = 256;
    return p;
}

// --------------------------------------------------------------------
// apu_coupled
// --------------------------------------------------------------------

Result
runApu(std::uint64_t seed, bool tiny, Tracer &tr)
{
    Result r;
    const Usage t0 = Usage::now();
    std::unique_ptr<core::ApuSystem> sys;
    workloads::Workload solver;
    {
        auto s = tr.span("bench.setup");
        {
            auto s2 = tr.span("core.build");
            sys = std::make_unique<core::ApuSystem>(soc::mi300aConfig());
        }
        auto s3 = tr.span("workloads.gen");
        // The seed jitters the cell count by under 1%, which moves
        // every phase's footprint and address layout.
        Rng rng(seed);
        const std::uint64_t cells =
            (tiny ? 2'000 : 12'000) +
            8 * rng.nextBounded(16);
        solver = workloads::cfdSolver(cells, tiny ? 1 : 2);
        for (auto &ph : solver.phases)
            ph.grid_workgroups = tiny ? 128 : 1024;
    }
    r.setup = Usage::now() - t0;
    r.announce(static_cast<unsigned>(solver.phases.size()), 3);

    const Usage run0 = Usage::now();
    core::RunReport rep;
    {
        auto s = tr.span("bench.run");
        auto s2 = tr.span("core.run");
        rep = sys->run(solver, 1, hsa::DistributionPolicy::roundRobin,
                       true);
    }
    r.run = Usage::now() - run0;

    r.ops = static_cast<unsigned>(solver.phases.size());
    double phase_sum = 0;
    for (const auto &ph : rep.phases) {
        phase_sum += ph.total_s;
        if (!(ph.total_s > 0))
            ++r.failed_ops;
    }
    r.failed_ops += r.ops - static_cast<unsigned>(std::min<std::size_t>(
                                rep.phases.size(), r.ops));
    r.check("every phase takes simulated time", r.failed_ops == 0);
    r.check("phase times sum to the report total",
            std::fabs(phase_sum - rep.total_s) <= 1e-9 * rep.total_s);
    r.check("report total equals elapsed simulated time",
            std::fabs(sys->elapsedSeconds() - rep.total_s) <=
                1e-9 * rep.total_s);

    r.sim = {{"sim_s", rep.total_s},
             {"energy_j", rep.totalEnergyJoules()}};
    addTreeCounters(r, *sys);
    r.counters.emplace_back("comm.tasks", 0.0);
    addQueueCounters(r, sys->eventQueue());
    return r;
}

// --------------------------------------------------------------------
// host speed reference
// --------------------------------------------------------------------

/** CPU seconds of the two reference kernels. */
struct HostSpeed
{
    double user_s = 0;      ///< event-heap loop over a 16 MiB table
    double fault_s = 0;     ///< first touch of 16 MiB of fresh pages

    HostSpeed &
    operator+=(const HostSpeed &o)
    {
        user_s += o.user_s;
        fault_s += o.fault_s;
        return *this;
    }
};

/**
 * Time fixed work whose cost tracks the host's current speed: the
 * same user-mode mix the simulator runs (a binary-heap event loop
 * doing random reads from a table larger than the caches) and the
 * kernel work it triggers (minor faults on fresh anonymous pages).
 * Memory comes from mmap, not malloc, so the simulator's heap state
 * does not leak in and the kernels do not warm the heap for anything.
 */
HostSpeed
hostSpeed()
{
    auto map = [](std::size_t len) {
        void *p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            std::perror("e2e_driver: mmap");
            std::exit(1);
        }
        return static_cast<unsigned char *>(p);
    };
    HostSpeed hs;

    const std::size_t fault_len = 16u << 20;
    const Usage f0 = Usage::now();
    unsigned char *pages = map(fault_len);
    for (std::size_t i = 0; i < fault_len; i += 4096)
        pages[i] = 1;
    munmap(pages, fault_len);
    const Usage f = Usage::now() - f0;
    hs.fault_s = f.user + f.sys;

    const std::size_t n = 2u << 20;
    auto *table = reinterpret_cast<std::uint64_t *>(
        map(n * sizeof(std::uint64_t)));
    for (std::size_t i = 0; i < n; ++i)
        table[i] = i * 2654435761u;
    std::vector<std::uint64_t> heap;
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t acc = 0;
    auto xorshift = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const Usage u0 = Usage::now();
    for (int i = 0; i < 2048; ++i) {
        heap.push_back(xorshift());
        std::push_heap(heap.begin(), heap.end());
    }
    for (int i = 0; i < 150000; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        const std::uint64_t v = heap.back();
        heap.pop_back();
        acc += table[v % n];
        heap.push_back(v - (xorshift() & 0xffff) + acc % 7);
        std::push_heap(heap.begin(), heap.end());
    }
    const Usage u = Usage::now() - u0;
    hs.user_s = u.user + u.sys;
    munmap(table, n * sizeof(std::uint64_t));
    // Keep the loop's result observable.
    if (acc == 1)
        std::fprintf(stderr, "\n");
    return hs;
}

// --------------------------------------------------------------------

void
printPairs(const char *key,
           const std::vector<std::pair<std::string, double>> &kv)
{
    std::printf(",\"%s\":{", key);
    for (std::size_t i = 0; i < kv.size(); ++i) {
        std::printf("%s\"%s\":%.17g", i ? "," : "", kv[i].first.c_str(),
                    kv[i].second);
    }
    std::printf("}");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: e2e_driver --workload collectives_octo|"
                 "serving_tp8|serving_kv|apu_coupled --seed N "
                 "[--trace 0|1] [--size full|tiny]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool trace = false;
    bool tiny = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !val.empty();
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            trace = val == "1";
        } else if (arg == "--size" && (val == "full" || val == "tiny")) {
            tiny = val == "tiny";
        } else {
            usage();
        }
    }
    if (!have_seed)
        usage();

    // Host speed is sampled on both sides of the workload, so a change
    // of speed during the repetition is seen half by each sample.
    HostSpeed hs = hostSpeed();
    Tracer tr(trace);
    Result r;
    if (workload == "collectives_octo")
        r = runCollectives(seed, tiny, tr);
    else if (workload == "serving_tp8")
        r = runServing(servingTp8(seed, tiny), tr);
    else if (workload == "serving_kv")
        r = runServing(servingKv(seed, tiny), tr);
    else if (workload == "apu_coupled")
        r = runApu(seed, tiny, tr);
    else
        usage();

    // Peak RSS is read before the second sample. The first one maps at
    // most 16 MiB at a time, below every full-size workload's own peak.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    hs += hostSpeed();
    unsigned failed_checks = 0;
    for (const auto &c : r.checks)
        failed_checks += c.second ? 0 : 1;

    std::printf("{\"workload\":\"%s\",\"seed\":%llu", workload.c_str(),
                static_cast<unsigned long long>(seed));
    std::printf(",\"setup_wall_s\":%.9g,\"setup_user_s\":%.9g"
                ",\"setup_sys_s\":%.9g,\"wall_s\":%.9g,\"user_s\":%.9g"
                ",\"sys_s\":%.9g,\"faults\":%.17g,\"peak_rss_mb\":%.9g"
                ",\"ref_user_s\":%.9g,\"ref_fault_s\":%.9g",
                r.setup.wall, r.setup.user, r.setup.sys, r.run.wall,
                r.run.user, r.run.sys, r.run.faults,
                static_cast<double>(ru.ru_maxrss) / 1024.0, hs.user_s,
                hs.fault_s);
    std::printf(",\"attempted\":%u,\"failed\":%u",
                r.ops + static_cast<unsigned>(r.checks.size()),
                r.failed_ops + failed_checks);
    printPairs("sim", r.sim);
    printPairs("counters", r.counters);
    std::printf(",\"checks\":{");
    for (std::size_t i = 0; i < r.checks.size(); ++i) {
        std::printf("%s\"%s\":%s", i ? "," : "",
                    r.checks[i].first.c_str(),
                    r.checks[i].second ? "true" : "false");
    }
    std::printf("},\"spans\":{");
    bool first = true;
    for (const auto &[name, tot] : tr.totals()) {
        std::printf("%s\"%s\":{\"s\":%.9g,\"user_s\":%.9g,"
                    "\"sys_s\":%.9g,\"faults\":%.17g,\"calls\":%u}",
                    first ? "" : ",", name.c_str(), tot.self.wall,
                    tot.self.user, tot.self.sys, tot.self.faults,
                    tot.calls);
        first = false;
    }
    std::printf("}}\n");
    return 0;
}

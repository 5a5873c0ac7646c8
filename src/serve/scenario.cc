#include "serve/scenario.hh"

#include <memory>
#include <sstream>
#include <utility>

#include "fault/fault_injector.hh"
#include "serve/serving_engine.hh"
#include "sim/logging.hh"
#include "soc/node_topology.hh"

namespace ehpsim
{
namespace serve
{

ServingConfig
scenarioConfig(const ScenarioParams &p)
{
    ServingConfig cfg;
    if (p.device == "mi300x") {
        cfg = mi300xServingConfig(p.tp);
    } else if (p.device == "baseline") {
        cfg = baselineGpuServingConfig(p.tp);
    } else {
        fatal("serving scenario: unknown device '", p.device,
              "' (expected mi300x or baseline)");
    }
    cfg.token_budget = p.token_budget;
    cfg.max_batch = p.max_batch;
    cfg.kv_blocks_override = p.kv_blocks_override;
    return cfg;
}

std::vector<workloads::ServingRequestSpec>
scenarioTrace(const ScenarioParams &p)
{
    workloads::ArrivalParams ap;
    ap.seed = p.seed;
    ap.num_requests = p.num_requests;
    ap.rate_per_s = p.load_rps;
    ap.mean_input_tokens = p.input_tokens;
    ap.mean_output_tokens = p.output_tokens;
    if (p.bursty)
        return workloads::mmppArrivals(ap, workloads::MmppParams{});
    return workloads::poissonArrivals(ap);
}

namespace
{

/**
 * Every component of one serving scenario, owned together and built
 * in a fixed order. The checkpoint path depends on that order being
 * reproducible: restoreWorld() walks the object tree in registration
 * order, so the fresh world it restores into must construct the same
 * components in the same sequence as the warm world it mirrors.
 */
struct ScenarioWorld
{
    EventQueue eq;
    SimObject root;
    std::unique_ptr<soc::NodeTopology> topo;
    std::unique_ptr<comm::CommGroup> group;
    std::unique_ptr<mem::HbmSubsystem> hbm;
    std::unique_ptr<ServingEngine> engine;
    std::unique_ptr<fault::FaultInjector> injector;

    /**
     * Build and attach everything, but neither arm() nor start():
     * a warm world does that next; a restored world must not (its
     * pending events replay from the blob). The attachments are
     * made either way — they install the stateless chunk fault
     * hook, which is configuration, not state.
     */
    ScenarioWorld(const ScenarioParams &p, const ServingConfig &cfg)
        : root(nullptr, "serving", &eq)
    {
        // TP > 1 shards over the first tp sockets of the Fig. 18b
        // octo node; the decode/prefill all-reduces run over its IF
        // links.
        if (cfg.tp > 1) {
            topo = soc::NodeTopology::mi300xOctoNode(&root);
            std::vector<fabric::NodeId> ranks;
            for (unsigned i = 0; i < cfg.tp; ++i)
                ranks.push_back(topo->nodeId(i));
            comm::CommParams cp;
            cp.chunk_bytes = 1 * MiB;
            // Transient chunk errors back off from 200 us so a
            // faulted sweep degrades service without fatal retry
            // exhaustion.
            cp.retry_timeout = 200'000'000;
            group = std::make_unique<comm::CommGroup>(
                topo.get(), "tp_comm", topo->network(),
                std::move(ranks), &eq, cp);
        }

        mem::HbmSubsystemParams hp;
        hp.capacity_bytes = cfg.mem_capacity;
        hbm = std::make_unique<mem::HbmSubsystem>(&root, "hbm", hp);

        engine = std::make_unique<ServingEngine>(
            &root, "engine", &eq, cfg, scenarioTrace(p), group.get(),
            hbm.get());

        injector = std::make_unique<fault::FaultInjector>(
            &root, "faults", p.faults, &eq);
        if (topo)
            injector->attachNetwork(topo->network());
        if (group)
            injector->attachCommGroup(group.get());
        injector->attachHbm(hbm.get());
    }
};

ScenarioResult
summarize(const ScenarioParams &p, ScenarioWorld &w)
{
    ServingEngine &engine = *w.engine;
    if (!engine.allDone())
        fatal("serving scenario: run drained with ",
              engine.completed(), "/", p.num_requests,
              " requests finished");

    ScenarioResult r;
    r.ttft_p50_s = engine.ttft_s.percentile(50);
    r.ttft_p95_s = engine.ttft_s.percentile(95);
    r.ttft_p99_s = engine.ttft_s.percentile(99);
    r.tpot_p50_s = engine.tpot_s.percentile(50);
    r.tpot_p95_s = engine.tpot_s.percentile(95);
    r.tpot_p99_s = engine.tpot_s.percentile(99);
    r.ttft_samples = engine.ttft_s.count();
    r.tpot_samples = engine.tpot_s.count();
    r.tokens_per_s = engine.tokens_per_s.value();
    r.slo_attainment = engine.slo_attainment.value();
    r.mean_queue_depth = engine.queue_depth.mean();
    r.max_queue_depth = engine.queue_depth.max();
    r.kv_peak_blocks = engine.kvCache().peakUsedBlocks();
    r.kv_total_blocks = engine.kvCache().totalBlocks();
    r.kv_reserve_failures = engine.kvCache().reserveFailures();
    r.kv_peak_occupancy =
        r.kv_total_blocks
            ? static_cast<double>(r.kv_peak_blocks)
                  / static_cast<double>(r.kv_total_blocks)
            : 0.0;
    r.evictions = engine.batcher().evictions();
    r.recompute_tokens = engine.batcher().recomputeTokens();
    r.chunk_retries =
        w.group ? static_cast<std::uint64_t>(
                      w.group->chunk_retries.value())
                : 0;
    r.channels_dark =
        static_cast<std::uint64_t>(w.hbm->channels_dark.value());
    r.completed = engine.completed();
    r.iterations =
        static_cast<std::uint64_t>(engine.iterations.value());
    r.makespan_s = secondsFromTicks(engine.makespan());

    std::ostringstream stats;
    json::JsonWriter sw(stats);
    w.root.dumpJsonStats(sw);
    r.stats_json = stats.str();

    return r;
}

} // namespace

std::string
checkpointServingScenario(const ScenarioParams &p)
{
    if (p.checkpoint_at == 0)
        fatal("serving scenario: checkpointServingScenario needs "
              "checkpoint_at > 0");

    const ServingConfig cfg = scenarioConfig(p);
    ScenarioWorld w(p, cfg);
    w.injector->arm();
    w.engine->start();

    w.eq.run(p.checkpoint_at);
    // A legal save needs every pending event keyed; comm chunk and
    // retry events are not, so stepping until they drain also means
    // any in-flight collective has retired.
    while (!w.eq.allPendingKeyed() && !w.eq.empty())
        w.eq.step();
    return saveWorld(w.eq, w.root);
}

ScenarioResult
resumeServingScenario(const ScenarioParams &p,
                      const std::string &blob)
{
    const ServingConfig cfg = scenarioConfig(p);
    ScenarioWorld w(p, cfg);
    // No arm(), no start(): the injector's pending timed faults and
    // the engine's wake/finish events replay from the blob.
    restoreWorld(blob, w.eq, w.root);
    w.eq.run();
    return summarize(p, w);
}

ScenarioResult
runServingScenario(const ScenarioParams &p)
{
    if (p.checkpoint_at > 0)
        return resumeServingScenario(p,
                                     checkpointServingScenario(p));

    const ServingConfig cfg = scenarioConfig(p);
    ScenarioWorld w(p, cfg);
    w.injector->arm();
    w.engine->start();
    w.eq.run();
    return summarize(p, w);
}

void
dumpScenario(json::JsonWriter &jw, const ScenarioParams &p,
             const ScenarioResult &r)
{
    jw.beginObject();
    jw.key("params");
    jw.beginObject();
    jw.kv("device", p.device);
    jw.kv("tp", p.tp);
    jw.kv("load_rps", p.load_rps);
    jw.kv("num_requests", p.num_requests);
    jw.kv("input_tokens", p.input_tokens);
    jw.kv("output_tokens", p.output_tokens);
    jw.kv("seed", p.seed);
    jw.kv("bursty", p.bursty);
    jw.kv("token_budget", p.token_budget);
    jw.kv("max_batch", p.max_batch);
    jw.kv("faults", p.faults.describe());
    jw.endObject();
    jw.kv("ttft_p50_s", r.ttft_p50_s);
    jw.kv("ttft_p95_s", r.ttft_p95_s);
    jw.kv("ttft_p99_s", r.ttft_p99_s);
    jw.kv("tpot_p50_s", r.tpot_p50_s);
    jw.kv("tpot_p95_s", r.tpot_p95_s);
    jw.kv("tpot_p99_s", r.tpot_p99_s);
    // Sample counts disambiguate the percentiles above: an empty
    // Percentile reports 0, which is indistinguishable from a real
    // sub-resolution latency without them.
    jw.kv("ttft_samples", r.ttft_samples);
    jw.kv("tpot_samples", r.tpot_samples);
    jw.kv("tokens_per_s", r.tokens_per_s);
    jw.kv("slo_attainment", r.slo_attainment);
    jw.kv("mean_queue_depth", r.mean_queue_depth);
    jw.kv("max_queue_depth", r.max_queue_depth);
    jw.kv("kv_peak_occupancy", r.kv_peak_occupancy);
    jw.kv("kv_peak_blocks", r.kv_peak_blocks);
    jw.kv("kv_total_blocks", r.kv_total_blocks);
    jw.kv("kv_reserve_failures", r.kv_reserve_failures);
    jw.kv("evictions", r.evictions);
    jw.kv("recompute_tokens", r.recompute_tokens);
    jw.kv("chunk_retries", r.chunk_retries);
    jw.kv("channels_dark", r.channels_dark);
    jw.kv("completed", r.completed);
    jw.kv("iterations", r.iterations);
    jw.kv("makespan_s", r.makespan_s);
    jw.key("stats");
    jw.rawValue(r.stats_json);
    jw.endObject();
}

} // namespace serve
} // namespace ehpsim

/**
 * @file
 * One-call serving scenarios: wire arrival trace, engine, KV cache,
 * octo-node fabric, and fault injector on a single EventQueue, run
 * to completion, and summarize.
 *
 * This is the layer the serving bench, the `ehpsim_cli serve`
 * subcommand, and the tests all share, so every consumer replays the
 * exact same wiring: deterministic arrivals from a seed, a real
 * CommGroup over the Fig. 18b node for TP > 1, an HbmSubsystem whose
 * channel blackouts shrink the KV pool, and a FaultInjector armed
 * with the caller's plan. dumpScenario() serializes both the summary
 * metrics and the full stats tree, so byte-comparing two documents
 * checks the entire simulation history.
 */

#ifndef EHPSIM_SERVE_SCENARIO_HH
#define EHPSIM_SERVE_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "serve/serving_config.hh"
#include "sim/json.hh"
#include "sim/types.hh"
#include "workloads/arrivals.hh"

namespace ehpsim
{
namespace serve
{

struct ScenarioParams
{
    /** "mi300x" (192 GB, vLLM FP16) or "baseline" (80 GB,
     *  TensorRT-LLM FP8). */
    std::string device = "mi300x";
    unsigned tp = 1;
    /** Offered load, requests per second (open loop). */
    double load_rps = 1.0;
    unsigned num_requests = 32;
    unsigned input_tokens = 1024;
    unsigned output_tokens = 256;
    std::uint64_t seed = 1;
    /** MMPP bursty arrivals instead of plain Poisson. */
    bool bursty = false;

    unsigned token_budget = 2048;
    unsigned max_batch = 64;
    /** Test hook: force a tiny KV pool to exercise eviction. */
    std::uint64_t kv_blocks_override = 0;

    /**
     * Checkpoint/fast-forward rehearsal (DESIGN.md §16): when > 0,
     * run to this tick, quiesce, snapshot the world, and finish
     * the run on a freshly built world restored from that snapshot.
     * Output is byte-identical to a straight-through run; the knob
     * trades wall time only and is deliberately NOT serialized by
     * dumpScenario() so the two documents can be cmp'd.
     */
    Tick checkpoint_at = 0;

    fault::FaultPlan faults;
};

struct ScenarioResult
{
    double ttft_p50_s = 0, ttft_p95_s = 0, ttft_p99_s = 0;
    double tpot_p50_s = 0, tpot_p95_s = 0, tpot_p99_s = 0;
    /**
     * Samples behind the percentiles above. Percentile::percentile
     * returns 0 on an empty stat, so a consumer reading a 0 latency
     * must check these to tell "no completed requests" from a
     * genuine sub-resolution latency.
     */
    std::uint64_t ttft_samples = 0;
    std::uint64_t tpot_samples = 0;
    double tokens_per_s = 0;
    double slo_attainment = 0;
    double mean_queue_depth = 0;
    double max_queue_depth = 0;
    double kv_peak_occupancy = 0;
    std::uint64_t kv_peak_blocks = 0;
    std::uint64_t kv_total_blocks = 0;
    std::uint64_t kv_reserve_failures = 0;
    std::uint64_t evictions = 0;
    std::uint64_t recompute_tokens = 0;
    std::uint64_t chunk_retries = 0;
    std::uint64_t channels_dark = 0;
    std::uint64_t completed = 0;
    std::uint64_t iterations = 0;
    double makespan_s = 0;
    /** The root stats tree, serialized deterministically. */
    std::string stats_json;
};

/** The ServingConfig a scenario resolves to (exposed for tests). */
ServingConfig scenarioConfig(const ScenarioParams &p);

/** The arrival trace a scenario replays (exposed for tests). */
std::vector<workloads::ServingRequestSpec>
scenarioTrace(const ScenarioParams &p);

/** Build, run to completion, and summarize one scenario. Fatal if
 *  the run stalls before every request finishes. With
 *  p.checkpoint_at > 0, the run round-trips through a snapshot at
 *  that tick (see ScenarioParams::checkpoint_at). */
ScenarioResult runServingScenario(const ScenarioParams &p);

/**
 * Run the scenario serially to p.checkpoint_at (> 0 required),
 * quiesce, and return the saveWorld() blob — the `ehpsim_cli serve
 * --checkpoint` save path, and the warm half of runServingScenario's
 * rehearsal.
 */
std::string checkpointServingScenario(const ScenarioParams &p);

/**
 * Restore @p blob into a freshly built world for @p p and run it to
 * completion. @p p must describe the same scenario
 * the blob was saved from — a mismatched topology or trace is fatal
 * during restore. Fatal on a corrupt or truncated blob.
 */
ScenarioResult resumeServingScenario(const ScenarioParams &p,
                                     const std::string &blob);

/** Write params + metrics + the stats tree as one JSON object. */
void dumpScenario(json::JsonWriter &jw, const ScenarioParams &p,
                  const ScenarioResult &r);

} // namespace serve
} // namespace ehpsim

#endif // EHPSIM_SERVE_SCENARIO_HH

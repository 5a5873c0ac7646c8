/**
 * @file
 * Event-driven cluster-scale LLM serving engine (DESIGN.md §13).
 *
 * The engine replays an open-loop arrival trace through a continuous
 * batcher and a paged KV cache, advancing one batched iteration at a
 * time on the EventQueue. Each iteration's latency comes from a
 * roofline of the batch: a math term over the stack's sustained
 * matrix throughput and a memory term streaming the sharded weights
 * plus the batch's KV context at (possibly fault-degraded) HBM
 * bandwidth. Under tensor parallelism the iteration additionally
 * issues a REAL all-reduce through CommGroup — chunked transfers on
 * the fabric, subject to link faults and retry backoff — and scales
 * the measured time by the model's per-pass all-reduce count.
 *
 * Because everything runs on one EventQueue, the fault injector's
 * link kills, comm chunk errors, and HBM channel blackouts degrade
 * TTFT/TPOT and SLO attainment end to end, with no closed forms in
 * the path.
 */

#ifndef EHPSIM_SERVE_SERVING_ENGINE_HH
#define EHPSIM_SERVE_SERVING_ENGINE_HH

#include <cstdint>
#include <vector>

#include "comm/comm_group.hh"
#include "mem/hbm_subsystem.hh"
#include "serve/batcher.hh"
#include "serve/kv_cache.hh"
#include "serve/request.hh"
#include "serve/serving_config.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "workloads/arrivals.hh"

namespace ehpsim
{
namespace serve
{

class ServingEngine : public SimObject
{
  public:
    /**
     * @param comm TP communicator (required when config.tp > 1; the
     *        engine issues one measured all-reduce per iteration).
     * @param hbm Optional HBM channel liveness: its live-channel ratio
     *        derates bandwidth and shrinks the KV pool on blackout.
     */
    ServingEngine(SimObject *parent, const std::string &name,
                  EventQueue *eq, const ServingConfig &config,
                  std::vector<workloads::ServingRequestSpec> trace,
                  comm::CommGroup *comm = nullptr,
                  mem::HbmSubsystem *hbm = nullptr);

    /** Schedule the first wake-up; then drive the EventQueue. */
    void start();

    bool allDone() const { return finished_ == requests_.size(); }

    std::uint64_t completed() const { return finished_; }

    /** Tick the last request finished (0 until allDone()). */
    Tick makespan() const { return last_finish_; }

    const std::vector<Request> &requests() const { return requests_; }

    KvCacheManager &kvCache() { return kv_; }

    ContinuousBatcher &batcher() { return batcher_; }

    const ServingConfig &config() const { return config_; }

    /** @{ statistics */
    stats::Percentile ttft_s;        ///< time to first token
    stats::Percentile tpot_s;        ///< mean time per output token
    stats::Scalar tokens_generated;
    stats::Scalar iterations;
    stats::Scalar comm_iterations;
    stats::Scalar slo_attained;      ///< met both TTFT and TPOT SLOs
    stats::Scalar slo_missed;
    stats::Average queue_depth;      ///< waiting queue, per iteration
    stats::Average batch_tokens;     ///< scheduled tokens / iteration
    stats::Scalar hbm_derates;       ///< KV-pool rescales observed
    stats::Formula slo_attainment;   ///< attained / completed
    stats::Formula tokens_per_s;     ///< generated / makespan
    /** @} */

    /**
     * @{ checkpoint (DESIGN.md §16): stats + kv/batcher children
     * (base walk), then per-request lifecycle state, the arrival
     * cursor, scheduler flags, HBM derate ratio, finish bookkeeping,
     * and the in-flight iteration plan. The engine's wake and
     * iteration-finish events are KEYED ("serve.wake" /
     * "serve.finish"), replayed by the EventQueue snapshot — a
     * restored world must NOT call start() again.
     */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    /**
     * Scheduler pulse: drain arrivals, fold in HBM degradation,
     * build a plan, and launch it (or sleep until the next arrival).
     * No-op while an iteration is in flight.
     */
    void step();

    /** Launch @p plan: roofline timing plus the measured TP
     *  all-reduce, ending in finishIteration(). */
    void launchIteration(IterationPlan plan);

    /** Commit the in-flight plan's effects at @p now. */
    void finishIteration(Tick now);

    /** Enqueue every arrival with tick <= now. */
    void drainArrivals(Tick now);

    /** Rescale KV pool and bandwidth to the HBM live ratio. */
    void applyHbmDegrade();

    /** Seconds of math + memory for a plan (excludes comm). */
    double iterationSeconds(const IterationPlan &plan) const;

    void finishRequest(Request &r, Tick now);

    /** Schedule the keyed scheduler pulse ("serve.wake") at
     *  @p when; doubles as its replay factory. */
    void scheduleWake(Tick when);

    /** Schedule the keyed iteration completion ("serve.finish") at
     *  @p when; doubles as its replay factory. */
    void scheduleFinish(Tick when);

    ServingConfig config_;
    std::vector<Request> requests_;
    /** Arrival ticks sorted ascending; next_arrival_ indexes it. */
    std::vector<workloads::ServingRequestSpec> trace_;
    std::size_t next_arrival_ = 0;

    KvCacheManager kv_;
    ContinuousBatcher batcher_;
    comm::CommGroup *comm_;
    mem::HbmSubsystem *hbm_;

    /** The one in-flight iteration's plan (engine is sequential). */
    IterationPlan plan_;
    bool busy_ = false;
    bool wake_scheduled_ = false;

    double hbm_ratio_ = 1.0;
    std::uint64_t base_kv_blocks_;
    std::uint64_t finished_ = 0;
    Tick last_finish_ = 0;
};

} // namespace serve
} // namespace ehpsim

#endif // EHPSIM_SERVE_SERVING_ENGINE_HH
